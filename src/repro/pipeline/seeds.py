"""The black-list seed store.

TaoBao's pipeline "invokes LP with the stored seeds to discover small
susceptible clusters" (Section 5.4).  The store maps known-bad user ids to
cluster labels, persists across windows, and translates global user ids to
per-window vertex ids for the detector.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.algorithms.seeded import Seeds
from repro.errors import PipelineError
from repro.pipeline.window import WindowGraph


class SeedStore:
    """Mapping of black-listed user ids to fraud-cluster labels."""

    def __init__(self, seeds: Optional[Dict[int, int]] = None) -> None:
        self._seeds: Dict[int, int] = {}
        if seeds:
            for user, label in seeds.items():
                self.add(user, label)

    def add(self, user: int, label: int) -> None:
        """Black-list ``user`` under cluster ``label``."""
        if user < 0:
            raise PipelineError("user ids must be non-negative")
        if label < 0:
            raise PipelineError("cluster labels must be non-negative")
        self._seeds[int(user)] = int(label)

    def add_batch(self, users: Iterable[int], labels: Iterable[int]) -> None:
        for user, label in zip(users, labels):
            self.add(int(user), int(label))

    def remove(self, user: int) -> None:
        """Un-blacklist a user (appeals / false-positive cleanup)."""
        self._seeds.pop(int(user), None)

    def __contains__(self, user: int) -> bool:
        return int(user) in self._seeds

    def __len__(self) -> int:
        return len(self._seeds)

    def labels(self) -> Dict[int, int]:
        """A copy of the full user → label mapping."""
        return dict(self._seeds)

    def window_seeds(self, window: WindowGraph) -> Seeds:
        """Translate the store to the window's vertex ids.

        Users absent from the window are silently skipped — their rings may
        simply have been inactive in this period.
        """
        users = np.fromiter(self._seeds.keys(), dtype=np.int64, count=len(self._seeds))
        labels = np.fromiter(self._seeds.values(), dtype=np.int64, count=len(self._seeds))
        vertices = window.window_vertex_of_user(users)
        present = vertices >= 0
        return Seeds(vertices[present], labels[present])
