"""The LP cluster-detection stage.

Runs :class:`~repro.algorithms.seeded.SeededFraudLP` on a window graph from
the seed store's labels, then extracts the "small susceptible clusters" the
downstream stage consumes.  The engine is pluggable — the Figure 7
experiment swaps between GLP (single/multi GPU, hybrid) and the in-house
distributed baseline without touching this stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro import obs
from repro.algorithms.seeded import SeededFraudLP, Seeds
from repro.core.results import LPResult
from repro.errors import PipelineError
from repro.pipeline.window import WindowGraph
from repro.types import LABEL_DTYPE


@dataclass(frozen=True)
class DetectedCluster:
    """One suspicious cluster surfaced by the LP stage."""

    label: int
    #: Window vertex ids of all members (users and products).
    vertices: np.ndarray
    #: Global user ids of the user members.
    users: np.ndarray
    #: Number of seed users that anchored the cluster.
    num_seeds: int


@dataclass
class DetectionResult:
    """Clusters plus the raw LP run for timing analysis."""

    clusters: List[DetectedCluster]
    lp_result: LPResult

    @property
    def lp_seconds(self) -> float:
        return self.lp_result.total_seconds

    def flagged_users(self) -> np.ndarray:
        """Global ids of every user in any detected cluster."""
        if not self.clusters:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([c.users for c in self.clusters]))


class ClusterDetector:
    """Seeded-LP detection over window graphs.

    Parameters
    ----------
    engine:
        Any engine with a ``run(graph, program, ...)`` method (GLPEngine,
        HybridEngine, MultiGPUEngine, a CPU baseline, ...).
    max_iterations:
        LP iteration budget (the paper runs 20).
    max_hops:
        Propagation radius; fraud rings are local, so a small bound keeps
        clusters tight and iteration counts low.
    min_cluster_size / max_cluster_size:
        Size band of "small susceptible clusters" handed downstream.
    retry_policy:
        Serving-grade in-run recovery: forwarded to every engine — the
        configured engine and each ladder rung alike — so transient device
        faults retry from the BSP checkpoint instead of failing the whole
        slide.
    """

    def __init__(
        self,
        engine,
        *,
        max_iterations: int = 20,
        max_hops: Optional[int] = None,
        min_cluster_size: int = 3,
        max_cluster_size: int = 500,
        retry_policy=None,
    ) -> None:
        if min_cluster_size < 1 or max_cluster_size < min_cluster_size:
            raise PipelineError("invalid cluster size band")
        self.engine = engine
        self.max_iterations = max_iterations
        self.max_hops = max_hops
        self.min_cluster_size = min_cluster_size
        self.max_cluster_size = max_cluster_size
        self.retry_policy = retry_policy

    def detect(
        self,
        window: WindowGraph,
        seeds: Union[Seeds, Mapping[int, int]],
        *,
        engine=None,
        initial_frontier: Optional[np.ndarray] = None,
    ) -> DetectionResult:
        """Run seeded LP on ``window`` and extract suspicious clusters.

        ``engine`` overrides the configured engine for this call only —
        the hook :class:`~repro.pipeline.incremental.SlidingWindowDetector`
        uses to run each rung of the degradation ladder without
        rebuilding the detector.

        ``initial_frontier`` is the incremental-slide affected set (see
        :mod:`repro.pipeline.dynlp`); an engine without frontier execution
        (a dense engine, a CPU baseline) ignores it and runs the usual
        full detection.
        """
        seeds = Seeds.of(seeds)
        if not seeds:
            raise PipelineError("seed store contributed no seeds to window")
        run_engine = engine if engine is not None else self.engine
        started = time.perf_counter()
        program = SeededFraudLP(seeds, max_hops=self.max_hops)
        run_kwargs: Dict[str, object] = {"max_iterations": self.max_iterations}
        if initial_frontier is not None:
            run_kwargs["initial_frontier"] = initial_frontier
        if self.retry_policy is not None:
            run_kwargs["retry_policy"] = self.retry_policy
        with obs.span(
            "lp-detect",
            cat="pipeline",
            window=window.graph.name,
            seeds=len(seeds),
        ):
            lp_result = run_engine.run(window.graph, program, **run_kwargs)
        labels = lp_result.labels
        groups = program.clusters(labels)
        # A seed anchors cluster L when both its seed label and its final
        # label are L.  One sort of the anchors' labels counts every
        # cluster's anchors by binary search.
        anchored = labels[seeds.vertices] == seeds.labels
        anchors = np.sort(seeds.labels[anchored])
        group_labels = np.fromiter(
            groups, dtype=LABEL_DTYPE, count=len(groups)
        )
        group_seeds = np.searchsorted(
            anchors, group_labels, side="right"
        ) - np.searchsorted(anchors, group_labels, side="left")

        clusters: List[DetectedCluster] = []
        for (label, members), num_seeds in zip(
            groups.items(), group_seeds.tolist()
        ):
            if not self.min_cluster_size <= members.size <= self.max_cluster_size:
                continue
            users = window.user_of_window_vertex(members)
            users = users[users >= 0]
            clusters.append(
                DetectedCluster(
                    label=int(label),
                    vertices=members,
                    users=users,
                    num_seeds=num_seeds,
                )
            )
        clusters.sort(key=lambda c: c.label)
        m = obs.metrics()
        if m is not None:
            m.observe(
                "pipeline_lp_modeled_seconds", lp_result.total_seconds
            )
            m.observe(
                "pipeline_detect_wall_seconds",
                time.perf_counter() - started,
            )
            m.inc("pipeline_detections_total")
            m.inc("pipeline_clusters_total", len(clusters))
        obs.emit(
            "slide.detect",
            engine=getattr(run_engine, "name", type(run_engine).__name__),
            clusters=len(clusters),
            iterations=lp_result.num_iterations,
            modeled_seconds=lp_result.total_seconds,
        )
        return DetectionResult(clusters=clusters, lp_result=lp_result)
