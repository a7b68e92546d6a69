"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import from_edge_arrays
from repro.graph.csr import CSRGraph
from repro.graph.generators.community import planted_partition_graph
from repro.graph.generators.rmat import rmat_graph


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """A 3-cycle: the smallest graph with non-trivial propagation."""
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    return from_edge_arrays(src, dst, 3, symmetrize=True, name="triangle")


@pytest.fixture
def star_graph() -> CSRGraph:
    """A hub with 8 leaves (degree skew in miniature)."""
    src = np.zeros(8, dtype=np.int64)
    dst = np.arange(1, 9, dtype=np.int64)
    return from_edge_arrays(src, dst, 9, symmetrize=True, name="star")


@pytest.fixture
def two_cliques_graph() -> CSRGraph:
    """Two 5-cliques joined by one bridge edge — two obvious communities."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    edges.append((4, 5))
    src = np.array([e[0] for e in edges])
    dst = np.array([e[1] for e in edges])
    return from_edge_arrays(src, dst, 10, symmetrize=True, name="two-cliques")


@pytest.fixture
def community_graph():
    """A planted-partition graph plus its ground truth membership."""
    return planted_partition_graph(400, 8, 10.0, 0.9, seed=7)


@pytest.fixture
def powerlaw_graph() -> CSRGraph:
    """A small R-MAT graph with genuine degree skew."""
    return rmat_graph(9, 6.0, seed=21, name="rmat-small")


@pytest.fixture
def empty_graph() -> CSRGraph:
    """A graph with vertices but no edges."""
    return CSRGraph(
        offsets=np.zeros(6, dtype=np.int64),
        indices=np.empty(0, dtype=np.int64),
        name="empty",
    )


@pytest.fixture(scope="session")
def schema_checker():
    """``benchmarks/check_obs_schema.py`` loaded as a module.

    Resolved from the repo root, so it loads whatever directory pytest
    runs from.
    """
    path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "check_obs_schema.py"
    )
    spec = importlib.util.spec_from_file_location("check_obs_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
