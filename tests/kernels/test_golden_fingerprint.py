"""Golden fingerprint: labels and every per-iteration statistic, bit for bit.

A fixed set of engine runs — every LP program family, every strategy
preset, both pass kinds, frontier dispatch, hybrid residency,
multi-device partitioning and every CPU baseline — is reduced to its labels digest and the full
:class:`~repro.core.results.IterationStats` of every iteration (seconds as
``float.hex``, every counter, every ``kernel_stats`` entry).  Any change to
a kernel's functional result or to its simulated accounting shows up as a
diff against the committed fixture.

Regenerate the fixture (only when the accounting is meant to change)::

    PYTHONPATH=src python -m tests.kernels.test_golden_fingerprint
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine
from repro.algorithms.llp import LayeredLP
from repro.algorithms.seeded import SeededFraudLP
from repro.algorithms.slp import SpeakerListenerLP
from repro.baselines import (
    InHouseDistributedEngine,
    LigraEngine,
    OMPEngine,
    SerialEngine,
    TigerGraphEngine,
)
from repro.baselines.cpu_serial import BlockAsyncSerialEngine
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.graph.builder import from_edge_arrays
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim.config import TITAN_V
from repro.kernels.base import (
    GLOBAL_BASELINE,
    SMEM_ONLY,
    SMEM_WARP,
    StrategyConfig,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_fingerprint.json"
)

#: Iterations per run; no run stops early.
ITERATIONS = 5


def _graph():
    return rmat_graph(10, 12.0, seed=5, name="golden")


def _weighted_graph():
    graph = _graph()
    src = graph.edge_sources()
    dst = graph.indices
    keep = src < dst
    rng = np.random.default_rng(11)
    weights = rng.integers(1, 8, size=int(keep.sum())).astype(np.float64)
    return from_edge_arrays(
        src[keep],
        dst[keep],
        graph.num_vertices,
        weights=weights,
        symmetrize=True,
        name="golden-weighted",
    )


def _half_resident_spec(graph):
    label_bytes = (graph.num_vertices + 1) * 8
    budget = 4 * label_bytes + int(graph.indices.nbytes * 0.5)
    return TITAN_V.with_memory(int(budget / 0.9) + 1024)


#: A sketch small enough that high-degree vertices overflow the HT, the
#: CMS collides and some vertices take the global fallback.
_TINY_SKETCH = StrategyConfig(
    high_threshold=64, ht_capacity=8, cms_depth=2, cms_width=8
)

#: The LP program families every CPU baseline runs.
_PROGRAMS = {
    "classic": ClassicLP,
    "llp": lambda: LayeredLP(gamma=0.5),
    "slp": lambda: SpeakerListenerLP(seed=3),
    "seeded": lambda: SeededFraudLP({0: 1, 5: 2, 17: 1, 100: 2}),
}

#: ``name -> (engine factory, program factory, graph factory)``.
RUNS = {
    "glp-classic": (GLPEngine, ClassicLP, _graph),
    "glp-llp": (GLPEngine, lambda: LayeredLP(gamma=0.5), _graph),
    "glp-slp": (GLPEngine, lambda: SpeakerListenerLP(seed=3), _graph),
    "glp-weighted": (GLPEngine, ClassicLP, _weighted_graph),
    "glp-global-baseline": (
        lambda: GLPEngine(config=GLOBAL_BASELINE), ClassicLP, _graph
    ),
    "glp-smem-only": (lambda: GLPEngine(config=SMEM_ONLY), ClassicLP, _graph),
    "glp-smem-warp": (lambda: GLPEngine(config=SMEM_WARP), ClassicLP, _graph),
    "glp-thread-per-vertex": (
        lambda: GLPEngine(
            config=StrategyConfig(low_strategy="thread_per_vertex")
        ),
        ClassicLP,
        _graph,
    ),
    "glp-tiny-sketch": (
        lambda: GLPEngine(config=_TINY_SKETCH), ClassicLP, _graph
    ),
    "glp-gsort": (lambda: GLPEngine(pass_kind="gsort"), ClassicLP, _graph),
    "glp-frontier-auto": (
        lambda: GLPEngine(frontier="auto"), ClassicLP, _graph
    ),
    "hybrid-half": (
        lambda: HybridEngine(spec=_half_resident_spec(_graph())),
        ClassicLP,
        _graph,
    ),
    "multigpu-3": (lambda: MultiGPUEngine(3), ClassicLP, _graph),
    **{
        f"{prefix}-{program}": (engine, _PROGRAMS[program], _graph)
        for prefix, engine in (
            ("serial", SerialEngine),
            ("omp", OMPEngine),
            ("distributed", InHouseDistributedEngine),
        )
        for program in _PROGRAMS
    },
    # TG ships classic LP only.
    "tg-classic": (TigerGraphEngine, ClassicLP, _graph),
    # Both reach sparse rounds: iteration 3 changes under |V|/20 vertices
    # (the seeded run's iteration 5 has an empty active set).
    "ligra-classic": (LigraEngine, ClassicLP, _graph),
    "ligra-seeded": (LigraEngine, _PROGRAMS["seeded"], _graph),
    "serial-async-8": (
        lambda: BlockAsyncSerialEngine(num_blocks=8), ClassicLP, _graph
    ),
}


def _plain(value):
    """JSON-safe, bit-exact projection of a statistic."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return value


def iteration_fingerprint(stats) -> dict:
    """Every :class:`IterationStats` field, floats as ``float.hex``."""
    record = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "counters":
            value = dataclasses.asdict(value)
        record[f.name] = _plain(value)
    return record


def run_fingerprint(name: str) -> dict:
    make_engine, make_program, make_graph = RUNS[name]
    result = make_engine().run(
        make_graph(),
        make_program(),
        max_iterations=ITERATIONS,
        stop_on_convergence=False,
    )
    labels = np.ascontiguousarray(result.labels, dtype=np.int64)
    return {
        "labels_sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
        "iterations": [iteration_fingerprint(s) for s in result.iterations],
    }


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_run():
    assert sorted(_load_fixture()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_fingerprint(name):
    assert run_fingerprint(name) == _load_fixture()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(
            {name: run_fingerprint(name) for name in sorted(RUNS)},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
