"""One device round: every GPU engine charges the same work the same time.

``GLPEngine``, ``MultiGPUEngine`` and ``HybridEngine`` all run
:func:`repro.core.device_round.device_round` (pick-label map launch, MFL
pass, update-vertex map launch) and build their ``IterationStats`` with
:class:`repro.core.device_round.StepClock`.  These tests pin the
consequences: a one-device multi-GPU run is a GLP run, an all-resident
hybrid run is a GLP run without the device frontier kernels (the hybrid
computes its frontier on the host), and multi-GPU kernel time is the
slowest device's whole round.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine
from repro.algorithms.llp import LayeredLP
from repro.algorithms.seeded import SeededFraudLP
from repro.algorithms.slp import SpeakerListenerLP
from repro.core.device_round import DeviceShare, device_round
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim.device import Device
from repro.kernels.base import GLP_DEFAULT
from tests.kernels.test_golden_fingerprint import iteration_fingerprint

ITERATIONS = 5

GRAPHS = {
    "golden": lambda: rmat_graph(10, 12.0, seed=5, name="golden"),
    "rmat12": lambda: rmat_graph(12, 16.0, seed=1, name="rmat12"),
}

PROGRAMS = {
    "classic": ClassicLP,
    "seeded": lambda: SeededFraudLP({0: 1, 5: 2, 17: 1, 100: 2}),
    "llp": lambda: LayeredLP(gamma=0.5),
    "slp": lambda: SpeakerListenerLP(seed=3),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def _run(engine, graph, program):
    return engine.run(
        graph,
        PROGRAMS[program](),
        max_iterations=ITERATIONS,
        stop_on_convergence=False,
    )


def _rounds(timeline):
    """Split a device timeline into its iterations (each starts with the
    round's ``pick-label`` launch)."""
    rounds = []
    for record in timeline:
        if record.name == "pick-label":
            rounds.append([])
        rounds[-1].append(record)
    return rounds


def _kernel_counters(counters):
    """Counters without the PCIe byte counts the hybrid's label-delta
    streams add."""
    return dataclasses.replace(counters, h2d_bytes=0, d2h_bytes=0)


@pytest.mark.parametrize("frontier", ["dense", "auto"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_one_gpu_multigpu_is_glp(graph, program, frontier):
    glp = _run(GLPEngine(frontier=frontier), graph, program)
    multi = _run(MultiGPUEngine(1, frontier=frontier), graph, program)
    assert np.array_equal(glp.labels, multi.labels)
    assert len(glp.iterations) == len(multi.iterations) == ITERATIONS
    for ref, got in zip(glp.iterations, multi.iterations):
        want = iteration_fingerprint(ref)
        have = iteration_fingerprint(got)
        # GLP's ``seconds`` is a difference of running totals that carry
        # its residency uploads (k1 - k0 + t1 - t0); the multi-GPU model
        # uploads nothing, so its total rounds differently by an ulp.
        del want["seconds"], have["seconds"]
        assert have == want
        assert got.seconds == ref.kernel_seconds + ref.transfer_seconds
        assert math.isclose(got.seconds, ref.seconds, rel_tol=1e-12)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_all_resident_dense_hybrid_charges_glp_kernels(graph, program):
    glp = _run(GLPEngine(), graph, program)
    hybrid_engine = HybridEngine()
    hybrid = _run(hybrid_engine, graph, program)
    assert hybrid_engine.last_stats.num_resident_chunks == (
        hybrid_engine.last_stats.num_chunks
    )
    assert np.array_equal(glp.labels, hybrid.labels)
    for ref, got in zip(glp.iterations, hybrid.iterations):
        assert got.kernel_seconds.hex() == ref.kernel_seconds.hex()
        assert _kernel_counters(got.counters) == _kernel_counters(
            ref.counters
        )


def test_auto_hybrid_is_glp_without_device_frontier_kernels(graph):
    glp_engine, hybrid_engine = GLPEngine(frontier="auto"), HybridEngine(
        frontier="auto"
    )
    glp = _run(glp_engine, graph, "classic")
    hybrid = _run(hybrid_engine, graph, "classic")
    assert np.array_equal(glp.labels, hybrid.labels)
    assert any(
        s.kernel_stats["pass_mode"] == "sparse" for s in glp.iterations
    )
    glp_rounds = _rounds(glp_engine.device.timeline)
    hybrid_rounds = _rounds(hybrid_engine.device.timeline)
    assert len(glp_rounds) == len(hybrid_rounds) == ITERATIONS
    for ref, got, ref_round, got_round in zip(
        glp.iterations, hybrid.iterations, glp_rounds, hybrid_rounds
    ):
        frontier = [r for r in ref_round if r.name.startswith("frontier-")]
        rest = [r for r in ref_round if not r.name.startswith("frontier-")]
        assert [(r.name, r.counters) for r in got_round] == [
            (r.name, r.counters) for r in rest
        ]
        expected = _kernel_counters(got.counters)
        for record in frontier:
            expected.add(record.counters)
        assert expected == _kernel_counters(ref.counters)
        assert got.kernel_stats["pass_mode"] == ref.kernel_stats["pass_mode"]


def test_multigpu_kernel_time_is_slowest_device_round(graph):
    engine = MultiGPUEngine(2, frontier="auto")
    result = _run(engine, graph, "classic")
    per_device = [_rounds(device.timeline) for device in engine.devices]
    assert all(len(rounds) == ITERATIONS for rounds in per_device)
    assert any(
        r.name.startswith("frontier-")
        for rounds in per_device
        for r in rounds[0]
    )
    for index, stats in enumerate(result.iterations):
        slowest = max(
            math.fsum(r.seconds for r in rounds[index])
            for rounds in per_device
        )
        assert math.isclose(stats.kernel_seconds, slowest, rel_tol=1e-9)
        assert stats.counters.kernel_launches == sum(
            len(rounds[index]) for rounds in per_device
        )


def test_dense_pass_keeps_records_only_after_a_dense_pass():
    """A record pays only if a next dense pass reads it: the first dense
    pass of an attempt, or one after a sparse pass, keeps none."""
    graph = rmat_graph(10, 12.0, seed=5, name="golden")
    share = DeviceShare(Device(), graph, GLP_DEFAULT)
    program = ClassicLP()
    labels = program.init_labels(graph)

    def kept():
        assert share.schedules
        return [s.kept is not None for s in share.schedules.values()]

    device_round(share, program, labels)
    assert not any(kept())
    device_round(share, program, labels)
    assert all(kept())
    device_round(share, program, labels, frontier=np.arange(10))
    assert not share.schedules
    device_round(share, program, labels)
    assert not any(kept())
