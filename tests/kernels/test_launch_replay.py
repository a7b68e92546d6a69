"""Launch replay and patching: a dense launch reuses its kept record.

A scheduled dense MFL launch whose input labels (its neighbors' and its
own vertices') did not change since its last execution adds that
execution's counter delta instead of re-running the kernel body; one
whose changed reads touch vertices holding fewer than half its edges
patches the record by re-running the body over those vertices only.
These tests pin that both are invisible — labels, every
``IterationStats`` field, every timeline record and every device event
equal those of a sanitized run, where both are off — and that each fires
exactly where its rule says.
"""

import contextlib

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, analysis
from repro.algorithms.llp import LayeredLP
from repro.algorithms.slp import SpeakerListenerLP
from repro.graph.builder import from_edge_arrays
from repro.graph.generators.rmat import rmat_graph
from repro.gpusim import hooks
from repro.gpusim.device import Device
from repro.kernels import mfl
from repro.kernels.base import KernelContext
from repro.kernels.scheduler import bin_vertices_by_degree
from repro.kernels.warp_centric import run_warp_multi
from repro.resilience import FaultPlan, RetryPolicy, inject
from repro.types import LABEL_DTYPE
from tests.kernels.test_golden_fingerprint import RUNS, iteration_fingerprint

#: Golden-fingerprint runs on the simulated GPU (every one runs dense
#: passes; ``glp-frontier-auto`` mixes in sparse ones).
DENSE_RUNS = sorted(
    name for name in RUNS if name.startswith(("glp-", "hybrid-", "multigpu-"))
)

#: Enough iterations for classic LP to settle on both graphs.
ITERATIONS = 12


def _settling_graph():
    """Classic LP reaches a fixed point here at iteration 4."""
    return rmat_graph(10, 12.0, seed=2, name="settling")


#: The golden graph settles into a two-vertex oscillation (partial
#: replay); the settling graph reaches a fixed point (whole passes
#: replay, the pooled global-hash launch included).
GRAPHS = {"golden": None, "settling": _settling_graph}


class EventLog:
    """A fault-hook subscriber recording every device event in order."""

    def __init__(self):
        self.events = []

    def on_alloc(self, device, nbytes):
        self.events.append(("alloc", device, nbytes))

    def on_transfer(self, device, nbytes, direction):
        self.events.append(("transfer", device, nbytes, direction))

    def on_launch(self, device, name):
        self.events.append(("launch", device, name))


def _sanitized(on):
    """An ambient sanitizer (which turns replay off), or nothing."""
    return analysis.sanitize() if on else contextlib.nullcontext()


def _devices(engine):
    return getattr(engine, "devices", None) or [engine.device]


def _observed_run(name, graph_kind, *, sanitized):
    make_engine, make_program, make_graph = RUNS[name]
    graph = (GRAPHS[graph_kind] or make_graph)()
    engine = make_engine()
    with hooks.installed(hooks.FAULTS, EventLog()) as log:
        with _sanitized(sanitized):
            result = engine.run(
                graph,
                make_program(),
                max_iterations=ITERATIONS,
                stop_on_convergence=False,
            )
    return {
        "labels": result.labels_hash(),
        "iterations": [iteration_fingerprint(s) for s in result.iterations],
        "timeline": [
            [
                (record.name, record.counters, record.seconds.hex())
                for record in device.timeline
            ]
            for device in _devices(engine)
        ],
        "events": log.events,
    }


class _Spy:
    """Records ``aggregate_label_frequencies`` batches: one whole batch
    per executed MFL launch, two equal sub-batches (kept and current
    labels) per patched one, none per replayed one."""

    def __init__(self, monkeypatch):
        self.batches = []
        original = mfl.aggregate_label_frequencies

        def spy(program, batch, current_labels):
            self.batches.append(batch.vertices)
            return original(program, batch, current_labels)

        monkeypatch.setattr(mfl, "aggregate_label_frequencies", spy)

    @property
    def calls(self):
        return len(self.batches)

    def outcomes(self, graph):
        """``(executed, patched)`` launch counts of the default
        configuration's launches over ``graph``."""
        launch_size = np.zeros(graph.num_vertices, dtype=np.int64)
        for vertices in _launch_vertex_sets(graph):
            launch_size[vertices] = vertices.size
        whole = [b.size == launch_size[b[0]] for b in self.batches]
        subs = [b for b, w in zip(self.batches, whole) if not w]
        assert len(subs) % 2 == 0
        for old, new in zip(subs[::2], subs[1::2]):
            assert np.array_equal(old, new)
        return sum(whole), len(subs) // 2


def _launch_vertex_sets(graph):
    """The vertex sets of the default configuration's MFL launches."""
    bins = bin_vertices_by_degree(graph)
    return [part for part in (bins.high, bins.mid, bins.low) if part.size]


def _expected_outcomes(graph, inputs):
    """Per iteration after the first, each launch's outcome by the rule:
    ``replay`` when none of its vertices has a changed own or in-neighbor
    label, ``patch`` when those vertices hold fewer than half its edges,
    else ``execute``.  The first pass keeps no record (no dense pass ran
    before it), so the second executes every launch."""
    launches = _launch_vertex_sets(graph)
    outcomes = [["execute"] * len(launches)]
    for before, now in zip(inputs[1:], inputs[2:]):
        changed = before != now
        row = []
        for vertices in launches:
            batch = mfl.expand_edges(graph, vertices)
            affected = changed[vertices] | np.isin(
                vertices, batch.vertex_ids[changed[batch.neighbor_ids]]
            )
            edges = int(graph.degrees[vertices[affected]].sum())
            if not affected.any():
                row.append("replay")
            elif 2 * edges < batch.num_edges:
                row.append("patch")
            else:
                row.append("execute")
        outcomes.append(row)
    return outcomes


class TestReplayIsInvisible:
    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    @pytest.mark.parametrize("name", DENSE_RUNS)
    def test_equals_sanitized_run(self, name, graph_kind):
        plain = _observed_run(name, graph_kind, sanitized=False)
        sanitized = _observed_run(name, graph_kind, sanitized=True)
        assert plain["labels"] == sanitized["labels"]
        assert plain["iterations"] == sanitized["iterations"]
        assert plain["timeline"] == sanitized["timeline"]
        assert plain["events"] == sanitized["events"]


class TestReplayFires:
    @pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
    def test_executes_exactly_the_launches_whose_reads_changed(
        self, monkeypatch, graph_kind
    ):
        graph = (GRAPHS[graph_kind] or RUNS["glp-classic"][2])()
        spy = _Spy(monkeypatch)
        result = GLPEngine().run(
            graph,
            ClassicLP(),
            max_iterations=ITERATIONS,
            stop_on_convergence=False,
            record_history=True,
        )
        inputs = [ClassicLP().init_labels(graph)] + result.history[:-1]
        outcomes = sum(_expected_outcomes(graph, inputs), [])
        executed, patched = spy.outcomes(graph)
        first_iteration = len(_launch_vertex_sets(graph))
        assert executed == first_iteration + outcomes.count("execute")
        assert patched == outcomes.count("patch")
        # Replay and patch both fired.
        assert "replay" in outcomes and "patch" in outcomes

    def test_golden_oscillation_patches(self, monkeypatch):
        graph = RUNS["glp-classic"][2]()
        spy = _Spy(monkeypatch)
        GLPEngine().run(
            graph,
            ClassicLP(),
            max_iterations=ITERATIONS,
            stop_on_convergence=False,
        )
        low = _launch_vertex_sets(graph)[-1]
        # Iterations 1-3 execute the three launches and iteration 4
        # patches all three.  From iteration 5 on two vertices swap labels
        # every round: the low-degree launch, which reads them, patches
        # (two equal sub-batches of its vertices) and the others replay.
        assert spy.calls == 3 * 3 + 3 * 2 + (ITERATIONS - 4) * 2
        assert spy.outcomes(graph) == (9, 3 + ITERATIONS - 4)
        tail = spy.batches[-2 * (ITERATIONS - 4):]
        assert all(np.isin(b, low).all() and b.size < 10 for b in tail)

    def test_sanitized_run_executes_every_launch(self, monkeypatch):
        graph = _settling_graph()
        spy = _Spy(monkeypatch)
        with _sanitized(True):
            GLPEngine().run(
                graph,
                ClassicLP(),
                max_iterations=ITERATIONS,
                stop_on_convergence=False,
            )
        assert spy.calls == ITERATIONS * len(_launch_vertex_sets(graph))


def _path_and_clique(path_length=50, clique_size=40):
    """A path (low-degree bin) beside a clique (mid-degree bin).

    On the path every vertex takes its left neighbor's label each round,
    so the low bin's reads change for ``path_length`` rounds; the clique
    settles on its smallest id after two rounds.
    """
    src = [np.arange(path_length - 1)]
    dst = [np.arange(1, path_length)]
    clique = np.arange(path_length, path_length + clique_size)
    a, b = np.triu_indices(clique_size, k=1)
    src.append(clique[a])
    dst.append(clique[b])
    graph = from_edge_arrays(
        np.concatenate(src),
        np.concatenate(dst),
        path_length + clique_size,
        symmetrize=True,
        name="path-and-clique",
    )
    return graph, clique


class TestPartialReplay:
    def test_only_the_changing_bin_executes(self, monkeypatch):
        graph, clique = _path_and_clique()
        bins = bin_vertices_by_degree(graph)
        assert np.array_equal(bins.mid, clique)
        assert bins.high.size == 0
        spy = _Spy(monkeypatch)
        result = GLPEngine().run(
            graph, ClassicLP(), max_iterations=8, stop_on_convergence=False
        )
        executed = ["mid" if b[0] in clique else "low" for b in spy.batches]
        # The clique's reads change in iterations 1-3 (its labels settle
        # in iteration 2); the path's reads change every iteration.
        assert executed == ["mid", "low"] * 3 + ["low"] * 5
        reference = GLPEngine(Device(sanitize=True)).run(
            graph, ClassicLP(), max_iterations=8, stop_on_convergence=False
        )
        assert result.labels_hash() == reference.labels_hash()
        assert [iteration_fingerprint(s) for s in result.iterations] == [
            iteration_fingerprint(s) for s in reference.iterations
        ]


class TestKey:
    """Direct launches over one kept schedule: each label the launch reads
    is part of the key."""

    @pytest.fixture()
    def setup(self):
        # Vertices 0-1-2 form a path; vertex 3 has no edges.
        graph = from_edge_arrays(
            np.array([0, 1]), np.array([1, 2]), 4, symmetrize=True
        )
        schedules = {}

        def launch(labels):
            ctx = KernelContext(
                device=Device(),
                graph=graph,
                current_labels=np.asarray(labels, dtype=LABEL_DTYPE),
                program=ClassicLP(),
                schedules=schedules,
            )
            return run_warp_multi(ctx, np.arange(4))

        return launch

    def test_unchanged_reads_replay(self, setup, monkeypatch):
        first = setup([10, 11, 12, 13])
        spy = _Spy(monkeypatch)
        again = setup([10, 11, 12, 13])
        assert spy.calls == 0
        assert np.array_equal(first[0], again[0])

    def test_own_label_of_an_edgeless_vertex_is_read(self, setup, monkeypatch):
        setup([10, 11, 12, 13])
        spy = _Spy(monkeypatch)
        best_labels, best_scores = setup([10, 11, 12, 99])
        # A patch: vertex 3 alone, on the kept and on the current labels.
        assert [b.tolist() for b in spy.batches] == [[3], [3]]
        assert best_labels[3] == 99
        assert best_scores[3] == mfl.NO_SCORE

    def test_neighbor_label_is_read(self, setup, monkeypatch):
        setup([10, 11, 12, 13])
        spy = _Spy(monkeypatch)
        best_labels, _ = setup([10, 11, 5, 13])
        assert spy.calls == 1
        # Vertex 1 now sees labels 10 and 5: the smaller wins the tie.
        assert best_labels[1] == 5


class TestProgramsOutsideTheContract:
    @pytest.mark.parametrize(
        "make_program",
        [lambda: LayeredLP(gamma=0.5), lambda: SpeakerListenerLP(seed=3)],
        ids=["llp", "slp"],
    )
    def test_never_replay(self, monkeypatch, make_program):
        # The clique's reads settle while the path's keep changing: a
        # key over the labels read alone would replay the clique's launch.
        graph, _ = _path_and_clique()
        assert not make_program().frontier_safe
        spy = _Spy(monkeypatch)
        GLPEngine().run(
            graph,
            make_program(),
            max_iterations=ITERATIONS,
            stop_on_convergence=False,
        )
        assert spy.calls == ITERATIONS * len(_launch_vertex_sets(graph))


class TestFaults:
    def test_kernel_fault_at_a_replayed_launch(self, monkeypatch):
        graph = _settling_graph()
        kwargs = dict(max_iterations=ITERATIONS, stop_on_convergence=False)
        reference = GLPEngine().run(graph, ClassicLP(), **kwargs)
        with hooks.installed(hooks.FAULTS, EventLog()) as log:
            GLPEngine().run(graph, ClassicLP(), **kwargs)
        launches = [e[2] for e in log.events if e[0] == "launch"]
        per_iteration = len(launches) // ITERATIONS
        # The first MFL launch of the last iteration replays.
        target = (ITERATIONS - 1) * per_iteration + 2
        assert launches[target - 1] == "smem-cms-ht"

        spy = _Spy(monkeypatch)
        GLPEngine().run(graph, ClassicLP(), **kwargs)
        fault_free_calls = spy.calls

        observed = {}
        for sanitized in (False, True):
            spy = _Spy(monkeypatch)
            plan = FaultPlan.parse(f"kernel@{target}")
            with inject(plan) as injector, _sanitized(sanitized):
                recovered = GLPEngine().run(
                    graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
                )
            assert recovered.labels_hash() == reference.labels_hash()
            observed[sanitized] = (
                [(e.stream, e.index, e.detail) for e in injector.events],
                [iteration_fingerprint(s) for s in recovered.iterations],
            )
            if not sanitized:
                # The retried attempt keeps no record of the failed one:
                # its first iteration executes every launch.
                assert spy.calls == fault_free_calls + per_iteration - 2
        assert observed[False] == observed[True]
        assert observed[False][0] == [("launch", target, "smem-cms-ht")]

    def test_kernel_fault_at_a_patched_launch(self, monkeypatch):
        graph = RUNS["glp-classic"][2]()
        kwargs = dict(max_iterations=ITERATIONS, stop_on_convergence=False)
        reference = GLPEngine().run(
            graph, ClassicLP(), record_history=True, **kwargs
        )
        inputs = [ClassicLP().init_labels(graph)] + reference.history[:-1]
        outcomes = _expected_outcomes(graph, inputs)
        # The first iteration whose first MFL launch patches (outcomes
        # start at the second iteration).
        row = next(i for i, r in enumerate(outcomes) if r[0] == "patch")
        # The faulted iteration and the next one (the retried attempt's
        # first two passes) execute every launch.
        retried = outcomes[row] + outcomes[row + 1]
        not_executed = len(retried) - retried.count("execute")
        iteration = row + 1
        with hooks.installed(hooks.FAULTS, EventLog()) as log:
            GLPEngine().run(graph, ClassicLP(), **kwargs)
        launches = [e[2] for e in log.events if e[0] == "launch"]
        per_iteration = len(launches) // ITERATIONS
        target = iteration * per_iteration + 2
        assert launches[target - 1] == "smem-cms-ht"

        spy = _Spy(monkeypatch)
        GLPEngine().run(graph, ClassicLP(), **kwargs)
        executed, patched = spy.outcomes(graph)

        observed = {}
        for sanitized in (False, True):
            spy = _Spy(monkeypatch)
            plan = FaultPlan.parse(f"kernel@{target}")
            with inject(plan) as injector, _sanitized(sanitized):
                recovered = GLPEngine().run(
                    graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
                )
            assert recovered.labels_hash() == reference.labels_hash()
            observed[sanitized] = (
                [(e.stream, e.index, e.detail) for e in injector.events],
                [iteration_fingerprint(s) for s in recovered.iterations],
            )
            if not sanitized:
                # The retried attempt keeps no record of the failed one,
                # and its first pass keeps none either: no dense pass ran
                # before it in the attempt.
                assert spy.outcomes(graph) == (
                    executed + not_executed,
                    patched - retried.count("patch"),
                )
        assert observed[False] == observed[True]
        assert observed[False][0] == [("launch", target, "smem-cms-ht")]
