"""Resume-identity: recovered runs are bitwise identical.

These tests pin down the resilience tentpole's core guarantee — a run
that hit an injected device fault and recovered (in-place retry or
checkpoint resume) finishes with exactly the labels an uninterrupted run
produces, across classic/seeded programs and dense/frontier execution.
"""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine, SeededFraudLP, obs
from repro.baselines import LigraEngine, SerialEngine
from repro.baselines.gsort import GSortEngine
from repro.core.hybrid import HybridEngine
from repro.core.multigpu import MultiGPUEngine
from repro.errors import KernelAbortFault
from repro.gpusim import hooks
from repro.graph.generators import planted_partition_graph
from repro.graph.generators.rmat import rmat_graph
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    count_events,
    inject,
)
from tests.core.test_hybrid import small_spec_for

SEEDS = {0: 101, 40: 202, 120: 303}

#: The three device engines that share the run driver.
ENGINES = {
    "glp": lambda graph, **kw: GLPEngine(**kw),
    "hybrid": lambda graph, **kw: HybridEngine(
        spec=small_spec_for(graph, 0.5), **kw
    ),
    "multigpu": lambda graph, **kw: MultiGPUEngine(2, **kw),
}


@pytest.fixture(scope="module")
def graph():
    graph, _ = planted_partition_graph(240, 6, 8.0, 0.9, seed=7)
    return graph


def make_program(kind):
    return ClassicLP() if kind == "classic" else SeededFraudLP(dict(SEEDS))


def mid_run_plan(engine, graph, program, kind, **run_kwargs):
    """A plan firing ``kind`` halfway through this workload's stream."""
    with count_events() as counter:
        engine.run(graph, program, **run_kwargs)
    spec_kind = {"transfer": "transfer"}.get(kind, kind)
    stream = "transfer" if kind == "transfer" else "launch"
    total = counter.counts[stream]
    assert total > 1, f"workload has no {stream} events to fault"
    return FaultPlan.parse(f"{spec_kind}@{max(2, total // 2)}")


class LaunchLog:
    """A fault-hook subscriber recording kernel launch names in order."""

    def __init__(self) -> None:
        self.names = []

    def on_alloc(self, device, nbytes):
        pass

    def on_transfer(self, device, nbytes, direction):
        pass

    def on_launch(self, device, name):
        self.names.append(name)


def launch_names(run):
    with hooks.installed(hooks.FAULTS, LaunchLog()) as log:
        run()
    return log.names


class TestFaultFreeIdentity:
    def test_recovery_layer_off_vs_on(self, graph):
        bare = GLPEngine().run(graph, ClassicLP(), max_iterations=8)
        guarded = GLPEngine().run(
            graph, ClassicLP(), max_iterations=8,
            retry_policy=RetryPolicy(),
        )
        assert bare.labels_hash() == guarded.labels_hash()
        assert bare.total_seconds == guarded.total_seconds
        assert bare.num_iterations == guarded.num_iterations


class TestRecoveredRunIdentity:
    @pytest.mark.parametrize("program_kind", ["classic", "seeded"])
    @pytest.mark.parametrize("frontier", ["dense", "auto"])
    @pytest.mark.parametrize("fault", ["transfer", "kernel", "ecc"])
    def test_glp_identity(self, graph, program_kind, frontier, fault):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = GLPEngine(frontier=frontier).run(
            graph, make_program(program_kind), **kwargs
        )
        plan = mid_run_plan(
            GLPEngine(frontier=frontier), graph,
            make_program(program_kind), fault, **kwargs
        )
        with inject(plan) as injector:
            recovered = GLPEngine(frontier=frontier).run(
                graph, make_program(program_kind),
                retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert recovered.labels_hash() == reference.labels_hash()
        assert recovered.num_iterations == reference.num_iterations

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_glp_recovery_history_not_duplicated(self, graph, engine):
        make = ENGINES[engine]
        kwargs = dict(
            max_iterations=8, stop_on_convergence=False,
            record_history=True,
        )
        reference = make(graph).run(graph, ClassicLP(), **kwargs)
        plan = mid_run_plan(
            make(graph), graph, ClassicLP(), "kernel", **kwargs
        )
        with inject(plan):
            recovered = make(graph).run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(recovered.iterations) == len(reference.iterations)
        assert len(recovered.history) == len(reference.history)
        for ref, rec in zip(reference.history, recovered.history):
            assert np.array_equal(ref, rec)

    @pytest.mark.parametrize("engine", ["glp", "multigpu"])
    def test_resumed_run_retry_history_not_duplicated(
        self, graph, tmp_path, engine
    ):
        """A resumed run that retries a fault keeps one record per round.

        Records are truncated relative to the run's first iteration, not
        iteration 1.  The fault lands on a frontier-expand launch midway
        through the resumed run, after that iteration's new labels exist.
        """
        make = ENGINES[engine]
        make(graph, frontier="frontier").run(
            graph, ClassicLP(), max_iterations=3,
            stop_on_convergence=False, checkpoint_dir=str(tmp_path),
        )
        kwargs = dict(
            max_iterations=8, stop_on_convergence=False,
            record_history=True, resume_from=str(tmp_path),
        )
        reference = make(graph, frontier="frontier").run(
            graph, ClassicLP(), **kwargs
        )
        names = launch_names(
            lambda: make(graph, frontier="frontier").run(
                graph, ClassicLP(), **kwargs
            )
        )
        expands = [i for i, n in enumerate(names) if n == "frontier-expand"]
        target = expands[len(expands) // 3] + 1
        with inject(FaultPlan.parse(f"kernel@{target}")) as injector:
            recovered = make(graph, frontier="frontier").run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert reference.iterations[0].iteration == 3
        assert len(recovered.iterations) == len(reference.iterations) == 6
        assert len(recovered.history) == len(reference.history) == 6
        for ref, rec in zip(reference.history, recovered.history):
            assert np.array_equal(ref, rec)
        assert recovered.labels_hash() == reference.labels_hash()

    @pytest.mark.parametrize("engine", ["glp", "hybrid"])
    def test_setup_fault_releases_residency(self, graph, engine):
        """A fault while uploading the residency frees what was uploaded,
        so the retried attempt does not run out of device memory."""
        make = ENGINES[engine]
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = make(graph).run(graph, ClassicLP(), **kwargs)
        recovering = make(graph)
        with inject(FaultPlan.parse("transfer@2")) as injector:
            recovered = recovering.run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert [e.detail for e in injector.events][0].startswith("h2d")
        assert recovered.labels_hash() == reference.labels_hash()
        assert recovering.device.allocated_bytes == 0

    def test_hybrid_identity(self, graph):
        spec = small_spec_for(graph, 0.5)
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = HybridEngine(spec=spec).run(
            graph, ClassicLP(), **kwargs
        )
        plan = mid_run_plan(
            HybridEngine(spec=spec), graph, ClassicLP(), "kernel", **kwargs
        )
        with inject(plan) as injector:
            engine = HybridEngine(spec=spec)
            recovered = engine.run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert recovered.labels_hash() == reference.labels_hash()
        # Retry-safe accounting: totals recomputed from surviving
        # iterations, never double-counted across attempts.
        stats = engine.last_stats
        assert stats.elapsed_seconds == pytest.approx(
            sum(s.seconds for s in recovered.iterations)
        )

    def test_multigpu_identity(self, graph):
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = MultiGPUEngine(2).run(graph, ClassicLP(), **kwargs)
        plan = mid_run_plan(
            MultiGPUEngine(2), graph, ClassicLP(), "kernel", **kwargs
        )
        with inject(plan) as injector:
            recovered = MultiGPUEngine(2).run(
                graph, ClassicLP(), retry_policy=RetryPolicy(), **kwargs
            )
        assert len(injector.events) == 1
        assert recovered.labels_hash() == reference.labels_hash()


def kill_plan(make, graph, **run_kwargs):
    """A persistent kernel fault halfway through the workload's launches."""
    with count_events() as counter:
        make(graph).run(graph, ClassicLP(), **run_kwargs)
    total = counter.counts["launch"]
    assert total > 1, "workload has no launches to fault"
    return FaultPlan.parse(f"kernel@{max(2, total // 2)}x99")


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestCheckpointResume:
    def test_exhausted_retries_leave_resumable_checkpoint(
        self, graph, tmp_path, engine
    ):
        make = ENGINES[engine]
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        reference = make(graph).run(graph, ClassicLP(), **kwargs)

        # A persistent kernel fault (repeat far past the retry budget)
        # kills the run mid-flight, like a pulled power cord.
        with inject(kill_plan(make, graph, **kwargs)):
            with pytest.raises(KernelAbortFault):
                make(graph).run(
                    graph, ClassicLP(),
                    retry_policy=RetryPolicy(max_retries=2),
                    checkpoint_dir=str(tmp_path),
                    **kwargs,
                )
        assert list(tmp_path.glob("*.ckpt")), "no checkpoint persisted"

        resumed = make(graph).run(
            graph, ClassicLP(), resume_from=str(tmp_path), **kwargs
        )
        assert resumed.labels_hash() == reference.labels_hash()

    def test_resume_skips_completed_iterations(
        self, graph, tmp_path, engine
    ):
        make = ENGINES[engine]
        kwargs = dict(max_iterations=8, stop_on_convergence=False)
        with inject(kill_plan(make, graph, **kwargs)):
            with pytest.raises(KernelAbortFault):
                make(graph).run(
                    graph, ClassicLP(),
                    retry_policy=RetryPolicy(max_retries=0),
                    checkpoint_dir=str(tmp_path),
                    **kwargs,
                )
        resumed = make(graph).run(
            graph, ClassicLP(), resume_from=str(tmp_path), **kwargs
        )
        # The resumed run re-executes only from the checkpointed
        # iteration; its stats list is the tail, not all 8 rounds.
        assert resumed.num_iterations < 8
        assert resumed.iterations[0].iteration > 1


@pytest.mark.parametrize("make", [SerialEngine, LigraEngine])
class TestCPUResume:
    def test_resume_from_mid_run_checkpoint(self, tmp_path, make):
        """A CPU run resumed from a mid-run checkpoint ends bitwise
        identical, and its remaining rounds cost what they did: the
        changed-set carry comes back with the labels (Ligra's round 4 is
        sparse only because round 3's changed set is restored)."""
        graph = rmat_graph(10, 12.0, seed=5)
        kwargs = dict(stop_on_convergence=False)
        reference = make().run(graph, ClassicLP(), max_iterations=6, **kwargs)
        # Cut after three rounds: the last checkpoint is the top of
        # round 4.
        make().run(
            graph, ClassicLP(), max_iterations=4,
            checkpoint_dir=str(tmp_path), **kwargs,
        )
        resumed = make().run(
            graph, ClassicLP(), max_iterations=6,
            resume_from=str(tmp_path), **kwargs,
        )
        assert resumed.labels_hash() == reference.labels_hash()
        assert resumed.iterations == reference.iterations[3:]


class TestEngineName:
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: GLPEngine(pass_kind="gsort"), "GLP"),
            (lambda: GSortEngine(), "G-Sort"),
        ],
        ids=["glp-gsort-pass", "gsort-baseline"],
    )
    def test_one_engine_label_per_run(self, graph, make, name):
        """Result, metrics and journal all name the engine the same way."""
        with obs.observe() as session:
            with inject(FaultPlan.parse("kernel@3")):
                result = make().run(
                    graph, ClassicLP(), max_iterations=4,
                    retry_policy=RetryPolicy(),
                )
        assert result.engine == name
        metric_names = {
            series["labels"]["engine"]
            for series in session.metrics.to_dict()["metrics"]
            if "engine" in series["labels"]
        }
        journal_names = {
            event["engine"]
            for event in session.journal.events
            if "engine" in event
        }
        assert metric_names == {name}
        assert journal_names == {name}
