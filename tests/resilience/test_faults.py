"""Tests for the deterministic fault-injection layer."""

import numpy as np
import pytest

from repro import ClassicLP, GLPEngine
from repro.errors import (
    DeviceFault,
    EccCorruptionFault,
    InjectedOOMFault,
    KernelAbortFault,
    OutOfDeviceMemoryError,
    ResilienceError,
    TransferFault,
)
from repro.gpusim import hooks
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    count_events,
    inject,
)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultSpec(kind="meteor", at=1)
        with pytest.raises(ResilienceError):
            FaultSpec(kind="oom", at=0)
        with pytest.raises(ResilienceError):
            FaultSpec(kind="oom", at=1, repeat=0)

    def test_covers_window(self):
        spec = FaultSpec(kind="kernel", at=3, repeat=2)
        assert not spec.covers(2)
        assert spec.covers(3)
        assert spec.covers(4)
        assert not spec.covers(5)

    def test_streams(self):
        assert FaultSpec(kind="oom", at=1).stream == "alloc"
        assert FaultSpec(kind="transfer", at=1).stream == "transfer"
        assert FaultSpec(kind="kernel", at=1).stream == "launch"
        assert FaultSpec(kind="ecc", at=1).stream == "launch"


class TestFaultPlanParse:
    def test_roundtrip(self):
        text = "oom@2,kernel@7x4,ecc@5/dev1"
        plan = FaultPlan.parse(text)
        assert plan.render() == text
        assert plan.specs[1].repeat == 4
        assert plan.specs[2].device == 1

    @pytest.mark.parametrize(
        "bad", ["", "kernel", "kernel@x", "ecc@5/gpu1", "meteor@3"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ResilienceError):
            FaultPlan.parse(bad)

    def test_random_is_seed_deterministic(self):
        totals = {"alloc": 10, "transfer": 20, "launch": 30}
        a = FaultPlan.random(42, num_faults=3, stream_totals=totals)
        b = FaultPlan.random(42, num_faults=3, stream_totals=totals)
        assert a.render() == b.render()
        c = FaultPlan.random(43, num_faults=3, stream_totals=totals)
        assert a.render() != c.render()

    def test_random_skips_empty_streams(self):
        plan = FaultPlan.random(
            0,
            num_faults=4,
            kinds=("transfer", "kernel"),
            stream_totals={"alloc": 5, "transfer": 0, "launch": 9},
        )
        assert all(spec.kind == "kernel" for spec in plan.specs)
        with pytest.raises(ResilienceError):
            FaultPlan.random(
                0, stream_totals={"alloc": 0, "transfer": 0, "launch": 0}
            )


class TestInjection:
    def test_typed_exceptions(self, two_cliques_graph):
        cases = [
            ("oom@1", InjectedOOMFault),
            ("transfer@1", TransferFault),
            ("kernel@1", KernelAbortFault),
            ("ecc@1", EccCorruptionFault),
        ]
        for text, exc_class in cases:
            with inject(FaultPlan.parse(text)) as injector:
                with pytest.raises(exc_class):
                    GLPEngine().run(
                        two_cliques_graph, ClassicLP(), max_iterations=4
                    )
            assert [e.kind for e in injector.events] == [text.split("@")[0]]

    def test_injected_oom_is_both_oom_and_fault(self):
        # The ladder catches it as OOM; the recovery layer refuses to
        # retry it in place for the same reason.
        assert issubclass(InjectedOOMFault, OutOfDeviceMemoryError)
        assert issubclass(InjectedOOMFault, DeviceFault)

    def test_same_plan_same_workload_fires_identically(self, two_cliques_graph):
        def run_once():
            with inject(FaultPlan.parse("kernel@5")) as injector:
                with pytest.raises(KernelAbortFault):
                    GLPEngine().run(
                        two_cliques_graph, ClassicLP(), max_iterations=4
                    )
            return [(e.kind, e.stream, e.index) for e in injector.events]

        assert run_once() == run_once()

    def test_spec_past_event_count_never_fires(self, two_cliques_graph):
        with inject(FaultPlan.parse("kernel@100000")) as injector:
            GLPEngine().run(two_cliques_graph, ClassicLP(), max_iterations=4)
        assert injector.events == []

    def test_installation_is_scoped(self, two_cliques_graph):
        assert hooks.FAULTS.get() is None
        with inject(FaultPlan.parse("kernel@1")):
            assert hooks.FAULTS.get() is not None
        assert hooks.FAULTS.get() is None

    def test_count_events_sees_all_streams(self, community_graph):
        graph, _ = community_graph
        with count_events() as counter:
            GLPEngine().run(graph, ClassicLP(), max_iterations=4)
        assert counter.counts["alloc"] >= 4
        assert counter.counts["transfer"] >= 3
        assert counter.counts["launch"] > 0


class TestZeroPerturbation:
    def test_counting_changes_nothing(self, community_graph):
        """The observer layer must not perturb labels or modeled timing."""
        graph, _ = community_graph
        bare = GLPEngine().run(
            graph, ClassicLP(), max_iterations=6, stop_on_convergence=False
        )
        with count_events():
            observed = GLPEngine().run(
                graph, ClassicLP(), max_iterations=6,
                stop_on_convergence=False,
            )
        assert np.array_equal(bare.labels, observed.labels)
        assert bare.total_seconds == observed.total_seconds

    def test_non_firing_plan_changes_nothing(self, community_graph):
        graph, _ = community_graph
        bare = GLPEngine().run(
            graph, ClassicLP(), max_iterations=6, stop_on_convergence=False
        )
        with inject(FaultPlan.parse("ecc@99999")):
            injected = GLPEngine().run(
                graph, ClassicLP(), max_iterations=6,
                stop_on_convergence=False,
            )
        assert np.array_equal(bare.labels, injected.labels)
        assert bare.total_seconds == injected.total_seconds
