"""The bulk-synchronous run driver shared by every engine.

The GLP, hybrid and multi-GPU engines and the CPU baselines all run the
same loop (Figure 2): PickLabel -> LabelPropagation -> UpdateVertex, once
per BSP iteration, until the program converges or the iteration budget
runs out.  They differ only in *where* the LabelPropagation work happens
and how it is timed.  :func:`drive` is that loop, written once.  An
engine subclasses :class:`BSPEngine`, binds the loop with ``run = drive``
in its own class body (or calls it from its own ``run``), and supplies:

``_initial_carry(initial)``
    The engine-state carry dict seeded from the coerced
    ``initial_frontier`` (``None`` for a dense start).  The carry is the
    ``engine_state`` of every checkpoint and is replaced wholesale on a
    restore, so engines read it from ``run.carry`` on every use.
``_attempt(run)``
    A context manager holding the device residency for one attempt (none
    for a CPU engine).  It yields ``step(iteration) -> (new_labels,
    stats, trace_args)``: one BSP iteration, including every device event
    the iteration issues, which advances ``run.carry``.  Teardown frees
    the residency, also when a fault aborts the attempt.
``_finish(run)``
    Called once after a successful attempt; returns the residual
    frontier for :attr:`LPResult.final_frontier`.

The driver owns everything else: argument coercion, the recovery
context with its resume / pre-run checkpoint, the attempt loop and its
journal events, the top-of-iteration checkpoint, record keeping, the
convergence test, tracer spans, and run metrics.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.core.api import LPProgram, validate_program
from repro.core.instrument import observe_iteration, observe_run
from repro.core.results import IterationStats, LPResult
from repro.errors import ConvergenceError, DeviceFault, ProgramError
from repro.graph.csr import CSRGraph
from repro.kernels.frontier import coerce_initial_frontier


class BSPEngine(abc.ABC):
    """An engine run by :func:`drive` — every engine.

    :func:`drive` is the single signature that supplies the incremental
    (``initial_frontier``/``warm_labels``) and resilience
    (``retry_policy``/``checkpoint_dir``/``resume_from``) run kwargs, so
    every engine accepts them; ``initial_frontier`` applies only where
    ``frontier`` is enabled.  A subclass missing a hook fails at
    construction.
    """

    @property
    def devices(self) -> list:
        """The simulated devices this engine drives (empty on the CPU)."""
        return [self.device]

    @abc.abstractmethod
    def _initial_carry(self, initial: Optional[np.ndarray]) -> dict:
        """The engine-state carry seeded from the coerced frontier."""

    @abc.abstractmethod
    def _attempt(self, run: "BSPRun"):
        """Context manager: residency for one attempt; yields the step."""

    @abc.abstractmethod
    def _finish(self, run: "BSPRun") -> Optional[np.ndarray]:
        """After a successful attempt: the residual frontier."""


@dataclass
class BSPRun:
    """The state of one engine run that survives across its attempts."""

    graph: CSRGraph
    program: LPProgram
    labels: np.ndarray
    #: Engine-specific state checkpointed with the labels.
    carry: Dict[str, object]
    #: Frontier execution applies (mode enabled, program frontier-safe).
    track_frontier: bool
    #: The program's pinned vertices (sorted unique), or ``None``.
    pinned: Optional[np.ndarray] = None
    #: The iteration about to run (the restore point after a fault).
    iteration: int = 1
    #: The iteration this run started at (> 1 when resumed).
    first_iteration: int = 1
    iterations: List[IterationStats] = field(default_factory=list)
    history: Optional[list] = None

    def restore(self, ckpt) -> None:
        """Reset the mutable run state to a checkpoint."""
        ckpt.restore_program(self.program)
        self.labels = ckpt.restored_labels()
        self.carry = ckpt.restored_engine_state()
        self.iteration = ckpt.iteration


def _resolve_pinned(
    program: LPProgram, graph: CSRGraph
) -> Optional[np.ndarray]:
    """The program's pinned-vertex set as sorted unique int64 (or None).

    Built through a |V| bool mask, so ids are range-checked first: a
    negative id would silently index the mask from its end.
    """
    pinned = program.pinned_vertices(graph)
    if pinned is None:
        return None
    pinned = np.asarray(pinned, dtype=np.int64)
    if pinned.size and (
        pinned.min() < 0 or pinned.max() >= graph.num_vertices
    ):
        raise ProgramError(
            f"pinned vertex ids must be in [0, {graph.num_vertices})"
        )
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[pinned] = True
    return np.flatnonzero(mask)


def _coerce_warm_labels(
    warm_labels: np.ndarray, graph: CSRGraph, init_labels: np.ndarray
) -> np.ndarray:
    """Validate an engine's ``warm_labels=`` argument."""
    warm = np.asarray(warm_labels)
    if warm.shape != (graph.num_vertices,):
        raise ConvergenceError(
            f"warm_labels must carry one label per vertex "
            f"({graph.num_vertices}), got shape {warm.shape}"
        )
    return warm.astype(init_labels.dtype, copy=True)


def drive(
    engine: BSPEngine,
    graph: CSRGraph,
    program: LPProgram,
    *,
    max_iterations: int = 20,
    record_history: bool = False,
    stop_on_convergence: bool = True,
    retry_policy: "Optional[object]" = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Union[object, str, None] = None,
    initial_frontier: Optional[np.ndarray] = None,
    warm_labels: Optional[np.ndarray] = None,
) -> LPResult:
    """Execute ``program`` on ``graph`` for up to ``max_iterations``.

    Incremental re-convergence (see ``docs/incremental_lp.md``):

    ``initial_frontier``
        Vertex ids iteration 1 processes *sparsely* instead of the
        mandatory dense pass — the affected set of a window slide.
        Requires frontier mode and a ``frontier_safe`` program; silently
        ignored otherwise (the dense run is a correct superset).  Only
        the frontier's edges are charged.  Multi-device engines split
        the set across their execution shares.
    ``warm_labels``
        Prior label state to resume from in place of
        ``program.init_labels``'s output (the program still initializes
        its own state and may pin seeds on top).

    Resilience (all off by default — the fault-free path is bitwise
    identical to an engine without the recovery layer):

    ``retry_policy``
        A :class:`~repro.resilience.RetryPolicy`; device faults are
        recovered by restoring the BSP-boundary checkpoint and re-running
        (bounded retries for transient faults, bounded resumes for fatal
        ones).  OOM always propagates — stepping down engines is the
        degradation ladder's job (:func:`repro.core.hybrid.run_ladder`).
    ``checkpoint_dir``
        Persist the per-iteration :class:`~repro.resilience.
        RunCheckpoint` here so a killed run can be resumed.
    ``resume_from``
        A ``RunCheckpoint``, a checkpoint file, or a directory to resume
        from; the resumed run's final labels are bitwise identical to an
        uninterrupted run's.
    """
    if max_iterations <= 0:
        raise ConvergenceError("max_iterations must be positive")
    from repro.resilience.recovery import RecoveryContext

    for device in engine.devices:
        device.reset_timing()

    labels = program.init_labels(graph)
    if warm_labels is not None:
        labels = _coerce_warm_labels(warm_labels, graph, labels)
    program.init_state(graph, labels)
    validate_program(program, graph, labels)

    track_frontier = engine.frontier.enabled and program.frontier_safe
    initial = None
    if initial_frontier is not None and track_frontier:
        initial = coerce_initial_frontier(initial_frontier, graph.num_vertices)
    run = BSPRun(
        graph=graph,
        program=program,
        labels=labels,
        carry=engine._initial_carry(initial),
        track_frontier=track_frontier,
        history=[] if record_history else None,
    )
    recovery = RecoveryContext.for_run(
        engine.name,
        retry_policy=retry_policy,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
    )
    if recovery is not None:
        ckpt = recovery.resume_checkpoint(graph=graph, program=program)
        if ckpt is not None:
            run.restore(ckpt)
            run.first_iteration = run.iteration
        else:
            # Cover faults during residency setup: the pre-run state is
            # itself a consistent BSP boundary.
            recovery.checkpoint(
                graph=graph,
                program=program,
                iteration=1,
                labels=labels,
                engine_state=run.carry,
            )
    # Pinned vertices are pruned from every sparse worklist (their update
    # is a no-op, so skipping them changes no label and no trajectory).
    if program.frontier_safe:
        run.pinned = _resolve_pinned(program, graph)

    attempts = 0
    while True:
        attempts += 1
        with obs.correlate(attempt_id=obs.mint_id("attempt")):
            obs.emit(
                "engine.attempt.start",
                engine=engine.name,
                attempt=attempts,
                start_iteration=run.iteration,
            )
            try:
                result = _run_attempt(
                    engine,
                    run,
                    recovery,
                    max_iterations=max_iterations,
                    stop_on_convergence=stop_on_convergence,
                )
            except DeviceFault as fault:
                obs.emit(
                    "engine.attempt.fault",
                    engine=engine.name,
                    attempt=attempts,
                    kind=fault.kind,
                    transient=fault.transient,
                    iteration=run.iteration,
                )
                if recovery is None:
                    raise
                ckpt = recovery.on_fault(fault)
                with recovery.recovery_span(fault, run.iteration):
                    run.restore(ckpt)
                obs.emit(
                    "recovery.restore",
                    engine=engine.name,
                    iteration=int(ckpt.iteration),
                    kind=fault.kind,
                )
                continue
            obs.emit(
                "engine.attempt.end",
                engine=engine.name,
                attempt=attempts,
                outcome="ok",
                iterations=result.num_iterations,
            )
            return result


def _run_attempt(
    engine,
    run: BSPRun,
    recovery,
    *,
    max_iterations: int,
    stop_on_convergence: bool,
) -> LPResult:
    """One execution attempt from the run's current iteration to the end."""
    graph, program = run.graph, run.program
    start_iteration = run.iteration
    # Drop any records at or past the restore point so a re-run never
    # duplicates them; the lists begin at the run's first iteration.
    del run.iterations[start_iteration - run.first_iteration :]
    if run.history is not None:
        del run.history[start_iteration - run.first_iteration :]
    converged = False
    active_tracer = obs.tracer()
    run_started = time.perf_counter() if active_tracer else 0.0
    try:
        with engine._attempt(run) as step:
            for iteration in range(start_iteration, max_iterations + 1):
                run.iteration = iteration
                if recovery is not None:
                    recovery.checkpoint(
                        graph=graph,
                        program=program,
                        iteration=iteration,
                        labels=run.labels,
                        engine_state=run.carry,
                    )
                iter_started = time.perf_counter() if active_tracer else 0.0
                new_labels, stats, trace_args = step(iteration)

                program.on_iteration_end(
                    graph, run.labels, new_labels, iteration
                )
                iteration_converged = program.converged(
                    run.labels, new_labels, iteration
                )
                run.labels = new_labels
                if run.history is not None:
                    run.history.append(new_labels.copy())
                run.iterations.append(stats)
                observe_iteration(
                    engine.name, stats, graph.num_vertices, run.track_frontier
                )
                if active_tracer is not None:
                    active_tracer.host_event(
                        f"iteration {iteration}",
                        iter_started,
                        cat="engine",
                        args={
                            "modeled_seconds": stats.seconds,
                            "changed_vertices": stats.changed_vertices,
                            **trace_args,
                        },
                    )
                if iteration_converged and stop_on_convergence:
                    converged = True
                    break
    finally:
        if active_tracer is not None:
            active_tracer.host_event(
                "engine-run",
                run_started,
                cat="engine",
                args={
                    "engine": engine.name,
                    "graph": graph.name,
                    "program": program.name,
                },
            )

    result = LPResult(
        labels=program.final_labels(run.labels),
        iterations=run.iterations,
        converged=converged,
        engine=engine.name,
        history=run.history,
        final_frontier=engine._finish(run),
    )
    observe_run(engine.name, result)
    return result
