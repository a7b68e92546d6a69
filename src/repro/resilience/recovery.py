"""Engine-side recovery: retry policy + checkpoint lifecycle.

One :class:`RecoveryContext` accompanies one engine run.  The run driver
(:func:`repro.core.driver.drive`)

1. calls :meth:`RecoveryContext.resume_checkpoint` once before its loop
   (resume-from-disk / resume-from-object);
2. calls :meth:`RecoveryContext.checkpoint` at the top of every BSP
   iteration (and optionally persists it to ``checkpoint_dir``);
3. wraps its attempt in ``except DeviceFault`` and asks
   :meth:`RecoveryContext.on_fault` what to do — the method returns the
   checkpoint to restore and re-run from, or re-raises when the fault is
   not recoverable here (OOM belongs to the degradation ladder; transient
   retries and fatal resumes are both bounded by the policy).

Recovered state is always restored from deep copies, so the re-executed
iteration is bit-for-bit the iteration an uninterrupted run would have
executed — the resume-identity property the tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro import obs
from repro.errors import (
    CheckpointError,
    DeviceFault,
    OutOfDeviceMemoryError,
    ResilienceError,
)
from repro.resilience.checkpoint import (
    RunCheckpoint,
    checkpoint_path,
    latest_checkpoint,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded recovery budget for one engine run.

    ``max_retries`` bounds in-place retries of *transient* faults
    (transfer failures, kernel aborts); ``max_resumes`` bounds
    checkpoint restores after *fatal-but-checkpointed* faults (the
    injected ECC label corruption).  ``backoff_seconds`` (doubling per
    attempt up to ``max_backoff_seconds``) models the host-side pause
    before re-issuing work; it is accounted in metrics and — when
    ``sleep`` is set — actually slept, which production would but tests
    never want.
    """

    max_retries: int = 3
    max_resumes: int = 3
    backoff_seconds: float = 0.0
    max_backoff_seconds: float = 1.0
    sleep: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.max_resumes < 0:
            raise ResilienceError("retry/resume budgets must be >= 0")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ResilienceError("backoff must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before the ``attempt``-th recovery (1-based)."""
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.backoff_seconds * (2.0 ** (attempt - 1)),
            self.max_backoff_seconds,
        )


#: Default policy engines use when recovery is requested without one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class RecoveryContext:
    """Checkpoint + retry bookkeeping for one engine run."""

    def __init__(
        self,
        engine: str,
        *,
        policy: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        resume_from: Union[RunCheckpoint, str, None] = None,
    ) -> None:
        self.engine = engine
        self.policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        self.checkpoint_dir = checkpoint_dir
        self._resume_from = resume_from
        self.current: Optional[RunCheckpoint] = None
        self.retries = 0
        self.resumes = 0
        self.checkpoints = 0
        self.backoff_total_seconds = 0.0
        self.faults: List[DeviceFault] = []

    # ------------------------------------------------------------------
    @classmethod
    def for_run(
        cls,
        engine: str,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        resume_from: Union[RunCheckpoint, str, None] = None,
    ) -> Optional["RecoveryContext"]:
        """A context when any resilience option is set, else ``None``.

        ``None`` keeps the fault-free fast path bitwise identical to an
        engine without the resilience layer.
        """
        if (
            retry_policy is None
            and checkpoint_dir is None
            and resume_from is None
        ):
            return None
        return cls(
            engine,
            policy=retry_policy,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------------
    def resume_checkpoint(
        self, *, graph, program
    ) -> Optional[RunCheckpoint]:
        """Resolve and validate the checkpoint to resume from, if any."""
        resume = self._resume_from
        if resume is None:
            return None
        if isinstance(resume, str):
            loaded = (
                latest_checkpoint(resume)
                if not resume.endswith(".ckpt")
                else RunCheckpoint.load(resume)
            )
            if loaded is None:
                raise CheckpointError(
                    f"no checkpoint to resume from under {resume!r}"
                )
            resume = loaded
        resume.validate(engine=self.engine, graph=graph, program=program)
        self.current = resume
        return resume

    def checkpoint(
        self,
        *,
        graph,
        program,
        iteration: int,
        labels,
        engine_state: Optional[Dict[str, object]] = None,
    ) -> RunCheckpoint:
        """Capture the BSP-boundary snapshot (and persist when asked)."""
        ckpt = RunCheckpoint.capture(
            engine=self.engine,
            graph=graph,
            program=program,
            iteration=iteration,
            labels=labels,
            engine_state=engine_state,
        )
        self.current = ckpt
        self.checkpoints += 1
        path: Optional[str] = None
        if self.checkpoint_dir is not None:
            path = checkpoint_path(self.checkpoint_dir, self.engine)
            ckpt.save(path)
        m = obs.metrics()
        if m is not None:
            m.inc("resilience_checkpoints_total", engine=self.engine)
        obs.emit(
            "recovery.checkpoint",
            engine=self.engine,
            iteration=int(iteration),
            path=path or "",
        )
        obs.annotate(
            "checkpoint",
            {
                "engine": self.engine,
                "iteration": int(iteration),
                "path": path or "",
            },
        )
        return ckpt

    # ------------------------------------------------------------------
    def on_fault(self, fault: DeviceFault) -> RunCheckpoint:
        """Decide how to recover from ``fault``.

        Returns the checkpoint to restore and re-run from; raises the
        fault back when it is not recoverable at this level:

        * OOM (injected or genuine) — re-running on the same device would
          OOM again; the run_auto / detector degradation ladder owns it;
        * no checkpoint captured yet (fault before the first boundary);
        * the policy's retry or resume budget is exhausted.
        """
        self.faults.append(fault)
        m = obs.metrics()
        if isinstance(fault, OutOfDeviceMemoryError):
            self._emit_decision(fault, "escalate")
            raise fault
        if self.current is None:
            self._emit_decision(fault, "no-checkpoint")
            raise fault
        if fault.transient:
            if self.retries >= self.policy.max_retries:
                self._emit_decision(fault, "retry-budget-exhausted")
                raise fault
            self.retries += 1
            attempt = self.retries
            counter = "resilience_retries_total"
            self._emit_decision(fault, "retry")
        else:
            if self.resumes >= self.policy.max_resumes:
                self._emit_decision(fault, "resume-budget-exhausted")
                raise fault
            self.resumes += 1
            attempt = self.resumes
            counter = "resilience_resumes_total"
            self._emit_decision(fault, "resume")
        backoff = self.policy.backoff_for(attempt)
        self.backoff_total_seconds += backoff
        if backoff > 0 and self.policy.sleep:  # pragma: no cover - timing
            time.sleep(backoff)
        if m is not None:
            m.inc(counter, engine=self.engine, kind=fault.kind)
            m.observe(
                "resilience_recovery_backoff_seconds",
                backoff,
                engine=self.engine,
            )
        return self.current

    def _emit_decision(self, fault: DeviceFault, decision: str) -> None:
        """Journal one recovery decision (no-op when obs is off)."""
        obs.emit(
            "recovery.fault",
            engine=self.engine,
            kind=fault.kind,
            transient=fault.transient,
            decision=decision,
            retries=self.retries,
            resumes=self.resumes,
            checkpoint_iteration=(
                int(self.current.iteration)
                if self.current is not None
                else -1
            ),
        )

    def recovery_span(self, fault: DeviceFault, iteration: int):
        """An obs span wrapping one restore-and-re-run recovery."""
        return obs.span(
            "fault-recovery",
            cat="resilience",
            engine=self.engine,
            kind=fault.kind,
            iteration=iteration,
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Machine-readable recovery accounting for reports."""
        return {
            "engine": self.engine,
            "checkpoints": self.checkpoints,
            "retries": self.retries,
            "resumes": self.resumes,
            "faults": [fault.kind for fault in self.faults],
            "backoff_total_seconds": self.backoff_total_seconds,
        }
