"""Shared metric emission for the engines.

Every engine run by :func:`repro.core.driver.drive` publishes the same metric
families per iteration and per run so dashboards and the CLI metrics dump
can compare them on equal terms; the ``engine`` label carries the engine
name.  Every helper is a no-op when no observability session is active —
the engines call them unconditionally.

Metric families (full table in ``docs/observability.md``):

* ``engine_iteration_seconds`` (histogram) — modeled elapsed per iteration
* ``engine_iterations_total`` / ``engine_runs_total`` (counters)
* ``engine_pass_total`` (counter, ``mode="dense"|"sparse"``) — the
  direction-optimizing dispatch decisions
* ``engine_frontier_fraction`` (histogram) — ``|frontier| / |V|``
* ``engine_changed_vertices`` (histogram)
* ``engine_run_seconds`` (histogram) — modeled elapsed per run
"""

from __future__ import annotations

from repro import obs
from repro.core.results import IterationStats, LPResult


def observe_iteration(
    engine_name: str,
    stats: IterationStats,
    num_vertices: int,
    track_frontier: bool,
) -> None:
    """Publish one iteration's metrics (no-op without an active session)."""
    m = obs.metrics()
    if m is None:
        return
    m.observe("engine_iteration_seconds", stats.seconds, engine=engine_name)
    m.inc("engine_iterations_total", engine=engine_name)
    mode = stats.kernel_stats.get("pass_mode", "dense")
    m.inc("engine_pass_total", engine=engine_name, mode=mode)
    m.observe(
        "engine_changed_vertices", stats.changed_vertices, engine=engine_name
    )
    if track_frontier and num_vertices:
        m.observe(
            "engine_frontier_fraction",
            stats.frontier_size / num_vertices,
            engine=engine_name,
        )


def observe_run(engine_name: str, result: LPResult) -> None:
    """Publish run-level metrics (no-op without an active session)."""
    m = obs.metrics()
    if m is None:
        return
    m.inc("engine_runs_total", engine=engine_name)
    m.observe("engine_run_seconds", result.total_seconds, engine=engine_name)
