#!/usr/bin/env python
"""Validate observability output files against their expected schemas.

Usage::

    python benchmarks/check_obs_schema.py TRACE_JSON METRICS_JSON \
        [ADVISOR_JSON] [--analysis REPORT_JSON ...] [--bench BENCH_JSON ...] \
        [--journal JOURNAL_JSONL ...] [--slo SLO_REPORT_JSON ...] \
        [--postmortem BUNDLE_JSON ...] [--memory MEMORY_JSON ...]

Checks that ``TRACE_JSON`` is a loadable Chrome ``trace_event`` document
with at least one complete kernel span, and that ``METRICS_JSON`` is a
metrics registry dump carrying the iteration-time histogram with its
percentile fields.  With the optional third argument, also checks that
``ADVISOR_JSON`` (the output of ``repro advise --json``) carries per-kernel
verdicts from the known enum and cause breakdowns that sum to each
kernel's modeled seconds.  Each ``--analysis`` argument names a sanitizer,
lint, or chaos report (``repro check --out`` / ``repro run
--sanitize-out`` / ``repro chaos --out``) to
validate against the analysis-report schema; ``--analysis`` may also be
used alone, without the trace/metrics positionals.  Each ``--bench``
argument names a ``BENCH_<scenario>.json`` baseline payload (``repro bench
run``) to validate: schema version, required payload fields, counters, and
advisor verdicts — plus, for ``warm_windows_incremental``, the incremental
serving gates (labels identical to the full recompute, >=5x fewer
processed edges, lower modeled seconds).  ``--journal`` validates an
event-journal JSONL (``repro pipeline --journal-out``): ``journal.meta``
header, envelope keys, strictly increasing ``seq``, and a consistent
``run_id``.  ``--slo`` validates an SLO verdict report (``repro pipeline
--slo-out``) as an analysis report with ``source == "slo"`` plus per-SLO
verdicts.  ``--postmortem`` validates a flight-recorder bundle
(``postmortem-NNN.json`` under ``--flight-dir``).  ``--memory`` validates
a device-memory watermark report (``--mem-out``): category enum, exact
per-event reconciliation of live bytes against ``Device.allocated_bytes``,
a peak explained by the event timeline, and the embedded planner-accuracy
rows.  Exits non-zero with a
message on the first violation — this is the CI gate for ``run
--trace-out/--metrics-out``, ``advise --json``, the sanitize-gate
artifacts, and the perf-gate bench payloads.

Schema versions, enums and key tuples are imported from the modules that
write each payload (``repro.analysis.findings``, ``repro.obs.*``,
``repro.bench.baseline``), so the checker holds no second copy of them;
only keys that no module declares are listed here.  ``repro`` is taken
from ``sys.path`` or, failing that, from the ``src/`` tree next to this
script, so the script runs from any directory without ``PYTHONPATH``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.findings import RULES as ANALYSIS_RULES
from repro.analysis.findings import SCHEMA_VERSION as ANALYSIS_SCHEMA_VERSION
from repro.analysis.findings import SEVERITIES as ANALYSIS_SEVERITIES
from repro.analysis.findings import SOURCES as ANALYSIS_SOURCES
from repro.analysis.findings import Finding as AnalysisFinding
from repro.bench.baseline import (
    COUNTER_FIELDS,
    EXACT_FIELDS,
    RATIO_COUNTER_FIELDS,
    SECONDS_FIELDS,
)
from repro.bench.baseline import SCHEMA_VERSION as BENCH_SCHEMA_VERSION
from repro.obs.advisor import CAUSE_KEYS, KERNEL_VERDICTS
from repro.obs.advisor import Finding as AdvisorFinding
from repro.obs.flight import FLIGHT_SCHEMA_VERSION
from repro.obs.journal import ENVELOPE_KEYS as JOURNAL_ENVELOPE_KEYS
from repro.obs.journal import EVENTS as JOURNAL_EVENTS
from repro.obs.journal import JOURNAL_SCHEMA_VERSION
from repro.obs.memory import CATEGORIES as MEMORY_CATEGORIES
from repro.obs.memory import MEMORY_SCHEMA_VERSION
from repro.obs.metrics import SCHEMA_VERSION as METRICS_SCHEMA_VERSION
from repro.obs.trace import SCHEMA_VERSION as TRACE_SCHEMA_VERSION

FINDING_KEYS = tuple(f.name for f in dataclasses.fields(AdvisorFinding))
ANALYSIS_FINDING_KEYS = tuple(
    f.name for f in dataclasses.fields(AnalysisFinding)
)
BENCH_REQUIRED_KEYS = (
    EXACT_FIELDS + SECONDS_FIELDS + ("counters", "advisor")
)
BENCH_COUNTER_KEYS = COUNTER_FIELDS + RATIO_COUNTER_FIELDS

# Payload keys no exporter declares; the checker is their only declaration
# (like the span, histogram and SLO verdict keys inline below).
POSTMORTEM_KEYS = ("schema_version", "trigger", "run_id", "slide_id",
                   "attempt_id", "details", "context", "fault_plan",
                   "metrics", "memory", "events")
MEMORY_DEVICE_KEYS = (
    "device", "capacity_bytes", "live_bytes", "peak_bytes", "peak_ts",
    "peak_fraction", "categories_at_peak", "category_peaks", "num_events",
    "reconciled", "mismatches", "transfers", "events",
)
MEMORY_EVENT_KEYS = (
    "ts", "op", "device", "live_bytes", "device_allocated_bytes",
    "reconciled",
)
MEMORY_ACCURACY_KEYS = (
    "engine", "device", "source", "predicted_bytes",
    "measured_peak_bytes", "error_ratio", "within_threshold",
)


def fail(message: str):
    print(f"check_obs_schema: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != TRACE_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{TRACE_SCHEMA_VERSION}"
        )
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        fail(f"{path}: no complete ('X') spans")
    for event in complete:
        for key in ("name", "cat", "pid", "tid", "ts", "dur"):
            if key not in event:
                fail(f"{path}: span {event.get('name')!r} missing {key!r}")
        if event["dur"] < 0:
            fail(f"{path}: span {event['name']!r} has negative duration")
    kernels = [e for e in complete if e.get("cat") == "kernel"]
    if not kernels:
        fail(f"{path}: no kernel spans — device hooks did not fire")
    print(
        f"check_obs_schema: {path}: OK "
        f"({len(complete)} spans, {len(kernels)} kernel)"
    )


def check_metrics(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != METRICS_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{METRICS_SCHEMA_VERSION}"
        )
    series = doc.get("metrics")
    if not isinstance(series, list) or not series:
        fail(f"{path}: metrics list missing or empty")
    for metric in series:
        for key in ("name", "type", "labels"):
            if key not in metric:
                fail(f"{path}: series missing {key!r}: {metric}")
    histograms = [
        m for m in series
        if m["name"] == "engine_iteration_seconds"
        and m["type"] == "histogram"
    ]
    if not histograms:
        fail(f"{path}: engine_iteration_seconds histogram not found")
    for hist in histograms:
        for key in ("count", "sum", "p50", "p95", "p99"):
            if key not in hist:
                fail(f"{path}: iteration histogram missing {key!r}")
        if hist["count"] < 1:
            fail(f"{path}: iteration histogram recorded no observations")
    print(f"check_obs_schema: {path}: OK ({len(series)} series)")


def check_advisor(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        fail(f"{path}: kernels list missing or empty")
    for kernel in kernels:
        name = kernel.get("name")
        if not name:
            fail(f"{path}: kernel entry without a name")
        if kernel.get("verdict") not in KERNEL_VERDICTS:
            fail(
                f"{path}: kernel {name!r} has unknown verdict "
                f"{kernel.get('verdict')!r}"
            )
        causes = kernel.get("causes")
        if not isinstance(causes, dict) or set(causes) != set(CAUSE_KEYS):
            fail(f"{path}: kernel {name!r} has malformed causes dict")
        if abs(sum(causes.values()) - kernel.get("seconds", 0.0)) > 1e-9:
            fail(
                f"{path}: kernel {name!r} causes do not sum to its "
                f"modeled seconds"
            )
    fraction = doc.get("transfer_fraction")
    if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
        fail(f"{path}: transfer_fraction missing or out of [0, 1]")
    for finding in doc.get("findings", []):
        for key in FINDING_KEYS:
            if key not in finding:
                fail(f"{path}: finding missing {key!r}: {finding}")
    print(
        f"check_obs_schema: {path}: OK "
        f"({len(kernels)} kernels, {len(doc.get('findings', []))} findings)"
    )


def check_analysis(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != ANALYSIS_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{ANALYSIS_SCHEMA_VERSION}"
        )
    if doc.get("source") not in ANALYSIS_SOURCES:
        fail(f"{path}: unknown source {doc.get('source')!r}")
    checked = doc.get("checked")
    if not isinstance(checked, int) or checked < 0:
        fail(f"{path}: 'checked' missing or negative")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        fail(f"{path}: findings list missing")
    severities = {severity: 0 for severity in ANALYSIS_SEVERITIES}
    for finding in findings:
        for key in ANALYSIS_FINDING_KEYS:
            if key not in finding:
                fail(f"{path}: finding missing {key!r}: {finding}")
        if finding["rule"] not in ANALYSIS_RULES:
            fail(f"{path}: unknown rule {finding['rule']!r}")
        if finding["severity"] not in severities:
            fail(f"{path}: unknown severity {finding['severity']!r}")
        severities[finding["severity"]] += 1
        if not finding["location"] and not finding["kernel"]:
            fail(f"{path}: finding {finding['rule']!r} has no anchor "
                 f"(neither location nor kernel)")
        actors = finding["actors"]
        if not isinstance(actors, list) or any(
            not isinstance(a, list) or len(a) != 2 for a in actors
        ):
            fail(f"{path}: malformed actors for {finding['rule']!r}")
    for key, severity in (
        ("num_errors", "error"),
        ("num_warnings", "warning"),
        ("num_infos", "info"),
    ):
        expected = severities.get(severity, 0)
        if doc.get(key, 0) != expected:
            fail(
                f"{path}: {key}={doc.get(key)!r} does not match the "
                f"findings list ({expected})"
            )
    rules = doc.get("rules")
    if not isinstance(rules, dict) or set(rules).difference(ANALYSIS_RULES):
        fail(f"{path}: rules histogram missing or carries unknown rules")
    if sum(rules.values()) != len(findings):
        fail(f"{path}: rules histogram does not sum to the findings count")
    print(
        f"check_obs_schema: {path}: OK ({doc['source']}, {checked} checked, "
        f"{severities['error']} error(s), {severities['warning']} warning(s))"
    )


def check_journal(path: str) -> None:
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        fail(f"{path}: journal is empty")
    records = []
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            fail(f"{path}: line {i + 1} is not valid JSON: {error}")
        if not isinstance(record, dict):
            fail(f"{path}: line {i + 1} is not a JSON object")
        records.append(record)
    meta = records[0]
    if meta.get("event") != "journal.meta":
        fail(f"{path}: first line must be the 'journal.meta' header")
    if meta.get("schema_version") != JOURNAL_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {meta.get('schema_version')!r} != "
            f"{JOURNAL_SCHEMA_VERSION}"
        )
    run_id = meta.get("run_id")
    if not run_id or not isinstance(run_id, str):
        fail(f"{path}: journal.meta header missing run_id")
    events = records[1:]
    if not events:
        fail(f"{path}: no events after the journal.meta header")
    last_seq = 0
    for record in events:
        for key in JOURNAL_ENVELOPE_KEYS:
            if key not in record:
                fail(
                    f"{path}: event {record.get('event')!r} missing "
                    f"envelope key {key!r}"
                )
        if record["run_id"] != run_id:
            fail(
                f"{path}: event {record['event']!r} run_id "
                f"{record['run_id']!r} != header {run_id!r}"
            )
        if record["event"] not in JOURNAL_EVENTS:
            fail(
                f"{path}: event name {record['event']!r} is not in the "
                "declared journal events (repro.obs.journal.EVENTS)"
            )
        seq = record["seq"]
        if not isinstance(seq, int) or seq <= last_seq:
            fail(
                f"{path}: event {record['event']!r} seq {seq!r} not "
                f"strictly increasing (last {last_seq})"
            )
        last_seq = seq
        if not isinstance(record["ts_us"], int) or record["ts_us"] < 0:
            fail(f"{path}: event {record['event']!r} has bad ts_us")
    slides = {r["slide_id"] for r in events if r["slide_id"]}
    print(
        f"check_obs_schema: {path}: OK "
        f"({len(events)} events, {len(slides)} slide(s), run {run_id})"
    )


def check_slo(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("source") != "slo":
        fail(f"{path}: source {doc.get('source')!r} != 'slo'")
    check_analysis(path)
    verdicts = doc.get("verdicts")
    if not isinstance(verdicts, list) or not verdicts:
        fail(f"{path}: verdicts list missing or empty")
    for verdict in verdicts:
        for key in ("name", "kind", "objective", "ok", "measured",
                    "missing", "alerting"):
            if key not in verdict:
                fail(
                    f"{path}: verdict {verdict.get('name')!r} missing "
                    f"{key!r}"
                )
    print(f"check_obs_schema: {path}: OK ({len(verdicts)} SLO verdict(s))")


def check_postmortem(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != FLIGHT_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{FLIGHT_SCHEMA_VERSION}"
        )
    for key in POSTMORTEM_KEYS:
        if key not in doc:
            fail(f"{path}: post-mortem bundle missing {key!r}")
    events = doc["events"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: post-mortem carries no flight-recorder events")
    for event in events:
        if "event" not in event or "seq" not in event:
            fail(f"{path}: malformed flight-recorder event: {event}")
    print(
        f"check_obs_schema: {path}: OK "
        f"(trigger {doc['trigger']!r}, {len(events)} events)"
    )


def check_memory(path: str) -> None:
    """Validate a ``--mem-out`` device-memory watermark report.

    The reconciliation contract is load-bearing: per-category live bytes
    must equal ``Device.allocated_bytes`` at every tracked event, and the
    tracked peak must be reachable from the event timeline.  The embedded
    planner-accuracy gate re-validates as an analysis report.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != MEMORY_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{MEMORY_SCHEMA_VERSION}"
        )
    categories = doc.get("categories")
    if not isinstance(categories, list) or set(categories) != set(
        MEMORY_CATEGORIES
    ):
        fail(f"{path}: categories enum out of sync: {categories!r}")
    if doc.get("reconciled") is not True:
        fail(f"{path}: watermark report is not reconciled")
    devices = doc.get("devices")
    if not isinstance(devices, list) or not devices:
        fail(f"{path}: devices list missing or empty")
    total_events = 0
    for dev in devices:
        for key in MEMORY_DEVICE_KEYS:
            if key not in dev:
                fail(f"{path}: device entry missing {key!r}")
        idx = dev["device"]
        if dev["reconciled"] is not True or dev["mismatches"] != 0:
            fail(f"{path}: gpu{idx} has unreconciled events")
        for block in (dev["categories_at_peak"], dev["category_peaks"]):
            unknown = set(block).difference(MEMORY_CATEGORIES)
            if unknown:
                fail(f"{path}: gpu{idx} has unknown categories {unknown}")
        events = dev["events"]
        if not isinstance(events, list):
            fail(f"{path}: gpu{idx} events must be a list")
        last_ts = float("-inf")
        seen_peak = 0
        for event in events:
            for key in MEMORY_EVENT_KEYS:
                if key not in event:
                    fail(
                        f"{path}: gpu{idx} event {event.get('op')!r} "
                        f"missing {key!r}"
                    )
            if event["ts"] < last_ts:
                fail(f"{path}: gpu{idx} event timeline not monotone in ts")
            last_ts = event["ts"]
            if event["live_bytes"] != event["device_allocated_bytes"]:
                fail(
                    f"{path}: gpu{idx} {event['op']!r} event: live "
                    f"{event['live_bytes']} != device "
                    f"{event['device_allocated_bytes']}"
                )
            seen_peak = max(seen_peak, event["live_bytes"])
        total_events += dev["num_events"]
        if events and len(events) == dev["num_events"]:
            # Untruncated timeline: the peak must be explained by it.
            if seen_peak != dev["peak_bytes"]:
                fail(
                    f"{path}: gpu{idx} peak {dev['peak_bytes']} not "
                    f"reached by its event timeline (max {seen_peak})"
                )
    planner = doc.get("planner")
    if not isinstance(planner, dict) or "accuracy" not in planner:
        fail(f"{path}: planner accuracy block missing")
    for row in planner["accuracy"]:
        for key in MEMORY_ACCURACY_KEYS:
            if key not in row:
                fail(f"{path}: planner accuracy row missing {key!r}")
    analysis = doc.get("analysis")
    if not isinstance(analysis, dict) or analysis.get("source") != "memory":
        fail(f"{path}: embedded analysis report missing or wrong source")
    num_rows = len(planner["accuracy"])
    print(
        f"check_obs_schema: {path}: OK ({len(devices)} device(s), "
        f"{total_events} events, {num_rows} planner prediction(s))"
    )


def check_bench(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        fail(
            f"{path}: schema_version {doc.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    for key in BENCH_REQUIRED_KEYS:
        if key not in doc:
            fail(f"{path}: bench payload missing {key!r}")
    counters = doc["counters"]
    if not isinstance(counters, dict):
        fail(f"{path}: counters must be a dict")
    for key in BENCH_COUNTER_KEYS:
        if key not in counters:
            fail(f"{path}: counters missing {key!r}")
    advisor = doc["advisor"]
    for verdict in advisor.get("verdicts", {}).values():
        if verdict not in KERNEL_VERDICTS:
            fail(f"{path}: unknown advisor verdict {verdict!r}")
    if doc["scenario"] == "warm_windows_incremental":
        if doc.get("identical_to_full") is not True:
            fail(f"{path}: incremental labels not identical to full run")
        ratio = doc.get("processed_edges_ratio")
        if not isinstance(ratio, (int, float)) or ratio < 5.0:
            fail(
                f"{path}: processed_edges_ratio {ratio!r} below the "
                f"5x incremental gate"
            )
        inc = doc.get("incremental_total_seconds")
        full = doc.get("full_total_seconds")
        if (
            not isinstance(inc, (int, float))
            or not isinstance(full, (int, float))
            or inc >= full
        ):
            fail(
                f"{path}: incremental modeled seconds ({inc!r}) not below "
                f"the full recompute ({full!r})"
            )
    print(f"check_obs_schema: {path}: OK (scenario {doc['scenario']!r})")


def _extract_flag(args: list, flag: str):
    paths = []
    while flag in args:
        i = args.index(flag)
        if i + 1 >= len(args):
            print(__doc__)
            sys.exit(2)
        paths.append(args[i + 1])
        del args[i:i + 2]
    return paths


_FLAG_CHECKS = (
    ("--analysis", check_analysis),
    ("--bench", check_bench),
    ("--journal", check_journal),
    ("--slo", check_slo),
    ("--postmortem", check_postmortem),
    ("--memory", check_memory),
)


def main(argv) -> int:
    args = list(argv[1:])
    flagged = [
        (check, path)
        for flag, check in _FLAG_CHECKS
        for path in _extract_flag(args, flag)
    ]
    if len(args) not in ((0, 2, 3) if flagged else (2, 3)):
        print(__doc__)
        return 2
    positional = list(zip((check_trace, check_metrics, check_advisor), args))
    for check, path in positional + flagged:
        try:
            check(path)
        except (
            OSError, ValueError, TypeError, KeyError, AttributeError
        ) as error:
            # Malformed input is a schema violation, not a crash.
            fail(f"{path}: {type(error).__name__}: {error}")
    print("check_obs_schema: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
