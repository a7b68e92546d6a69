"""End-to-end wall-clock benchmark: window slides, batch LP, open-loop scoring.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--repeat N] [--out DIR]

Each selected workload (all four by default) runs in a fresh process, one
after another.  The command prints every metric by name with its unit,
checks the outputs, and ends with one JSON line::

    {"correct": true, "attempted": 35, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs each workload twice, untraced and
then traced, and reports the per-layer metrics plus the tracing overhead.
``--repeat N`` alternates the workload order over N rounds and reports each
metric's median and quartiles.

Correctness: every labels-hash chain is checked against an in-process
oracle (see ``workloads.py``), against ``expected.json`` when the seed is
listed there, and against every other chain produced in the same
invocation for the same seed.  A mismatch counts every affected operation
as failed and makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("slide_incremental", "slide_full", "lp_batch", "serve_mixed")
#: Workloads whose chain entry ``i`` is the window starting on day ``i``.
WINDOW_WORKLOADS = ("slide_incremental", "slide_full", "serve_mixed")
#: Well inside the 180 s a single benchmark command may take.
CHILD_TIMEOUT_S = 170
#: Expected-hash prefix length stored in expected.json.
HASH_CHARS = 16


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    setup_repeats: int,
    out_dir: Path,
) -> dict:
    """Run one workload in a fresh interpreter and return its raw result."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        workload,
        str(seed),
        str(seconds),
        "1" if trace else "0",
        str(setup_repeats),
        str(out_dir),
    ]
    # One thread of numeric code: the load must fit the machine's two cores
    # (the service's loop thread plus its slide thread).
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} ran past {CHILD_TIMEOUT_S} s") from error
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def chain_digest(chain: List[str]) -> str:
    """One short digest of a whole labels-hash chain."""
    return hashlib.sha256("".join(chain).encode()).hexdigest()[:HASH_CHARS]


def references(
    result: dict, expected: dict, others: List[dict]
) -> List[Tuple[str, List[str]]]:
    """Chains ``result`` must agree with, entry by entry where both exist.

    ``lp_batch`` repeats one run, so its reference chains repeat one hash.
    """
    workload, seed = result["workload"], str(result["seed"])
    n = len(result["chain"])
    refs = []
    if workload == "lp_batch":
        if seed in expected["lp_batch"]:
            refs.append(("expected.json", [expected["lp_batch"][seed]] * n))
        refs += [
            (f"{o['workload']} (trace={int(o['layers'] is not None)})",
             o["chain"][:1] * n)
            for o in others if o["workload"] == "lp_batch" and o["chain"]
        ]
    else:
        if seed in expected["window_chain"]:
            refs.append(("expected.json", expected["window_chain"][seed]))
        refs += [
            (f"{o['workload']} (trace={int(o['layers'] is not None)})",
             o["chain"])
            for o in others if o["workload"] in WINDOW_WORKLOADS
        ]
    return refs


def failures(result: dict, refs: List[Tuple[str, List[str]]]) -> Tuple[int, List[str]]:
    """Failed operations of ``result`` and a note per problem found.

    Chain entries disagreeing with the oracle or any reference fail every
    operation that depended on them: a slide or LP run, or on
    ``serve_mixed`` every request answered from that state version.
    """
    chain = result["chain"]
    bad = set(result["mismatched"])
    notes = [f"oracle rejected chain entry {i}" for i in sorted(bad)]
    for name, ref in refs:
        wrong = [
            i for i, (h, r) in enumerate(zip(chain, ref))
            if h[:HASH_CHARS] != r[:HASH_CHARS]
        ]
        notes += [f"chain entry {i} differs from {name}" for i in wrong]
        bad.update(wrong)
    failed = result["failed"]
    if result["workload"] == "serve_mixed":
        served = {int(v): n for v, n in result["version_requests"].items()}
        failed += sum(max(1, served.get(v, 0)) for v in bad)
        for version, count in result["wrong_responses"].items():
            notes.append(f"{count} responses disagree with version {version}")
            if int(version) not in bad:
                failed += count
    else:
        failed += len(bad)
    return failed, notes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(values: List[float]) -> float:
    """``statistics.median``, 0 when a run produced no samples."""
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": median(result["setup_s"]),
        "latency_p50_ms": median(result["op_s"]) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict, names: List[str]) -> Dict[str, float]:
    """The per-layer metrics of a traced run; layers it never ran read 0."""
    layers = dict(traced["layers"])
    base = end_to_end(untraced)["latency_p50_ms"]
    layers["trace.overhead_ratio"] = (
        end_to_end(traced)["latency_p50_ms"] / base if base else 0.0
    )
    return {name: float(layers.get(name, 0.0)) for name in names}


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed length of each workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds of fresh runs; report medians")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for trace files")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    return args


def measure(
    workload: str, args: argparse.Namespace, names: List[str]
) -> Tuple[List[dict], Dict[str, float]]:
    """One round of ``workload``: its raw results and reported metrics."""
    run = dict(seed=args.seed, seconds=args.seconds, out_dir=args.out)
    if args.trace:
        untraced = run_child(workload, trace=False, setup_repeats=1, **run)
        traced = run_child(workload, trace=True, setup_repeats=1, **run)
        return [untraced, traced], per_layer(traced, untraced, names)
    result = run_child(workload, trace=False, setup_repeats=3, **run)
    return [result], end_to_end(result)


def check(result: dict, expected: dict, earlier: List[dict]) -> int:
    """Print the checks of one result; return its failed operations."""
    refs = references(result, expected, earlier)
    failed, notes = failures(result, refs)
    print(
        f"# {result['workload']} seed={result['seed']} "
        f"trace={int(result['layers'] is not None)}: "
        f"{result['attempted']} ops, {failed} failed, "
        f"chain {chain_digest(result['chain'])} "
        f"({len(result['chain'])} entries, oracle checked "
        f"{result['oracle_checked']}, {len(refs)} references)"
    )
    for note in notes:
        print(f"#   MISMATCH {note}")
    return failed


def summarize(samples: Dict[str, Dict[str, List[float]]], units: dict) -> dict:
    """Print each metric's median (and quartiles over repeats)."""
    metrics = {}
    for workload, by_name in samples.items():
        for name, values in by_name.items():
            middle = median(values)
            line = f"{workload:<18} {name:<40} {middle:.6g} {units[name]}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / middle if middle else 0.0
                line += f"  [q1 {q1:.6g}, q3 {q3:.6g}, iqr/median {spread:.3f}]"
            print(line)
            key = name if len(samples) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": middle, "unit": units[name]}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in reported}
    expected = load_expected()
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    samples = {w: {name: [] for name in units} for w in workloads}
    attempted = failed = 0
    for round_index in range(args.repeat):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        results: List[dict] = []
        for workload in order:
            try:
                produced, values = measure(workload, args, list(units))
            except BenchError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            for result in produced:
                failed += check(result, expected, results)
                attempted += result["attempted"]
                results.append(result)
            for name, value in values.items():
                samples[workload][name].append(value)

    metrics = summarize(samples, units)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
