"""Regenerate ``expected.json``, the reference hashes ``run.py`` checks.

Usage, from the repository root::

    python3 benchmarks/e2e/make_expected.py [SEED ...]

For each seed (default 0-31) it slides the 14-day window across the whole
65-day stream twice, once incrementally and once densely, and writes
nothing unless the two labels-hash chains agree entry by entry and pass
the serial-engine oracle.  It also stores the ``lp_batch`` run hash, which
``workloads.lp_batch`` has already checked against the serial engine.
Entries for seeds not named are kept.  Only a change that is meant to
alter labels should ever need this.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import workloads
from run import HASH_CHARS

PATH = Path(__file__).resolve().parent / "expected.json"


def _chain(seed: int, incremental: bool) -> list:
    result = workloads.slides(
        seed, math.inf, incremental=incremental, setup_repeats=1
    )
    if result["failed"] or result["mismatched"]:
        raise SystemExit(f"seed {seed}: the slide oracle rejected the chain")
    return [h[:HASH_CHARS] for h in result["chain"]]


def _store(seed: int, chain: list, lp_hash: str) -> None:
    """Merge one seed into the file (re-read, so parallel runs both land)."""
    expected = json.loads(PATH.read_text())
    expected["window_chain"][str(seed)] = chain
    expected["lp_batch"][str(seed)] = lp_hash
    for name, table in expected.items():
        expected[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    PATH.write_text(json.dumps(expected, indent=1) + "\n")


def main(argv) -> int:
    for seed in [int(s) for s in argv] or range(32):
        chain = _chain(seed, incremental=True)
        if chain != _chain(seed, incremental=False):
            raise SystemExit(f"seed {seed}: incremental and full chains differ")
        lp = workloads.lp_batch(seed, 0.0, setup_repeats=1)
        if lp["failed"] or lp["mismatched"]:
            raise SystemExit(f"seed {seed}: lp_batch disagrees with the oracle")
        _store(seed, chain, lp["chain"][0][:HASH_CHARS])
        print(f"seed {seed}: {len(chain)} chain entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
