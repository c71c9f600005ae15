"""Self-test of the benchmark's own checks.

    python3 osebench/selfcheck.py [--seconds S] [WORKLOAD ...]

Run from the root of a checkout.  For each workload (all by default):

1. ``--corrupt`` must be caught: the run exits 1 with ``"correct":
   false`` and at least one failed operation.
2. Two traced runs at the same seed must report every per-layer count in
   ``layers.EXACT_COUNTS`` identically; a diff is printed when one does
   not.

It also checks that ``BENCHMARK.json`` declares exactly the per-layer
metrics the traced run prints.  Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import layers
from run import WORKLOADS

SEED = 7


def _run(workload: str, seconds: int,
         *extra: str) -> Tuple[int, Dict[str, Any]]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), *extra],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def _declared() -> bool:
    declared = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
    wanted = [{"name": n, "unit": u, "better": b}
              for n, u, b in layers.PER_LAYER]
    ok = declared == wanted
    print(f"BENCHMARK.json per_layer matches the traced run: {ok}")
    return ok


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    ok = _declared()
    for workload in args.workloads:
        code, result = _run(workload, args.seconds, "--trace", "0",
                            "--corrupt")
        caught = code == 1 and result.get("correct") is False and \
            result.get("failed", 0) >= 1
        print(f"{workload}: corrupted output caught: {caught} "
              f"(exit {code}, failed {result.get('failed')})")
        ok &= caught
        runs = [_run(workload, args.seconds, "--trace", "1")[1]
                for _ in range(2)]
        diffs = [(name, [r["metrics"][name]["value"] for r in runs])
                 for name in layers.EXACT_COUNTS
                 if runs[0]["metrics"][name]["value"]
                 != runs[1]["metrics"][name]["value"]]
        print(f"{workload}: per-layer counts repeat exactly: {not diffs}")
        for name, values in diffs:
            print(f"  {name}: {values[0]} != {values[1]}")
        ok &= not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
