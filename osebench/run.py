"""Benchmark entry point.

    python3 osebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics; with ``--trace 1`` it runs the same units untraced and
then traced and prints the per-layer metrics.  Every output is checked
against a reference computed outside the timed window; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) and the exit code is 1 when any check failed.
``--corrupt`` damages one output before it is checked, to show that the
checks catch it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("search-default", "search-large-n", "serve-mixed",
             "shard-replay")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before checking it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not Path("src", "repro", "__init__.py").is_file():
        print("osebench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    import common

    # Pin BLAS before numpy loads, here and (via common.child_env) in
    # every child: the trial engine is single-threaded per process.
    for name in common.BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path("src").resolve()))

    if args.workload.startswith("search-"):
        import searches as workload
    elif args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import shard_replay as workload
    run = workload.traced if args.trace else workload.measure
    metrics, checks, details = run(args.workload, args.seed, args.seconds,
                                   args.corrupt)
    env = common.fingerprint({name: "1" for name in common.BLAS_ENV})
    env.update(workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    correct = checks.failed == 0
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    common.result_path(
        f"result-{args.workload}-trace{args.trace}.json"
    ).write_text(json.dumps({"env": env, "details": details, **result},
                            indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
