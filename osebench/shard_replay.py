"""``shard-replay``: E1 through the 3-shard protocol, then warm re-runs.

One unit is one 3-shard sweep of E1 (Theorem 8's CountSketch threshold
experiment) at scale 0.05 through :func:`repro.shard.sharded_call`: shard
passes and ``merge_stores`` rounds until nothing is pending, then the
final serial replay against the merged store.  ``wall_s`` is the sweep.
Each sweep is followed by warm E1 re-runs, each through a freshly opened
``ProbeCache`` on the merged store; their times are the latencies.
Every sweep and re-run must produce the bytes of an unsharded,
cache-off E1 at the same seed.
"""

from __future__ import annotations

import json
import shutil
import time
from typing import Any, Dict, List, Tuple

import common
import layers
from tracing import Tracer, worker_totals, write_spans

EXPERIMENT, SCALE, SHARDS, WARM_RERUNS = "E1", 0.05, 3, 20

#: Seconds of run length per unit; sets how many units a run of
#: ``--seconds`` holds, independent of host speed.  A unit takes about
#: 3.5 s, but the host runs this workload at two speeds, a factor of
#: two apart, for a second or more at a time, so a run holds more units
#: than its length alone would give.  With 20 re-runs per sweep the
#: latency tail, the 92nd percentile of 120, falls among the slow
#: speed's re-runs whenever a run meets it at all, instead of moving
#: between the two speeds.
UNIT_S = 2.7

SET_UP = (
    "from repro.cache import ProbeCache\n"
    "from repro.experiments.registry import run_experiment\n"
    "from repro.shard import merged_dir, shard_store_dir, sharded_call\n"
    "root = {root!r}\n"
    "for k in range({shards}):\n"
    "    shard_store_dir(root, k).mkdir(parents=True, exist_ok=True)\n"
    "merged_dir(root).mkdir(parents=True, exist_ok=True)\n"
)


def _unit_seed(seed: int, unit: int) -> int:
    return seed * 1000 + unit


def _result_bytes(result: Any) -> str:
    """The exact text ``ExperimentResult.save_json`` writes."""
    from repro.utils.serialization import json_default

    return json.dumps(result.to_dict(), indent=2, allow_nan=False,
                      default=json_default)


class ShardReplay:
    """One run's units of ``shard-replay``, in a scratch directory."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.units = max(1, round(seconds / UNIT_S))
        self.root = common.fresh_dir("shard-replay")

    def run_unit(self, unit: int) -> Dict[str, Any]:
        """One sweep plus its warm re-runs; returns times and outputs.

        Both run under an in-memory ledger in every pass: the traced run
        reads its ``shard_round`` events, and the traced and untraced
        passes must do the same work.
        """
        from repro.cache import ProbeCache
        from repro.experiments.registry import run_experiment
        from repro.observe.ledger import RunLedger, use_ledger
        from repro.shard import merged_dir, sharded_call

        directory = self.root / f"unit-{unit}"
        rng_seed = _unit_seed(self.seed, unit)

        def sharded(cache: Any, shard: Any) -> Any:
            return run_experiment(EXPERIMENT, scale=SCALE, rng=rng_seed,
                                  cache=cache, shard=shard)

        ledger = RunLedger(None)
        warm_times, warm_outputs = [], []
        with use_ledger(ledger):
            started = time.perf_counter()
            swept = sharded_call(sharded, SHARDS, directory)
            wall = time.perf_counter() - started
            for _ in range(WARM_RERUNS):
                started = time.perf_counter()
                cache = ProbeCache(merged_dir(directory))
                try:
                    warm = run_experiment(EXPERIMENT, scale=SCALE,
                                          rng=rng_seed, cache=cache)
                finally:
                    cache.close()
                warm_times.append(time.perf_counter() - started)
                warm_outputs.append(warm)
        return {"wall": wall, "warm_times": warm_times, "swept": swept,
                "warm": warm_outputs, "directory": directory,
                "events": ledger.events}

    def check_unit(self, unit: int, out: Dict[str, Any],
                   checks: common.Checks, corrupt: bool) -> None:
        """Sweep and re-runs against an unsharded cache-off E1."""
        from repro.experiments.registry import run_experiment

        reference = _result_bytes(run_experiment(
            EXPERIMENT, scale=SCALE, rng=_unit_seed(self.seed, unit)))
        swept = _result_bytes(out["swept"])
        if corrupt and unit == 0:
            swept = swept.replace('"E1"', '"E0"', 1)
        checks.check(swept == reference,
                     f"unit {unit}: 3-shard E1 differs from unsharded E1")
        for k, warm in enumerate(out["warm"]):
            checks.check(_result_bytes(warm) == reference,
                         f"unit {unit}: warm re-run {k} differs")

    def store_files(self, out: Dict[str, Any]) -> List[Any]:
        return sorted(out["directory"].glob("*/probes.jsonl"))

    def drop(self, out: Dict[str, Any]) -> None:
        shutil.rmtree(out["directory"], ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _set_up_sample(bench: ShardReplay, index: int) -> float:
    root = bench.root / f"set-up-{index}"
    code = SET_UP.format(shards=SHARDS, root=str(root))
    try:
        return common.set_up_in_child(code)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure(workload: str, seed: int, seconds: int,
            corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                    Dict[str, Any]]:
    bench = ShardReplay(seed, seconds)
    checks = common.Checks()
    try:
        _set_up_sample(bench, -1)  # compiles bytecode; not a sample
        points = common.sample_points(common.SETUP_SAMPLES, bench.units)
        setups, walls, outputs = [], [], []
        for unit in range(bench.units):
            while points and points[0] == unit:
                points.pop(0)
                setups.append(_set_up_sample(bench, len(setups)))
            common.settle()
            out = bench.run_unit(unit)
            walls.append(out["wall"])
            bench.drop(out)
            del out["events"]  # only the traced run reads them
            outputs.append(out)
        # Before the checks, which compute an unsharded E1 per unit here.
        peak = common.peak_rss_mb()
        for unit, out in enumerate(outputs):
            bench.check_unit(unit, out, checks, corrupt)
        # Each sweep's re-runs are one latency group: they run back to
        # back, so they share the host's speed of the moment.
        metrics, details = common.end_to_end(
            setups, walls, [out["warm_times"] for out in outputs], peak)
        return metrics, checks, details
    finally:
        bench.close()


def traced(workload: str, seed: int, seconds: int,
           corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                   Dict[str, Any]]:
    """Untraced pass, then the same units traced; per-layer metrics."""
    from repro.observe.counters import counters

    bench = ShardReplay(seed, seconds)
    checks = common.Checks()
    try:
        untraced = []
        for unit in range(bench.units):
            common.settle()
            out = bench.run_unit(unit)
            untraced.append(out["wall"] + sum(out["warm_times"]))
            bench.drop(out)
        tracer = Tracer()
        tracer.install()
        before = counters().snapshot()
        walls, outputs = [], []
        try:
            for unit in range(bench.units):
                common.settle()
                tracer.unit = unit
                out = bench.run_unit(unit)
                tracer.unit = None
                walls.append(out["wall"] + sum(out["warm_times"]))
                outputs.append(out)
        finally:
            tracer.uninstall()
        delta = counters().diff(before)
        dups = 0
        for unit, out in enumerate(outputs):
            dups += layers.count_duplicates(bench.store_files(out))
            bench.check_unit(unit, out, checks, corrupt)
            bench.drop(out)
        write_spans(tracer.measured(),
                common.result_path(f"spans-{workload}.jsonl"))
        metrics = layers.compute(
            [layers.aggregate(tracer.measured())], worker_totals(delta),
            [e for out in outputs for e in out["events"]],
            delta, sum(walls), sum(untraced),
            {"workers": 1, "cache.dup_records": dups},
        )
        return metrics, checks, {}
    finally:
        bench.close()
