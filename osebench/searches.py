"""``search-default`` and ``search-large-n``: Theorem 8/9 minimal-m pairs.

One unit is a pair of ``minimal_m`` searches on ``D_β`` (Definition 2,
``DBeta(n, d=32, reps=2)``, ε = 1/4, δ = 0.2, 100 trials per probe):
CountSketch (s = 1, Theorem 8) and OSNAP with s = 4 (Theorem 9).

The growth grid fixes the probe count.  CountSketch fails about when two
of the 64 support rows share a bucket, ``1 - exp(-2016/m)``, so m* ≈ 9000:
its first probe, m = 4096, fails (39 %) and its second, ×6 = 24576,
passes (8 %, far from δ), for essentially every seed.  The bisection
widths 20480/2^k then step from 640 to 320 across the stopping width
``lo // 20`` ∈ [375, 525] for any lo in [7500, 10500], so it always takes
6 more probes.  OSNAP's m* ≈ 650 is bracketed by 256 and ×4 = 1024, and
its widths step from 48 to 24 across ``lo // 20`` ≈ 30: 5 more probes.
Every unit therefore runs 8 + 7 probes of 100 trials.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

import common
import layers
from tracing import Tracer, worker_totals, write_spans

D, REPS, EPSILON, DELTA, TRIALS = 32, 2, 0.25, 0.2, 100

#: Per workload: ambient n, engine batch, process-pool workers (``None`` =
#: every available CPU), and the nominal seconds of one unit, which sets
#: how many units a run of ``--seconds`` holds.  The unit count is fixed
#: by the run length, never by how fast the host happens to be.
CONFIG = {
    "search-default": {"n": 16384, "batch": None, "workers": 1,
                       "unit_s": 10.5},
    "search-large-n": {"n": 131072, "batch": 32, "workers": None,
                       "unit_s": 7.0},
}

#: Trials of the m* probe the serial engine re-runs when the search ran
#: batched (see ``Searches.check_unit``).
CROSS_TRIALS = 8

#: (family, first probe, growth) of the pair.
SEARCHES = (("CountSketch", 4096, 6.0), ("OSNAP", 256, 4.0))

SET_UP = (
    "from repro.core import minimal_m\n"
    "from repro.hardinstances.dbeta import DBeta\n"
    "from repro.sketch.countsketch import CountSketch\n"
    "from repro.sketch.osnap import OSNAP\n"
    "DBeta(n={n}, d={d}, reps={reps})\n"
    "CountSketch(m=4096, n={n}); OSNAP(m=256, n={n}, s=4)\n"
)


def _families(n: int) -> List[Tuple[Any, int, float]]:
    from repro.sketch.countsketch import CountSketch
    from repro.sketch.osnap import OSNAP

    return [(CountSketch(m=m_min, n=n) if name == "CountSketch"
             else OSNAP(m=m_min, n=n, s=4), m_min, growth)
            for name, m_min, growth in SEARCHES]


def _workers(cfg: Dict[str, Any]) -> int:
    from repro.utils.parallel import available_cpus

    return cfg["workers"] or available_cpus()


def _passes(est: Any) -> bool:
    return est.point <= DELTA


class Searches:
    """One run's units of a search workload."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        from repro.hardinstances.dbeta import DBeta

        self.cfg = CONFIG[workload]
        self.seed = seed
        self.units = max(1, round(seconds / self.cfg["unit_s"]))
        self.instance = DBeta(n=self.cfg["n"], d=D, reps=REPS)
        self.families = _families(self.cfg["n"])

    def _seq(self, unit: int, k: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, unit, k])

    def _probe_rng(self, unit: int, k: int,
                   index: int) -> np.random.Generator:
        """The generator ``minimal_m`` handed its ``index``-th probe: the
        search spawns one child of its seed sequence per probe."""
        return np.random.default_rng(np.random.SeedSequence(
            self._seq(unit, k).entropy, spawn_key=(index,)))

    def run_unit(self, unit: int) -> Tuple[float, List[Any],
                                           List[List[float]], List[Any]]:
        """Time one search pair.

        Returns the wall time, the two results, the probe latencies of
        each search and the unit's ledger events.
        """
        from repro.core import minimal_m
        from repro.observe.ledger import RunLedger, use_ledger

        # The ledger is the library's own probe timer: each ``probe``
        # event carries its elapsed time.
        ledger = RunLedger(None)
        results = []
        started = time.perf_counter()
        with use_ledger(ledger):
            for k, (family, m_min, growth) in enumerate(self.families):
                results.append(minimal_m(
                    family, self.instance, EPSILON, DELTA, trials=TRIALS,
                    m_min=m_min, growth=growth,
                    rng=np.random.default_rng(self._seq(unit, k)),
                    workers=_workers(self.cfg), batch=self.cfg["batch"],
                ))
        wall = time.perf_counter() - started
        latencies: List[List[float]] = []
        for event in ledger.events:
            if event["kind"] == "minimal_m_start":
                latencies.append([])
            elif event["kind"] == "probe" and not event["aliased"]:
                latencies[-1].append(event["elapsed"])
        return wall, results, latencies, ledger.events

    def check_unit(self, unit: int, results: List[Any],
                   checks: common.Checks, corrupt: bool) -> None:
        """Reference checks, outside the timed window.

        The probes must bracket m* to the search's tolerance; the m*
        probe re-run on the search's engine must give the same failure
        count, and the other engine must agree with it to rtol 1e-9.
        """
        from repro.core import distortion_samples

        for k, ((family, _, _), result) in enumerate(
                zip(self.families, results)):
            ok = result.found
            what = f"unit {unit} search {k}: "
            if ok:
                m_star = result.m_star
                probes = [m for m, _ in result.evaluations]
                index = len(probes) - 1 - probes[::-1].index(m_star)
                recorded = result.evaluations[index][1]
                if corrupt and unit == 0:
                    recorded = type(recorded)(recorded.successes + 1,
                                              recorded.trials)
                fails_below = [m for m, est in result.evaluations
                               if m < m_star and not _passes(est)]
                lo = max(fails_below) if fails_below else None
                bracketed = _passes(recorded) and lo is not None and \
                    m_star - lo <= max(1, lo // 20)
                fam = family.with_m(m_star)
                same = distortion_samples(
                    fam, self.instance, TRIALS,
                    self._probe_rng(unit, k, index), batch=self.cfg["batch"])
                repeat = int(np.sum(same > EPSILON)) == recorded.successes
                # The other engine re-runs the probe's first trials: each
                # trial consumes only its own child seed, so a shorter run
                # from the same generator sees the same first draws.  The
                # serial engine assembles a dense n x d draw per trial, so
                # at large n it re-runs only CROSS_TRIALS of them.
                other_batch = None if self.cfg["batch"] else 32
                cross = TRIALS if other_batch else CROSS_TRIALS
                other = distortion_samples(
                    fam, self.instance, cross,
                    self._probe_rng(unit, k, index), batch=other_batch)
                # The library's own engine-equivalence tolerance: an
                # isometric trial's distortion is pure rounding (~1e-16).
                agree = bool(np.allclose(same[:cross], other, rtol=1e-9,
                                         atol=1e-12))
                ok = bracketed and repeat and agree
                what += (f"m*={m_star} bracketed={bracketed} "
                         f"repeat={repeat} engines_agree={agree}")
            checks.attempted += len(result.evaluations) - 1
            checks.check(ok, what + ("" if ok else " FAILED"))

    def warm_up(self) -> None:
        """Lazy imports and first-call set-up, outside any timed window."""
        from repro.core import failure_estimate

        for family, _, _ in self.families:
            failure_estimate(family, self.instance, EPSILON, 4,
                             np.random.default_rng(0),
                             workers=_workers(self.cfg),
                             batch=2 if self.cfg["batch"] else None)


def _set_up_code(cfg: Dict[str, Any]) -> str:
    return SET_UP.format(n=cfg["n"], d=D, reps=REPS)


def measure(workload: str, seed: int, seconds: int,
            corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                    Dict[str, Any]]:
    bench = Searches(workload, seed, seconds)
    checks = common.Checks()
    code = _set_up_code(bench.cfg)
    common.set_up_in_child(code)  # compiles bytecode; not a sample
    bench.warm_up()
    points = common.sample_points(common.SETUP_SAMPLES, bench.units)
    setups, walls, outputs = [], [], []
    # Probe latencies by search: the two families' probes form two
    # clusters (at n=131072 about 0.2 s against 0.75 s).
    per_search: List[List[float]] = []
    for unit in range(bench.units):
        while points and points[0] == unit:
            points.pop(0)
            setups.append(common.set_up_in_child(code))
        common.settle()
        wall, results, lat, _ = bench.run_unit(unit)
        walls.append(wall)
        per_search.extend(lat)
        outputs.append(results)
    # Before the checks: they re-run probes in this process, and at large
    # n on the serial engine, whose dense draws would set the peak.
    peak = common.peak_rss_mb()
    for unit, results in enumerate(outputs):
        bench.check_unit(unit, results, checks, corrupt)
    metrics, details = common.end_to_end(setups, walls, per_search, peak)
    return metrics, checks, details


def traced(workload: str, seed: int, seconds: int,
           corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                   Dict[str, Any]]:
    """Untraced pass, then the same units traced; per-layer metrics."""
    from repro.observe.counters import counters

    bench = Searches(workload, seed, seconds)
    checks = common.Checks()
    bench.warm_up()
    untraced = []
    for unit in range(bench.units):
        common.settle()
        untraced.append(bench.run_unit(unit)[0])
    tracer = Tracer()
    tracer.install()
    before = counters().snapshot()
    walls, events, outputs = [], [], []
    try:
        for unit in range(bench.units):
            common.settle()
            tracer.unit = unit
            wall, results, _, unit_events = bench.run_unit(unit)
            tracer.unit = None
            walls.append(wall)
            events.extend(unit_events)
            outputs.append(results)
    finally:
        tracer.uninstall()
    delta = counters().diff(before)
    for unit, results in enumerate(outputs):
        bench.check_unit(unit, results, checks, corrupt)
    write_spans(tracer.measured(),
                common.result_path(f"spans-{workload}.jsonl"))
    metrics = layers.compute(
        [layers.aggregate(tracer.measured())], worker_totals(delta),
        events,
        delta, sum(walls), sum(untraced),
        {"workers": _workers(bench.cfg)},
    )
    return metrics, checks, {}
