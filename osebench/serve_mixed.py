"""``serve-mixed``: closed-loop request mix against ``repro.serve``.

One client sends 100 requests per unit, each only after the previous
reply (the server's callers are scripts that wait), against a server on a
pre-populated probe store.  The seeded deck mixes five classes, 20
requests each:

* ``hit``: ``failure_estimate`` probes already in the store;
* ``miss``: fresh spawn keys, so the server computes, appends and logs
  (n = 2048, 32 trials);
* ``apply``: ``sketch_apply`` with a 2048 × 8 matrix body;
* ``pair`` (10 pairs): the same fresh request sent at once on two
  connections, which the single-flight gate should coalesce;
* ``offline``: before the unit the client computes the probe through
  the library into the server's cache directory, then asks the server.
  Today the server never re-reads its store (ROADMAP defect 5(b)), so
  these miss, recompute and append a duplicate record; the traced run
  reports that as ``serve.offline_warm_hit_frac`` and
  ``cache.dup_records``.

No caller, document or ledger of the repository states how real traffic
divides between these classes, so the equal shares are an assumption.
They weigh no class above another.  ``latency_p50_ms`` is the geometric
mean of each class's median in each deck, which does not depend on the
shares, and the traced run prints each class's median as
``serve.<class>.p50_ms``.

Every result must equal, byte for byte, the offline API at the same seed
and spawn key, and every response's cache tally must fit its class.
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common
import layers
from tracing import read_spans, write_spans

N, D, REPS, EPSILON, TRIALS = 2048, 8, 2, 0.25, 32
MS = (128, 256, 512)
POOL = 40
APPLY_COLS = 8
#: Steps per class in one unit; a pair step is two requests, so every
#: class sends 20.  Equal shares are an assumption (see above).
CLASSES = layers.SERVE_CLASSES
MIX = tuple(zip(CLASSES, (20, 20, 20, 10, 20)))

#: Nominal seconds of one unit; sets how many units a run holds.
UNIT_S = 1.6

#: Spawn-key prefix of the pre-populated probes.
POOL_KEY = 1_000_000

#: A failed request counts as missing any latency limit.
FAILED_LATENCY_S = 60.0


def _instance() -> Any:
    from repro.hardinstances.dbeta import DBeta

    return DBeta(n=N, d=D, reps=REPS)


def _family(m: int) -> Any:
    from repro.sketch.countsketch import CountSketch

    return CountSketch(m=m, n=N)


def _rng(seed: int, key: Tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _estimate(m: int, seed: int, key: Tuple[int, ...],
              cache: Any = None) -> Dict[str, Any]:
    """The offline API's answer, in the server's result shape."""
    from repro.core import failure_estimate

    est = failure_estimate(_family(m), _instance(), EPSILON, TRIALS,
                           rng=_rng(seed, key), cache=cache)
    return {"successes": int(est.successes), "trials": int(est.trials),
            "confidence": float(est.confidence), "point": float(est.point),
            "low": float(est.low), "high": float(est.high)}


def _applied(m: int, seed: int, key: Tuple[int, ...],
             matrix: np.ndarray) -> Dict[str, Any]:
    from repro.sketch import sample_sketch

    out = np.asarray(sample_sketch(_family(m), _rng(seed, key)).apply(matrix))
    return {"result": out.tolist(), "shape": [int(x) for x in out.shape]}


def _matrix(seed: int, key: Tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng([seed, *key]).standard_normal(
        (N, APPLY_COLS))


class Server:
    """One ``python -m repro.serve`` child on a copy of the base store."""

    def __init__(self, store: Path, spans: Optional[Path]) -> None:
        self.store = store
        #: ``GET /metrics`` read just before the server is stopped.
        self.metrics: Dict[str, Any] = {}
        if spans is None:
            argv = [sys.executable, "-m", "repro.serve"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name(
                "serve_launch.py")), str(spans)]
        argv += ["--port", "0", "--cache-dir", str(store)]
        started = time.perf_counter()
        self.log = open(store.parent / f"{store.name}.log", "w")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True,
                                     env=common.child_env())
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.strip()[len("serving on http://"):] \
                .partition(":")
            self.host, self.port = host, int(port)
            while self.get("/healthz").get("status") != "ok":
                if time.perf_counter() - started > 120:
                    raise RuntimeError("server never reported healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        #: Spawn until ``/healthz`` answers ok: the server's set-up time.
        self.set_up_s = time.perf_counter() - started

    def get(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def post(self, endpoint: str, body: bytes) -> Tuple[int, bytes, float]:
        """One request on its own connection: (status, body, seconds)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            started = time.perf_counter()
            conn.request("POST", f"/v1/{endpoint}", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            return response.status, data, time.perf_counter() - started
        except (OSError, http.client.HTTPException):
            return 0, b"", FAILED_LATENCY_S
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class ServeMixed:
    """One run's decks, the base store and its reference answers."""

    def __init__(self, seed: int, seconds: int) -> None:
        from repro.cache import ProbeCache

        self.seed = seed
        self.units = max(1, round(seconds / UNIT_S))
        self.root = common.fresh_dir("serve-mixed")
        self.base = self.root / "base"
        cache = ProbeCache(self.base)
        try:
            self.pool = [
                (MS[i % len(MS)], (POOL_KEY, i),
                 _estimate(MS[i % len(MS)], seed, (POOL_KEY, i), cache))
                for i in range(POOL)
            ]
        finally:
            cache.close()
        self._copies = 0

    def store_copy(self) -> Path:
        """A fresh copy of the pre-populated store for one server."""
        self._copies += 1
        path = self.root / f"store-{self._copies}"
        shutil.copytree(self.base, path)
        return path

    def deck(self, unit: int) -> List[Dict[str, Any]]:
        """The unit's requests, in send order (pairs are one step)."""
        gen = np.random.default_rng([self.seed, unit, 7])
        steps: List[Dict[str, Any]] = []
        for cls, count in MIX:
            for j in range(count):
                if cls == "hit":
                    m, key, ref = self.pool[int(gen.integers(POOL))]
                    steps.append({"cls": cls, "m": m, "key": key,
                                  "ref": ref})
                else:
                    m = MS[int(gen.integers(len(MS)))]
                    key = (unit, len(steps))
                    steps.append({"cls": cls, "m": m, "key": key})
        order = gen.permutation(len(steps))
        steps = [steps[i] for i in order]
        fam_inst = {"instance": _instance().spec()}
        for step in steps:
            payload: Dict[str, Any] = {
                "family": _family(step["m"]).spec(),
                "seed": self.seed, "spawn_key": list(step["key"])}
            if step["cls"] == "apply":
                step["endpoint"] = "sketch_apply"
                payload["matrix"] = _matrix(self.seed, step["key"]).tolist()
            else:
                step["endpoint"] = "failure_estimate"
                payload.update(fam_inst, epsilon=EPSILON, trials=TRIALS)
            step["body"] = json.dumps(payload, sort_keys=True).encode()
        return steps

    def warm_offline(self, steps: List[Dict[str, Any]],
                     store: Path) -> None:
        """The offline writer: compute ``offline`` probes into the server's
        store through the library, before the unit asks for them."""
        from repro.cache import ProbeCache

        cache = ProbeCache(store)
        try:
            for step in steps:
                if step["cls"] == "offline":
                    step["ref"] = _estimate(step["m"], self.seed,
                                            step["key"], cache)
        finally:
            cache.close()

    def run_unit(self, server: Server,
                 steps: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Send the deck closed-loop; returns times and raw replies."""
        latencies: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
        step_times: List[float] = []
        started = time.perf_counter()
        for step in steps:
            t0 = time.perf_counter()
            if step["cls"] == "pair":
                replies: List[Any] = [None, None]
                gate = threading.Barrier(2)

                def send(slot: int, step: Dict[str, Any] = step) -> None:
                    gate.wait()
                    replies[slot] = server.post(step["endpoint"],
                                                step["body"])

                other = threading.Thread(target=send, args=(1,))
                other.start()
                send(0)
                other.join()
                step["replies"] = replies
            else:
                step["replies"] = [server.post(step["endpoint"],
                                               step["body"])]
            step_times.append(time.perf_counter() - t0)
            latencies[step["cls"]].extend(r[2] for r in step["replies"])
        ended = time.perf_counter()
        # The checks need only the replies; the request bodies, 340 kB for
        # an apply, would otherwise pile up in the client until they run.
        for step in steps:
            del step["body"]
        return {"wall": ended - started, "latencies": latencies,
                "steps": step_times, "window": (started, ended)}

    def check_unit(self, steps: List[Dict[str, Any]], checks: common.Checks,
                   corrupt: bool, tally: Dict[str, float]) -> None:
        """Every reply against the offline API, outside the timed window."""
        for index, step in enumerate(steps):
            if "ref" not in step:
                if step["cls"] == "apply":
                    step["ref"] = _applied(step["m"], self.seed, step["key"],
                                           _matrix(self.seed, step["key"]))
                else:
                    step["ref"] = _estimate(step["m"], self.seed,
                                            step["key"])
            expected = common.canonical(step["ref"])
            for slot, (status, data, _) in enumerate(step["replies"]):
                ok = status == 200
                tallied = None
                if ok:
                    reply = json.loads(data)
                    result = reply["result"]
                    if corrupt and index == 0 and slot == 0:
                        result = {"corrupted": result}
                    tallied = reply.get("cache")
                    ok = common.canonical(result) == expected and \
                        _tally_fits(step["cls"], tallied)
                if step["cls"] == "offline" and tallied is not None:
                    tally["offline"] += 1
                    tally["offline_hits"] += tallied["hits"]
                checks.check(ok, f"{step['cls']} request {step['key']}: "
                                 f"status {status}, cache {tallied}")


def _tally_fits(cls: str, tally: Dict[str, int]) -> bool:
    """Cache hits/misses a reply of this class may report."""
    pair = (tally.get("hits"), tally.get("misses"))
    if cls == "hit":
        return pair == (1, 0)
    if cls == "miss":
        return pair == (0, 1)
    if cls == "apply":
        return pair == (0, 0)
    # A pair's follower is coalesced (the leader's reply, a miss) or, if it
    # arrived after the leader finished, a hit; an offline-warmed probe is
    # a hit once the server sees offline writes, a miss before.
    return pair in ((0, 1), (1, 0))


def _segments(units: int) -> List[List[int]]:
    """Units per server lifetime: one server start per set-up sample."""
    cuts = common.sample_points(common.SETUP_SAMPLES, units) + [units]
    return [list(range(cuts[i], cuts[i + 1]))
            for i in range(common.SETUP_SAMPLES)]


def measure(workload: str, seed: int, seconds: int,
            corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                    Dict[str, Any]]:
    bench = ServeMixed(seed, seconds)
    checks = common.Checks()
    tally: Dict[str, float] = {"offline": 0, "offline_hits": 0}
    try:
        # First start compiles bytecode: not a sample.
        Server(bench.store_copy(), None).stop()
        setups, outs, decks = [], [], []
        for segment in _segments(bench.units):
            server = Server(bench.store_copy(), None)
            setups.append(server.set_up_s)
            try:
                for unit in segment:
                    steps = bench.deck(unit)
                    bench.warm_offline(steps, server.store)
                    common.settle()
                    outs.append(bench.run_unit(server, steps))
                    decks.append(steps)
            finally:
                server.stop()
        # Every server has been waited for, and no check has run yet.
        peak = common.peak_rss_mb()
        for steps in decks:
            bench.check_unit(steps, checks, corrupt and steps is decks[0],
                             tally)
        # One latency group per class and deck.
        metrics, details = common.end_to_end(
            setups, [out["wall"] for out in outs],
            [out["latencies"][cls] for out in outs for cls in CLASSES],
            peak)
        return metrics, checks, details
    finally:
        shutil.rmtree(bench.root, ignore_errors=True)


def _pass(bench: ServeMixed, spans: Optional[Path]
          ) -> Tuple[Server, List[Dict[str, Any]], List[List[Any]]]:
    """All units on one server; returns it stopped, outputs and decks."""
    server = Server(bench.store_copy(), spans)
    outs, decks = [], []
    try:
        for unit in range(bench.units):
            steps = bench.deck(unit)
            bench.warm_offline(steps, server.store)
            common.settle()
            outs.append(bench.run_unit(server, steps))
            decks.append(steps)
        server.metrics = server.get("/metrics")
    finally:
        server.stop()
    return server, outs, decks


def traced(workload: str, seed: int, seconds: int,
           corrupt: bool) -> Tuple[Dict[str, Any], common.Checks,
                                   Dict[str, Any]]:
    """Untraced pass, then the same decks against a traced server."""
    from repro.observe.ledger import read_events

    bench = ServeMixed(seed, seconds)
    checks = common.Checks()
    tally: Dict[str, float] = {"offline": 0, "offline_hits": 0}
    try:
        Server(bench.store_copy(), None).stop()
        _, plain, _ = _pass(bench, None)
        spans_path = bench.root / "server-spans.jsonl"
        server, outs, decks = _pass(bench, spans_path)
        windows = [out["window"] for out in outs]

        def inside(t: float) -> bool:
            return any(lo <= t <= hi for lo, hi in windows)

        spans = [s for s in read_spans(spans_path) if inside(s[3])]
        events = [e for e in read_events(server.store /
                                         "serve-ledger.jsonl")
                  if inside(e.get("mono", -1.0))]
        for steps in decks:
            bench.check_unit(steps, checks, corrupt and steps is decks[0],
                             tally)
        server_proc = layers.aggregate(spans)
        request_s = sum(sum(out["steps"]) for out in outs)
        counters = server.metrics["counters"]
        stats = server.metrics["server"]
        write_spans(spans, common.result_path(f"spans-{workload}.jsonl"))
        metrics = layers.compute(
            [server_proc], {}, events, counters,
            sum(out["wall"] for out in outs),
            sum(out["wall"] for out in plain),
            {"workers": 1,
             "cache.dup_records": layers.count_duplicates(
                 [server.store / "probes.jsonl"]),
             "serve.request.s": request_s,
             "serve.http.self_s":
                 request_s - server_proc["totals"]["serve.compute"],
             "serve.coalesced": stats.get("requests_coalesced", 0),
             "serve.rejected": stats.get("requests_rejected", 0),
             "serve.offline_warm_hit_frac":
                 tally["offline_hits"] / tally["offline"]
                 if tally["offline"] else 0.0,
             # Per-class medians of the untraced pass.
             **{f"serve.{cls}.p50_ms": 1e3 * statistics.median(
                 [x for out in plain for x in out["latencies"][cls]])
                for cls in CLASSES}},
        )
        return metrics, checks, {}
    finally:
        shutil.rmtree(bench.root, ignore_errors=True)
