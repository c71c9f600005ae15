"""Per-layer metrics of the traced run, from spans, counters and ledgers.

Every traced run prints every metric in :data:`PER_LAYER`; a layer a
workload never enters reads 0.  Self-times of the benchmark-process
layers plus ``unattributed_s`` sum to ``trace.wall_s`` by construction;
``unattributed_s`` is what no wrapped layer covers (the benchmark's own
loop, the HTTP client, and wrapper bookkeeping).
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from tracing import LAYERS, WORKER_LAYERS, Span

#: The request classes of ``serve-mixed``, in deck order.
SERVE_CLASSES = ("hit", "miss", "apply", "pair", "offline")

#: ``(name, unit, better)`` of every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str, str]] = []


def _declare(name: str, unit: str, better: str) -> None:
    PER_LAYER.append((name, unit, better))


_RENAMED = {"observe.ledger.calls": "observe.ledger.events",
            "observe.ledger.self_s": "observe.ledger.emit_s"}

for _layer in LAYERS:
    _declare(_RENAMED.get(f"{_layer}.calls", f"{_layer}.calls"),
             "count", "lower")
    _declare(_RENAMED.get(f"{_layer}.self_s", f"{_layer}.self_s"),
             "s", "lower")
for _layer in WORKER_LAYERS:
    _declare(f"{_layer}.worker_s", "s", "lower")
for _name, _unit, _better in (
        ("sketch.hash_entries", "count", "lower"),
        ("linalg.reduce.rows", "count", "lower"),
        ("linalg.reduce.nonzero_row_frac", "1", "higher"),
        ("executor.chunks", "count", "lower"),
        ("executor.worker_busy_s", "s", "lower"),
        ("executor.idle_frac", "1", "lower"),
        ("tester.probes", "count", "lower"),
        ("tester.trials", "count", "lower"),
        ("tester.search.probes", "count", "lower"),
        ("cache.open.s", "s", "lower"),
        ("cache.open.records", "count", "lower"),
        ("cache.get.s", "s", "lower"),
        ("cache.get.hits", "count", "higher"),
        ("cache.hit_frac", "1", "higher"),
        ("cache.put.s", "s", "lower"),
        ("cache.put.bytes", "bytes", "lower"),
        ("cache.dup_records", "count", "lower"),
        ("cache.merge.s", "s", "lower"),
        ("cache.merge.records", "count", "lower"),
        ("shard.pass.s", "s", "lower"),
        ("shard.rounds", "count", "lower"),
        ("shard.pending", "count", "lower"),
        ("serve.request.s", "s", "lower"),
        ("serve.compute.s", "s", "lower"),
        ("serve.http.self_s", "s", "lower"),
        ("serve.coalesced", "count", "higher"),
        ("serve.rejected", "count", "lower"),
        ("serve.offline_warm_hit_frac", "1", "higher"),
        *((f"serve.{cls}.p50_ms", "ms", "lower") for cls in SERVE_CLASSES),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "1", "lower"),
        ("unattributed_s", "s", "lower")):
    _declare(_name, _unit, _better)

#: The counts that must repeat exactly across two traced runs at one seed.
EXACT_COUNTS = (
    "tester.probes", "tester.trials", "tester.search.probes",
    "sketch.sample.calls", "sketch.hash_entries", "sketch.apply.calls",
    "hardinstances.draw.calls", "linalg.reduce.calls",
    "linalg.reduce.rows", "executor.calls", "executor.chunks",
    "cache.open.calls", "cache.get.calls", "cache.get.hits",
    "cache.put.calls", "cache.put.bytes", "cache.dup_records",
    "cache.merge.calls", "cache.merge.records", "shard.pass.calls",
    "shard.rounds", "shard.pending", "experiments.run.calls",
    "observe.ledger.events",
)


def aggregate(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Self time, calls, work counts and outermost-span time per layer."""
    out: Dict[str, Dict[str, float]] = {
        "self_s": defaultdict(float), "calls": defaultdict(float),
        "counts": defaultdict(float), "totals": defaultdict(float)}
    for _, _, layer, start, end, self_s, _, nested, counts in spans:
        out["self_s"][layer] += self_s
        if not nested:
            out["calls"][layer] += 1
            out["totals"][layer] += end - start
        for name, value in (counts or {}).items():
            out["counts"][name] += value
    return out


def _executor_stats(events: Iterable[Mapping[str, Any]]
                    ) -> Tuple[int, float]:
    chunks, busy = 0, 0.0
    for event in events:
        if event.get("kind") == "batch_done":
            chunks += 1
            busy += float(event.get("elapsed", 0.0))
    return chunks, busy


def compute(processes: List[Dict[str, Any]], worker: Mapping[str, float],
            events: List[Mapping[str, Any]], counter_delta: Mapping[str, int],
            wall_traced: float, wall_untraced: float,
            extra: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """Assemble :data:`PER_LAYER` from the traced run's raw material.

    ``processes`` holds one :func:`aggregate` per traced process: the
    benchmark process first, then the server if there is one.  Their
    self-times plus ``extra['serve.http.self_s']`` (request time not
    spent inside the server's compute) are what ``unattributed_s``
    completes to ``trace.wall_s``.  The executor's capacity is its time
    in outermost spans times ``extra['workers']``.
    """
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    totals: Dict[str, float] = defaultdict(float)
    for proc in processes:
        for table, into in ((proc["self_s"], self_s), (proc["calls"], calls),
                            (proc["counts"], counts),
                            (proc["totals"], totals)):
            for name, value in table.items():
                into[name] += value
    for name, value in worker.items():
        if name.endswith(".calls"):
            calls[name[:-len(".calls")]] += value
        elif not name.endswith(".worker_s"):
            counts[name] += value
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[_RENAMED.get(f"{layer}.calls", f"{layer}.calls")] = \
            calls[layer]
        values[_RENAMED.get(f"{layer}.self_s", f"{layer}.self_s")] = \
            self_s[layer]
    for layer in WORKER_LAYERS:
        values[f"{layer}.worker_s"] = worker.get(f"{layer}.worker_s", 0.0)
    rows = counts["linalg.reduce.rows"]
    chunks, busy = _executor_stats(events)
    probe_events = [e for e in events if e.get("kind") == "probe"
                    and not e.get("aliased")]
    searches = [e for e in events if e.get("kind") == "minimal_m_end"]
    rounds = [e for e in events if e.get("kind") == "shard_round"]
    gets = calls["cache.get"]
    capacity = totals["executor"] * extra.get("workers", 1)
    attributed = sum(self_s.values()) + extra.get("serve.http.self_s", 0.0)
    values.update({
        "sketch.hash_entries": counts["sketch.hash_entries"],
        "linalg.reduce.rows": rows,
        "linalg.reduce.nonzero_row_frac":
            counts["linalg.reduce.nonzero_rows"] / rows if rows else 0.0,
        "executor.chunks": chunks,
        "executor.worker_busy_s": busy,
        "executor.idle_frac":
            max(0.0, 1.0 - busy / capacity) if capacity else 0.0,
        "tester.probes": len(probe_events),
        "tester.trials": counter_delta.get("trials", 0),
        "tester.search.probes":
            sum(e.get("probes", 0) for e in searches) / len(searches)
            if searches else 0.0,
        "cache.open.s": totals["cache.open"],
        "cache.open.records": counts["cache.open.records"],
        "cache.get.s": totals["cache.get"],
        "cache.get.hits": counts["cache.get.hits"],
        "cache.hit_frac": counts["cache.get.hits"] / gets if gets else 0.0,
        "cache.put.s": totals["cache.put"],
        "cache.put.bytes": counts["cache.put.bytes"],
        "cache.merge.s": totals["cache.merge"],
        "cache.merge.records": counts["cache.merge.records"],
        "shard.pass.s": totals["shard.pass"],
        "shard.rounds": len(rounds),
        "shard.pending": sum(e.get("pending", 0) for e in rounds),
        "serve.compute.s": totals["serve.compute"],
        "trace.wall_s": wall_traced,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "unattributed_s": wall_traced - attributed,
    })
    for name in ("cache.dup_records", "serve.request.s", "serve.http.self_s",
                 "serve.coalesced", "serve.rejected",
                 "serve.offline_warm_hit_frac",
                 *(f"serve.{cls}.p50_ms" for cls in SERVE_CLASSES)):
        values[name] = extra.get(name, 0.0)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER}


def count_duplicates(paths: Iterable[Any]) -> int:
    """Store records whose key already appeared earlier in the same file."""
    dups = 0
    for path in paths:
        seen = set()
        try:
            handle = open(path, encoding="utf-8")
        except FileNotFoundError:
            continue
        with handle:
            for line in handle:
                try:
                    key = json.loads(line).get("key")
                except ValueError:
                    continue
                if key in seen:
                    dups += 1
                seen.add(key)
    return dups
