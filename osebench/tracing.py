"""Spans around the library's public layer functions, for the traced run.

The benchmark never edits the library: :meth:`Tracer.install` replaces
each public layer function (and every module-level alias of it) with a
wrapper that records a span, and :meth:`Tracer.uninstall` puts the
originals back.  Spans live in memory — name, start, end, parent, unit —
and are written out when the run ends.

A layer's self time is its span minus the part its child spans cover.
Pool workers (``TrialExecutor`` with ``workers > 1``) are forked from the
benchmark process and so inherit the wrappers; there a wrapper adds its
self time and counts to the library's per-chunk counter delta (prefix
``osebench.``), which the executor already ships back to the parent.
Those appear as ``*.worker_s`` metrics, apart from the parent's
self-times, which are the ones that sum to wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counter-name prefix used by wrappers running inside pool workers.
WORKER_PREFIX = "osebench."

#: Layers whose spans the benchmark records, in report order.
LAYERS = (
    "sketch.sample", "sketch.apply", "hardinstances.draw",
    "linalg.reduce", "executor", "tester", "cache.open", "cache.get",
    "cache.put", "cache.merge", "shard.pass", "experiments.run",
    "serve.compute", "observe.ledger",
)

#: Layers whose work runs inside pool workers.
WORKER_LAYERS = ("sketch.sample", "sketch.apply", "hardinstances.draw",
                 "linalg.reduce")

Counts = Callable[[tuple, dict, Any], Dict[str, float]]


class _Frame:
    __slots__ = ("span_id", "layer", "child_s")

    def __init__(self, span_id: int, layer: str) -> None:
        self.span_id = span_id
        self.layer = layer
        self.child_s = 0.0


#: One recorded span: id, parent id (0 = none), layer, start, end, self
#: seconds, unit id (``None`` outside a measured unit), whether its parent
#: is the same layer, and the work counts its hook computed.
Span = Tuple[int, int, str, float, float, float, Any, bool,
             Optional[Dict[str, float]]]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: Unit id stamped on new spans; set by the workload around units.
        self.unit: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, start: float, end: float, self_s: float,
                span_id: int, parent_id: int, nested: bool,
                counts: Optional[Dict[str, float]]) -> None:
        if os.getpid() != self.pid:
            from repro.observe.counters import add_count

            add_count(f"{WORKER_PREFIX}{layer}.self_ns", int(self_s * 1e9))
            if not nested:
                add_count(f"{WORKER_PREFIX}{layer}.calls")
            for name, value in (counts or {}).items():
                add_count(f"{WORKER_PREFIX}{name}", int(value))
            return
        with self._lock:
            self.spans.append((span_id, parent_id, layer, start, end,
                               self_s, self.unit, nested, counts))

    # --------------------------------------------------------- wrappers

    def _wrap(self, layer: str, fn: Callable, counts: Optional[Counts],
              before: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = _Frame(span_id, layer)
            stack.append(frame)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                # Counting runs after the span closes: its cost is trace
                # overhead, not layer time.
                work = counts(args, kwargs, (result, token)) \
                    if done and counts is not None else None
                tracer._record(
                    layer, start, end, end - start - frame.child_s, span_id,
                    parent.span_id if parent else 0,
                    parent is not None and parent.layer == layer, work)

        return wrapper

    def patch_function(self, module: Any, name: str, layer: str,
                       counts: Optional[Counts] = None) -> None:
        """Wrap ``module.name`` and every ``repro`` module alias of it."""
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, counts)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def patch_method(self, cls: type, name: str, layer: str,
                     counts: Optional[Counts] = None,
                     before: Optional[Callable] = None) -> None:
        """Wrap ``cls.name`` where ``cls`` itself defines it."""
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, original, counts, before))
        self._undo.append((cls, name, original))

    def patch_overrides(self, base: type, name: str, layer: str,
                        counts: Optional[Counts] = None) -> None:
        """Wrap ``name`` on ``base`` and on every loaded subclass that
        overrides it."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if name in cls.__dict__ and \
                    not getattr(cls.__dict__[name], "__isabstractmethod__",
                                False):
                self.patch_method(cls, name, layer, counts)

    def install(self, server: bool = False) -> None:
        """Wrap every layer boundary the benchmark measures."""
        _install_layers(self, server)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ---------------------------------------------------------- results

    def measured(self) -> List[Span]:
        """Spans recorded inside measured units."""
        return [span for span in self.spans if span[6] is not None]


def write_spans(spans: List[Span], path: Path) -> None:
    """Write each span as one JSON line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(list(span)) + "\n")


def read_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]  # type: ignore


def worker_totals(delta: Dict[str, int]) -> Dict[str, float]:
    """Fold the ``osebench.*`` counters pool workers shipped back."""
    out: Dict[str, float] = defaultdict(float)
    for name, value in delta.items():
        if not name.startswith(WORKER_PREFIX):
            continue
        key = name[len(WORKER_PREFIX):]
        if key.endswith(".self_ns"):
            out[key[:-len(".self_ns")] + ".worker_s"] += value / 1e9
        else:
            out[key] += value
    return out


# ------------------------------------------------------------ count hooks


def _hash_entries(family: Any, sketches: int) -> Dict[str, float]:
    return {"sketch.hash_entries":
            sketches * int(getattr(family, "s", 1)) * int(family.n)}


def _sample_sketch_counts(args: tuple, kwargs: dict,
                          outcome: Any) -> Dict[str, float]:
    family = args[0] if args else kwargs["family"]
    return _hash_entries(family, 1)


def _sample_batch_counts(args: tuple, kwargs: dict,
                         outcome: Any) -> Dict[str, float]:
    result, _ = outcome
    if result is None:
        return {}
    family, seeds = args[0], args[1] if len(args) > 1 else kwargs["seeds"]
    return _hash_entries(family, len(seeds))


def _reduce_counts(args: tuple, kwargs: dict,
                   outcome: Any) -> Dict[str, float]:
    import numpy as np

    product = np.asarray(args[0] if args else next(iter(kwargs.values())))
    rows = product.reshape(-1, product.shape[-1])
    nonzero = int(np.count_nonzero(np.any(rows != 0, axis=1)))
    return {"linalg.reduce.rows": rows.shape[0],
            "linalg.reduce.nonzero_rows": nonzero}


def _open_counts(args: tuple, kwargs: dict,
                 outcome: Any) -> Dict[str, float]:
    return {"cache.open.records": len(args[0])}


def _get_counts(args: tuple, kwargs: dict,
                outcome: Any) -> Dict[str, float]:
    result, _ = outcome
    return {"cache.get.hits": 0 if result is None else 1}


def _put_size(args: tuple) -> int:
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _put_counts(args: tuple, kwargs: dict,
                outcome: Any) -> Dict[str, float]:
    _, before = outcome
    return {"cache.put.bytes": _put_size(args) - before}


def _merge_counts(args: tuple, kwargs: dict,
                  outcome: Any) -> Dict[str, float]:
    report, _ = outcome
    return {"cache.merge.records": report.records_in}


def _install_layers(tracer: Tracer, server: bool) -> None:
    # import_module, not ``import a.b as c``: some packages re-export a
    # function under their submodule's name (repro.linalg.distortion).
    merge_mod = importlib.import_module("repro.cache.merge")
    tester = importlib.import_module("repro.core.tester")
    registry = importlib.import_module("repro.experiments.registry")
    distortion = importlib.import_module("repro.linalg.distortion")
    shard = importlib.import_module("repro.shard")
    sketch_base = importlib.import_module("repro.sketch.base")
    batched = importlib.import_module("repro.sketch.batched")
    from repro.cache.probes import ProbeCache, TieredProbeCache
    from repro.hardinstances.dbeta import HardInstance
    from repro.observe.ledger import RunLedger
    from repro.utils.parallel import TrialExecutor

    tracer.patch_function(sketch_base, "sample_sketch", "sketch.sample",
                          _sample_sketch_counts)
    tracer.patch_overrides(sketch_base.SketchFamily, "sample_trial_batch",
                           "sketch.sample", _sample_batch_counts)
    tracer.patch_method(sketch_base.Sketch, "basis_image", "sketch.apply")
    tracer.patch_method(sketch_base.Sketch, "apply", "sketch.apply")
    tracer.patch_overrides(batched.BatchedTrialKernel, "sketched_bases",
                           "sketch.apply")
    tracer.patch_overrides(HardInstance, "sample_draw",
                           "hardinstances.draw")
    tracer.patch_overrides(HardInstance, "sample_support",
                           "hardinstances.draw")
    tracer.patch_function(distortion, "distortion_of_product",
                          "linalg.reduce", _reduce_counts)
    tracer.patch_function(distortion, "distortions_of_products",
                          "linalg.reduce", _reduce_counts)
    tracer.patch_method(TrialExecutor, "run_seeded", "executor")
    tracer.patch_method(TrialExecutor, "run_chunked", "executor")
    for name in ("failure_estimate", "distortion_samples", "minimal_m"):
        tracer.patch_function(tester, name, "tester")
    tracer.patch_method(ProbeCache, "__init__", "cache.open", _open_counts)
    tracer.patch_method(ProbeCache, "get", "cache.get", _get_counts)
    tracer.patch_method(TieredProbeCache, "get", "cache.get", _get_counts)
    tracer.patch_method(ProbeCache, "put", "cache.put", _put_counts,
                        before=_put_size)
    tracer.patch_function(merge_mod, "merge_stores", "cache.merge",
                          _merge_counts)
    tracer.patch_function(shard, "shard_pass", "shard.pass")
    tracer.patch_function(registry, "run_experiment", "experiments.run")
    tracer.patch_method(RunLedger, "emit", "observe.ledger")
    if server:
        from repro.serve.service import EstimationService

        tracer.patch_method(EstimationService, "_execute", "serve.compute")
