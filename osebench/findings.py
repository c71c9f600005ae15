"""Check the ROADMAP's three seed findings with the benchmark's tracer.

    python3 osebench/findings.py

Run from the root of a checkout, on an otherwise idle machine.  At the
ROADMAP's reference size (n = 16384, d = 64, m = 1024, ``DBeta`` with
reps = 2) it measures:

1. the share of a serial CountSketch trial spent in the distortion
   reduction (SVD), over 256 trials;
2. the share of a batched OSNAP s = 4 trial spent in sketch sampling,
   over 256 trials at ``batch=32``;
3. ``workers=2`` against ``workers=1`` at ``batch=32`` with 256 trials,
   for both families.

Shares are of the four trial layers' self time.  Each worker-count
timing is the median of five repeats.  Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import common

N, D, REPS, M, EPSILON = 16384, 64, 2, 1024, 0.25
REPEATS = 5


def _shares(tracer, layers_of_interest):
    import layers

    self_s = layers.aggregate(tracer.measured())["self_s"]
    total = sum(self_s[layer] for layer in layers_of_interest)
    return {layer: self_s[layer] / total for layer in layers_of_interest}


def main() -> int:
    for name in common.BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path("src").resolve()))
    import numpy as np

    from repro.core import distortion_samples
    from repro.hardinstances.dbeta import DBeta
    from repro.sketch.countsketch import CountSketch
    from repro.sketch.osnap import OSNAP
    from tracing import Tracer

    instance = DBeta(n=N, d=D, reps=REPS)
    trial_layers = ("sketch.sample", "sketch.apply", "hardinstances.draw",
                    "linalg.reduce")
    out = {}

    # Warm-up: first-call set-up (imports, LAPACK work sizes) is not a
    # share of a trial.
    for family in (CountSketch(m=M, n=N), OSNAP(m=M, n=N, s=4)):
        distortion_samples(family, instance, 32, np.random.default_rng(1))
        distortion_samples(family, instance, 32, np.random.default_rng(1),
                           batch=32)

    tracer = Tracer()
    tracer.install()
    tracer.unit = "serial"
    try:
        distortion_samples(CountSketch(m=M, n=N), instance, 256,
                           np.random.default_rng(0))
    finally:
        tracer.uninstall()
    out["serial_countsketch_trial_shares"] = _shares(tracer, trial_layers)

    tracer = Tracer()
    tracer.install()
    tracer.unit = "batched"
    try:
        distortion_samples(OSNAP(m=M, n=N, s=4), instance, 256,
                           np.random.default_rng(0), batch=32)
    finally:
        tracer.uninstall()
    out["batched_osnap_trial_shares"] = _shares(tracer, trial_layers)

    for family in (CountSketch(m=M, n=N), OSNAP(m=M, n=N, s=4)):
        times = {}
        for workers in (1, 2):
            runs = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                distortion_samples(family, instance, 256,
                                   np.random.default_rng(0), batch=32,
                                   workers=workers)
                runs.append(time.perf_counter() - started)
            times[f"workers={workers}_s"] = statistics.median(runs)
        out[f"batch32_256_trials_{family.name}"] = times
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
