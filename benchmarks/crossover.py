"""Exact vs emulated cost per geometry query as the data size N grows.

    python3 benchmarks/crossover.py

For BBD (D = 4) at each N, times one gradient and one metric query (the
metric with its derivatives, as RHMC asks for it) with exact geometry and
with geometry emulated from the bbd-emulated-rhmc workload's kind of design:
20 prior points carrying values, gradients and per-datum data (n~ = 100).
Prints the best-of-k time per query in microseconds.  The emulated cost
should not depend on N; the exact cost grows with it.  This is a measured
figure for the README, not a workload.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gpgmc import cli  # noqa: E402
from gpgmc.emulator import DesignSet, build_emulator  # noqa: E402
from gpgmc.geometry import EmulatedGeometry, ExactGeometry  # noqa: E402
from gpgmc.mle import fit_hyperparameters  # noqa: E402

SIZES = (3000, 30_000, 300_000)
DESIGN_POINTS = 20
REPEATS = 7


def best_per_call(fn, points) -> float:
    """Best-of-REPEATS mean time per call over ``points``, in microseconds."""
    for th in points[:3]:
        fn(th)
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for th in points:
            fn(th)
        best = min(best, time.perf_counter() - t0)
    return best / len(points) * 1e6


def main() -> int:
    rng = np.random.default_rng(2015)
    design_pts = rng.standard_normal((DESIGN_POINTS, 4))
    query_pts = 0.3 * rng.standard_normal((50, 4))
    print(f"{'N':>8} {'exact grad':>11} {'emul grad':>10} {'exact metric':>13} "
          f"{'emul metric':>12} {'exact point':>12} {'emul point':>11}  (us per query)")
    for n in SIZES:
        target = cli.build_target({"target": {"name": "bbd", "dim": 4,
                                              "n_data": n}}, 1)
        exact = ExactGeometry(target)
        design = cli._evaluated_design(target, design_pts, with_gradients=True)
        hyper, _ = fit_hyperparameters(
            DesignSet(points=design.points, potentials=design.potentials),
            rng=np.random.default_rng(1))
        emulated = EmulatedGeometry(build_emulator(design, hyper))
        del design
        row = [best_per_call(exact.grad, query_pts),
               best_per_call(emulated.grad, query_pts),
               best_per_call(exact.metric_and_derivs, query_pts),
               best_per_call(emulated.metric_and_derivs, query_pts)]
        row += [row[0] + row[2], row[1] + row[3]]
        print(f"{n:>8} {row[0]:>11.1f} {row[1]:>10.1f} {row[2]:>13.1f} "
              f"{row[3]:>12.1f} {row[4]:>12.1f} {row[5]:>11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
