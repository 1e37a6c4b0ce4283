"""Regenerate the exact-geometry reference for the elliptic workload.

    python3 benchmarks/make_reference.py [--output PATH]

Runs HMC with exact gradients (``ExactGeometry``: a PDE solve plus its
sensitivity solves per gradient) on the elliptic workload's fixed data, and
writes the posterior means with their batch-means standard errors to
``elliptic_reference.json``.  The emulated workload is checked against this
file; it is never made from the emulated sampler's own output.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gpgmc import cli  # noqa: E402
from gpgmc.geometry import ExactGeometry  # noqa: E402
from gpgmc.samplers import (DualAveraging, IntegratorConfig, hmc_step,  # noqa: E402
                            init_state)
from workloads import (ELLIPTIC_DATA_SEED, ELLIPTIC_TARGET, N_BATCHES,  # noqa: E402
                       REFERENCE_PATH)

CHAINS = 4
DRAWS = 4000
WARMUP = 500
N_STEPS = 10
TARGET_ACCEPT = 0.8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=REFERENCE_PATH)
    args = parser.parse_args(argv)

    target = cli.build_target({"target": dict(ELLIPTIC_TARGET)}, ELLIPTIC_DATA_SEED)
    geometry = ExactGeometry(target)
    t0 = time.perf_counter()
    chains, steps, accepts = [], [], []
    for c in range(CHAINS):
        rng = np.random.default_rng(np.random.SeedSequence(ELLIPTIC_DATA_SEED,
                                                           spawn_key=(500 + c,)))
        cfg = IntegratorConfig(step_size=0.1, n_steps=N_STEPS)
        tuner = DualAveraging(cfg.step_size, target=TARGET_ACCEPT)
        state = init_state(target, rng.standard_normal(target.dim), rng)
        for _ in range(WARMUP):
            state, info = hmc_step(state, target, geometry, cfg)
            cfg.step_size = tuner.update(info.alpha)
        cfg.step_size = tuner.tuned_step
        draws = np.empty((DRAWS, target.dim))
        acc = 0
        for i in range(DRAWS):
            state, info = hmc_step(state, target, geometry, cfg)
            draws[i] = state.theta
            acc += int(info.accepted)
        chains.append(draws)
        steps.append(cfg.step_size)
        accepts.append(acc / DRAWS)
        print(f"chain {c}: step {cfg.step_size:.4f} accept {acc / DRAWS:.3f} "
              f"mean {np.round(draws.mean(axis=0), 3)}", flush=True)

    b = DRAWS // N_BATCHES
    batch = np.concatenate([d[: b * N_BATCHES].reshape(N_BATCHES, b, -1).mean(axis=1)
                            for d in chains])
    allx = np.concatenate(chains)
    doc = {
        "what": "posterior of the elliptic workload's fixed data under exact-geometry HMC",
        "command": "python3 benchmarks/make_reference.py",
        "target": ELLIPTIC_TARGET,
        "data_seed": ELLIPTIC_DATA_SEED,
        "sampler": {"name": "hmc", "n_steps": N_STEPS, "warmup": WARMUP,
                    "target_accept": TARGET_ACCEPT, "tuned_step_sizes": steps,
                    "acceptance": accepts},
        "chains": CHAINS,
        "draws_per_chain": DRAWS,
        "mean": allx.mean(axis=0).tolist(),
        "se": (batch.std(axis=0, ddof=1) / np.sqrt(batch.shape[0])).tolist(),
        "sd": allx.std(axis=0).tolist(),
        "chain_means": [d.mean(axis=0).tolist() for d in chains],
        "seconds": time.perf_counter() - t0,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.output} in {doc['seconds']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
