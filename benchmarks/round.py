"""One round of one workload, in a fresh process with one BLAS thread.

    python3 benchmarks/round.py --workload NAME --seed S --trace 0|1 \
        --round R --result PATH

Runs the workload in-process, measures it, checks its outputs and writes one
JSON document to PATH.  ``run.py`` starts one of these per round.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = HERE / "_out"


def run_round(workload: str, seed: int, traced: bool, round_idx: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import Recorder
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    out = OUT_ROOT / f"{workload}-seed{seed}-round{round_idx}"
    shutil.rmtree(out, ignore_errors=True)
    rec = Recorder(traced=traced, burnin=wl.burnin)
    rec.install()
    t0 = time.perf_counter_ns()
    cfg = wl.run(seed, out)
    t1 = time.perf_counter_ns()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.uninstall()

    counts = rec.counts()
    retained = counts["transitions"] - wl.burnin
    result = {
        "workload": workload, "seed": seed, "round": round_idx,
        "traced": traced,
        "setup_s": (rec.retained_start_ns - t0) / 1e9,
        "retained_s": (t1 - rec.retained_start_ns) / 1e9,
        "draws_per_s": retained / ((t1 - rec.retained_start_ns) / 1e9),
        "model_evals": counts["target_evals"],
        "retained_draws": retained,
        "model_evals_per_draw": counts["target_evals"] / retained,
        "peak_rss_mb": rss_mb,
        "counts": counts,
    }
    if traced:
        result["layers"] = rec.layer_metrics()
        traces = OUT_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        rec.write_spans(traces / f"{workload}-seed{seed}-round{round_idx}.csv")
        rec.spans.clear()

    # chain-quality figures, reported but never gated: a change that perturbs
    # round-off re-draws the chain as a new seed would
    with open(out / "summary.csv") as fh:
        summary = dict(zip(fh.readline().strip().split(","),
                           map(float, fh.readline().strip().split(","))))
    result["reference"] = {
        "acceptance": summary["AP"],
        "min_ess": summary["ESS_min"],
        "min_ess_per_s": summary["minESS/s"],
        "evals_per_ess": counts["target_evals"] / summary["ESS_min"],
    }

    checks, (moved, moves_detail) = wl.check(cfg, out, counts,
                                             first_round=round_idx == 0)
    # a transition fails when its trajectory diverges, and every transition
    # of a chain that does not move fails; one that raises ends the run
    # without a result
    result["failed"] = counts["divergent"] if moved else counts["transitions"]
    result["moves"] = moves_detail
    result["checks"] = {name: {"ok": bool(ok), "detail": detail}
                        for name, (ok, detail) in checks.items()}
    # generated outputs (the BBD design file alone is ~60 MB) go once checked
    shutil.rmtree(out, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, bool(args.trace), args.round)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
