"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed S --seconds T --trace 0|1

Runs whole rounds of one workload, each in a fresh process (``round.py``),
until the next round would end after ``T`` seconds, and at least
``MIN_ROUNDS`` rounds.  Every round of a run repeats the same work on the
same seed.  ``draws_per_s`` pools the rounds (all retained draws over all
sampling time), which averages host-speed noise best; the other metrics are
medians over the rounds.  With ``--trace 0`` the
last line of standard output is the end-to-end metrics, with ``--trace 1``
the per-layer metrics from traced rounds, each as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = HERE / "_out"
MIN_ROUNDS = 2
MAX_ROUNDS = 12
ROUND_TIMEOUT_S = 150

WORKLOAD_NAMES = ("bbd-exact-rhmc", "bbd-emulated-rhmc", "elliptic-emulated-hmc")

END_TO_END = {
    "setup_s": "s",
    "draws_per_s": "1/s",
    "model_evals_per_draw": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {".us": "us", ".ms": "ms", ".s": "s", "_s": "s"}
RATIOS = ("samplers.accept_rate", "samplers.points_per_transition",
          "emulator.linear_maps_per_point")


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_one_round(workload, seed, trace, round_idx) -> dict:
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    result_path = OUT_ROOT / f"result-{workload}-seed{seed}-trace{trace}-round{round_idx}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--round", str(round_idx),
           "--result", str(result_path)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"round {round_idx} of {workload} exited with "
                           f"code {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpgmc" / "__init__.py").is_file():
        print(f"error: no gpgmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rounds, durations = [], []
    while len(rounds) < MAX_ROUNDS:
        t0 = time.perf_counter()
        try:
            rounds.append(run_one_round(args.workload, args.seed, args.trace,
                                        len(rounds)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and \
                elapsed + statistics.median(durations) > args.seconds:
            break

    attempted = sum(r["counts"]["transitions"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(c["ok"] for r in rounds for c in r["checks"].values())

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  wall {time.perf_counter() - start:.1f} s")
    for r in rounds:
        c = r["counts"]
        print(f"  round {r['round']}: setup {r['setup_s']:.3f} s  "
              f"draws/s {r['draws_per_s']:.2f}  evals {r['model_evals']} / "
              f"{r['retained_draws']} draws  rss {r['peak_rss_mb']:.1f} MB  "
              f"transitions {c['transitions']} accepted {c['accepted']} "
              f"divergent {c['divergent']}  failed {r['failed']}")
        print(f"    chain: {r['moves']}")
        ref = r["reference"]
        print(f"    not gated: acceptance {ref['acceptance']:.3f}  min ESS "
              f"{ref['min_ess']:.1f}  min ESS/s {ref['min_ess_per_s']:.3f}  "
              f"exact evals per ESS {ref['evals_per_ess']:.1f}")
    for name in rounds[0]["checks"]:
        outcomes = [r["checks"][name] for r in rounds if name in r["checks"]]
        passed = sum(c["ok"] for c in outcomes)
        shown = next((c for c in outcomes if not c["ok"]), outcomes[0])
        print(f"  check {name}: {'PASS' if passed == len(outcomes) else 'FAIL'} "
              f"in {passed}/{len(outcomes)} rounds  {shown['detail']}")

    end_to_end = {name: {"value": statistics.median(r[name] for r in rounds),
                         "unit": unit} for name, unit in END_TO_END.items()}
    end_to_end["draws_per_s"]["value"] = (
        sum(r["retained_draws"] for r in rounds)
        / sum(r["retained_s"] for r in rounds))
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": layer_unit(name)} for name in rounds[0]["layers"]}
        # against the untraced run's figures this gives the tracing overhead
        print("  traced end-to-end: " + "  ".join(
            f"{name} {m['value']:.4f}" for name, m in end_to_end.items()))
    else:
        metrics = end_to_end
        evals = statistics.median(r["model_evals"] for r in rounds)
        draws = statistics.median(r["retained_draws"] for r in rounds)
        print(f"  model_evals_per_draw = {evals:g} exact evaluations / "
              f"{draws:g} retained draws")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
