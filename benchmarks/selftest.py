"""Fast self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Each check must pass on the outputs of a short run and fail on a deliberately
wrong input.  The short runs use the workloads' sampler settings on smaller
inputs (BBD with N = 3000, 30 transitions of exact and of emulated RHMC;
elliptic with 400 transitions) so the whole test takes under a minute.  The
chain checks of the BBD workloads run on the exact chain: the emulated BBD
chain does not move (see ``CHANGES.md``).  Exits non-zero if any check does
not behave.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gpgmc import cli, emulator as emulator_mod  # noqa: E402
from gpgmc.emulator import DesignSet  # noqa: E402
from gpgmc.targets import BBDTarget  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Recorder  # noqa: E402

OUT = HERE / "_out" / "selftest"
FAILURES = []


def expect(name: str, result, should_pass: bool):
    ok, detail = result
    good = ok == should_pass
    label = "passes on a short run" if should_pass else "fails on a wrong input"
    print(f"{'ok  ' if good else 'BAD '} {name} {label}: {detail}")
    if not good:
        FAILURES.append(f"{name} {label}")


def short_run(raw: dict, out: Path, design: bool, chain_idx=None):
    cfg = wl._write_config(raw, out)
    rec = Recorder(traced=False, burnin=cfg["burnin"])
    rec.install()
    try:
        if design:
            cli.design_cmd(cfg)
        if chain_idx is None:
            cli.run(cfg)
        else:
            cli.run_single_chain(cfg, chain_idx, out)
    finally:
        rec.uninstall()
    return cfg, rec.counts()


def test_bbd_chain():
    out = OUT / "bbd-exact"
    raw = wl._raw_config(dict(wl.BBD_TARGET, n_data=3000), wl.BBD_RHMC,
                         {"mode": "exact"}, 7, 30, 10, out)
    cfg, counts = short_run(raw, out, design=False)
    target = cli.build_target(cfg, cfg["seed"])
    thetas, logpost, accepted = wl.read_chain(out / "chain.csv", target.dim)

    expect("logpost", wl.check_logpost(target, thetas, logpost), True)
    shifted = logpost.copy()
    shifted[-1] += 1e-3
    expect("logpost", wl.check_logpost(target, thetas, shifted), False)

    expect("exact_calls", wl.check_exact_calls(counts), True)
    expect("exact_calls", wl.check_exact_calls(
        dict(counts, sampling_potentials=counts["sampling_potentials"] + 1)), False)

    expect("mu_at_data_mean", wl.check_mu(target, thetas), True)
    offset = 10 * target.sigma_y / np.sqrt(target.data.size)
    moved = BBDTarget(target.data + offset, sigma_y=target.sigma_y,
                      sigma_theta=target.sigma_theta, dim=target.dim)
    expect("mu_at_data_mean", wl.check_mu(moved, thetas), False)

    expect("moves", wl.check_moves(thetas, accepted), True)
    stuck = np.repeat(thetas[:1], len(thetas), axis=0)
    expect("moves", wl.check_moves(stuck, np.zeros_like(accepted)), False)


def test_bbd_design():
    out = OUT / "bbd-emulated"
    geometry = {"mode": "emulated", "design_file": str(out / "design.json"),
                "design": dict(wl.BBD_DESIGN)}
    raw = wl._raw_config(dict(wl.BBD_TARGET, n_data=3000), wl.BBD_RHMC,
                         geometry, 7, 30, 10, out)
    cfg, counts = short_run(raw, out, design=True)
    target = cli.build_target(cfg, cfg["seed"])
    expect("emulated exact_calls", wl.check_exact_calls(counts), True)

    design, hyper = emulator_mod.load_design(out / "design.json")
    em = emulator_mod.build_emulator(design, hyper)
    expect("design_fit", wl.check_design_fit(em, design), True)
    shifted_pots = design.potentials.copy()
    shifted_pots[0] += 1e-2 * np.abs(shifted_pots).max()
    other = emulator_mod.build_emulator(
        DesignSet(points=design.points, potentials=shifted_pots,
                  gradients=design.gradients), hyper)
    expect("design_fit", wl.check_design_fit(other, design), False)

    expect("design_interp", wl.check_design_interp(em, design), True)
    expect("design_interp", wl.check_design_interp(other, design), False)

    expect("design_values", wl.check_design_values(target, design), True)
    pots = design.potentials.copy()
    pots[0] *= 1 + 1e-6
    wrong = DesignSet(points=design.points, potentials=pots,
                      gradients=design.gradients)
    expect("design_values", wl.check_design_values(target, wrong), False)

    path = out / "design.json"
    expect("design_roundtrip", wl.check_roundtrip(path, out / "rt"), True)
    # the same numbers written another way no longer round-trip byte for
    # byte (BBD per-datum values are squares, so the "+" sign is valid)
    with open(path) as fh:
        pd_path = out / json.load(fh)["per_datum_path"]
    pd_path.write_text("+" + pd_path.read_text())
    expect("design_roundtrip", wl.check_roundtrip(path, out / "rt2"), False)


def test_elliptic():
    out = OUT / "elliptic"
    geometry = {"mode": "emulated", "design_file": str(out / "design.json"),
                "design": dict(wl.ELLIPTIC_DESIGN)}
    raw = wl._raw_config(wl.ELLIPTIC_TARGET, wl.ELLIPTIC_HMC, geometry,
                         wl.ELLIPTIC_DATA_SEED, 400, 100, out)
    cfg, counts = short_run(raw, out, design=True, chain_idx=1)
    target = cli.build_target(cfg, cfg["seed"])
    thetas, logpost, accepted = wl.read_chain(out / "chain.csv", target.dim)
    kept = thetas[cfg["burnin"]:]
    with open(wl.REFERENCE_PATH) as fh:
        reference = json.load(fh)

    expect("elliptic logpost", wl.check_logpost(target, kept, logpost[cfg["burnin"]:]), True)
    expect("elliptic exact_calls", wl.check_exact_calls(counts), True)
    expect("elliptic moves", wl.check_moves(kept, accepted[cfg["burnin"]:]), True)
    expect("reference_mean", wl.check_reference_mean(kept, reference), True)
    off = dict(reference, mean=(np.array(reference["mean"])
                                + np.array(reference["sd"])).tolist())
    expect("reference_mean", wl.check_reference_mean(kept, off), False)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    test_bbd_chain()
    test_bbd_design()
    test_elliptic()
    shutil.rmtree(OUT, ignore_errors=True)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) misbehaved: {', '.join(FAILURES)}")
        return 1
    print("all checks behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
