"""The benchmark's workloads: generated configs, runs and output checks.

Each workload turns the benchmark seed into gpgmc configs, runs them through
the CLI entry points in-process (``cli.design_cmd``, ``cli.run``,
``cli.run_single_chain``) and checks what they wrote against computations
made apart from the sampler.  Import it with ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from gpgmc import cli, emulator as emulator_mod, kernels

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "elliptic_reference.json"

# Both RHMC workloads share target, sampler and integrator.  A fixed-point
# tolerance of 0 makes every generalized-leapfrog step run all its sweeps, so
# the work per transition does not depend on the trajectory.
BBD_TARGET = {"name": "bbd", "dim": 4, "n_data": 30_000}
BBD_RHMC = {"name": "rhmc", "step_size": 0.0015, "n_steps": 10,
            "fixed_point_iters": 4, "fixed_point_tol": 0.0}
BBD_BURNIN = 60
BBD_EXACT_ITERS = 660
BBD_EMULATED_ITERS = 260     # its set-up alone takes ~10 s
# Emulated RHMC on BBD never accepts a proposal (the emulated geometry is
# far off the exact one; see CHANGES.md), so all its transitions fail.  Its
# data, design and chain come from this fixed seed, the same on every run,
# so that the failed share does not depend on the benchmark seed.
BBD_EMULATED_SEED = 1507
BBD_DESIGN = {"source": "prior", "count": 100, "maxmin_radius": 0.2,
              "target_size": 20, "with_gradients": True}

# The elliptic data and design come from a fixed seed so that one stored
# exact-geometry reference applies; the benchmark seed drives the chain.
ELLIPTIC_DATA_SEED = 1507
ELLIPTIC_TARGET = {"name": "elliptic", "dim": 6, "mesh_size": 20}
ELLIPTIC_HMC = {"name": "hmc", "step_size": 0.1, "n_steps": 10}
ELLIPTIC_ITERS, ELLIPTIC_BURNIN = 1800, 200
ELLIPTIC_DESIGN = {"source": "prior", "count": 100, "maxmin_radius": 0.3,
                   "target_size": 30, "with_gradients": True}

# check tolerances
LOGPOST_RTOL = 1e-9        # logpost vs -U(theta) from a fresh target
MIN_ACCEPT = 0.1           # share of retained transitions for a moving chain
MU_SIGMAS = 4.0            # mean of mu(theta) vs the data mean, in sigma/sqrt(N)
DESIGN_FIT_RTOL = 1e-6     # emulator vs GLS at its design points; seen <= 1.5e-9
DESIGN_INTERP_RTOL = 1e-3  # emulator vs design data; seen 1.7e-5 to 0.11
DESIGN_EVAL_RTOL = 1e-9    # stored design values vs fresh exact evaluations
MEAN_Z = 4.0               # posterior mean vs reference, in batch-means errors
N_BATCHES = 20


@dataclass
class Workload:
    burnin: int
    iters: int

    def run(self, seed: int, out: Path) -> dict:
        """Run the workload; returns the validated config it ran."""
        raise NotImplementedError

    def check(self, cfg: dict, out: Path, counts: dict,
              first_round: bool) -> tuple[dict, tuple[bool, str]]:
        """Output checks (name -> (passed, detail)) and check_moves' outcome.

        A chain that does not move samples nothing: its transitions count as
        failed, and the chain checks, which a chain stuck at its start
        passes, are left out.
        """
        raise NotImplementedError


def _raw_config(target, sampler, geometry, seed, iters, burnin, out):
    return {"target": dict(target), "sampler": dict(sampler),
            "geometry": geometry, "seed": seed, "iters": iters,
            "burnin": burnin, "output_dir": str(out)}


def _write_config(raw: dict, out: Path) -> dict:
    """Write the generated config and read it back through the CLI's path."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
        fh.write("\n")
    with open(path) as fh:
        cfg = cli.validate_config(json.load(fh))
    # validate_config keeps the geometry block as given, design keys included
    return cfg


# -- shared checks ---------------------------------------------------------

def read_chain(path: Path, dim: int):
    """Theta, logpost and accepted columns of a chain CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        ti = [header.index(f"theta_{i + 1}") for i in range(dim)]
        li = header.index("logpost")
        ai = header.index("accepted")
        thetas, logpost, accepted = [], [], []
        for line in fh:
            parts = line.strip().split(",")
            thetas.append([float(parts[i]) for i in ti])
            logpost.append(float(parts[li]))
            accepted.append(int(parts[ai]))
    return np.array(thetas), np.array(logpost), np.array(accepted)


def check_moves(thetas, accepted) -> tuple[bool, str]:
    """The retained chain moves: enough proposals are accepted.

    A chain stuck at its start would pass the chain checks (every draw is the
    same exactly evaluated point, and on BBD the start lies on the ridge).
    """
    rate = float(accepted.mean())
    distinct = len(np.unique(thetas, axis=0))
    return rate >= MIN_ACCEPT, (
        f"acceptance {rate:.3f} (min {MIN_ACCEPT}); {distinct} distinct of "
        f"{len(thetas)} retained draws")


def check_logpost(target, thetas, logpost) -> tuple[bool, str]:
    """Every draw's logpost equals -U(theta) from a freshly built target."""
    worst = 0.0
    seen = {}
    for th, lp in zip(thetas, logpost):
        key = th.tobytes()
        if key not in seen:
            seen[key] = target.potential(th)
        u = seen[key]
        worst = max(worst, abs(lp + u) / max(1.0, abs(u)))
    ok = worst <= LOGPOST_RTOL
    return ok, f"max |logpost + U|/max(1,|U|) = {worst:.3g} over {len(seen)} distinct draws"


def check_exact_calls(counts: dict) -> tuple[bool, str]:
    """One exact potential per non-divergent proposal, probe and Q try."""
    expected = (counts["transitions"] - counts["divergent"] + counts["probes"]
                + counts["q_tries"])
    got = counts["sampling_potentials"]
    return got == expected, (
        f"{got} exact potentials during sampling; expected "
        f"{counts['transitions']} transitions - {counts['divergent']} divergent"
        f" + {counts['probes']} probes + {counts['q_tries']} Q tries = {expected}")


def bbd_mu(thetas) -> np.ndarray:
    odd, even = thetas[:, 0::2], thetas[:, 1::2]
    return odd.sum(axis=1) + (even**2).sum(axis=1)


def check_mu(target, thetas) -> tuple[bool, str]:
    """mu(theta) draws sit at the data mean: the likelihood sees only it."""
    n = target.data.size
    scale = target.sigma_y / math.sqrt(n)
    dev = (float(bbd_mu(thetas).mean()) - float(target.data.mean())) / scale
    return abs(dev) <= MU_SIGMAS, f"mean mu - data mean = {dev:+.3f} sigma/sqrt(N)"


def design_predictions(emulator, design) -> np.ndarray:
    """Predicted potentials, then gradients, at the design points."""
    got = emulator.predict(design.points, 0).mean
    if design.has_gradients:
        got = np.concatenate([got, emulator.predict(design.points, 1).mean.T.ravel()])
    return got


def check_design_fit(emulator, design) -> tuple[bool, str]:
    """The emulator's predictions at its design points are the GP's.

    Conditioning on data u with nugget eta gives, at the design points,
    u - eta * Q u with Q = C^-1 - C^-1 H (H' C^-1 H)^-1 H' C^-1.  That value
    is computed here from the kernel matrices with plain GLS algebra, apart
    from the emulator's factors.
    """
    rho, eta = emulator.hyper.rho, emulator.hyper.nugget
    C = kernels.tilde_corr(design.points, rho, design.has_gradients)
    C[np.diag_indices_from(C)] += eta
    H = kernels.tilde_basis(design.points, design.has_gradients)
    u = design.data_vector()
    beta = np.linalg.solve(H.T @ np.linalg.solve(C, H), H.T @ np.linalg.solve(C, u))
    expected = u - eta * np.linalg.solve(C, u - H @ beta)
    got = design_predictions(emulator, design)
    scale = max(1.0, float(np.abs(u).max()))
    err = float(np.abs(got - expected).max()) / scale
    return err <= DESIGN_FIT_RTOL, (
        f"rel err vs GLS {err:.3g} (nugget {eta:g}, cond(C) {np.linalg.cond(C):.3g})")


def check_design_interp(emulator, design) -> tuple[bool, str]:
    """The emulator reproduces the design's potentials and gradients."""
    u = design.data_vector()
    got = design_predictions(emulator, design)
    err = float(np.abs(got - u).max()) / max(1.0, float(np.abs(u).max()))
    rho = emulator.hyper.rho
    return err <= DESIGN_INTERP_RTOL, (
        f"max rel err vs design data {err:.3g} (rho {rho.min():.3g}-{rho.max():.3g})")


def check_design_values(target, design) -> tuple[bool, str]:
    """Stored design potentials and gradients match fresh exact evaluations."""
    worst = 0.0
    for i, th in enumerate(design.points):
        u, g = target.potential_grad(th)
        worst = max(worst, abs(u - design.potentials[i]) / max(1.0, abs(u)))
        if design.gradients is not None:
            worst = max(worst, float(np.abs(g - design.gradients[i]).max())
                        / max(1.0, float(np.abs(g).max())))
    return worst <= DESIGN_EVAL_RTOL, f"max rel err vs fresh evaluation {worst:.3g}"


def check_roundtrip(path: Path, copy_dir: Path) -> tuple[bool, str]:
    """Loading and saving the design file reproduces it byte for byte."""
    design, hyper = emulator_mod.load_design(path)
    copy_dir.mkdir(parents=True, exist_ok=True)
    copy = copy_dir / path.name
    emulator_mod.save_design(copy, design, hyper)
    files = [path.name]
    with open(path) as fh:
        pd_name = json.load(fh).get("per_datum_path")
    if pd_name:
        files.append(pd_name)
    same = all((path.parent / f).read_bytes() == (copy_dir / f).read_bytes()
               for f in files)
    sizes = ", ".join(f"{f} {(path.parent / f).stat().st_size / 1e6:.1f} MB"
                      for f in files)
    return same, f"{'identical' if same else 'DIFFERENT'}: {sizes}"


def batch_means(x: np.ndarray, n_batches: int = N_BATCHES):
    """Mean and batch-means standard error of each column."""
    b = x.shape[0] // n_batches
    means = x[: b * n_batches].reshape(n_batches, b, -1).mean(axis=1)
    return x.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(n_batches)


def check_reference_mean(thetas, reference: dict) -> tuple[bool, str]:
    """Posterior means agree with the exact-geometry reference."""
    mean, se = batch_means(thetas)
    ref_mean = np.array(reference["mean"])
    ref_se = np.array(reference["se"])
    z = np.abs(mean - ref_mean) / np.sqrt(se**2 + ref_se**2)
    return bool(z.max() <= MEAN_Z), (
        f"max |mean - ref| / err = {z.max():.2f} (coordinates: "
        + " ".join(f"{v:.2f}" for v in z) + ")")


# -- workloads ---------------------------------------------------------------

@dataclass
class BBDWorkload(Workload):
    emulated: bool

    def run(self, seed, out):
        if self.emulated:
            seed = BBD_EMULATED_SEED
            geometry = {"mode": "emulated", "design_file": str(out / "design.json"),
                        "design": dict(BBD_DESIGN)}
        else:
            geometry = {"mode": "exact"}
        cfg = _write_config(_raw_config(BBD_TARGET, BBD_RHMC, geometry, seed,
                                        self.iters, self.burnin, out), out)
        if self.emulated:
            cli.design_cmd(cfg)
        cli.run(cfg)
        return cfg

    def check(self, cfg, out, counts, first_round):
        target = cli.build_target(cfg, cfg["seed"])
        thetas, logpost, accepted = read_chain(out / "chain.csv", target.dim)
        kept = thetas[cfg["burnin"]:]
        moves = check_moves(kept, accepted[cfg["burnin"]:])
        results = {"exact_calls": check_exact_calls(counts)}
        if moves[0]:
            results["logpost"] = check_logpost(target, kept, logpost[cfg["burnin"]:])
            results["mu_at_data_mean"] = check_mu(target, kept)
        # every round of a run repeats the same seed, so the design file is
        # checked once per run (loading it alone takes ~2 s)
        if self.emulated and first_round:
            design, hyper = emulator_mod.load_design(out / "design.json")
            emulator = emulator_mod.build_emulator(design, hyper)
            results["design_fit"] = check_design_fit(emulator, design)
            results["design_interp"] = check_design_interp(emulator, design)
            results["design_values"] = check_design_values(target, design)
            results["design_roundtrip"] = check_roundtrip(
                out / "design.json", out / "roundtrip")
        return results, moves


class EllipticWorkload(Workload):

    def run(self, seed, out):
        geometry = {"mode": "emulated", "design_file": str(out / "design.json"),
                    "design": dict(ELLIPTIC_DESIGN)}
        cfg = _write_config(_raw_config(ELLIPTIC_TARGET, ELLIPTIC_HMC, geometry,
                                        ELLIPTIC_DATA_SEED, self.iters,
                                        self.burnin, out), out)
        cli.design_cmd(cfg)
        # chain index = benchmark seed: a chain stream of its own on fixed data
        cli.run_single_chain(cfg, seed, out)
        return cfg

    def check(self, cfg, out, counts, first_round):
        target = cli.build_target(cfg, cfg["seed"])
        thetas, logpost, accepted = read_chain(out / "chain.csv", target.dim)
        kept = thetas[cfg["burnin"]:]
        moves = check_moves(kept, accepted[cfg["burnin"]:])
        results = {"exact_calls": check_exact_calls(counts)}
        if moves[0]:
            with open(REFERENCE_PATH) as fh:
                reference = json.load(fh)
            results["logpost"] = check_logpost(target, kept, logpost[cfg["burnin"]:])
            results["reference_mean"] = check_reference_mean(kept, reference)
        return results, moves


WORKLOADS = {
    "bbd-exact-rhmc": BBDWorkload(BBD_BURNIN, BBD_EXACT_ITERS, emulated=False),
    "bbd-emulated-rhmc": BBDWorkload(BBD_BURNIN, BBD_EMULATED_ITERS, emulated=True),
    "elliptic-emulated-hmc": EllipticWorkload(ELLIPTIC_BURNIN, ELLIPTIC_ITERS),
}
