"""Configuration-driven experiment runner.

``gpgmc run config.json`` builds the target, geometry and sampler described by
the config, runs the chain(s) and persists chain.csv, events.csv, summary.csv,
design.json (when adapted) and meta.json.  ``gpgmc design`` runs the offline
design-refinement pipeline; ``gpgmc diagnose`` summarizes an existing chain.

A single 64-bit seed fans out to per-component RNG streams through spawn keys,
so adding a component never perturbs the others' draws; (config, seed) fully
determines every output byte (modulo wall-clock fields, which the
``timing: "none"`` mode zeroes out).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (AdaptiveGPeSampler, CandidatePool, MICEConfig,
                         RegenSchedule, maxmin_filter, mice_refine)
from .diagnostics import summarize
from .elliptic import EllipticTarget, KLExpansion
from .emulator import DesignSet, build_emulator, load_design, save_design
from .errors import ConfigError, GpgmcError
from .geometry import EmulatedGeometry, ExactGeometry
from .mle import fit_hyperparameters
from .samplers import (DualAveraging, IntegratorConfig, hmc_step, init_state,
                       lmc_step, rhmc_step, rwm_step)
from .targets import BBDTarget, GaussianTarget, banana_target

STREAM_DATA = 0
STREAM_INIT = 1
STREAM_DESIGN = 2
STREAM_CHAIN_BASE = 100


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


# -- config ------------------------------------------------------------------

_SAMPLERS = ("rwm", "hmc", "rhmc", "lmc")
_TARGETS = ("banana", "bbd", "gaussian", "elliptic")
_TOP_KEYS = ("target", "sampler", "geometry", "seed", "iters", "burnin",
             "output_dir", "timing", "init")
_SAMPLER_KEYS = {
    "rwm": ("name", "proposal_sd", "tune", "target_accept"),
    "gradient": ("name", "step_size", "n_steps", "fixed_point_iters",
                 "fixed_point_tol", "tune", "target_accept"),
}
_TARGET_KEYS = {
    "banana": ("name", "n_data", "mu_true", "sigma_y", "sigma_theta"),
    "bbd": ("name", "n_data", "mu_true", "sigma_y", "sigma_theta", "dim"),
    "gaussian": ("name", "mean", "cov"),
    "elliptic": ("name", "dim", "mesh_size", "kl_lengthscale", "kl_variance",
                 "theta_true", "noise_sd"),
}
_GEOMETRY_KEYS = ("mode", "design_file", "design", "adaptation")
_DESIGN_KEYS = ("source", "count", "path", "maxmin_radius", "target_size",
                "with_gradients")
_ADAPTATION_KEYS = ("test_interval", "stop_mspe_rel", "max_adaptations",
                    "init_keep", "maxmin_radius", "max_size", "init_design",
                    "init_size")
# target dimensions when the config gives none
_DEFAULT_DIM = {"bbd": 4, "elliptic": 6}
_DEFAULT_GAUSSIAN_MEAN = [0.0, 0.0]


def _need(cfg: dict, key: str, typ, path: str, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}/{key}", "missing required key")
        return default
    val = cfg[key]
    # bool is a subclass of int, but true/false is no count or step size
    if typ in (int, float) and isinstance(val, bool):
        raise ConfigError(f"{path}/{key}", f"expected {typ}, got bool")
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"{path}/{key}", f"expected {typ}, got {type(val).__name__}")
    return val


def _reject_unknown(cfg: dict, known, path: str, what: str):
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{path}/{key}", f"unknown key for {what}")


def _target_dim(tcfg: dict) -> int:
    name = tcfg["name"]
    if name == "banana":
        return 2
    if name == "gaussian":
        return int(np.size(tcfg.get("mean", _DEFAULT_GAUSSIAN_MEAN)))
    return tcfg.get("dim", _DEFAULT_DIM[name])


def _init_point(cfg: dict, dim: int) -> list:
    init = cfg["init"]
    if not isinstance(init, list):
        raise ConfigError("/init", f"expected a list, got {type(init).__name__}")
    if len(init) != dim:
        raise ConfigError("/init", f"expected {dim} coordinates, got {len(init)}")
    for val in init:
        if isinstance(val, bool) or not isinstance(val, (int, float)) \
                or not np.isfinite(val):
            raise ConfigError("/init", f"coordinates must be finite numbers, got {val!r}")
    return [float(v) for v in init]


def validate_config(cfg: dict) -> dict:
    """Validate and normalize a run config; raises ConfigError with a path."""
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be an object")
    _reject_unknown(cfg, _TOP_KEYS, "", "the config")
    out = {}
    tgt = _need(cfg, "target", dict, "", required=True)
    name = _need(tgt, "name", str, "/target", required=True)
    if name not in _TARGETS:
        raise ConfigError("/target/name", f"must be one of {_TARGETS}")
    _reject_unknown(tgt, _TARGET_KEYS[name], "/target", f"target {name!r}")
    out["target"] = dict(tgt)

    smp = _need(cfg, "sampler", dict, "", required=True)
    sname = _need(smp, "name", str, "/sampler", required=True)
    if sname not in _SAMPLERS:
        raise ConfigError("/sampler/name", f"must be one of {_SAMPLERS}")
    _reject_unknown(smp, _SAMPLER_KEYS["rwm" if sname == "rwm" else "gradient"],
                    "/sampler", f"sampler {sname!r}")
    norm = {"name": sname}
    if sname == "rwm":
        norm["proposal_sd"] = _need(smp, "proposal_sd", float, "/sampler", 0.5)
        if norm["proposal_sd"] <= 0:
            raise ConfigError("/sampler/proposal_sd", "must be positive")
    else:
        norm["step_size"] = _need(smp, "step_size", float, "/sampler", 0.1)
        norm["n_steps"] = _need(smp, "n_steps", int, "/sampler", 10)
        norm["fixed_point_iters"] = _need(smp, "fixed_point_iters", int, "/sampler", 6)
        norm["fixed_point_tol"] = _need(smp, "fixed_point_tol", float, "/sampler", 1e-8)
        if norm["step_size"] <= 0:
            raise ConfigError("/sampler/step_size", "must be positive")
        if norm["n_steps"] < 1:
            raise ConfigError("/sampler/n_steps", "must be >= 1")
    norm["tune"] = _need(smp, "tune", bool, "/sampler", False)
    norm["target_accept"] = _need(smp, "target_accept", float, "/sampler", 0.7)
    out["sampler"] = norm

    geo = _need(cfg, "geometry", dict, "", default={"mode": "exact"})
    _reject_unknown(geo, _GEOMETRY_KEYS, "/geometry", "geometry")
    for key, known in (("design", _DESIGN_KEYS), ("adaptation", _ADAPTATION_KEYS)):
        sub = _need(geo, key, dict, "/geometry", {})
        _reject_unknown(sub, known, f"/geometry/{key}", key)
    mode = _need(geo, "mode", str, "/geometry", "exact")
    if mode not in ("exact", "emulated"):
        raise ConfigError("/geometry/mode", "must be 'exact' or 'emulated'")
    if mode == "emulated" and "design_file" not in geo and "adaptation" not in geo:
        raise ConfigError("/geometry", "emulated mode needs design_file or adaptation")
    if "adaptation" in geo and sname == "rwm":
        raise ConfigError("/geometry/adaptation", "adaptation needs a gradient-based sampler")
    out["geometry"] = dict(geo)

    out["seed"] = _need(cfg, "seed", int, "", required=True)
    out["iters"] = _need(cfg, "iters", int, "", required=True)
    out["burnin"] = _need(cfg, "burnin", int, "", 0)
    if out["burnin"] >= out["iters"]:
        raise ConfigError("/burnin", "burnin must be < iters")
    out["output_dir"] = _need(cfg, "output_dir", str, "", "out")
    timing = _need(cfg, "timing", str, "", "real")
    if timing not in ("real", "none"):
        raise ConfigError("/timing", "must be 'real' or 'none'")
    out["timing"] = timing
    if "init" in cfg:
        out["init"] = _init_point(cfg, _target_dim(tgt))
    return out


def build_target(cfg: dict, seed: int):
    """Instantiate the target, generating synthetic data deterministically."""
    tcfg = cfg["target"]
    rng = _rng(seed, STREAM_DATA)
    name = tcfg["name"]
    if name == "banana":
        return banana_target(rng=rng,
                             n_data=tcfg.get("n_data", 100),
                             mu_true=tcfg.get("mu_true", 1.0),
                             sigma_y=tcfg.get("sigma_y", 2.0),
                             sigma_theta=tcfg.get("sigma_theta", 1.0))
    if name == "bbd":
        return BBDTarget.simulate(rng,
                                  n_data=tcfg.get("n_data", 3000),
                                  mu_true=tcfg.get("mu_true", 0.0),
                                  sigma_y=tcfg.get("sigma_y", 1.0),
                                  sigma_theta=tcfg.get("sigma_theta", 1.0),
                                  dim=_target_dim(tcfg))
    if name == "gaussian":
        mean = np.asarray(tcfg.get("mean", _DEFAULT_GAUSSIAN_MEAN), dtype=float)
        cov = np.asarray(tcfg.get("cov", np.eye(mean.size).tolist()), dtype=float)
        return GaussianTarget(mean, cov)
    if name == "elliptic":
        dim = _target_dim(tcfg)
        kl = KLExpansion(n_modes=dim, mesh_size=tcfg.get("mesh_size", 20),
                         lengthscale=tcfg.get("kl_lengthscale", 0.5),
                         variance=tcfg.get("kl_variance", 1.0))
        theta_true = np.asarray(
            tcfg.get("theta_true", rng.standard_normal(dim).tolist()), dtype=float)
        return EllipticTarget.simulate(rng, theta_true, kl=kl,
                                       noise_sd=tcfg.get("noise_sd", 0.1),
                                       mesh_size=tcfg.get("mesh_size", 20))
    raise ConfigError("/target/name", f"unknown target {name}")


def _write_data_csv(path: Path, target):
    data = getattr(target, "data", None)
    if data is None:
        data = getattr(target, "obs", None)
    if data is None:
        return
    with open(path, "w") as fh:
        fh.write("y\n")
        for v in np.asarray(data).ravel():
            fh.write(repr(float(v)) + "\n")


def _prior_sample(target, rng, count):
    if hasattr(target, "sigma_theta"):
        return target.sigma_theta * rng.standard_normal((count, target.dim))
    if isinstance(target, GaussianTarget):
        L = np.linalg.cholesky(target.cov)
        return target.mean + rng.standard_normal((count, target.dim)) @ L.T
    return rng.standard_normal((count, target.dim))


def _evaluated_design(target, points, with_gradients=False):
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    ndata = target.data_count
    pots = np.empty(n)
    pds = np.empty((n, ndata))
    grads = np.empty((n, dim)) if with_gradients else None
    pdgs = np.empty((n, dim, ndata)) if with_gradients else None
    for i, th in enumerate(points):
        if with_gradients:
            pots[i], grads[i], pds[i], pdgs[i] = target.per_datum(th)
        else:
            pots[i], pds[i] = target.potential_per_datum(th)
    return DesignSet(points=points, potentials=pots, gradients=grads,
                     per_datum=pds, per_datum_grads=pdgs)


# -- chain execution -----------------------------------------------------

def _format_row(values):
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(repr(float(v)))
        else:
            out.append(str(v))
    return ",".join(out)


def run_single_chain(cfg: dict, chain_idx: int, out_dir: Path, suffix: str = ""):
    """Run one chain to completion; returns the summary.

    Chain 0 also writes the target's data to ``data.csv``.
    """
    seed = cfg["seed"]
    target = build_target(cfg, seed)
    if chain_idx == 0:
        _write_data_csv(out_dir / "data.csv", target)
    dim = target.dim
    scfg = cfg["sampler"]
    gcfg = cfg["geometry"]
    timing = cfg["timing"] == "real"
    rng = _rng(seed, STREAM_CHAIN_BASE + chain_idx)

    adaptive = None
    geometry = None
    kernel_tag = scfg["name"]
    integ = None
    if scfg["name"] != "rwm":
        integ = IntegratorConfig(step_size=scfg["step_size"], n_steps=scfg["n_steps"],
                                 fixed_point_iters=scfg["fixed_point_iters"],
                                 fixed_point_tol=scfg["fixed_point_tol"])
    if gcfg.get("mode", "exact") == "exact":
        geometry = ExactGeometry(target)
    else:
        acfg = gcfg.get("adaptation")
        if acfg is None:
            design, hyper = load_design(gcfg["design_file"])
            geometry = EmulatedGeometry(build_emulator(design, hyper))
        else:
            design = _init_adaptive_design(cfg, target, acfg)
            adaptive = AdaptiveGPeSampler(
                target, design, integ, kernel=scfg["name"],
                schedule=RegenSchedule(
                    test_interval=acfg.get("test_interval", 20),
                    stop_mspe_rel=acfg.get("stop_mspe_rel", 1e-2),
                    max_adaptations=acfg.get("max_adaptations", 10)),
                mice_cfg=MICEConfig(
                    init_keep=acfg.get("init_keep", 5),
                    maxmin_radius=acfg.get("maxmin_radius", 0.2),
                    max_size=acfg.get("max_size", 40)),
                rng=rng, tune=scfg["tune"], target_accept=scfg["target_accept"])
            kernel_tag = f"adp-gpe-{scfg['name']}"

    theta0 = np.asarray(cfg["init"], dtype=float) if "init" in cfg else np.zeros(dim)
    chain_target = adaptive.target if adaptive is not None else target
    state = init_state(chain_target, theta0, rng)

    tuner = None
    if scfg["tune"] and scfg["name"] != "rwm" and adaptive is None:
        tuner = DualAveraging(integ.step_size, target=scfg["target_accept"])

    chain_path = out_dir / f"chain{suffix}.csv"
    events_path = out_dir / f"events{suffix}.csv"
    iters, burnin = cfg["iters"], cfg["burnin"]
    kept = []
    accepted_post = 0
    wall_total_ns = 0
    with open(chain_path, "w") as fh:
        header = ",".join(["iter"] + [f"theta_{i+1}" for i in range(dim)]
                          + ["logpost", "accepted", "kernel", "regen", "wall_ns"])
        fh.write(header + "\n")
        for it in range(iters):
            t0 = time.perf_counter_ns() if timing else 0
            regen = 0
            if adaptive is not None:
                state, info = adaptive.step(state)
                acc = info["accepted"] or bool(info["indep_accepted"])
                regen = int(info["regenerated"])
                alpha = info["alpha"]
            elif scfg["name"] == "rwm":
                state, sinfo = rwm_step(state, target, scfg["proposal_sd"])
                acc, alpha = sinfo.accepted, sinfo.alpha
            else:
                step = {"hmc": hmc_step, "rhmc": rhmc_step, "lmc": lmc_step}[scfg["name"]]
                state, sinfo = step(state, target, geometry, integ)
                acc, alpha = sinfo.accepted, sinfo.alpha
                if tuner is not None and it < burnin:
                    integ.step_size = tuner.update(alpha)
                    if it == burnin - 1:
                        integ.step_size = tuner.tuned_step
            wall_ns = (time.perf_counter_ns() - t0) if timing else 0
            wall_total_ns += wall_ns
            row = [it] + [float(x) for x in state.theta] \
                + [-state.potential, int(acc), kernel_tag, regen, wall_ns]
            fh.write(_format_row(row) + "\n")
            if it >= burnin:
                kept.append(np.array(state.theta))
                accepted_post += int(acc)

    with open(events_path, "w") as fh:
        fh.write("iter,event,design_size,holdout_mspe\n")
        if adaptive is not None:
            for ev in adaptive.events:
                fh.write(_format_row([ev.iteration, ev.kind, ev.design_size,
                                      float(ev.holdout_mspe)]) + "\n")

    chain = np.array(kept)
    wall_seconds = wall_total_ns / 1e9
    summary = summarize(chain, wall_seconds, accepted_post / max(1, len(kept)))
    summary_path = out_dir / f"summary{suffix}.csv"
    with open(summary_path, "w") as fh:
        row = summary.row()
        fh.write(",".join(row.keys()) + "\n")
        fh.write(_format_row([float(v) for v in row.values()]) + "\n")

    if adaptive is not None:
        save_design(out_dir / f"design{suffix}.json", adaptive.design, adaptive.hyper)
    return summary


def _init_adaptive_design(cfg, target, acfg):
    src = acfg.get("init_design", "prior")
    if isinstance(src, str) and src.endswith(".json"):
        design, _ = load_design(src)
        return design
    size = acfg.get("init_size", max(4 + 2 * target.dim, 10))
    rng = _rng(cfg["seed"], STREAM_DESIGN)
    pts = _prior_sample(target, rng, size * 5)
    keep = maxmin_filter(pts, acfg.get("maxmin_radius", 0.2))[:size]
    if keep.size < size:
        keep = np.arange(size)
    return _evaluated_design(target, pts[keep])


def run(cfg: dict, n_chains: int = 1):
    """Execute a validated config; returns the output directory."""
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if n_chains == 1:
        run_single_chain(cfg, 0, out_dir)
    else:
        with ProcessPoolExecutor(max_workers=min(n_chains, 4)) as pool:
            futs = [pool.submit(run_single_chain, cfg, i, out_dir, f"_{i}")
                    for i in range(n_chains)]
            for f in futs:
                f.result()
    wall = time.perf_counter() - t0
    meta = {
        "package": "gpgmc",
        "version": __version__,
        "numpy": np.__version__,
        "seed": cfg["seed"],
        "n_chains": n_chains,
        "wall_seconds": wall if cfg["timing"] == "real" else 0.0,
        "config": cfg,
    }
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, default=str)
        fh.write("\n")
    return out_dir


# -- offline design command ------------------------------------------------

def design_cmd(cfg: dict):
    """Offline candidate filtering + greedy refinement; writes design.json."""
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    target = build_target(cfg, cfg["seed"])
    dcfg = cfg["geometry"].get("design", {})
    rng = _rng(cfg["seed"], STREAM_DESIGN)

    source = dcfg.get("source", "prior")
    with_gradients = dcfg.get("with_gradients", False)
    if source == "prior":
        points = _prior_sample(target, rng, dcfg.get("count", 100))
        pots, pds = [], []
        for th in points:
            # the candidates' potentials, and so the fit and the picks, come
            # from potential_per_datum's sum; a gradient design is re-evaluated
            # below, so its candidates' per-datum rows are not kept
            u, vals = target.potential_per_datum(th)
            pots.append(u)
            if not with_gradients:
                pds.append(vals)
        pots = np.array(pots)
        pds = None if with_gradients else np.array(pds)
    elif source == "chain":
        points, pots = _read_chain_csv(dcfg["path"], target.dim)
        pds = None
    else:
        raise ConfigError("/geometry/design/source", "must be 'prior' or 'chain'")

    radius = dcfg.get("maxmin_radius", 0.2)
    kept = maxmin_filter(points, radius)
    points, pots = points[kept], pots[kept]
    pds = pds[kept] if pds is not None else None

    q = 1 + 2 * target.dim
    n_init = min(q + 3, points.shape[0])
    init = DesignSet(points=points[:n_init], potentials=pots[:n_init],
                     per_datum=pds[:n_init] if pds is not None else None)
    pool = CandidatePool(points[n_init:], pots[n_init:],
                         pds[n_init:] if pds is not None else None)
    # lengthscales for the greedy selection come from the whole scored
    # candidate set; per-step fits on tiny growing designs are unstable
    pool_hyper, _ = fit_hyperparameters(
        DesignSet(points=points, potentials=pots), rng=rng)
    mcfg = MICEConfig(init_keep=n_init, max_size=dcfg.get("target_size", 20),
                      maxmin_radius=radius, refit_at_start=False)
    design, hyper, info = mice_refine(init, pool, mcfg, hyper=pool_hyper, rng=rng)

    if with_gradients:
        # the re-evaluation yields per-datum data whatever the source, and
        # metric-based samplers need it
        design = _evaluated_design(target, design.points, with_gradients=True)
    if design.n_tilde > q + 3:
        hyper, _ = fit_hyperparameters(
            DesignSet(points=design.points, potentials=design.potentials),
            nugget=mcfg.nugget, rng=rng)
    save_design(out_dir / "design.json", design, hyper)
    return out_dir / "design.json", info


def _read_chain_csv(path, dim):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        ti = [header.index(f"theta_{i+1}") for i in range(dim)]
        li = header.index("logpost")
        for line in fh:
            parts = line.strip().split(",")
            rows.append(([float(parts[i]) for i in ti], -float(parts[li])))
    points = np.array([r[0] for r in rows])
    pots = np.array([r[1] for r in rows])
    return points, pots


# -- diagnose ----------------------------------------------------------------

def diagnose(chain_path, baseline_path=None):
    """Summarize a chain CSV; optionally report speedup vs a baseline chain."""
    def load(path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            dim = sum(1 for h in header if h.startswith("theta_"))
            ti = [header.index(f"theta_{i+1}") for i in range(dim)]
            ai = header.index("accepted")
            wi = header.index("wall_ns")
            thetas, acc, wall = [], [], 0
            for line in fh:
                parts = line.strip().split(",")
                thetas.append([float(parts[i]) for i in ti])
                acc.append(int(parts[ai]))
                wall += int(parts[wi])
        return np.array(thetas), np.mean(acc), wall / 1e9

    base_summary = None
    if baseline_path is not None:
        bt, ba, bw = load(baseline_path)
        base_summary = summarize(bt, bw, ba)
    chain, ap, wall = load(chain_path)
    summary = summarize(chain, wall, ap, baseline=base_summary)
    row = summary.row()
    widths = [max(len(k), 10) for k in row]
    print("  ".join(k.rjust(w) for k, w in zip(row, widths)))
    print("  ".join(f"{float(v):.4g}".rjust(w) for v, w in zip(row.values(), widths)))
    print(",".join(row.keys()))
    print(_format_row([float(v) for v in row.values()]))
    return summary


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpgmc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "design"):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", type=str, default=None)
        if name == "run":
            p.add_argument("--chains", type=int, default=1)
    p = sub.add_parser("diagnose")
    p.add_argument("chain", type=Path)
    p.add_argument("--baseline", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "diagnose":
            diagnose(args.chain, args.baseline)
            return 0
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.output_dir is not None:
            raw["output_dir"] = args.output_dir
        cfg = validate_config(raw)
        if args.command == "run":
            run(cfg, n_chains=args.chains)
        else:
            design_cmd(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GpgmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
