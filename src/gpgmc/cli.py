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
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (AdaptiveGPeSampler, CandidatePool, MICEConfig,
                         RegenSchedule, maxmin_filter, mice_refine)
from .diagnostics import summarize
from .elliptic import EllipticTarget, KLExpansion
from .emulator import (DesignSet, build_emulator, load_design, per_datum_gram,
                       save_design)
from .errors import ChainFileError, ConfigError, GpgmcError
from .geometry import EmulatedGeometry, ExactGeometry
from .mle import fit_hyperparameters
from .samplers import (DualAveraging, IntegratorConfig, hmc_step, init_state,
                       lmc_step, rhmc_step, rwm_step)
from .targets import BBDTarget, GaussianTarget, banana_target

STREAM_DATA = 0
STREAM_DESIGN = 2
STREAM_CHAIN_BASE = 100


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


# -- config ------------------------------------------------------------------
# One table per section; see _section for how an entry reads.

def _dataclass_defaults(cls, *names) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name in names}


def _dataclass_args(cls, section: dict) -> dict:
    """The section's values for the fields of ``cls`` it holds."""
    return {f.name: section[f.name] for f in fields(cls) if f.name in section}


_TARGETS = {
    "banana": {"n_data": 100, "mu_true": 1.0, "sigma_y": 2.0, "sigma_theta": 1.0},
    "bbd": {"n_data": 3000, "mu_true": 0.0, "sigma_y": 1.0, "sigma_theta": 1.0,
            "dim": 4},
    "gaussian": {"mean": [0.0, 0.0], "cov": list},
    "elliptic": {"dim": 6, "mesh_size": 20, "kl_lengthscale": 0.5,
                 "kl_variance": 1.0, "theta_true": list, "noise_sd": 0.1},
}
# the class each target name builds; exact rhmc and lmc need its fisher_derivs
_TARGET_CLASSES = {"banana": BBDTarget, "bbd": BBDTarget,
                   "gaussian": GaussianTarget, "elliptic": EllipticTarget}
_HMC = {"step_size": 0.1, "n_steps": 10, "tune": False, "target_accept": float}
_SAMPLERS = {"rwm": {"proposal_sd": 0.5}, "hmc": _HMC, "lmc": _HMC,
             # the fixed points of rhmc's implicit generalized leapfrog
             "rhmc": {**_HMC, **_dataclass_defaults(
                 IntegratorConfig, "fixed_point_iters", "fixed_point_tol")}}
_TOP = {"target": dict, "sampler": dict, "geometry": {}, "seed": int,
        "iters": int, "burnin": 0, "output_dir": "out",
        "timing": ("real", "none"), "init": list}
_GEOMETRY = {"mode": ("exact", "emulated"), "design_file": str, "design": {},
             "adaptation": dict}
_DESIGN = {"source": ("prior", "chain"), "count": int, "path": str,
           **_dataclass_defaults(MICEConfig, "maxmin_radius"),
           "target_size": int, "with_gradients": False}
_ADAPTATION = {
    **_dataclass_defaults(RegenSchedule, "test_interval", "stop_mspe_rel",
                          "max_adaptations"),
    **_dataclass_defaults(MICEConfig, "init_keep", "maxmin_radius", "max_size"),
    "init_design": "prior", "init_size": int}
_POSITIVE = {"iters", "n_data", "sigma_y", "sigma_theta", "dim", "mesh_size",
             "kl_lengthscale", "kl_variance", "noise_sd", "proposal_sd",
             "step_size", "n_steps", "fixed_point_iters", "count",
             "maxmin_radius", "target_size", "test_interval", "init_keep",
             "max_size", "init_size"}
_NON_NEGATIVE = {"seed", "burnin", "fixed_point_tol", "stop_mspe_rel",
                 "max_adaptations"}


def _need(cfg: dict, key: str, typ, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}/{key}", "missing required key")
    val = cfg[key]
    # bool is a subclass of int, but true/false is no count or step size
    if typ in (int, float) and isinstance(val, bool):
        raise ConfigError(f"{path}/{key}", f"expected {typ}, got bool")
    if typ is float and isinstance(val, int):
        # an integer beyond the largest double reads as inf, refused below
        val = float(val) if abs(val) <= sys.float_info.max else float("inf")
    if not isinstance(val, typ):
        raise ConfigError(f"{path}/{key}", f"expected {typ}, got {type(val).__name__}")
    # json reads NaN, Infinity and -Infinity; no float key has a use for them
    if typ is float and not np.isfinite(val):
        raise ConfigError(f"{path}/{key}", f"must be finite, got {val!r}")
    return val


def _section(cfg: dict, keys: dict, path: str, what: str, required=()) -> dict:
    """Normalize one config section through its table ``keys``.

    An entry maps a key to its default, and the default's type is the key's
    type.  A type in place of a default marks a key with no static default,
    read only when given; a tuple lists the allowed values, the first being
    the default.  Rejects unknown keys, checks the type and range of each
    given value, and fills every static default.
    """
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{path}/{key}", f"unknown key for {what}")
    out = {}
    for key, spec in keys.items():
        choices = spec if isinstance(spec, tuple) else ()
        default = choices[0] if choices else spec
        if key not in cfg and key not in required:
            if not isinstance(spec, type):
                out[key] = default
            continue
        typ = spec if isinstance(spec, type) else type(default)
        val = out[key] = _need(cfg, key, typ, path)
        if choices and val not in choices:
            raise ConfigError(f"{path}/{key}", f"must be one of {choices}")
        if key in _POSITIVE and not val > 0:
            raise ConfigError(f"{path}/{key}", "must be positive")
        if key in _NON_NEGATIVE and not val >= 0:
            raise ConfigError(f"{path}/{key}", "must be >= 0")
    return out


def _named_section(cfg: dict, path: str, tables: dict, what: str) -> dict:
    """A section whose ``name`` picks its table."""
    name = _need(cfg, "name", str, path)
    if name not in tables:
        raise ConfigError(f"{path}/name", f"must be one of {tuple(tables)}")
    return _section(cfg, {"name": str, **tables[name]}, path, f"{what} {name!r}")


def _finite(val, shape: tuple, path: str) -> list:
    """Nested lists of finite numbers of the given shape, as floats."""
    if not isinstance(val, list):
        raise ConfigError(path, f"expected a list, got {type(val).__name__}")
    if len(val) != shape[0]:
        raise ConfigError(path, f"expected {shape[0]} entries, got {len(val)}")
    if len(shape) > 1:
        return [_finite(row, shape[1:], f"{path}/{i}") for i, row in enumerate(val)]
    for v in val:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
            raise ConfigError(path, f"entries must be finite numbers, got {v!r}")
    return [float(v) for v in val]


def _target_dim(tcfg: dict) -> int:
    if tcfg["name"] == "banana":
        return 2
    return len(tcfg["mean"]) if tcfg["name"] == "gaussian" else tcfg["dim"]


def _target_section(tgt: dict) -> dict:
    """The normalized target section, the only one ``build_target`` reads."""
    out = _named_section(tgt, "/target", _TARGETS, "target")
    if out["name"] == "bbd" and out["dim"] < 2:
        raise ConfigError("/target/dim", "bbd needs dim >= 2")
    if out["name"] == "elliptic" and out["mesh_size"] % 10:
        raise ConfigError("/target/mesh_size", "must be a multiple of 10")
    dim = _target_dim(out)
    if dim < 1:
        raise ConfigError("/target/mean", "needs at least one coordinate")
    for key, shape in (("mean", (dim,)), ("theta_true", (dim,)), ("cov", (dim, dim))):
        if key in out:
            out[key] = _finite(out[key], shape, f"/target/{key}")
    return out


def _at_least(section: dict, key: str, size: int, path: str):
    if section.get(key, size) < size:
        raise ConfigError(f"{path}/{key}", f"must be at least 2D + 4 = {size}, "
                          "the fewest points the lengthscale fit takes")


def validate_config(cfg: dict) -> dict:
    """Validate and normalize a run config; raises ConfigError with a path.

    Every section gets its defaults filled in but ``geometry.adaptation``,
    whose presence selects the adaptive sampler; ``design.count`` and
    ``adaptation.init_size`` are filled only for the prior, the one source
    that reads them, and ``sampler.target_accept`` only where ``tune`` is
    true.  A design size below 2D + 4, the fewest points the emulator's
    lengthscale fit takes, is refused; the size defaults are at least that."""
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be an object")
    out = _section(cfg, _TOP, "", "the config",
                   required=("target", "sampler", "seed", "iters"))
    out["target"] = _target_section(out["target"])
    dim = _target_dim(out["target"])
    fit_size = 2 * dim + 4  # q + 3: the fit needs more than q + 2 points
    smp = out["sampler"] = _named_section(out["sampler"], "/sampler", _SAMPLERS,
                                          "sampler")
    if "target_accept" in smp and not 0 < smp["target_accept"] < 1:
        raise ConfigError("/sampler/target_accept", "must lie strictly between 0 and 1")

    geo = out["geometry"] = _section(out["geometry"], _GEOMETRY, "/geometry",
                                     "geometry")
    dcfg = geo["design"] = _section(geo["design"], _DESIGN, "/geometry/design",
                                    "design")
    # the prior source reads count alone, the chain source path alone
    unused = "path" if dcfg["source"] == "prior" else "count"
    if unused in dcfg:
        raise ConfigError(f"/geometry/design/{unused}",
                          f"unused with source {dcfg['source']!r}")
    if dcfg["source"] == "prior":
        dcfg.setdefault("count", max(100, fit_size))
    elif "path" not in dcfg:
        raise ConfigError("/geometry/design/path", "source 'chain' needs a chain CSV")
    dcfg.setdefault("target_size", max(20, fit_size))
    for key in ("count", "target_size"):
        _at_least(dcfg, key, fit_size, "/geometry/design")
    if "adaptation" in geo:
        acfg = geo["adaptation"] = _section(
            geo["adaptation"], _ADAPTATION, "/geometry/adaptation", "adaptation")
        if smp["name"] == "rwm":
            raise ConfigError("/geometry/adaptation", "needs a gradient-based sampler")
        if geo["mode"] != "emulated":
            raise ConfigError("/geometry/adaptation", "needs mode 'emulated'")
        if "design_file" in geo:
            raise ConfigError("/geometry/design_file", "unused with adaptation; "
                              "give adaptation.init_design instead")
        if acfg["init_design"] == "prior":
            acfg.setdefault("init_size", max(fit_size, 10))
            _at_least(acfg, "init_size", fit_size, "/geometry/adaptation")
        elif not acfg["init_design"].endswith(".json"):
            raise ConfigError("/geometry/adaptation/init_design",
                              "must be 'prior' or a path ending in .json")
        elif "init_size" in acfg:
            raise ConfigError("/geometry/adaptation/init_size",
                              "unused with a design file as init_design")
    elif geo["mode"] == "emulated" and "design_file" not in geo:
        raise ConfigError("/geometry", "emulated mode needs design_file or adaptation")
    elif geo["mode"] == "exact" and "design_file" in geo:
        raise ConfigError("/geometry/design_file", "unused with mode 'exact'")
    tname = out["target"]["name"]
    if smp["name"] in ("rhmc", "lmc") and geo["mode"] == "exact" \
            and not hasattr(_TARGET_CLASSES[tname], "fisher_derivs"):
        raise ConfigError("/sampler/name",
                          f"exact {smp['name']} needs metric derivatives, which "
                          f"target {tname!r} does not provide; use hmc or "
                          f"geometry mode 'emulated'")

    # the step size is tuned during burn-in, or an adaptive run's adaptation
    if smp.get("tune"):
        if out["burnin"] == 0 and "adaptation" not in geo:
            raise ConfigError("/sampler/tune", "tunes during burn-in; needs "
                              "burnin > 0 or adaptation")
        smp.setdefault("target_accept", 0.7)
    elif "target_accept" in smp:
        raise ConfigError("/sampler/target_accept", "unused without tune: true")
    if out["burnin"] >= out["iters"]:
        raise ConfigError("/burnin", "burnin must be < iters")
    if "init" in out:
        out["init"] = _finite(out["init"], (dim,), "/init")
    return out


def build_target(cfg: dict, seed: int):
    """Instantiate the target, generating synthetic data deterministically.

    A raw target dict is normalized here and builds the same target."""
    tcfg = _target_section(cfg["target"])
    rng = _rng(seed, STREAM_DATA)
    name = tcfg["name"]
    if name == "banana":
        return banana_target(rng=rng, n_data=tcfg["n_data"], mu_true=tcfg["mu_true"],
                             sigma_y=tcfg["sigma_y"], sigma_theta=tcfg["sigma_theta"])
    if name == "bbd":
        return BBDTarget.simulate(rng, n_data=tcfg["n_data"], mu_true=tcfg["mu_true"],
                                  sigma_y=tcfg["sigma_y"],
                                  sigma_theta=tcfg["sigma_theta"], dim=tcfg["dim"])
    if name == "gaussian":
        mean = np.asarray(tcfg["mean"])
        return GaussianTarget(mean, np.asarray(tcfg.get("cov", np.eye(mean.size))))
    # drawn even when theta_true is given, so the noise draws stay in place
    drawn = rng.standard_normal(tcfg["dim"])
    kl = KLExpansion(n_modes=tcfg["dim"], mesh_size=tcfg["mesh_size"],
                     lengthscale=tcfg["kl_lengthscale"], variance=tcfg["kl_variance"])
    return EllipticTarget.simulate(rng, np.asarray(tcfg.get("theta_true", drawn)),
                                   kl=kl, noise_sd=tcfg["noise_sd"],
                                   mesh_size=tcfg["mesh_size"])


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


def _evaluated_rows(target, points, with_gradients=False):
    """Exact potentials, gradients (or None) and stacked (n~, N) per-datum
    rows at ``points``, each filled in place in ``data_vector`` row order."""
    n, dim = np.shape(points)
    pots = np.empty(n)
    grads = np.empty((n, dim)) if with_gradients else None
    rows = np.empty((n * (1 + dim) if with_gradients else n, target.data_count))
    for i, th in enumerate(points):
        if with_gradients:
            pots[i], grads[i], rows[i], rows[n + i::n] = target.per_datum(th)
        else:
            pots[i], rows[i] = target.potential_per_datum(th)
    return pots, grads, rows


def _evaluated_design(target, points, with_gradients=False):
    """The design at ``points``, its per-datum rows reduced to their Gram."""
    pots, grads, rows = _evaluated_rows(target, points, with_gradients)
    return DesignSet(points=points, potentials=pots, gradients=grads,
                     gfi=per_datum_gram(rows))


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

    ``chain.csv`` records every iteration's wall time, burn-in included; the
    summary's time, and so its s/iter and minESS/s, is that of the retained
    iterations whose draws it summarizes.  Chain 0 also writes the target's
    data to ``data.csv``, once the geometry is built: a design file that
    cannot serve the sampler leaves no file of the chain.
    """
    seed = cfg["seed"]
    target = build_target(cfg, seed)
    dim = target.dim
    scfg = cfg["sampler"]
    gcfg = cfg["geometry"]
    timing = cfg["timing"] == "real"
    rng = _rng(seed, STREAM_CHAIN_BASE + chain_idx)

    adaptive = geometry = integ = None
    kernel_tag = scfg["name"]
    if scfg["name"] != "rwm":
        integ = IntegratorConfig(**_dataclass_args(IntegratorConfig, scfg))
    acfg = gcfg.get("adaptation")
    if gcfg["mode"] == "exact":
        geometry = ExactGeometry(target)
    elif acfg is None:
        design, hyper = load_design(gcfg["design_file"])
        if scfg["name"] in ("rhmc", "lmc") and design.gfi is None:
            raise ConfigError("/geometry/design_file", f"{scfg['name']} needs a design "
                              "with a per-datum Gram (from the prior, or with_gradients)")
        geometry = EmulatedGeometry(build_emulator(design, hyper),
                                    target.prior_precision())
    else:
        design, rows = _init_adaptive_design(cfg, target, acfg)
        adaptive = AdaptiveGPeSampler(
            target, design, integ, kernel=scfg["name"], rows=rows,
            schedule=RegenSchedule(**_dataclass_args(RegenSchedule, acfg)),
            mice_cfg=MICEConfig(**_dataclass_args(MICEConfig, acfg)),
            rng=rng, **{key: scfg[key] for key in ("tune", "target_accept")
                        if key in scfg})
        kernel_tag = f"adp-gpe-{scfg['name']}"
    if chain_idx == 0:
        _write_data_csv(out_dir / "data.csv", target)

    theta0 = np.asarray(cfg["init"], dtype=float) if "init" in cfg else np.zeros(dim)
    chain_target = adaptive.target if adaptive is not None else target
    state = init_state(chain_target, theta0, rng)

    # bound per run, not at import: benchmarks/tracing.py replaces the steps
    tuner = kernel = None
    if scfg["name"] == "rwm":
        kernel = partial(rwm_step, target=target, proposal_sd=scfg["proposal_sd"])
    elif adaptive is None:
        kernel = partial({"hmc": hmc_step, "rhmc": rhmc_step,
                          "lmc": lmc_step}[scfg["name"]],
                         target=target, geometry=geometry, cfg=integ)
        if scfg["tune"]:
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
            else:
                state, info = kernel(state)
                acc = info.accepted
                if tuner is not None and it < burnin:
                    integ.step_size = tuner.update(info.alpha)
                    if it == burnin - 1:
                        integ.step_size = tuner.tuned_step
            wall_ns = (time.perf_counter_ns() - t0) if timing else 0
            row = [it] + [float(x) for x in state.theta] \
                + [-state.potential, int(acc), kernel_tag, regen, wall_ns]
            fh.write(_format_row(row) + "\n")
            if it >= burnin:  # the summary times the retained draws alone
                kept.append(np.array(state.theta))
                accepted_post += int(acc)
                wall_total_ns += wall_ns

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
    """The adaptive start's design and its per-datum value rows (None from a
    design file, which holds only their Gram); the sampler takes the Gram of
    a prior design from the rows."""
    if acfg["init_design"] != "prior":
        return load_design(acfg["init_design"])[0], None
    size = acfg["init_size"]
    rng = _rng(cfg["seed"], STREAM_DESIGN)
    pts = _prior_sample(target, rng, size * 5)
    radius = acfg["maxmin_radius"]
    keep = maxmin_filter(pts, radius)
    if keep.size < size:
        raise ConfigError("/geometry/adaptation/maxmin_radius",
                          f"radius {radius:g} keeps {keep.size} of {pts.shape[0]} "
                          f"prior draws, fewer than init_size {size}")
    pts = pts[keep[:size]]
    pots, _, rows = _evaluated_rows(target, pts)
    return DesignSet(points=pts, potentials=pots), rows


def run(cfg: dict, n_chains: int = 1):
    """Execute a validated config; returns the output directory."""
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
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
    dcfg = cfg["geometry"]["design"]
    rng = _rng(cfg["seed"], STREAM_DESIGN)

    with_gradients = dcfg["with_gradients"]
    if dcfg["source"] == "prior":
        points, pots = _prior_sample(target, rng, dcfg["count"]), None
    else:
        points, pots = _read_chain_csv(dcfg["path"], target.dim)

    radius = dcfg["maxmin_radius"]
    kept = maxmin_filter(points, radius)
    q = 1 + 2 * target.dim
    if kept.size < q + 3:  # the pool fit needs n > q + 2 points
        raise ConfigError("/geometry/design/maxmin_radius",
                          f"radius {radius:g} leaves {kept.size} candidates, "
                          f"the design step needs at least {q + 3}")
    points = points[kept]
    # a prior candidate is evaluated once it survives the filter; its
    # potential, and so the fit and the picks, comes from
    # potential_per_datum's sum, as the design's own do below
    pots = pots[kept] if pots is not None else np.array(
        [target.potential_per_datum(th)[0] for th in points])

    n_init = q + 3
    init = DesignSet(points=points[:n_init], potentials=pots[:n_init])
    pool = CandidatePool(points[n_init:], pots[n_init:])
    # lengthscales for the greedy selection come from the whole scored
    # candidate set; per-step fits on tiny growing designs are unstable
    hyper = _fit_design_hyper(points, pots, rng, "pool")
    mcfg = MICEConfig(init_keep=n_init, max_size=dcfg["target_size"])
    design, info = mice_refine(init, pool, mcfg, hyper.rho)

    if with_gradients or dcfg["source"] == "prior":
        # the chosen points' per-datum Gram, which metric-based samplers need;
        # a gradient design gets it whatever the source
        design = _evaluated_design(target, design.points, with_gradients)
    if design.n_tilde > q + 3:
        hyper = _fit_design_hyper(design.points, design.potentials, rng, "final")
    save_design(out_dir / "design.json", design, hyper)
    return out_dir / "design.json", info


def _fit_design_hyper(points, potentials, rng, name):
    """Lengthscales fitted on values at ``points``; a fit that does not
    converge is kept, with one stderr line naming it."""
    hyper, info = fit_hyperparameters(
        DesignSet(points=points, potentials=potentials), rng=rng)
    if info["warn"]:
        print(f"warning: the {name} lengthscale fit of the design step did "
              f"not converge (projected gradient {info['grad_norm']:.3g}, "
              f"Newton decrement {info['decrement']:.3g})", file=sys.stderr)
    return hyper


def _read_chain_csv(path, dim=None, extra=()):
    """Theta rows (the header's ``theta_*`` columns) and potentials of a
    chain CSV, then its ``extra`` columns.  A ``dim`` other than the chain's
    is a config error: the design's chain does not fit its target.  A file
    that cannot be opened or parsed, or holds no draws, raises
    ChainFileError naming it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ChainFileError(f"{path}: cannot read chain CSV: {exc}") from exc
    ncols = sum(1 for h in header if h.startswith("theta_"))
    if dim is not None and ncols != dim:
        raise ConfigError("/geometry/design/path",
                          f"chain has {ncols} theta columns, target has {dim}")
    try:
        ti = [header.index(f"theta_{i+1}") for i in range(ncols)]
        theta = np.array([[float(r[i]) for i in ti] for r in rows])
        logpost, *cols = (np.array([float(r[i]) for r in rows])
                          for i in map(header.index, ("logpost", *extra)))
    except (ValueError, IndexError) as exc:
        raise ChainFileError(f"{path}: not a chain CSV: {exc}") from exc
    if not rows:
        raise ChainFileError(f"{path}: chain has no draws")
    return (theta, -logpost, *cols)


# -- diagnose ----------------------------------------------------------------

def _burnin(chain_path) -> int:
    """Burn-in recorded by the ``meta.json`` that ``run`` writes beside a
    chain; 0 without one."""
    meta = Path(chain_path).parent / "meta.json"
    if not meta.is_file():
        return 0
    try:
        return int(json.loads(meta.read_text())["config"]["burnin"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ChainFileError(f"{meta}: cannot read burn-in: {exc!r}") from exc


def diagnose(chain_path, baseline_path=None):
    """Summarize a chain CSV; optionally report speedup vs a baseline chain.

    Each chain drops the burn-in its run's ``meta.json`` records, so the
    summary of a run's chain is that run's ``summary.csv``."""
    def load(path, baseline=None):
        theta, _, acc, wall_ns = _read_chain_csv(path, extra=("accepted", "wall_ns"))
        b = _burnin(path)
        if b >= len(theta):
            raise ChainFileError(f"{path}: chain has no draws after burn-in {b}")
        return summarize(theta[b:], wall_ns[b:].sum() / 1e9, acc[b:].mean(),
                         baseline=baseline)

    base = load(baseline_path) if baseline_path is not None else None
    summary = load(chain_path, base)
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
    if args.command == "run" and args.chains < 1:
        sub.choices["run"].error(f"--chains must be at least 1, got {args.chains}")
    try:
        if args.command == "diagnose":
            diagnose(args.chain, args.baseline)
            return 0
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
            raise ConfigError(str(args.config), f"cannot read config: {exc}") from exc
        if isinstance(raw, dict):  # validate_config rejects anything else
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
