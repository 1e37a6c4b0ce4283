"""Transition kernels: random walk, Hamiltonian, and the two manifold variants.

Every kernel takes the exact target (used solely for the Metropolis test) and
a geometry provider (used solely to drive the proposal dynamics), so swapping
exact geometry for an emulated one changes proposals but never the acceptance
test.  Exactly one exact potential evaluation is spent per completed proposal.

Non-finite geometry during a trajectory auto-rejects the proposal instead of
aborting: long emulator extrapolations can produce wild values and the chain
must survive them.  So does a finite metric that is not positive definite,
which fails the Cholesky factorization behind every inverse metric.

A Riemannian or Lagrangian step asks its geometry provider for one full
point (metric, metric derivatives and gradient) per integrator step, and
an RHMC position sweep for the metric alone; each answer is one query at
one point.  The D x D factor and inverse come straight from LAPACK
(potrf, potri), since at that size the wrappers' fixed cost dominates.  The
fixed-point sweeps reduce each iterate once, to its sup-norm increment, and
take the finiteness test from it: the iterate is scanned only when the
increment is not finite.  The HMC leapfrog likewise takes its test from the
sum of its iterates and gradient, and scans them only when that is not
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, cho_solve, solve, solve_triangular, LinAlgError
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import (FixedPointDivergence, NonFiniteGradient, SingularUpdate,
                     SolverFailure)
from .geometry import christoffel_first_kind

__all__ = ["ChainState", "IntegratorConfig", "StepInfo", "init_state",
           "rwm_step", "leapfrog", "hmc_step", "generalized_leapfrog",
           "rhmc_step", "lmc_integrator", "lmc_step", "DualAveraging"]


@dataclass
class IntegratorConfig:
    step_size: float
    n_steps: int
    fixed_point_iters: int = 6
    fixed_point_tol: float = 1e-8
    mass: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if self.fixed_point_iters < 1:
            raise ValueError("fixed_point_iters must be >= 1")


@dataclass
class ChainState:
    """Current position with its exact potential and a private RNG stream."""

    theta: np.ndarray
    potential: float
    rng: np.random.Generator
    cache: dict = field(default_factory=dict)


@dataclass
class StepInfo:
    accepted: bool
    alpha: float = 0.0
    divergent: bool = False
    exact_calls: int = 1


def init_state(target, theta0, rng: np.random.Generator) -> ChainState:
    theta0 = np.asarray(theta0, dtype=float)
    return ChainState(theta=theta0, potential=target.potential(theta0), rng=rng)


def _finite(*arrays) -> bool:
    for a in arrays:
        if not np.isfinite(a).all():
            return False
    return True


def _quiet_overflow(fn):
    """Divergent trajectories overflow to inf by design; finiteness is
    checked explicitly, so the warnings are pure noise."""

    def wrapped(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


def _accept(state: ChainState, log_ratio: float):
    alpha = float(np.exp(min(0.0, log_ratio))) if np.isfinite(log_ratio) else 0.0
    return (state.rng.random() < alpha), alpha


# -- random walk ---------------------------------------------------------

@_quiet_overflow
def rwm_step(state: ChainState, target, proposal_sd: float):
    """Gaussian random-walk Metropolis; acceptance uses the exact potential."""
    prop = state.theta + proposal_sd * state.rng.standard_normal(state.theta.size)
    u_prop = target.potential(prop)
    ok, alpha = _accept(state, state.potential - u_prop)
    if ok:
        return ChainState(prop, u_prop, state.rng), StepInfo(True, alpha)
    return state, StepInfo(False, alpha)


# -- HMC -------------------------------------------------------------------

def _mass_ops(cfg: IntegratorConfig, dim: int):
    """Inverse mass (None for the identity), momentum draw and kinetic energy."""
    if cfg.mass is None:
        return None, (lambda rng: rng.standard_normal(dim)), \
            (lambda p: 0.5 * float(p @ p))
    M = np.asarray(cfg.mass, dtype=float)
    L = cholesky(M, lower=True)
    minv = lambda p: cho_solve((L, True), p)
    return minv, (lambda rng: L @ rng.standard_normal(dim)), \
        (lambda p: 0.5 * float(p @ minv(p)))


@_quiet_overflow
def leapfrog(theta, p, grad_fn, step_size, n_steps, mass_inv=None):
    """Stormer-Verlet integration of separable Hamiltonian dynamics.

    ``n_steps = 0`` returns the inputs untouched; ``mass_inv`` None is the
    identity.  Raises NonFiniteGradient when the gradient field or the
    iterates leave the finite range.  Each step takes the finiteness test
    from one reduction, the sum of the iterates' and the gradient's entries,
    and scans them only when that sum is not finite, which a non-finite
    entry always makes it; finite entries whose sum overflows pass the scan.
    """
    if n_steps == 0:
        return theta, p
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    half = 0.5 * step_size
    g = grad_fn(theta)
    if not _finite(g):
        raise NonFiniteGradient("gradient non-finite at trajectory start")
    kick = half * g  # the half-step kick, shared by two consecutive steps
    for _ in range(n_steps):
        p = p - kick
        theta = theta + step_size * (p if mass_inv is None else mass_inv(p))
        g = grad_fn(theta)
        if not math.isfinite((theta + p + g).sum()) and not _finite(theta, p, g):
            raise NonFiniteGradient("trajectory left the finite range")
        kick = half * g
        p = p - kick
    return theta, p


@_quiet_overflow
def hmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    dim = state.theta.size
    minv, sample_p, kinetic = _mass_ops(cfg, dim)
    p0 = sample_p(state.rng)
    try:
        theta1, p1 = leapfrog(state.theta, p0, geometry.grad,
                              cfg.step_size, cfg.n_steps, minv)
        u1 = target.potential(theta1)
    except (NonFiniteGradient, SolverFailure):
        return state, StepInfo(False, divergent=True, exact_calls=0)
    log_ratio = (state.potential + kinetic(p0)) - (u1 + kinetic(p1))
    ok, alpha = _accept(state, log_ratio)
    if ok:
        return ChainState(theta1, u1, state.rng), StepInfo(True, alpha)
    return state, StepInfo(False, alpha)


# -- RHMC --------------------------------------------------------------------

def _cholesky_inverse(G):
    """Lower Cholesky factor and inverse of a metric already checked finite.

    Calls LAPACK's potrf and potri directly: at D x D the per-call overhead
    of scipy's checked wrappers and a solve against the identity is most of
    the cost.  A metric that is not positive definite raises LinAlgError.
    """
    chol, info = dpotrf(G, lower=1, clean=1)
    if info == 0:
        inv, info = dpotri(chol, lower=1)
    if info != 0:
        raise LinAlgError("metric is not positive definite")
    # potri fills the lower triangle and leaves chol's zeros above it, so
    # adding the transpose doubles the diagonal alone; halving it is exact
    ginv = inv + inv.T
    ginv.flat[::G.shape[0] + 1] *= 0.5
    return chol, ginv


def _metric_inverse(geometry, theta):
    """Inverse metric at ``theta`` from the provider's metric-only query."""
    G = geometry.metric(theta)
    if not _finite(G):
        raise NonFiniteGradient("metric non-finite")
    return _cholesky_inverse(G)[1]


class _ManifoldPoint:
    """Metric-dependent quantities reused across integrator substeps."""

    def __init__(self, geometry, theta):
        self.theta = np.asarray(theta, dtype=float)
        G, dG, grad_u = geometry.metric_and_derivs(self.theta)
        if not _finite(G, dG):
            raise NonFiniteGradient("metric non-finite")
        self.G = G
        self.dG = dG
        self.chol, self.Ginv = _cholesky_inverse(G)
        self.logdet = 2.0 * float(np.log(self.chol.diagonal()).sum())
        # grad of phi = U + log det(G)/2
        self.gphi = grad_u + 0.5 * np.einsum("ij,kji->k", self.Ginv, dG)
        if not _finite(self.gphi):
            raise NonFiniteGradient("phi gradient non-finite")

    @cached_property
    def gamma2(self):
        """Second-kind connection gamma2[i, j, k] = Gamma^k_{ij}."""
        return np.einsum("km,ijm->ijk", self.Ginv,
                         christoffel_first_kind(self.dG))

    def nu(self, p):
        """nu_i(p) = p' Ginv dG_i Ginv p (= -p' d_i(Ginv) p)."""
        w = self.Ginv @ p
        return np.einsum("i,kij,j->k", w, self.dG, w)

    def sample_momentum(self, rng):
        return self.chol @ rng.standard_normal(self.theta.size)

    def sample_velocity(self, rng):
        return solve_triangular(self.chol.T, rng.standard_normal(self.theta.size),
                                lower=False)

    def hamiltonian(self, potential, p):
        return potential + 0.5 * self.logdet + 0.5 * float(p @ self.Ginv @ p)

    def lagrangian_energy(self, potential, v):
        return potential - 0.5 * self.logdet + 0.5 * float(v @ self.G @ v)


@_quiet_overflow
def generalized_leapfrog(state_theta, p, geometry, cfg: IntegratorConfig,
                         start: _ManifoldPoint | None = None):
    """Semi-implicit reversible integrator for position-dependent metrics.

    Returns (theta, p, point) at the endpoint.  Both implicit equations are
    solved by fixed-point iteration (at most ``fixed_point_iters`` sweeps,
    stopping early on a ``fixed_point_tol`` sup-norm increment).

    The momentum equations need the gradient and the metric derivatives; the
    position equation needs only the inverse metric at its iterate.  So each
    position sweep but the last asks the provider for ``metric`` at the new
    iterate, and one full point (``metric_and_derivs``) is built per step, at
    the converged position, for the explicit momentum half-step.  A
    non-finite metric or a failed Cholesky factorization at any iterate
    rejects the proposal; a non-finite gradient or metric derivative rejects
    it only at the converged position, since no intermediate iterate uses
    them.

    The finiteness test of a fixed-point iterate rides on the sup-norm
    increment the sweep computes anyway: a NaN or infinite entry in the new
    iterate makes the increment NaN or infinite (numpy's max propagates NaN),
    so the full scan runs only then, and only to tell an overflowing but
    finite difference from a non-finite iterate.
    """
    eps = cfg.step_size
    point = start if start is not None else _ManifoldPoint(geometry, state_theta)
    theta = np.array(state_theta, dtype=float)
    p = np.array(p, dtype=float)
    for _ in range(cfg.n_steps):
        # implicit momentum half-step; no iterate is modified in place, so
        # the sweeps start from p and theta themselves
        p_half = p
        for _ in range(cfg.fixed_point_iters):
            p_new = p - 0.5 * eps * (point.gphi - 0.5 * point.nu(p_half))
            delta = np.abs(p_new - p_half).max()
            if not math.isfinite(delta) and not _finite(p_new):
                raise FixedPointDivergence("momentum iterate non-finite")
            p_half = p_new
            if delta < cfg.fixed_point_tol:
                break
        # implicit position full step
        theta_new = theta
        ginv_end = point.Ginv
        for sweep in range(cfg.fixed_point_iters):
            theta_next = theta + 0.5 * eps * (point.Ginv + ginv_end) @ p_half
            delta = np.abs(theta_next - theta_new).max()
            if not math.isfinite(delta) and not _finite(theta_next):
                raise FixedPointDivergence("position iterate non-finite")
            theta_new = theta_next
            if delta < cfg.fixed_point_tol or sweep == cfg.fixed_point_iters - 1:
                break
            ginv_end = _metric_inverse(geometry, theta_new)
        end = _ManifoldPoint(geometry, theta_new)
        theta = theta_new
        # explicit momentum half-step
        p = p_half - 0.5 * eps * (end.gphi - 0.5 * end.nu(p_half))
        if not _finite(p):
            raise FixedPointDivergence("momentum update non-finite")
        point = end
    return theta, p, point


@_quiet_overflow
def rhmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    try:
        point = state.cache.get("manifold_point")
        if point is None or not np.array_equal(point.theta, state.theta):
            point = _ManifoldPoint(geometry, state.theta)
        p0 = point.sample_momentum(state.rng)
        h0 = point.hamiltonian(state.potential, p0)
        theta1, p1, end = generalized_leapfrog(state.theta, p0, geometry, cfg,
                                               start=point)
        u1 = target.potential(theta1)
    except (FixedPointDivergence, NonFiniteGradient, SolverFailure, LinAlgError):
        return state, StepInfo(False, divergent=True, exact_calls=0)
    h1 = end.hamiltonian(u1, p1)
    ok, alpha = _accept(state, h0 - h1)
    if ok:
        new = ChainState(theta1, u1, state.rng)
        new.cache["manifold_point"] = end
        return new, StepInfo(True, alpha)
    state.cache["manifold_point"] = point
    return state, StepInfo(False, alpha)


# -- LMC ---------------------------------------------------------------------

def _omega(point: _ManifoldPoint, v):
    """Omega_kj = v^i Gamma^k_{ij} from the point's second-kind connection."""
    return np.einsum("i,ijk->kj", v, point.gamma2)


def _logabsdet(M):
    sign, val = np.linalg.slogdet(M)
    if sign == 0 or not np.isfinite(val):
        raise SingularUpdate("integrator update matrix is singular")
    return val


@_quiet_overflow
def lmc_integrator(state_theta, v, geometry, cfg: IntegratorConfig,
                   start: _ManifoldPoint | None = None):
    """Fully explicit Lagrangian integrator with its log Jacobian.

    Returns (theta, v, point, logdet) where ``logdet`` accumulates the log
    absolute Jacobian determinant of the whole map, one four-determinant
    factor per step.
    """
    eps = cfg.step_size
    point = start if start is not None else _ManifoldPoint(geometry, state_theta)
    theta = np.array(state_theta, dtype=float)
    v = np.array(v, dtype=float)
    dim = v.size
    eye = np.eye(dim)
    logdet = 0.0
    for _ in range(cfg.n_steps):
        omega0 = _omega(point, v)
        try:
            v_half = solve(eye + 0.5 * eps * omega0,
                           v - 0.5 * eps * point.Ginv @ point.gphi)
        except LinAlgError as exc:
            raise SingularUpdate(str(exc)) from exc
        if not _finite(v_half):
            raise SingularUpdate("half-step velocity non-finite")
        theta_new = theta + eps * v_half
        if not _finite(theta_new):
            raise SingularUpdate("position update non-finite")
        end = _ManifoldPoint(geometry, theta_new)
        omega_half_end = _omega(end, v_half)
        try:
            v_new = solve(eye + 0.5 * eps * omega_half_end,
                          v_half - 0.5 * eps * end.Ginv @ end.gphi)
        except LinAlgError as exc:
            raise SingularUpdate(str(exc)) from exc
        if not _finite(v_new):
            raise SingularUpdate("velocity update non-finite")
        logdet += _logabsdet(eye - 0.5 * eps * _omega(end, v_new))
        logdet += _logabsdet(eye - 0.5 * eps * _omega(point, v_half))
        logdet -= _logabsdet(eye + 0.5 * eps * omega_half_end)
        logdet -= _logabsdet(eye + 0.5 * eps * omega0)
        theta, v, point = theta_new, v_new, end
    return theta, v, point, logdet


@_quiet_overflow
def lmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    try:
        point = state.cache.get("manifold_point")
        if point is None or not np.array_equal(point.theta, state.theta):
            point = _ManifoldPoint(geometry, state.theta)
        v0 = point.sample_velocity(state.rng)
        e0 = point.lagrangian_energy(state.potential, v0)
        theta1, v1, end, logdet = lmc_integrator(state.theta, v0, geometry, cfg,
                                                 start=point)
        u1 = target.potential(theta1)
    except (SingularUpdate, NonFiniteGradient, SolverFailure, LinAlgError):
        return state, StepInfo(False, divergent=True, exact_calls=0)
    e1 = end.lagrangian_energy(u1, v1)
    ok, alpha = _accept(state, (e0 - e1) + logdet)
    if ok:
        new = ChainState(theta1, u1, state.rng)
        new.cache["manifold_point"] = end
        return new, StepInfo(True, alpha)
    state.cache["manifold_point"] = point
    return state, StepInfo(False, alpha)


# -- step-size adaptation ------------------------------------------------

class DualAveraging:
    """Dual-averaging step-size tuner aiming at a target acceptance rate.

    ``GAMMA``, ``T0`` and ``KAPPA`` are the shrinkage, the early-iteration
    damping and the averaging-weight decay of Hoffman & Gelman (2014).
    """

    GAMMA = 0.05
    T0 = 10.0
    KAPPA = 0.75

    def __init__(self, initial_step: float, target: float = 0.7):
        self.mu = np.log(10.0 * initial_step)
        self.target = target
        self.t = 0
        self.h_bar = 0.0
        self.log_eps = np.log(initial_step)
        self.log_eps_bar = np.log(initial_step)

    def update(self, alpha: float) -> float:
        """Feed one acceptance probability; returns the step size to use next."""
        self.t += 1
        frac = 1.0 / (self.t + self.T0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - alpha)
        self.log_eps = self.mu - np.sqrt(self.t) / self.GAMMA * self.h_bar
        eta = self.t ** (-self.KAPPA)
        self.log_eps_bar = eta * self.log_eps + (1 - eta) * self.log_eps_bar
        return float(np.exp(self.log_eps))

    @property
    def tuned_step(self) -> float:
        """Frozen post-warmup step size."""
        return float(np.exp(self.log_eps_bar))
