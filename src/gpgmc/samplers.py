"""Transition kernels: random walk, Hamiltonian, and the two manifold variants.

Every kernel takes the exact target (used solely for the Metropolis test) and
a geometry provider (used solely to drive the proposal dynamics), so swapping
exact geometry for an emulated one changes proposals but never the acceptance
test.  Exactly one exact potential evaluation is spent per completed proposal.

A trajectory raises ``Divergence`` when the geometry or an iterate leaves
the finite range, a metric is not positive definite, an LMC update matrix is
singular or an elliptic solve fails (``SolverFailure``).  A step catches it
alone and rejects the proposal with no exact evaluation, the state left as
it was; any other error propagates.  Overflow on the way is expected, so
each step and integrator has its own ``np.errstate`` instance (numpy < 2
keeps the saved state on it, and ``hmc_step`` nests ``leapfrog``).

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, cho_solve, solve, solve_triangular, LinAlgError
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import Divergence
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
    """Current position with its exact potential, a private RNG stream and
    the manifold point a manifold step last built at it."""

    theta: np.ndarray
    potential: float
    rng: np.random.Generator
    point: _ManifoldPoint | None = None


@dataclass
class StepInfo:
    accepted: bool
    alpha: float = 0.0
    divergent: bool = False

    @property
    def exact_calls(self) -> int:  # a divergent step makes none
        return 0 if self.divergent else 1


def init_state(target, theta0, rng: np.random.Generator) -> ChainState:
    theta0 = np.asarray(theta0, dtype=float)
    return ChainState(theta=theta0, potential=target.potential(theta0), rng=rng)


def _finite(*arrays) -> bool:
    for a in arrays:
        if not np.isfinite(a).all():
            return False
    return True


def _require_finite(what: str, *arrays):
    if not _finite(*arrays):
        raise Divergence(f"{what} non-finite")


def _metropolis(state: ChainState, log_ratio: float, theta, potential,
                point=None):
    """The Metropolis test of a proposal: the next state and its StepInfo."""
    alpha = float(np.exp(min(0.0, log_ratio))) if np.isfinite(log_ratio) else 0.0
    if state.rng.random() < alpha:
        return ChainState(theta, potential, state.rng, point), StepInfo(True, alpha)
    return state, StepInfo(False, alpha)


# -- random walk ---------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def rwm_step(state: ChainState, target, proposal_sd: float):
    """Gaussian random-walk Metropolis; acceptance uses the exact potential."""
    prop = state.theta + proposal_sd * state.rng.standard_normal(state.theta.size)
    u_prop = target.potential(prop)
    return _metropolis(state, state.potential - u_prop, prop, u_prop)


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


@np.errstate(over="ignore", invalid="ignore")
def leapfrog(theta, p, grad_fn, step_size, n_steps, mass_inv=None):
    """Stormer-Verlet integration of separable Hamiltonian dynamics.

    ``n_steps = 0`` returns the inputs untouched; ``mass_inv`` None is the
    identity.  Raises Divergence when the gradient field or the
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
        raise Divergence("gradient non-finite at trajectory start")
    kick = half * g  # the half-step kick, shared by two consecutive steps
    for _ in range(n_steps):
        p = p - kick
        theta = theta + step_size * (p if mass_inv is None else mass_inv(p))
        g = grad_fn(theta)
        if not math.isfinite((theta + p + g).sum()) and not _finite(theta, p, g):
            raise Divergence("trajectory left the finite range")
        kick = half * g
        p = p - kick
    return theta, p


@np.errstate(over="ignore", invalid="ignore")
def hmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    minv, sample_p, kinetic = _mass_ops(cfg, state.theta.size)
    p0 = sample_p(state.rng)
    try:
        theta1, p1 = leapfrog(state.theta, p0, geometry.grad,
                              cfg.step_size, cfg.n_steps, minv)
        u1 = target.potential(theta1)
    except Divergence:
        return state, StepInfo(False, divergent=True)
    log_ratio = (state.potential + kinetic(p0)) - (u1 + kinetic(p1))
    return _metropolis(state, log_ratio, theta1, u1)


# -- RHMC --------------------------------------------------------------------

def _cholesky_inverse(G):
    """Lower Cholesky factor and inverse of a metric already checked finite.

    Calls LAPACK's potrf and potri directly: at D x D the per-call overhead
    of scipy's checked wrappers and a solve against the identity is most of
    the cost.  A metric that is not positive definite raises Divergence.
    """
    chol, info = dpotrf(G, lower=1, clean=1)
    if info == 0:
        inv, info = dpotri(chol, lower=1)
    if info != 0:
        raise Divergence("metric is not positive definite")
    # potri fills the lower triangle and leaves chol's zeros above it, so
    # adding the transpose doubles the diagonal alone; halving it is exact
    ginv = inv + inv.T
    ginv.flat[::G.shape[0] + 1] *= 0.5
    return chol, ginv


def _metric_inverse(geometry, theta):
    """Inverse metric at ``theta`` from the provider's metric-only query."""
    G = geometry.metric(theta)
    _require_finite("metric", G)
    return _cholesky_inverse(G)[1]


class _ManifoldPoint:
    """Metric-dependent quantities reused across integrator substeps."""

    def __init__(self, geometry, theta):
        self.theta = np.asarray(theta, dtype=float)
        G, dG, grad_u = geometry.metric_and_derivs(self.theta)
        _require_finite("metric", G, dG)
        self.G = G
        self.dG = dG
        self.chol, self.Ginv = _cholesky_inverse(G)
        self.logdet = 2.0 * float(np.log(self.chol.diagonal()).sum())
        # grad of phi = U + log det(G)/2
        self.gphi = grad_u + 0.5 * np.einsum("ij,kji->k", self.Ginv, dG)
        _require_finite("phi gradient", self.gphi)

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


def _manifold_step(state: ChainState, target, geometry, cfg, draw, energy,
                   integrate):
    """One RHMC or LMC transition from the state's point (reused when it
    sits at ``theta``), the auxiliary variable's ``draw`` and ``energy``, and
    ``integrate``, which returns (theta, aux, point, *log Jacobian terms)."""
    try:
        point = state.point
        if point is None or not np.array_equal(point.theta, state.theta):
            point = _ManifoldPoint(geometry, state.theta)
        aux0 = draw(point, state.rng)
        theta1, aux1, end, *log_jacobian = integrate(state.theta, aux0, geometry,
                                                     cfg, start=point)
        u1 = target.potential(theta1)
    except Divergence:
        return state, StepInfo(False, divergent=True)
    state.point = point
    return _metropolis(state, energy(point, state.potential, aux0)
                       - energy(end, u1, aux1) + sum(log_jacobian),
                       theta1, u1, end)


@np.errstate(over="ignore", invalid="ignore")
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
            if not math.isfinite(delta):
                _require_finite("momentum iterate", p_new)
            p_half = p_new
            if delta < cfg.fixed_point_tol:
                break
        # implicit position full step
        theta_new = theta
        ginv_end = point.Ginv
        for sweep in range(cfg.fixed_point_iters):
            theta_next = theta + 0.5 * eps * (point.Ginv + ginv_end) @ p_half
            delta = np.abs(theta_next - theta_new).max()
            if not math.isfinite(delta):
                _require_finite("position iterate", theta_next)
            theta_new = theta_next
            if delta < cfg.fixed_point_tol or sweep == cfg.fixed_point_iters - 1:
                break
            ginv_end = _metric_inverse(geometry, theta_new)
        end = _ManifoldPoint(geometry, theta_new)
        theta = theta_new
        # explicit momentum half-step
        p = p_half - 0.5 * eps * (end.gphi - 0.5 * end.nu(p_half))
        _require_finite("momentum update", p)
        point = end
    return theta, p, point


@np.errstate(over="ignore", invalid="ignore")
def rhmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    return _manifold_step(state, target, geometry, cfg,
                          _ManifoldPoint.sample_momentum,
                          _ManifoldPoint.hamiltonian, generalized_leapfrog)


# -- LMC ---------------------------------------------------------------------

def _omega(point: _ManifoldPoint, v):
    """Omega_kj = v^i Gamma^k_{ij} from the point's second-kind connection."""
    return np.einsum("i,ijk->kj", v, point.gamma2)


def _logabsdet(M):
    sign, val = np.linalg.slogdet(M)
    if sign == 0 or not np.isfinite(val):
        raise Divergence("integrator update matrix is singular")
    return val


def _solve(A, b, what: str):
    """``A^-1 b`` for an LMC velocity update; a singular ``A`` or a
    non-finite result raises Divergence."""
    try:
        x = solve(A, b)
    except LinAlgError as exc:
        raise Divergence(str(exc)) from exc
    _require_finite(what, x)
    return x


@np.errstate(over="ignore", invalid="ignore")
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
    eye = np.eye(v.size)
    logdet = 0.0
    for _ in range(cfg.n_steps):
        omega0 = _omega(point, v)
        v_half = _solve(eye + 0.5 * eps * omega0,
                        v - 0.5 * eps * point.Ginv @ point.gphi,
                        "half-step velocity")
        theta_new = theta + eps * v_half
        _require_finite("position update", theta_new)
        end = _ManifoldPoint(geometry, theta_new)
        omega_half_end = _omega(end, v_half)
        v_new = _solve(eye + 0.5 * eps * omega_half_end,
                       v_half - 0.5 * eps * end.Ginv @ end.gphi,
                       "velocity update")
        logdet += _logabsdet(eye - 0.5 * eps * _omega(end, v_new))
        logdet += _logabsdet(eye - 0.5 * eps * _omega(point, v_half))
        logdet -= _logabsdet(eye + 0.5 * eps * omega_half_end)
        logdet -= _logabsdet(eye + 0.5 * eps * omega0)
        theta, v, point = theta_new, v_new, end
    return theta, v, point, logdet


@np.errstate(over="ignore", invalid="ignore")
def lmc_step(state: ChainState, target, geometry, cfg: IntegratorConfig):
    return _manifold_step(state, target, geometry, cfg,
                          _ManifoldPoint.sample_velocity,
                          _ManifoldPoint.lagrangian_energy, lmc_integrator)


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
