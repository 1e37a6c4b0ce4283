"""Maximum-likelihood estimation of the kernel inverse lengthscales.

The profile log-likelihood after integrating out the mean coefficients and the
process variance is

    l(rho) = -(n~-q)/2 log sigma2_hat - 1/2 logdet C - 1/2 logdet B

with C the (nugget-augmented, possibly derivative-augmented) design
correlation matrix and B = H' C^-1 H.  Every term is read from the
factorization an :class:`~gpgmc.emulator.Emulator` builds for the design, so
a failed factorization raises ``IllConditioned``.  Analytic gradient and
Hessian in rho are available; optimization runs in the unconstrained
tau = -log rho parameterization with a bounded quasi-Newton iteration and
random restarts.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .emulator import NUGGET_DEFAULT, DesignSet, Emulator, Hyperparameters
from .errors import IllConditioned, OptimFailed, TooFewPoints

__all__ = ["profile_loglik", "profile_loglik_grad", "profile_loglik_hess",
           "fit_hyperparameters"]

TAU_BOUND = 8.0
FIT_RESTARTS = 5
FIT_MAX_ITER = 200


def _loglik(em: Emulator) -> float:
    return -0.5 * em.dof * np.log(em.sigma2_hat) - 0.5 * em.logdet_C \
        - 0.5 * em.logdet_B


def profile_loglik(design: DesignSet, rho, nugget: float = NUGGET_DEFAULT) -> float:
    """Profile log-likelihood l(rho) up to an additive constant."""
    em = Emulator(design, Hyperparameters(rho, nugget))
    return _loglik(em) if em.sigma2_hat > 0.0 else -np.inf


def _coef(em: Emulator) -> float:
    """c = dof / (2 (dof - 2) sigma2_hat)."""
    return em.dof / (2.0 * (em.dof - 2) * em.sigma2_hat)


def _linear_term(em: Emulator, coef: float, M) -> float:
    """``c w'M w - tr(Q M) / 2``, the part of a derivative of l linear in a
    derivative M of C~: all of dl/drho_d for M = dC~/drho_d."""
    return coef * (em.w @ M @ em.w) - 0.5 * np.sum(em.Q * M.T)


def profile_loglik_grad(design: DesignSet, rho, nugget: float = NUGGET_DEFAULT):
    """Return (l, dl/drho) with the analytic gradient."""
    rho = np.asarray(rho, dtype=float)
    em = Emulator(design, Hyperparameters(rho, nugget))
    if em.sigma2_hat <= 0.0:
        return -np.inf, np.full(rho.shape, np.nan)
    coef = _coef(em)
    grad = np.array([_linear_term(em, coef, dC)
                     for dC in kernels.tilde_corr_rho_derivs(
                         design.pair_diffs, rho, design.has_gradients,
                         [(d,) for d in range(rho.size)])])
    return _loglik(em), grad


def profile_loglik_hess(design: DesignSet, rho, nugget: float = NUGGET_DEFAULT):
    """Return (l, grad, hess) with the analytic Hessian in rho.

    With c from :func:`_coef`, ``v_d = dC_d w`` and ``A_d = Q dC_d``,
    entry (d, e) is ``c (w'v_d)(w'v_e) / ((dof - 2) sigma2_hat)
    - 2c v_d'Q v_e + tr(A_d A_e) / 2`` plus the linear term of d2C_de.
    After the factorization it costs O(D n~^3 + D^2 n~^2)."""
    rho = np.asarray(rho, dtype=float)
    em = Emulator(design, Hyperparameters(rho, nugget))
    if em.sigma2_hat <= 0.0:
        raise OptimFailed("sigma2_hat non-positive; likelihood degenerate")
    dim = rho.size
    pairs = [(d, e) for d in range(dim) for e in range(d, dim)]
    derivs = kernels.tilde_corr_rho_derivs(
        design.pair_diffs, rho, design.has_gradients,
        [(d,) for d in range(dim)] + pairs)
    coef = _coef(em)
    first = [(_linear_term(em, coef, dC), dC @ em.w, em.Q @ dC)
             for dC in islice(derivs, dim)]
    grad, V, A = (np.array(x) for x in zip(*first))
    quad = V @ em.w
    At = A.transpose(0, 2, 1).reshape(dim, -1)  # tr(A_d A_e) = vec(A_d).vec(A_e')
    hess = coef / ((em.dof - 2) * em.sigma2_hat) * np.outer(quad, quad) \
        - 2.0 * coef * (V @ em.Q @ V.T) + 0.5 * (A.reshape(dim, -1) @ At.T)
    for (d, e), d2C in zip(pairs, derivs):
        hess[d, e] += _linear_term(em, coef, d2C)
    hess = np.triu(hess) + np.triu(hess, 1).T
    return _loglik(em), grad, hess


def fit_hyperparameters(design: DesignSet, rng: np.random.Generator | None = None):
    """Fit rho by maximizing the profile likelihood over tau = -log rho.

    The first start puts each lengthscale at the design's span in that
    coordinate; ``FIT_RESTARTS - 1`` more starts are drawn around it from
    ``rng``, and each runs at most ``FIT_MAX_ITER`` L-BFGS-B iterations.
    Returns ``(Hyperparameters, info)`` where ``info`` records the achieved
    likelihood, projected gradient norm and a ``warn`` flag set when no
    restart converged cleanly.  Deterministic given ``rng``.
    """
    dim = design.dim
    q = 1 + 2 * dim
    if design.n_tilde <= q + 2:
        raise TooFewPoints("too few stacked observations for MLE")
    rng = rng if rng is not None else np.random.default_rng(0)

    def neg_l_and_grad(tau):
        rho = np.exp(-np.clip(tau, -TAU_BOUND, TAU_BOUND))
        try:
            l, g_rho = profile_loglik_grad(design, rho)
        except IllConditioned:
            return np.inf, np.zeros_like(tau)
        if not np.isfinite(l):
            return np.inf, np.zeros_like(tau)
        # chain rule: d l / d tau = -rho * d l / d rho
        return -l, rho * g_rho

    spans = design.points.max(axis=0) - design.points.min(axis=0)
    spans = np.where(spans > 0, spans, 1.0)
    init_tau = -np.log(1.0 / spans**2)
    starts = [init_tau]
    for _ in range(FIT_RESTARTS - 1):
        starts.append(init_tau + rng.normal(scale=1.5, size=dim))

    best = None
    any_converged = False
    bounds = [(-TAU_BOUND, TAU_BOUND)] * dim
    for tau0 in starts:
        res = minimize(neg_l_and_grad, np.clip(tau0, -TAU_BOUND, TAU_BOUND),
                       jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": FIT_MAX_ITER, "gtol": 1e-9, "ftol": 1e-13})
        if not np.isfinite(res.fun):
            continue
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise OptimFailed("all hyperparameter restarts diverged")

    tau = best.x
    rho = np.exp(-tau)
    # projected gradient of l in tau, the negated gradient the optimizer
    # returns at tau; components pushing past a bound count 0
    proj = -best.jac
    at_lo = tau <= -TAU_BOUND + 1e-12
    at_hi = tau >= TAU_BOUND - 1e-12
    proj[at_lo & (proj < 0)] = 0.0
    proj[at_hi & (proj > 0)] = 0.0
    info = {
        "l": -float(best.fun),
        "grad_norm": float(np.max(np.abs(proj))),
        "converged": any_converged,
        "warn": not any_converged,
        "n_restarts": len(starts),
    }
    return Hyperparameters(rho=rho), info
