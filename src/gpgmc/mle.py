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

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .emulator import DesignSet, Emulator, Hyperparameters
from .errors import IllConditioned, OptimFailed, TooFewPoints

__all__ = ["profile_loglik", "profile_loglik_grad", "profile_loglik_hess",
           "fit_hyperparameters"]

TAU_BOUND = 8.0
FIT_RESTARTS = 5
FIT_MAX_ITER = 200


def _loglik(em: Emulator) -> float:
    return -0.5 * em.dof * np.log(em.sigma2_hat) - 0.5 * em.logdet_C \
        - 0.5 * em.logdet_B


def profile_loglik(design: DesignSet, rho, nugget: float = 1e-8) -> float:
    """Profile log-likelihood l(rho) up to an additive constant."""
    em = Emulator(design, Hyperparameters(rho, nugget))
    return _loglik(em) if em.sigma2_hat > 0.0 else -np.inf


def profile_loglik_grad(design: DesignSet, rho, nugget: float = 1e-8):
    """Return (l, dl/drho) with the analytic gradient."""
    rho = np.asarray(rho, dtype=float)
    em = Emulator(design, Hyperparameters(rho, nugget))
    if em.sigma2_hat <= 0.0:
        return -np.inf, np.full(rho.shape, np.nan)
    coef = em.dof / (2.0 * (em.dof - 2) * em.sigma2_hat)
    grad = np.array([coef * (em.w @ dC @ em.w) - 0.5 * np.sum(em.Q * dC.T)
                     for dC in kernels.iter_tilde_corr_rho_grad(
                         design.pair_diffs, rho, design.has_gradients)])
    return _loglik(em), grad


def profile_loglik_hess(design: DesignSet, rho, nugget: float = 1e-8):
    """Return (l, grad, hess) with the analytic Hessian in rho."""
    rho = np.asarray(rho, dtype=float)
    em = Emulator(design, Hyperparameters(rho, nugget))
    sigma2, Q, Qu = em.sigma2_hat, em.Q, em.w
    if sigma2 <= 0.0:
        raise OptimFailed("sigma2_hat non-positive; likelihood degenerate")
    dC = kernels.tilde_corr_rho_grad(design.pair_diffs, rho, design.has_gradients)
    nq = em.dof
    nq2 = em.dof - 2
    quad = np.array([Qu @ dC[d] @ Qu for d in range(rho.size)])
    grad = nq / (2.0 * nq2 * sigma2) * quad \
        - 0.5 * np.array([np.sum(Q * dC[d].T) for d in range(rho.size)])
    dim = rho.size
    hess = np.empty((dim, dim))
    QdC = [Q @ dC[d] for d in range(dim)]
    for d in range(dim):
        for e in range(d, dim):
            d2C = kernels.tilde_corr_rho_hess(design.pair_diffs, rho,
                                              design.has_gradients, d, e)
            term1 = nq / (2.0 * nq2**2 * sigma2**2) * quad[d] * quad[e]
            mid = dC[d] @ Q @ dC[e] + dC[e] @ Q @ dC[d] - d2C
            term2 = -nq / (2.0 * nq2 * sigma2) * (Qu @ mid @ Qu)
            term3 = 0.5 * (np.sum(QdC[d] * QdC[e].T) - np.sum(Q * d2C.T))
            hess[d, e] = hess[e, d] = term1 + term2 + term3
    return _loglik(em), grad, hess


def fit_hyperparameters(design: DesignSet, nugget: float = 1e-8,
                        rng: np.random.Generator | None = None):
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
            l, g_rho = profile_loglik_grad(design, rho, nugget)
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
    _, grad_rho = profile_loglik_grad(design, rho, nugget)
    # projected gradient of l in tau; components pushing past a bound count 0
    proj = -rho * grad_rho
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
    return Hyperparameters(rho=rho, nugget=nugget), info
