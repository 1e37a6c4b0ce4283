"""Uniform geometry interface consumed by the transition kernels.

A provider answers three queries at a point.  ``grad(theta)`` is the
potential gradient, all that HMC needs.  ``metric(theta)`` is the metric ``G``
alone, all that an implicit position sweep of the generalized leapfrog needs.
``metric_and_derivs(theta)`` returns ``(G, dG, grad)``: the metric, its
derivatives ``dG[k] = dG/dtheta_k`` and the potential gradient, everything a
Riemannian or Lagrangian integrator point needs, in one call; its ``G`` is
bitwise the one ``metric`` returns.  Exact providers delegate to a target
model's analytic formulas; the emulated provider reads everything off a
Gaussian-process emulator, so a sampler runs identically in "full" and
"emulated" mode.  Acceptance tests never go through a provider: they always
use the exact target potential.
"""

from __future__ import annotations

import numpy as np

from .emulator import Emulator

__all__ = ["ExactGeometry", "EmulatedGeometry", "christoffel_first_kind"]

METRIC_REG_SCALE = 1e-6


def christoffel_first_kind(dG: np.ndarray) -> np.ndarray:
    """First-kind connection from metric derivatives dG[k] = dG/dtheta_k.

    Gamma[a, b, c] = (dG[a][c, b] + dG[b][a, c] - dG[c][a, b]) / 2.
    """
    return 0.5 * (np.einsum("acb->abc", dG) + np.einsum("bac->abc", dG)
                  - np.einsum("cab->abc", dG))


class ExactGeometry:
    """Geometry backed by a target model's analytic derivatives."""

    def __init__(self, target):
        self.target = target

    def grad(self, theta) -> np.ndarray:
        return self.target.potential_grad(theta)[1]

    def metric(self, theta) -> np.ndarray:
        return self.target.fisher(theta)

    def metric_and_derivs(self, theta):
        G, dG = self.target.fisher_derivs(theta)
        return G, dG, self.target.potential_grad(theta)[1]


class EmulatedGeometry:
    """Geometry read off a GP emulator (gradients, Fisher metric, connection).

    The emulated Fisher matrix is regularized with ``lam(theta) * I`` where
    ``lam = reg_scale * trace / D``; the derivative of ``lam`` is carried into
    the metric derivatives so the regularized field stays an exact gradient.
    """

    def __init__(self, emulator: Emulator, reg_scale: float = METRIC_REG_SCALE):
        self.emulator = emulator
        self.reg_scale = reg_scale

    def grad(self, theta) -> np.ndarray:
        return self.emulator.predict(np.atleast_2d(theta), 1).mean[0]

    def _regularize(self, G):
        dim = G.shape[0]
        lam = max(self.reg_scale * float(np.trace(G)) / dim, 1e-12)
        return G + lam * np.eye(dim), lam

    def metric(self, theta) -> np.ndarray:
        """Regularized metric from the order-1 map alone."""
        return self._regularize(
            self.emulator.predict_efi(np.atleast_2d(theta))[0])[0]

    def metric_and_derivs(self, theta):
        G_raw, T3, grad = self.emulator.predict_metric_bundle(np.atleast_2d(theta))
        G_raw, T3 = G_raw[0], T3[0]
        dim = G_raw.shape[0]
        # dG_c[a, b] = T3[a, c, b] + T3[b, c, a]
        dG = np.einsum("acb->cab", T3) + np.einsum("bca->cab", T3)
        G, lam = self._regularize(G_raw)
        dlam = self.reg_scale * np.trace(dG, axis1=1, axis2=2) / dim
        if lam <= 1e-12:
            dlam = np.zeros(dim)
        dG = dG + dlam[:, None, None] * np.eye(dim)[None, :, :]
        return G, dG, grad[0]
