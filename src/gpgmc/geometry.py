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

An emulated query makes one emulator call at one point, and that call one
pass over the design: ``grad`` contracts it with weights the emulator built
once, ``metric`` builds the order-1 map alone,
``metric_and_derivs`` the order-1 and order-2 maps and the gradient
contraction from the same pass.  The regularizer is added to the diagonal
in place.
"""

from __future__ import annotations

import numpy as np

from .emulator import Emulator

__all__ = ["ExactGeometry", "EmulatedGeometry", "christoffel_first_kind",
           "metric_regularizer"]

METRIC_REG_SCALE = 1e-6


def metric_regularizer(G) -> float:
    """``lam = max(METRIC_REG_SCALE * trace(G) / D, 1e-12)``, the multiple of
    the identity that regularizes a D x D metric ``G``."""
    return max(METRIC_REG_SCALE * float(G.trace()) / G.shape[0], 1e-12)


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
    ``lam = METRIC_REG_SCALE * trace / D`` (:func:`metric_regularizer`); the
    derivative of ``lam`` is carried into the metric derivatives so the
    regularized field stays an exact gradient.
    """

    def __init__(self, emulator: Emulator):
        self.emulator = emulator

    def grad(self, theta) -> np.ndarray:
        return self.emulator.predict(theta, 1).mean[0]  # theta as one point

    def _regularize(self, G):
        """Adds ``lam * I`` to ``G`` in place; returns ``lam``."""
        lam = metric_regularizer(G)
        G.flat[::G.shape[0] + 1] += lam
        return lam

    def metric(self, theta) -> np.ndarray:
        """Regularized metric from the order-1 map alone."""
        G = self.emulator.predict_efi(np.atleast_2d(theta))[0]
        self._regularize(G)
        return G

    def metric_and_derivs(self, theta):
        G, T3, grad = self.emulator.predict_metric_bundle(np.atleast_2d(theta))
        G, T3 = G[0], T3[0]
        dim = G.shape[0]
        # dG_c[a, b] = T3[a, c, b] + T3[b, c, a]
        dG = T3.transpose(1, 0, 2) + T3.transpose(1, 2, 0)
        if self._regularize(G) > 1e-12:  # off the floor, lam varies with theta
            # the diagonals of every dG[k], as one strided view
            np.einsum("kii->ki", dG)[...] += \
                METRIC_REG_SCALE * dG.trace(axis1=1, axis2=2)[:, None] / dim
        return G, dG, grad[0]
