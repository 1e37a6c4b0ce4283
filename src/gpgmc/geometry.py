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
"emulated" mode.  Both define the metric one way: the likelihood's Fisher
information (exact or emulated) plus the prior precision.  Acceptance tests
never go through a provider: they always use the exact target potential.

An emulated query makes one emulator call at one point, and that call one
pass over the design: ``grad`` contracts it with weights the emulator built
once, ``metric`` builds the order-1 map alone,
``metric_and_derivs`` the order-1 and order-2 maps and the gradient
contraction from the same pass.  The prior precision is added to ``G`` in
place; it is constant, so ``dG`` is the emulated derivative itself.
"""

from __future__ import annotations

import numpy as np

from .emulator import Emulator

__all__ = ["ExactGeometry", "EmulatedGeometry", "christoffel_first_kind"]


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

    The metric is the emulated Fisher matrix plus ``precision_floor``, the
    target's prior precision (``target.prior_precision()``), as the exact
    targets' metrics are: the likelihood's Fisher matrix alone may be rank
    deficient.  The floor is constant, so it leaves the derivatives alone.
    """

    def __init__(self, emulator: Emulator, precision_floor=None):
        self.emulator = emulator
        self.floor = 0.0 if precision_floor is None else np.asarray(precision_floor)

    def grad(self, theta) -> np.ndarray:
        return self.emulator.predict(theta, 1).mean[0]  # theta as one point

    def metric(self, theta) -> np.ndarray:
        """The metric from the order-1 map alone."""
        G = self.emulator.predict_efi(np.atleast_2d(theta))[0]
        G += self.floor
        return G

    def metric_and_derivs(self, theta):
        G, T3, grad = self.emulator.predict_metric_bundle(np.atleast_2d(theta))
        G[0] += self.floor
        # dG_c[a, b] = T3[a, c, b] + T3[b, c, a]
        return G[0], T3[0].transpose(1, 0, 2) + T3[0].transpose(1, 2, 0), grad[0]
