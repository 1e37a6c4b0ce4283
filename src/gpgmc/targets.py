"""Exact posterior targets used for sampling and emulator training.

Each target exposes the negative log posterior (the potential), its gradient,
a per-datum decomposition of the likelihood part, and whatever metric
information is analytically available.  Targets are immutable after
construction; every evaluation is a pure function of the position.

The BBD likelihood's expected Fisher metric ``(N / sigma_y^2) s s'`` needs the
data count alone, not the data: ``fisher`` and ``fisher_derivs`` cost O(D^2)
and O(D^3) whatever N, and are built from broadcast products and strided
writes, since at D x D numpy's per-call overhead is most of their cost.  The
potential and its gradient scan every datum, O(N D) per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BBDTarget", "banana_target", "GaussianTarget", "CountingTarget"]


class BBDTarget:
    """Gaussian observations of a sum of odd coordinates and even squares.

    The scalar observation mean is ``mu(theta) = sum theta_odd + sum
    theta_even^2`` (1-based odd/even), which twists the posterior into a
    banana in the (1,2) plane, a biscuit in (1,3) and a doughnut in (2,4).
    ``dim=2`` reduces to the classic banana-shaped posterior.
    """

    def __init__(self, data: np.ndarray, sigma_y: float = 1.0,
                 sigma_theta: float = 1.0, dim: int = 4, name: str = "bbd"):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.data = np.ascontiguousarray(data, dtype=float)
        self.sigma_y = float(sigma_y)
        self.sigma_theta = float(sigma_theta)
        self.dim = dim
        self.name = name
        self._odd_mask = (np.arange(dim) % 2) == 0  # 1-based odd coordinates
        self._odd_idx = np.nonzero(self._odd_mask)[0]
        self._even_idx = np.nonzero(~self._odd_mask)[0]
        self._slope_base = np.where(self._odd_mask, 1.0, 0.0)
        # the likelihood metric is (N / sigma_y^2) s s' with s = d mu / d theta
        self._fisher_scale = self.data.size / self.sigma_y**2
        self._prior_prec = 1.0 / self.sigma_theta**2

    @classmethod
    def simulate(cls, rng: np.random.Generator, n_data: int = 3000,
                 mu_true: float = 0.0, sigma_y: float = 1.0,
                 sigma_theta: float = 1.0, dim: int = 4, name: str = "bbd"):
        """Target with synthetic data y ~ N(mu_true, sigma_y^2)."""
        y = mu_true + sigma_y * rng.standard_normal(n_data)
        return cls(data=y, sigma_y=sigma_y, sigma_theta=sigma_theta, dim=dim,
                   name=name)

    @property
    def data_count(self) -> int:
        return self.data.size

    def _slope(self, theta):
        """d mu / d theta: 1 at the odd coordinates, 2 theta at the even."""
        slope = self._slope_base.copy()
        slope[1::2] = 2.0 * theta[1::2]
        return slope

    def _mu_and_slope(self, theta):
        t_even = theta[self._even_idx]
        return theta[self._odd_idx].sum() + t_even @ t_even, self._slope(theta)

    def potential(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        mu, _ = self._mu_and_slope(theta)
        resid = self.data - mu
        # far-flung proposals can overflow to inf; the Metropolis test treats
        # that as a certain rejection
        with np.errstate(over="ignore"):
            return float((resid**2).sum() / (2 * self.sigma_y**2)
                         + (theta**2).sum() / (2 * self.sigma_theta**2))

    def potential_grad(self, theta):
        # goes through the per-datum score matrix on purpose: the gradient of
        # a generic forward model costs O(N D) per evaluation, which is the
        # cost profile emulation is meant to remove
        theta = np.asarray(theta, dtype=float)
        mu, slope = self._mu_and_slope(theta)
        resid = self.data - mu
        scores = np.outer(slope / (-self.sigma_y**2), resid)
        grad = scores.sum(axis=1) + theta / self.sigma_theta**2
        u = float(resid @ resid / (2 * self.sigma_y**2)
                  + (theta**2).sum() / (2 * self.sigma_theta**2))
        return u, grad

    def per_datum(self, theta):
        """Potential, gradient, likelihood per-datum values and score matrix.

        Returns ``(U, grad, values, DU)`` where ``values`` are the per-datum
        likelihood potentials (N,) and ``DU`` the (D, N) matrix of their
        gradients; row sums of DU give the likelihood part of the gradient.
        """
        theta = np.asarray(theta, dtype=float)
        mu, slope = self._mu_and_slope(theta)
        resid = self.data - mu
        values = resid**2 / (2 * self.sigma_y**2)
        DU = slope[:, None] * (-resid)[None, :] / self.sigma_y**2
        grad = DU.sum(axis=1) + theta / self.sigma_theta**2
        u = float(values.sum() + (theta**2).sum() / (2 * self.sigma_theta**2))
        return u, grad, values, DU

    def potential_grad_batch(self, thetas: np.ndarray, chunk: int = 32) -> np.ndarray:
        """Gradients at a batch of points, (m, D); per-datum scan in chunks.

        Chunking bounds the (chunk, N) residual workspace while amortizing
        dispatch overhead across the batch.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        m = thetas.shape[0]
        out = np.empty((m, self.dim))
        inv_sy2 = 1.0 / self.sigma_y**2
        for lo in range(0, m, chunk):
            t = thetas[lo:lo + chunk]
            mu = t[:, self._odd_idx].sum(axis=1) + (t[:, self._even_idx]**2).sum(axis=1)
            slope = np.tile(self._slope_base, (t.shape[0], 1))
            slope[:, self._even_idx] = 2.0 * t[:, self._even_idx]
            resid = mu[:, None] - self.data[None, :]
            resid_sums = resid.sum(axis=1)
            out[lo:lo + chunk] = slope * (resid_sums * inv_sy2)[:, None] \
                + t / self.sigma_theta**2
        return out

    def potential_per_datum(self, theta):
        """Potential and per-datum likelihood values from one forward pass."""
        theta = np.asarray(theta, dtype=float)
        mu, _ = self._mu_and_slope(theta)
        values = (self.data - mu)**2 / (2 * self.sigma_y**2)
        u = float(values.sum() + (theta**2).sum() / (2 * self.sigma_theta**2))
        return u, values

    def _metric(self, slope):
        """(N / sigma_y^2) s s' plus the prior precision on the diagonal."""
        G = slope[:, None] * slope
        G *= self._fisher_scale
        G.flat[::self.dim + 1] += self._prior_prec
        return G

    def fisher(self, theta) -> np.ndarray:
        """Expected Fisher information of the posterior (likelihood + prior).

        It does not depend on the data, only on their count: a D x D outer
        product of the slope plus the prior precision, O(D^2) whatever N.
        """
        return self._metric(self._slope(np.asarray(theta, dtype=float)))

    def fisher_derivs(self, theta):
        """Metric and its coordinate derivatives (G, dG) with dG[k] = dG/dtheta_k.

        ``G`` is bitwise ``fisher(theta)``.  Only an even coordinate k moves
        the slope (d s_k = 2), so dG[k] is row k plus column k of
        ``2 N / sigma_y^2 * s`` and zero for odd k.
        """
        slope = self._slope(np.asarray(theta, dtype=float))
        row = (2.0 * self._fisher_scale) * slope
        dG = np.zeros((self.dim, self.dim, self.dim))
        ev = self._even_idx
        dG[ev, ev] = row
        dG[ev, :, ev] += row  # the shared entry dG[k, k, k] gets row[k] twice
        return self._metric(slope), dG

    def prior_precision(self) -> np.ndarray:
        return np.eye(self.dim) / self.sigma_theta**2


def banana_target(rng: np.random.Generator | None = None, n_data: int = 100,
                  mu_true: float = 1.0, sigma_y: float = 2.0,
                  sigma_theta: float = 1.0, data: np.ndarray | None = None):
    """Two-dimensional banana-shaped posterior (the dim=2 observation model)."""
    if data is not None:
        return BBDTarget(data=data, sigma_y=sigma_y, sigma_theta=sigma_theta,
                         dim=2, name="banana")
    if rng is None:
        raise ValueError("provide either data or an rng to simulate it")
    return BBDTarget.simulate(rng, n_data=n_data, mu_true=mu_true,
                              sigma_y=sigma_y, sigma_theta=sigma_theta,
                              dim=2, name="banana")


class GaussianTarget:
    """Multivariate Gaussian potential, mostly for sampler validation."""

    def __init__(self, mean, cov, name: str = "gaussian"):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        self.prec = np.linalg.inv(self.cov)
        self.dim = self.mean.size
        self.name = name
        self.data_count = 1

    def potential(self, theta) -> float:
        d = np.asarray(theta, dtype=float) - self.mean
        return float(0.5 * d @ self.prec @ d)

    def potential_grad(self, theta):
        d = np.asarray(theta, dtype=float) - self.mean
        g = self.prec @ d
        return float(0.5 * d @ g), g

    def per_datum(self, theta):
        u, grad = self.potential_grad(theta)
        return u, grad, np.array([u]), grad[:, None]

    def potential_per_datum(self, theta):
        u = self.potential(theta)
        return u, np.array([u])

    def fisher(self, theta) -> np.ndarray:
        return self.prec.copy()

    def fisher_derivs(self, theta):
        return self.prec.copy(), np.zeros((self.dim, self.dim, self.dim))

    def prior_precision(self) -> np.ndarray:
        return self.prec.copy()


class CountingTarget:
    """Instrumentation wrapper counting exact potential evaluations."""

    def __init__(self, target):
        self._target = target
        self.n_potential = 0
        self.n_gradient = 0

    def __getattr__(self, name):
        return getattr(self._target, name)

    def potential(self, theta):
        out = self._target.potential(theta)
        self.n_potential += 1
        return out

    def potential_grad(self, theta):
        out = self._target.potential_grad(theta)
        self.n_potential += 1
        self.n_gradient += 1
        return out

    def per_datum(self, theta):
        out = self._target.per_datum(theta)
        self.n_potential += 1
        self.n_gradient += 1
        return out

    def potential_per_datum(self, theta):
        out = self._target.potential_per_datum(theta)
        self.n_potential += 1
        return out
