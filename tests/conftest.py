import numpy as np
import pytest

from gpgmc.emulator import DesignSet, per_datum_gram


def spread_points(rng, n, dim, spread=2.0, min_sep=0.35):
    """Random points with a minimum pairwise separation (like a filtered pool)."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-spread, spread, size=dim)
        if all(np.linalg.norm(cand - p) > min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar or vector function."""
    x = np.asarray(x, dtype=float)
    out = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        out.append((np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2 * h))
    return np.stack(out)


def per_datum_design(target, points, gradients=False):
    """The design at ``points`` from ``target.per_datum``, with the Gram of
    its stacked per-datum rows (values, then gradients coordinate-major)."""
    evals = [target.per_datum(th) for th in points]
    rows = [np.stack([vals for _, _, vals, _ in evals])]
    if gradients:
        rows += list(np.stack([DU for *_, DU in evals]).transpose(1, 0, 2))
    return DesignSet(points=points, potentials=np.array([u for u, *_ in evals]),
                     gradients=np.array([g for _, g, *_ in evals]) if gradients else None,
                     gfi=per_datum_gram(np.concatenate(rows)))


class SmoothTestFunction:
    """Smooth multi-datum function with analytic gradients for emulator tests."""

    def __init__(self, rng, dim, n_data=7):
        self.dim = dim
        self.n_data = n_data
        self.freqs = rng.normal(scale=0.8, size=(n_data, dim))
        self.weights = rng.normal(size=n_data)

    def per_datum_values(self, theta):
        return self.weights * np.sin(self.freqs @ theta)

    def per_datum_grads(self, theta):
        # (dim, n_data)
        return (self.weights * np.cos(self.freqs @ theta)) * self.freqs.T

    def value(self, theta):
        return float(self.per_datum_values(theta).sum())

    def grad(self, theta):
        return self.per_datum_grads(theta).sum(axis=1)

    def rows(self, points, gradients=True):
        """Stacked per-datum matrix (n~, N) in data_vector row order."""
        rows = [np.stack([self.per_datum_values(p) for p in points])]
        if gradients:
            grads = np.stack([self.per_datum_grads(p) for p in points])
            rows += list(grads.transpose(1, 0, 2))  # one (n, N) block per coordinate
        return np.concatenate(rows)

    def design(self, points, gradients=True, per_datum=True):
        pots = np.array([self.value(p) for p in points])
        grads = np.stack([self.grad(p) for p in points]) if gradients else None
        gfi = per_datum_gram(self.rows(points, gradients)) if per_datum else None
        return DesignSet(points=points, potentials=pots, gradients=grads, gfi=gfi)


@pytest.fixture
def smooth_fn():
    return SmoothTestFunction(np.random.default_rng(99), dim=2)
