import numpy as np
import pytest

from conftest import SmoothTestFunction, spread_points
from gpgmc import kernels, mle
from gpgmc.emulator import DesignSet
from gpgmc.errors import IllConditioned, TooFewPoints


def make_design(seed, dim=2, n=14, gradients=False):
    rng = np.random.default_rng(seed)
    fn = SmoothTestFunction(rng, dim)
    return fn.design(spread_points(rng, n, dim), gradients=gradients,
                     per_datum=False)


@pytest.mark.parametrize("gradients", [False, True])
def test_gradient_matches_finite_differences(gradients):
    design = make_design(1, gradients=gradients)
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = np.exp(rng.uniform(-1.5, 0.5, 2))
        _, grad = mle.profile_loglik_grad(design, rho)
        h = 1e-5
        fd = np.zeros(2)
        for d in range(2):
            rp, rm = rho.copy(), rho.copy()
            rp[d] += h
            rm[d] -= h
            fd[d] = (mle.profile_loglik(design, rp)
                     - mle.profile_loglik(design, rm)) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() / scale < 1e-4


@pytest.mark.parametrize("gradients", [False, True])
def test_hessian_matches_gradient_differences(gradients):
    design = make_design(3, gradients=gradients)
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = np.exp(rng.uniform(-1.5, 0.5, 2))
        _, _, hess = mle.profile_loglik_hess(design, rho)
        h = 1e-5
        fd = np.zeros((2, 2))
        for e in range(2):
            rp, rm = rho.copy(), rho.copy()
            rp[e] += h
            rm[e] -= h
            fd[:, e] = (mle.profile_loglik_grad(design, rp)[1]
                        - mle.profile_loglik_grad(design, rm)[1]) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(hess - fd).max() / scale < 1e-3


def test_fit_reaches_first_order_optimum():
    design = make_design(5)
    hyper, info = mle.fit_hyperparameters(design, rng=np.random.default_rng(0))
    assert np.all(hyper.rho > 0)
    assert info["grad_norm"] < 1e-5 * (1.0 + abs(info["l"]))


def test_fit_is_deterministic():
    design = make_design(6)
    h1, i1 = mle.fit_hyperparameters(design, rng=np.random.default_rng(7))
    h2, i2 = mle.fit_hyperparameters(design, rng=np.random.default_rng(7))
    assert np.array_equal(h1.rho, h2.rho)
    assert i1["l"] == i2["l"]


def test_fit_rejects_tiny_designs():
    design = make_design(8, n=5)
    with pytest.raises(TooFewPoints):
        mle.fit_hyperparameters(design)


@pytest.mark.parametrize("gradients", [False, True])
def test_loglik_matches_dense_algebra(gradients):
    """l(rho) against explicit inverses and slogdet, not against itself."""
    design = make_design(9, gradients=gradients)
    rng = np.random.default_rng(10)
    H = kernels.tilde_basis(design.points, gradients)
    u = design.data_vector()
    n_tilde, q = H.shape
    for _ in range(3):
        rho, nugget = np.exp(rng.uniform(-1.0, 0.5, 2)), 1e-6
        C = kernels.tilde_corr(design.points, rho, gradients) + nugget * np.eye(n_tilde)
        Ci = np.linalg.inv(C)
        B = H.T @ Ci @ H
        Q = Ci - Ci @ H @ np.linalg.inv(B) @ H.T @ Ci
        sigma2 = u @ Q @ u / (n_tilde - q - 2)
        ref = -0.5 * (n_tilde - q) * np.log(sigma2) \
            - 0.5 * np.linalg.slogdet(C)[1] - 0.5 * np.linalg.slogdet(B)[1]
        got = mle.profile_loglik(design, rho, nugget)
        assert abs(got - ref) <= 1e-9 * abs(ref)
        assert mle.profile_loglik_grad(design, rho, nugget)[0] == got


def test_singular_design_correlation_raises_ill_conditioned():
    rng = np.random.default_rng(12)
    base = spread_points(rng, 8, 2)
    pts = np.vstack([base, base[0] + 1e-13])
    design = DesignSet(points=pts, potentials=rng.normal(size=9))
    with pytest.raises(IllConditioned):
        mle.profile_loglik(design, np.ones(2), nugget=0.0)
