import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpgmc.targets import BBDTarget, CountingTarget, GaussianTarget, banana_target


def test_banana_gradient_vanishes_at_symmetric_point():
    # zero data and unit scales: theta = 0 is a stationary point
    target = banana_target(data=np.zeros(10), sigma_y=1.0, sigma_theta=1.0)
    _, grad = target.potential_grad(np.zeros(2))
    np.testing.assert_array_equal(grad, 0.0)


@pytest.mark.parametrize("dim", [2, 4])
def test_gradient_matches_finite_differences(dim):
    target = BBDTarget.simulate(np.random.default_rng(0), n_data=50, dim=dim,
                                mu_true=1.0, sigma_y=2.0)
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(20):
        theta = rng.normal(size=dim)
        _, grad = target.potential_grad(theta)
        fd = np.zeros(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h * (1 + abs(theta[k]))
            fd[k] = (target.potential(theta + e) - target.potential(theta - e)) \
                / (2 * e[k])
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6


def test_per_datum_rows_sum_to_likelihood_gradient():
    target = banana_target(rng=np.random.default_rng(2), n_data=30)
    theta = np.array([0.7, -0.4])
    u, grad, values, DU = target.per_datum(theta)
    assert DU.shape == (2, 30)
    prior_grad = theta / target.sigma_theta**2
    np.testing.assert_array_equal(DU.sum(axis=1), grad - prior_grad)
    assert u == pytest.approx(values.sum() + (theta**2).sum() / 2
                              / target.sigma_theta**2)


def test_batch_gradients_match_single():
    target = BBDTarget.simulate(np.random.default_rng(3), n_data=100, dim=4)
    thetas = np.random.default_rng(4).normal(size=(7, 4))
    batch = target.potential_grad_batch(thetas, chunk=3)
    single = np.stack([target.potential_grad(t)[1] for t in thetas])
    np.testing.assert_allclose(batch, single, rtol=1e-12)


def test_bbd_fisher_at_origin():
    target = BBDTarget.simulate(np.random.default_rng(5), n_data=200, dim=4,
                                sigma_y=1.5, sigma_theta=0.8)
    fi = target.fisher(np.zeros(4))
    a = np.array([1.0, 0.0, 1.0, 0.0])
    expected = (200 / 1.5**2) * np.outer(a, a) + np.eye(4) / 0.8**2
    np.testing.assert_allclose(fi, expected, rtol=1e-12)


def test_fisher_derivative_matches_finite_differences():
    target = BBDTarget.simulate(np.random.default_rng(6), n_data=120, dim=4)
    theta = np.random.default_rng(7).normal(size=4)
    G, dG = target.fisher_derivs(theta)
    np.testing.assert_allclose(G, target.fisher(theta), rtol=1e-12)
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (target.fisher(theta + e) - target.fisher(theta - e)) / (2 * h)
        np.testing.assert_allclose(dG[k], fd, atol=1e-4)


def outer_product_metric(target, theta):
    """Reference (G, dG): the metric as a scaled np.outer plus the prior, and
    dG[k] as np.outer pairs of the slope and its derivative, one even k at a
    time."""
    dim = target.dim
    slope = np.where(np.arange(dim) % 2 == 0, 1.0, 2.0 * theta)
    scale = target.data.size / target.sigma_y**2
    G = scale * np.outer(slope, slope)
    G[np.diag_indices_from(G)] += 1.0 / target.sigma_theta**2
    dG = np.zeros((dim, dim, dim))
    for k in range(1, dim, 2):
        ek = np.zeros(dim)
        ek[k] = 2.0
        dG[k] = scale * (np.outer(ek, slope) + np.outer(slope, ek))
    return G, dG


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.integers(2, 6),
       log10_abs=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
       n_data=st.sampled_from([1, 250, 30_000]),
       sigma_y=st.sampled_from([0.3, 1.0, 2.0]),
       sigma_theta=st.sampled_from([0.5, 1.0, 3.0]))
def test_bbd_metric_is_the_outer_product_formula(dim, log10_abs, signs, n_data,
                                                 sigma_y, sigma_theta):
    """``fisher`` is exactly ``fisher_derivs``' G (the metric-only sweeps
    rely on it), and both equal the np.outer formulas (signed zeros aside)."""
    theta = np.array(signs[:dim]) * 10.0 ** np.array(log10_abs[:dim])
    target = BBDTarget(np.zeros(n_data), sigma_y=sigma_y,
                       sigma_theta=sigma_theta, dim=dim)
    G, dG = target.fisher_derivs(theta)
    assert target.fisher(theta).tobytes() == G.tobytes()
    G_ref, dG_ref = outer_product_metric(target, theta)
    assert G.tobytes() == G_ref.tobytes()
    np.testing.assert_array_equal(dG, dG_ref)


def test_empirical_fisher_converges_to_expected_likelihood_part():
    rng = np.random.default_rng(8)
    theta = np.array([0.4, -0.6, 0.1, 0.9])
    target = BBDTarget.simulate(rng, n_data=10_000, dim=4, mu_true=None or 0.0)
    # data regenerated at mu(theta) so theta is the truth for the check
    mu = theta[[0, 2]].sum() + (theta[[1, 3]]**2).sum()
    y = mu + target.sigma_y * rng.standard_normal(10_000)
    target = BBDTarget(data=y, sigma_y=target.sigma_y, dim=4)
    _, _, _, DU = target.per_datum(theta)
    centered = DU - DU.mean(axis=1, keepdims=True)
    efi = centered @ centered.T
    likelihood_fi = target.fisher(theta) - np.eye(4) / target.sigma_theta**2
    rel = np.linalg.norm(efi - likelihood_fi) / np.linalg.norm(likelihood_fi)
    assert rel < 0.05


def test_score_projection_is_psd():
    target = banana_target(rng=np.random.default_rng(9), n_data=40)
    rng = np.random.default_rng(10)
    for _ in range(10):
        theta = rng.normal(size=2)
        _, _, _, DU = target.per_datum(theta)
        centered = DU - DU.mean(axis=1, keepdims=True)
        M = centered @ centered.T
        assert np.abs(M - M.T).max() < 1e-12
        assert np.linalg.eigvalsh(M).min() > -1e-10


def test_gaussian_target_geometry():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    target = GaussianTarget(np.array([1.0, -1.0]), cov)
    G, dG = target.fisher_derivs(np.zeros(2))
    np.testing.assert_allclose(G, np.linalg.inv(cov))
    np.testing.assert_array_equal(dG, 0.0)
    u, grad = target.potential_grad(target.mean)
    assert u == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_counting_wrapper():
    target = CountingTarget(banana_target(rng=np.random.default_rng(11)))
    target.potential(np.zeros(2))
    target.potential_grad(np.zeros(2))
    target.potential_per_datum(np.zeros(2))
    assert target.n_potential == 3
    assert target.n_gradient == 1
    assert target.dim == 2  # delegation
