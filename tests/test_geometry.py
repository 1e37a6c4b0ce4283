import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SmoothTestFunction, spread_points
from gpgmc import kernels, samplers
from gpgmc.emulator import Emulator, Hyperparameters
from gpgmc.errors import ShapeMismatch
from gpgmc.geometry import EmulatedGeometry, ExactGeometry
from gpgmc.targets import banana_target


@st.composite
def emulated_points(draw, m=None):
    """A random emulator with per-datum data, a point to query it at (``m``
    points as an (m, D) array, given ``m``) and the per-datum rows the
    design's Gram comes from."""
    dim = draw(st.sampled_from([2, 3, 4]))
    gradients = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = 1 + 2 * dim
    n = draw(st.integers(4, 8)) if gradients else draw(st.integers(q + 3, q + 8))
    fn = SmoothTestFunction(rng, dim)
    pts = spread_points(rng, n, dim)
    design = fn.design(pts, gradients=gradients)
    hyper = Hyperparameters(rho=rng.uniform(0.3, 1.5, dim))
    x = rng.uniform(-2.0, 2.0, dim if m is None else (m, dim))
    return Emulator(design, hyper), x, fn.rows(pts, gradients)


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(emulated_points())
def test_metric_and_derivs_match_linear_map_oracles(case):
    """One fused query returns what the per-quantity linear maps give:
    G = A1 gfi A1', plus the prior precision when given, and dG straight
    from T3 = A2 gfi A1', which a constant floor leaves alone."""
    em, x, pd = case
    dim = x.size
    L1 = em.linear_map(x[None, :], 1)
    L2 = em.linear_map(x[None, :], 2)
    ndata = pd.shape[1]
    J = np.eye(ndata) - np.ones((ndata, ndata)) / ndata
    gfi = pd @ J @ pd.T
    fisher = L1 @ gfi @ L1.T
    # T3[a, b, c] = Gamma_{ab,c}, the rows of A2 indexed by (a, b)
    T3 = (L2 @ gfi @ L1.T).reshape(dim, dim, dim)
    # dG_c[a, b] = Gamma_{ac,b} + Gamma_{bc,a}
    oracle = np.einsum("acb->cab", T3) + np.einsum("bca->cab", T3)

    prior = np.diag(np.linspace(0.5, 2.0, dim)) + 0.1
    for floor, G_ref in ((None, fisher), (prior, fisher + prior)):
        G, dG, grad = EmulatedGeometry(em, floor).metric_and_derivs(x)
        assert _rel_err(grad, L1 @ em.design.data_vector()) <= 1e-9
        assert _rel_err(G, G_ref) <= 1e-9
        assert _rel_err(dG, oracle) <= 1e-9


def test_fused_gradient_equals_gradient_query():
    rng = np.random.default_rng(3)
    fn = SmoothTestFunction(rng, 3)
    em = Emulator(fn.design(spread_points(rng, 8, 3)),
                  Hyperparameters(rho=np.array([0.6, 0.9, 1.2])))
    geo = EmulatedGeometry(em)
    for x in rng.uniform(-1.5, 1.5, (5, 3)):
        np.testing.assert_array_equal(geo.metric_and_derivs(x)[2], geo.grad(x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       gradients=st.booleans(), m=st.sampled_from([1, 3]))
def test_gradient_query_contract(seed, dim, gradients, m):
    """The HMC gradient query at each of ``m`` points is bitwise the
    one-point prediction, the batched routine's mean at that point and the
    metric bundle's gradient, and within 1e-10 of the term sizes of the
    cross block's product with w plus the basis term, as the m-point
    prediction is.  A point of the wrong length raises, a length-1 point
    included, which would otherwise broadcast against the design."""
    rng = np.random.default_rng(seed)
    fn = SmoothTestFunction(rng, dim)
    pts = spread_points(rng, 4 + 2 * dim, dim, spread=3.0, min_sep=0.25)
    em = Emulator(fn.design(pts, gradients=gradients),
                  Hyperparameters(rho=rng.uniform(0.3, 1.5, dim)))
    geo = EmulatedGeometry(em)
    xs = rng.uniform(-2.5, 2.5, (m, dim))
    C = kernels.cross_corr(xs, 1, pts, em.hyper.rho, gradients)
    H = kernels.basis(xs, 1)
    ref = (H @ em.beta_hat + C @ em.w).reshape(dim, m).T
    size = (np.abs(H) @ np.abs(em.beta_hat) + np.abs(C) @ np.abs(em.w)
            ).reshape(dim, m).T
    assert np.all(np.abs(em.predict(xs, 1).mean - ref) <= 1e-10 * size)
    for x, x_ref, x_size in zip(xs, ref, size):
        grad = geo.grad(x)
        assert grad.shape == (dim,)
        np.testing.assert_array_equal(grad, em.predict(x[None], 1).mean[0])
        np.testing.assert_array_equal(grad, em._mean(x[None], 1)[0])
        np.testing.assert_array_equal(grad, em.predict_metric_bundle(x[None])[2][0])
        assert np.all(np.abs(grad - x_ref) <= 1e-10 * x_size)
    for length in {1, dim - 1, dim + 1} - {0, dim}:
        with pytest.raises(ShapeMismatch):
            geo.grad(np.zeros(length))


def test_exact_provider_queries_metric_then_gradient():
    calls = []

    class Recording:
        def __init__(self, target):
            self.target = target

        def fisher_derivs(self, theta):
            calls.append("fisher_derivs")
            return self.target.fisher_derivs(theta)

        def potential_grad(self, theta):
            calls.append("potential_grad")
            return self.target.potential_grad(theta)

    target = banana_target(rng=np.random.default_rng(1))
    theta = np.array([0.2, -0.3])
    G, dG, grad = ExactGeometry(Recording(target)).metric_and_derivs(theta)
    assert calls == ["fisher_derivs", "potential_grad"]
    G_ref, dG_ref = target.fisher_derivs(theta)
    np.testing.assert_array_equal(G, G_ref)
    np.testing.assert_array_equal(dG, dG_ref)
    np.testing.assert_array_equal(grad, target.potential_grad(theta)[1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(emulated_points())
def test_emulated_metric_query_equals_fused_metric(case):
    em, x, _ = case
    for floor in (None, np.eye(x.size) / 0.7**2):
        geo = EmulatedGeometry(em, floor)
        np.testing.assert_array_equal(geo.metric(x), geo.metric_and_derivs(x)[0])


def test_exact_metric_query_equals_fused_metric():
    target = banana_target(rng=np.random.default_rng(2))
    geo = ExactGeometry(target)
    for x in np.random.default_rng(4).uniform(-2.0, 2.0, (10, 2)):
        np.testing.assert_array_equal(geo.metric(x), geo.metric_and_derivs(x)[0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(emulated_points(m=3))
def test_batch_queries_equal_single_point_queries(case):
    """Three points at once give the three one-point results row by row."""
    em, xs, _ = case
    efi = em.predict_efi(xs)
    G, T3, grad = em.predict_metric_bundle(xs)
    np.testing.assert_array_equal(efi, G)  # one routine for both metrics
    np.testing.assert_array_equal(grad, em.predict(xs, 1).mean)
    for i, x in enumerate(xs):
        G1, T1, grad1 = em.predict_metric_bundle(x[None])
        np.testing.assert_array_equal(em.predict_efi(x[None]), G1)
        for got, ref in ((G[i], G1[0]), (T3[i], T1[0]), (grad[i], grad1[0])):
            assert _rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("gradients", [False, True])
def test_each_query_makes_one_pass_over_the_design(monkeypatch, gradients):
    """One difference/correlation pass per metric query and per full point,
    the inverse and the gradient included."""
    rng = np.random.default_rng(17)
    dim = 3
    fn = SmoothTestFunction(rng, dim)
    pts = spread_points(rng, 8 if gradients else 12, dim)
    geo = EmulatedGeometry(Emulator(fn.design(pts, gradients=gradients),
                                    Hyperparameters(rho=np.full(dim, 0.8))))
    passes = []
    diff_and_corr = kernels._diff_and_corr
    monkeypatch.setattr(kernels, "_diff_and_corr", lambda *a: passes.append(1)
                        or diff_and_corr(*a))
    x = rng.uniform(-1.0, 1.0, dim)
    for query in (geo.metric, geo.metric_and_derivs,
                  lambda t: samplers._metric_inverse(geo, t),
                  lambda t: samplers._ManifoldPoint(geo, t)):
        passes.clear()
        query(x)
        assert len(passes) == 1
