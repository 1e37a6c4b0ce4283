import mpmath as mp
import numpy as np
import pytest

from conftest import SmoothTestFunction, spread_points
from gpgmc import kernels, mle
from gpgmc.emulator import DesignSet, Emulator, Hyperparameters
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


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("gradients", [False, True])
def test_hessian_makes_one_derivative_pass(monkeypatch, dim, gradients):
    """The emulator's own pass over the design and one pass for every
    rho-derivative, whatever D; the design's own rows for each only with
    gradients."""
    design = make_design(11, dim=dim, n=2 * dim + 6, gradients=gradients)
    calls = []
    at, rows = kernels.PairDiffs.at, kernels.CrossDiffs.rows
    monkeypatch.setattr(kernels.PairDiffs, "at", lambda pairs, rho: calls.append(
        "pass") or at(pairs, rho))
    monkeypatch.setattr(kernels.CrossDiffs, "rows", lambda cross, *a: calls.append(
        "rows") or rows(cross, *a))
    mle.profile_loglik_hess(design, np.full(dim, 0.7))
    assert calls.count("pass") == 2
    assert calls.count("rows") == (2 if gradients else 0)


def mp_loglik_hess(C, H, u, dC, d2C):
    """The Hessian of l(rho) at 50 digits by dense inverses, from the float
    C~ (nugget included), H~, u, the matrices dC[d] = dC~/drho_d and
    d2C[d, e] = d^2 C~/drho_d drho_e (d <= e).  With
    Q = C^-1 - C^-1 H (H'C^-1 H)^-1 H'C^-1, w = Q u, s2 = u'w / (dof - 2)
    and c = dof / (2 (dof - 2) s2), entry (d, e) is
    c (w'dC_d w)(w'dC_e w) / ((dof - 2) s2)
    - c w'(dC_d Q dC_e + dC_e Q dC_d - d2C_de) w
    + (tr(Q dC_d Q dC_e) - tr(Q d2C_de)) / 2."""
    with mp.workdps(50):
        C, H, u = (mp.matrix(a.tolist()) for a in (C, H, u))
        Ci = C**-1
        CiH = Ci * H
        Q = Ci - CiH * (H.T * CiH)**-1 * CiH.T
        w = Q * u
        dof = H.rows - H.cols
        s2 = (u.T * w)[0] / (dof - 2)
        c = dof / (2 * (dof - 2) * s2)
        dC = [mp.matrix(a.tolist()) for a in dC]
        quad = [(w.T * a * w)[0] for a in dC]
        QdC = [Q * a for a in dC]

        def tr(A):
            return mp.fsum(A[i, i] for i in range(A.rows))
        out = np.empty((len(dC), len(dC)))
        for (d, e), b in d2C.items():
            b = mp.matrix(b.tolist())
            mid = dC[d] * Q * dC[e] + dC[e] * Q * dC[d] - b
            out[d, e] = out[e, d] = float(
                c * quad[d] * quad[e] / ((dof - 2) * s2) - c * (w.T * mid * w)[0]
                + (tr(QdC[d] * QdC[e]) - tr(Q * b)) / 2)
        return out


def grid_design(pts, gradients):
    fn = SmoothTestFunction(np.random.default_rng(60), pts.shape[1])
    return fn.design(pts, gradients=gradients, per_datum=False)


def hessian_cases():
    """(design, rho) pairs: spread designs for D = 1-3 with and without
    gradients, then dense sets whose C~ has condition numbers up to 1e9 at
    the nugget."""
    for i, (gradients, dim) in enumerate((g, dim) for g in (False, True)
                                         for dim in (1, 2, 3)):
        design = make_design(40 + i, dim=dim, n=6 if gradients else 8 + 2 * dim,
                             gradients=gradients)
        for rho in np.exp(np.random.default_rng(50 + i).uniform(-1.5, 0.5, (2, dim))):
            yield design, rho
    for n, gradients in ((12, False), (7, True)):
        design = grid_design(np.linspace(-1, 1, n)[:, None], gradients)
        for r in (0.5, 0.2):
            yield design, np.array([r])
    grid = np.stack(np.meshgrid(*[np.linspace(-1, 1, 4)] * 2), -1).reshape(-1, 2)
    yield grid_design(grid, False), np.array([0.1, 0.1])


@pytest.mark.parametrize("design, rho", hessian_cases())
def test_hessian_matches_50_digit_evaluation(design, rho):
    """profile_loglik_hess against the same formula at 50 digits on the same
    float inputs, within 2e-6 of the largest entry.  On the dense sets the
    form through the products dC_d Q dC_e is off by up to 2e-5.  Near
    condition number 1e9 the emulator's own sigma2_hat can be off by 1e-5
    relative, and the Hessian with it."""
    gradients, dim = design.has_gradients, design.dim
    nugget = 1e-8
    C = kernels.tilde_corr(design.points, rho, gradients) \
        + nugget * np.eye(design.n_tilde)
    pairs = [(d, e) for d in range(dim) for e in range(d, dim)]
    derivs = list(kernels.tilde_corr_rho_derivs(
        design.points, rho, gradients, [(d,) for d in range(dim)] + pairs))
    ref = mp_loglik_hess(C, kernels.tilde_basis(design.points, gradients),
                         design.data_vector(), derivs[:dim],
                         dict(zip(pairs, derivs[dim:])))
    got = mle.profile_loglik_hess(design, rho, nugget)[2]
    assert np.abs(got - ref).max() <= 2e-6 * np.abs(ref).max()


def loglik_grad_from_scratch(design, rho, nugget=1e-8):
    """profile_loglik_grad on a fresh copy of the design, with the stacked
    rho-derivatives built from its points."""
    fresh = DesignSet(points=design.points.copy(),
                      potentials=design.potentials.copy(),
                      gradients=None if design.gradients is None
                      else design.gradients.copy())
    em = Emulator(fresh, Hyperparameters(rho, nugget))
    dC = kernels.tilde_corr_rho_derivs(fresh.points, rho, fresh.has_gradients,
                                       [(d,) for d in range(rho.size)])
    coef = em.dof / (2.0 * (em.dof - 2) * em.sigma2_hat)
    grad = np.array([coef * (em.w @ dC_d @ em.w) - 0.5 * np.sum(em.Q * dC_d.T)
                     for dC_d in dC])
    return mle._loglik(em), grad


@pytest.mark.parametrize("gradients", [False, True])
def test_cached_differences_give_bitwise_the_fresh_likelihood(gradients):
    design = make_design(6, dim=3, n=12, gradients=gradients)
    pairs = design.pair_diffs
    rng = np.random.default_rng(7)
    for _ in range(4):
        rho = np.exp(rng.uniform(-1.5, 0.5, 3))
        l, grad = mle.profile_loglik_grad(design, rho)
        l0, grad0 = loglik_grad_from_scratch(design, rho)
        assert l == l0 and np.array_equal(grad, grad0)
        assert mle.profile_loglik(design, rho) == l0
    assert design.pair_diffs is pairs


def test_fit_builds_the_pairwise_differences_once(monkeypatch):
    """One pass over the design for the whole fit, not two per evaluation."""
    builds, self_pairs, evals = [], [], []
    init = kernels.PairDiffs.__init__
    monkeypatch.setattr(kernels.PairDiffs, "__init__",
                        lambda pd, points: builds.append(1) or init(pd, points))
    diff_and_corr = kernels._diff_and_corr
    monkeypatch.setattr(kernels, "_diff_and_corr", lambda A, B, rho:
                        self_pairs.append(A is B) or diff_and_corr(A, B, rho))
    loglik_grad = mle.profile_loglik_grad
    monkeypatch.setattr(mle, "profile_loglik_grad",
                        lambda *a: evals.append(1) or loglik_grad(*a))
    design = make_design(5)
    mle.fit_hyperparameters(design, rng=np.random.default_rng(0))
    assert len(evals) > 10
    assert builds == [1]
    assert not any(self_pairs)


def test_fit_reaches_first_order_optimum():
    design = make_design(5)
    hyper, info = mle.fit_hyperparameters(design, rng=np.random.default_rng(0))
    assert np.all(hyper.rho > 0)
    assert info["grad_norm"] < 1e-5 * (1.0 + abs(info["l"]))


@pytest.mark.parametrize("gradients", [False, True])
def test_fit_reports_the_projected_gradient_at_its_rho(gradients):
    """``grad_norm`` is that of the gradient of l in tau = -log rho at the
    returned rho, recomputed here from the likelihood."""
    design = make_design(5, gradients=gradients)
    hyper, info = mle.fit_hyperparameters(design, rng=np.random.default_rng(0))
    proj = -hyper.rho * mle.profile_loglik_grad(design, hyper.rho)[1]
    tau = -np.log(hyper.rho)
    proj[(tau <= -mle.TAU_BOUND + 1e-12) & (proj < 0)] = 0.0
    proj[(tau >= mle.TAU_BOUND - 1e-12) & (proj > 0)] = 0.0
    assert info["grad_norm"] == np.max(np.abs(proj))


def test_fit_evaluates_the_likelihood_only_in_its_restarts(monkeypatch):
    """Every likelihood evaluation is one of an optimizer run's own."""
    evals, nfev = [], []
    loglik_grad = mle.profile_loglik_grad
    monkeypatch.setattr(mle, "profile_loglik_grad",
                        lambda *a: evals.append(1) or loglik_grad(*a))
    minimize = mle.minimize
    monkeypatch.setattr(mle, "minimize", lambda *a, **k: (
        lambda res: nfev.append(res.nfev) or res)(minimize(*a, **k)))
    mle.fit_hyperparameters(make_design(5), rng=np.random.default_rng(0))
    assert len(nfev) == mle.FIT_RESTARTS
    assert len(evals) == sum(nfev)


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
