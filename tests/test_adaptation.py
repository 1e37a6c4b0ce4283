import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from conftest import spread_points
from gpgmc import adaptation as ad, kernels, mle
from gpgmc.emulator import (NUGGET_DEFAULT, DesignSet, Hyperparameters,
                            build_emulator, per_datum_gram)
from gpgmc.errors import (AllDegenerate, IllConditioned, OptimFailed,
                          RejectionBudgetExhausted, ShapeMismatch, TooFewPoints)
from gpgmc.mle import fit_hyperparameters
from gpgmc.samplers import IntegratorConfig, init_state
from gpgmc.targets import banana_target


@pytest.fixture(scope="module")
def banana():
    return banana_target(rng=np.random.default_rng(11))


def value_rows(target, points):
    """The per-datum value rows at ``points``, (n, N)."""
    return np.stack([target.potential_per_datum(th)[1] for th in points])


def evaluated_design(target, points):
    evals = [target.potential_per_datum(th) for th in points]
    return DesignSet(points=np.asarray(points),
                     potentials=np.array([u for u, _ in evals]),
                     gfi=per_datum_gram(np.array([v for _, v in evals])))


@pytest.fixture(scope="module")
def spread_banana_design(banana):
    pts = spread_points(np.random.default_rng(21), 25, 2, spread=2.2, min_sep=0.35)
    return evaluated_design(banana, pts)


class TestMixture:
    def test_single_standard_component_is_normal_density(self):
        mix = ad.GaussianMixtureProposal(np.zeros((1, 2)), np.eye(2)[None],
                                         np.zeros(1))
        theta = np.array([0.3, -1.2])
        expected = -0.5 * theta @ theta - np.log(2 * np.pi)
        assert mix.logpdf(theta) == pytest.approx(expected, abs=1e-12)

    def test_sample_mean_matches_weighted_centres(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]])
        pots = np.array([0.0, 1.0, 2.0])  # weights softmax(-U)
        mix = ad.GaussianMixtureProposal(centers, np.stack([np.eye(2)] * 3), pots)
        draws = np.stack([mix.sample(rng) for _ in range(100_000)])
        w = np.exp(-pots - logsumexp(-pots))
        expected = w @ centers
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 3 * se)

    def test_weight_shift_invariance(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        precs = np.stack([np.eye(2)] * 2)
        a = ad.GaussianMixtureProposal(centers, precs, np.array([1.0, 2.0]))
        b = ad.GaussianMixtureProposal(centers, precs, np.array([1.0, 2.0]) + 1e6)
        theta = np.array([0.4, 0.7])
        assert a.logpdf(theta) == pytest.approx(b.logpdf(theta), abs=1e-9)


class TestRegeneration:
    def test_perfect_proposal_always_regenerates(self):
        # pi/q constant equal to c: r = 1 whatever the states
        assert ad.regen_prob(2.0, 1.0, 5.0, 4.0, 1.0) == pytest.approx(1.0)

    def test_fuzz_probability_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            lw_t, lw_t1, lc = rng.normal(scale=50.0, size=3)
            log_r = ad.regen_log_prob(lw_t, lw_t1, lc)
            assert log_r <= 0.0
            # split inequality T >= S*Q, i.e. log S + log Q - log T <= 0
            log_S = min(0.0, lc - lw_t)
            log_Q_over_q = min(0.0, lw_t1 - lc)
            log_T_over_q = min(0.0, lw_t1 - lw_t)
            assert log_S + log_Q_over_q - log_T_over_q <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_log_probability_nonpositive(self, log_w_t, log_w_t1, log_c):
        assert ad.regen_log_prob(log_w_t, log_w_t1, log_c) <= 0.0

    def test_invariant_to_joint_rescaling(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            lpi_t, lq_t, lpi_t1, lq_t1, lc = rng.normal(scale=10.0, size=5)
            shift = rng.normal(scale=20.0)
            r1 = ad.regen_prob(lpi_t, lq_t, lpi_t1, lq_t1, lc)
            r2 = ad.regen_prob(lpi_t + shift, lq_t, lpi_t1 + shift, lq_t1,
                               lc + shift)
            assert r1 == pytest.approx(r2, abs=1e-12)


class TestSampleQ:
    def test_matched_proposal_accepts_first_draw(self):
        mix = ad.GaussianMixtureProposal(np.zeros((1, 1)), np.eye(1)[None],
                                         np.zeros(1))
        log_c = 0.7
        # pi = c * q exactly
        log_pi = lambda th: mix.logpdf(th) + log_c
        _, _, tries = ad.sample_Q(np.random.default_rng(3), log_pi, mix, log_c)
        assert tries == 1

    def test_budget_exhaustion(self):
        mix = ad.GaussianMixtureProposal(np.zeros((1, 1)), np.eye(1)[None],
                                         np.zeros(1))
        log_pi = lambda th: mix.logpdf(th) - 1e9
        with pytest.raises(RejectionBudgetExhausted):
            ad.sample_Q(np.random.default_rng(4), log_pi, mix, 0.0, max_tries=50)

    def test_one_dimensional_draws_match_quadrature(self):
        # target: standard normal (unnormalized); proposal: wide normal
        mix = ad.GaussianMixtureProposal(np.array([[0.5]]),
                                         (np.eye(1) / 4.0)[None], np.zeros(1))
        log_pi = lambda th: -0.5 * float(th[0])**2
        log_c = 1.0
        rng = np.random.default_rng(5)
        draws = np.array([ad.sample_Q(rng, log_pi, mix, log_c)[0][0]
                          for _ in range(100_000)])
        grid = np.linspace(-8, 8, 4001)
        logq = np.array([mix.logpdf(np.array([g])) for g in grid])
        log_unnorm = logq + np.minimum(0.0, (-0.5 * grid**2) - log_c - logq)
        dens = np.exp(log_unnorm)
        dens /= np.trapezoid(dens, grid)
        hist, edges = np.histogram(draws, bins=80, range=(-8, 8), density=True)
        centres = 0.5 * (edges[1:] + edges[:-1])
        dens_b = np.interp(centres, grid, dens)
        width = edges[1] - edges[0]
        tv = 0.5 * np.sum(np.abs(hist - dens_b)) * width
        assert tv < 0.05

    def test_acceptance_rate_matches_expectation(self):
        mix = ad.GaussianMixtureProposal(np.array([[0.0]]), np.eye(1)[None],
                                         np.zeros(1))
        log_pi = lambda th: -0.5 * float(th[0])**2 / 0.25  # sharper than q
        log_c = 0.5
        rng = np.random.default_rng(6)
        tries = [ad.sample_Q(rng, log_pi, mix, log_c, max_tries=10_000)[2]
                 for _ in range(2000)]
        rate = len(tries) / sum(tries)
        zs = rng.standard_normal(200_000)
        acc = np.exp(np.minimum(0.0, (-0.5 * zs**2 / 0.25) - log_c
                                - (-0.5 * zs**2 - 0.5 * np.log(2 * np.pi))))
        expected = acc.mean()
        se = acc.std() / np.sqrt(acc.size) + np.sqrt(expected / len(tries))
        assert abs(rate - expected) < 3 * max(se, 0.01)


class TestMaxmin:
    def test_duplicates_collapse_to_one(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        kept = ad.maxmin_filter(pts, 1e-9)
        assert list(kept) == [0, 2]

    def test_tiny_radius_keeps_all_distinct(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        assert ad.maxmin_filter(pts, 1e-12).size == 30

    def test_output_separation_exceeds_radius(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(60, 2))
        existing = rng.normal(size=(5, 2))
        kept = ad.maxmin_filter(pts, 0.5, existing=existing)
        sel = pts[kept]
        for i in range(sel.shape[0]):
            for j in range(i + 1, sel.shape[0]):
                assert np.linalg.norm(sel[i] - sel[j]) > 0.5
            for e in existing:
                assert np.linalg.norm(sel[i] - e) > 0.5


def maxmin_reference(candidates, radius, existing=None):
    """The greedy filter as a plain loop over every kept point."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    kept = []
    base = [] if existing is None else list(np.atleast_2d(existing))
    for j, cand in enumerate(candidates):
        pts = base + [candidates[i] for i in kept]
        if all(np.linalg.norm(cand - p) > radius for p in pts):
            kept.append(j)
    return np.array(kept, dtype=int)


@st.composite
def point_sets(draw):
    """Random (m, D) points with some exact duplicates, and extra points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    pts = rng.uniform(-2.0, 2.0, size=(m, dim))
    for _ in range(draw(st.integers(0, 3)) if m > 1 else 0):
        i, j = rng.integers(0, m, size=2)
        pts[i] = pts[j]
    extra = rng.uniform(-2.0, 2.0, size=(draw(st.integers(0, 6)), dim))
    return pts, extra


class TestMaxminProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=point_sets(), radius=st.floats(0.0, 2.5),
           tie=st.booleans(), with_existing=st.booleans())
    def test_matches_reference_loop(self, case, radius, tie, with_existing):
        pts, extra = case
        if tie:  # a radius equal to a distance the filter compares against
            radius = float(np.linalg.norm(pts[0] - pts[-1]))
        existing = extra if with_existing else None
        got = ad.maxmin_filter(pts, radius, existing=existing)
        assert got.dtype == int
        assert np.array_equal(got, maxmin_reference(pts, radius, existing))


def per_set_denominators(points, rho, nugget):
    """The variance of each point given the others, one set at a time."""
    return np.array([ad._kriging_variances(np.delete(points, j, axis=0), rho,
                                           nugget, points[j:j + 1])[0]
                     for j in range(points.shape[0])])


class TestLeaveOneOut:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           extra=st.integers(-3, 4), duplicates=st.integers(0, 2))
    def test_matches_per_set_variances(self, seed, dim, extra, duplicates):
        """Sizes on both sides of the universal-kriging switch at q + 2."""
        rng = np.random.default_rng(seed)
        m = max(2, 3 + 2 * dim + extra)
        pts = rng.uniform(-2.0, 2.0, size=(m, dim))
        for _ in range(duplicates):
            i, j = rng.integers(0, m, size=2)
            pts[i] = pts[j]
        rho = rng.uniform(0.1, 3.0, size=dim)
        ref = per_set_denominators(pts, rho, ad.CAND_NUGGET)
        got = ad._kriging_variances(pts, rho, ad.CAND_NUGGET)
        assert np.all(np.abs(got - ref) <= 1e-9 * ref)

    def test_others_without_the_basis_fall_back_to_simple_kriging(self):
        """Without point 4 the others hold two distinct points, fewer than
        the three the 1-D quadratic basis needs."""
        pts = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        rho = np.array([1.0])
        ref = per_set_denominators(pts, rho, 1e-4)
        got = ad._kriging_variances(pts, rho, 1e-4)
        assert np.allclose(got, ref, rtol=1e-9, atol=0.0)
        others = pts[:4]
        K = kernels.tilde_corr(others, rho, False) + 1e-4 * np.eye(4)
        k = kernels.cross_corr(pts[4:], 0, others, rho, False)[0]
        assert got[4] == pytest.approx(1.0 - k @ np.linalg.solve(K, k), rel=1e-9)

    def test_one_point_has_nothing_to_condition_on(self):
        got = ad._kriging_variances(np.array([[0.3, 0.1]]), np.array([1.0, 1.0]),
                                    1e-4)
        assert got.tolist() == [1.0 + 1e-4]


def mp_kriging_variance(cond, x, rho, nugget):
    """Kriging variance at ``x`` given value observations at ``cond``, at 50
    digits, by dense inverses: 1 - k'K^-1 k, plus r'(H'K^-1 H)^-1 r with
    r = h(x) - H'K^-1 k under the same rule for universal kriging as
    :func:`ad._kriging_variances` (at least q + 1 points, q of them
    distinct)."""
    with mp.workdps(50):
        m, dim = cond.shape
        q = 1 + 2 * dim

        def k(a, b):
            return mp.exp(-mp.fsum(mp.mpf(r) * (mp.mpf(u) - mp.mpf(v))**2
                                   for r, u, v in zip(rho, a, b)))

        def h(a):
            return [mp.mpf(1), *map(mp.mpf, a), *(mp.mpf(v)**2 for v in a)]

        Ki = (mp.matrix([[k(a, b) for b in cond] for a in cond])
              + mp.mpf(nugget) * mp.eye(m))**-1
        kx = mp.matrix([k(x, a) for a in cond])
        var = 1 - (kx.T * Ki * kx)[0]
        if m >= q + 1 and np.unique(cond, axis=0).shape[0] >= q:
            H = mp.matrix([h(a) for a in cond])
            r = mp.matrix(h(x)) - H.T * Ki * kx
            var += (r.T * (H.T * Ki * H)**-1 * r)[0]
        return float(var)


def check_against_mpmath(points, rho, nugget, eval_points, rtol, atol=0.0):
    """``_kriging_variances`` against 50-digit values: given the set at
    ``eval_points``, and each point given the others, both from the
    leave-one-out form and given each ``np.delete`` set."""
    got = ad._kriging_variances(points, rho, nugget, eval_points)
    ref = np.array([mp_kriging_variance(points, x, rho, nugget)
                    for x in eval_points])
    assert np.all(np.abs(got - ref) <= rtol * ref + atol)
    ref = np.array([mp_kriging_variance(np.delete(points, j, axis=0), x, rho,
                                        nugget)
                    for j, x in enumerate(points)])
    got = ad._kriging_variances(points, rho, nugget)
    assert np.all(np.abs(got - ref) <= rtol * ref)
    got = per_set_denominators(points, rho, nugget)
    assert np.all(np.abs(got - ref) <= rtol * ref + atol)


class TestKrigingVariances:
    """The QR form against 50-digit dense inverses, at the candidate nugget.

    At the design nugget, nearby points give correlation matrices with
    condition numbers near 1e8, and every float evaluation, this one
    included, can then only be held to about 1e-8 relative.
    """

    def test_singular_basis_gram_falls_back_to_simple_kriging(self):
        """Without point 2 the others hold two distinct points; their basis
        Gram is singular but factorizes in floating point, where a
        Cholesky-based variance returned 2.8e14."""
        pts = np.array([[0.0], [0.0], [0.5], [1.5], [1.5]])
        rho = np.array([1.0])
        check_against_mpmath(pts, rho, ad.CAND_NUGGET, pts[2:3], rtol=1e-10)
        got = ad._kriging_variances(np.delete(pts, 2, axis=0), rho,
                                    ad.CAND_NUGGET, pts[2:3])
        assert got[0] == pytest.approx(0.3109, abs=1e-4)

    def test_near_singular_basis_gram(self):
        """A D = 3 set with one duplicate whose leave-one-out basis Grams
        are near singular: a Cholesky factorization of H'K^-1 H lost 2.9e-8
        relative here."""
        pts = np.array([[1.72, 1.66, 0.01], [-1.06, 0.73, 1.66],
                        [-1.19, 1.92, -0.67], [1.82, -1.64, 1.54],
                        [0.15, 1.11, -0.45], [-1.42, -0.34, 0.88],
                        [-0.68, -0.02, 1.15], [-0.44, -0.61, 1.38],
                        [-0.68, -0.02, 1.15]])
        rho = np.array([2.17, 2.08, 0.61])
        rng = np.random.default_rng(3)
        check_against_mpmath(pts, rho, ad.CAND_NUGGET,
                             rng.uniform(-2.0, 2.0, size=(4, 3)), rtol=1e-10,
                             atol=1e-13)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           extra=st.integers(-3, 3), duplicates=st.integers(0, 2))
    def test_random_sets(self, seed, dim, extra, duplicates):
        """Sizes on both sides of the universal-kriging switch, duplicates,
        and an evaluation point next to a set point.  The absolute floor is
        a few hundred rounding units of the prior variance 1, which
        1 - |v|^2 cancels."""
        rng = np.random.default_rng(seed)
        m = max(2, 3 + 2 * dim + extra)
        pts = rng.uniform(-2.0, 2.0, size=(m, dim))
        for _ in range(duplicates):
            i, j = rng.integers(0, m, size=2)
            pts[i] = pts[j]
        rho = rng.uniform(0.1, 3.0, size=dim)
        at = rng.uniform(-2.5, 2.5, size=(3, dim))
        at[0] = pts[0] + 1e-3 * rng.standard_normal(dim)
        check_against_mpmath(pts, rho, ad.CAND_NUGGET, at, rtol=1e-10,
                             atol=1e-13)


class TestMiceSelectCost:
    def test_one_factorization_per_pick(self, spread_banana_design, monkeypatch):
        """The candidate-sized factorizations do not grow with the candidates."""
        sizes = []
        cholesky = ad.cholesky
        monkeypatch.setattr(ad, "cholesky", lambda a, *args, **kw:
                            sizes.append(np.shape(a)[0]) or cholesky(a, *args, **kw))
        rng = np.random.default_rng(5)
        big = {}
        for m in (20, 60):
            sizes.clear()
            cand = rng.uniform(-2.5, 2.5, size=(m, 2))
            ad.mice_select(spread_banana_design, cand, np.array([0.7, 0.9]))
            big[m] = sum(1 for s in sizes if s in (m - 1, m))
        assert big == {20: 1, 60: 1}


class TestMiceSelect:
    def test_ties_break_to_lowest_index(self, spread_banana_design):
        cand = np.array([[5.0, 5.0], [5.0, 5.0], [0.1, 0.2]])
        idx, ratios = ad.mice_select(spread_banana_design, cand,
                                     np.array([0.6, 0.6]))
        assert ratios[0] == ratios[1]
        assert idx in (0, 2)
        if ratios[0] >= ratios[2]:
            assert idx == 0

    def test_matches_exhaustive_oracle(self, spread_banana_design):
        from gpgmc import kernels
        rho = np.array([0.7, 0.9])
        rng = np.random.default_rng(9)
        design = spread_banana_design
        for _ in range(10):
            cand = rng.uniform(-2.5, 2.5, size=(40, 2))
            idx, ratios = ad.mice_select(design, cand, rho)
            # independent recomputation with plain dense inverses
            best, best_val = None, -np.inf
            for j in range(40):
                def var_given(points, nug, grads=False, at=cand[j]):
                    C = kernels.tilde_corr(points, rho, grads)
                    C[np.diag_indices_from(C)] += nug
                    Ci = np.linalg.inv(C)
                    c = kernels.cross_corr(at[None, :], 0, points, rho, grads)
                    v = 1.0 - c @ Ci @ c.T
                    q = 1 + 2 * points.shape[1]
                    if C.shape[0] >= q + 1:
                        H = kernels.tilde_basis(points, grads)
                        h = kernels.basis(at[None, :], 0)
                        R = h - c @ Ci @ H
                        v = v + R @ np.linalg.inv(H.T @ Ci @ H) @ R.T
                    return max(float(v[0, 0]), 0.0)

                num = var_given(design.points, NUGGET_DEFAULT,
                                design.has_gradients)
                den = var_given(np.delete(cand, j, axis=0), ad.CAND_NUGGET)
                val = num / den if den > 1e-14 else -np.inf
                if val > best_val:
                    best, best_val = j, val
            assert idx == best

    def test_far_candidate_beats_design_point(self, spread_banana_design):
        cand = np.vstack([spread_banana_design.points[0], [8.0, 8.0]])
        idx, ratios = ad.mice_select(spread_banana_design, cand,
                                     np.array([0.8, 0.8]))
        assert idx == 1
        assert ratios[1] > ratios[0]

    def test_all_degenerate(self, spread_banana_design, monkeypatch):
        # zero smoothing nugget and coincident candidates: every candidate is
        # perfectly explained by its twin, so all denominators underflow
        monkeypatch.setattr(ad, "CAND_NUGGET", 0.0)
        cand = np.array([[0.3, 0.4], [0.3, 0.4]])
        with pytest.raises(AllDegenerate):
            ad.mice_select(spread_banana_design, cand, np.array([0.8, 0.8]))


def fitted_rho(design):
    """The lengthscales the sampler's refresh fits on a design's values."""
    return fit_hyperparameters(
        DesignSet(points=design.points, potentials=design.potentials),
        rng=np.random.default_rng(0))[0].rho


class TestMiceRefine:
    def test_saturated_design_returned_unchanged(self, banana, spread_banana_design):
        cfg = ad.MICEConfig(max_size=spread_banana_design.n)
        pool = ad.CandidatePool(np.array([[0.3, 0.4]]), np.array([1.0]),
                                np.ones((1, banana.data_count)))
        out, info = ad.mice_refine(spread_banana_design, pool, cfg,
                                   fitted_rho(spread_banana_design))
        assert out is spread_banana_design
        assert info["added"] == 0

    def test_added_points_come_from_pool(self, banana, spread_banana_design):
        rng = np.random.default_rng(10)
        pool_pts = spread_points(rng, 30, 2, spread=2.5, min_sep=0.3)
        pool = ad.CandidatePool(
            pool_pts,
            np.array([banana.potential(p) for p in pool_pts]),
            np.stack([banana.potential_per_datum(p)[1] for p in pool_pts]))
        cfg = ad.MICEConfig(init_keep=5, max_size=35)
        out, info = ad.mice_refine(spread_banana_design, pool, cfg,
                                   fitted_rho(spread_banana_design))
        assert out.n == 35
        allowed = np.vstack([spread_banana_design.points, pool_pts])
        for p in out.points:
            assert np.min(np.linalg.norm(allowed - p, axis=1)) < 1e-12

    def test_refinement_reduces_holdout_error(self, banana):
        rng = np.random.default_rng(12)
        # narrow initial design, wide informative pool
        init_pts = spread_points(rng, 12, 2, spread=0.6, min_sep=0.12)
        design = evaluated_design(banana, init_pts)
        pool_pts = spread_points(rng, 50, 2, spread=2.4, min_sep=0.25)
        pool = ad.CandidatePool(
            pool_pts,
            np.array([banana.potential(p) for p in pool_pts]),
            np.stack([banana.potential_per_datum(p)[1] for p in pool_pts]))
        hold_pts = spread_points(np.random.default_rng(13), 20, 2, spread=2.0,
                                 min_sep=0.2)
        holdout = (hold_pts, np.array([banana.potential(p) for p in hold_pts]))
        cfg = ad.MICEConfig(init_keep=6, max_size=40)

        hyper = Hyperparameters(rho=fitted_rho(design))
        before = ad._holdout_mspe(build_emulator(design, hyper), holdout)
        refined, info = ad.mice_refine(design, pool, cfg, hyper.rho)
        after = ad._holdout_mspe(build_emulator(refined, hyper), holdout)
        assert after < before

    def test_matches_one_pick_at_a_time_reference(self, banana,
                                                  spread_banana_design):
        """Index picks give the design a plain append loop builds."""
        rng = np.random.default_rng(30)
        pool_pts = spread_points(rng, 30, 2, spread=2.5, min_sep=0.3)
        pool = ad.CandidatePool(
            pool_pts,
            np.array([banana.potential(p) for p in pool_pts]),
            np.stack([banana.potential_per_datum(p)[1] for p in pool_pts]))
        cfg = ad.MICEConfig(init_keep=5, max_size=30)
        rho = np.array([0.7, 0.4])
        design = spread_banana_design
        design_rows = value_rows(banana, design.points)
        out, info = ad.mice_refine(design, pool, cfg, rho, rows=design_rows)

        # reference: the kept design points, then one mice_select per pick
        # over the pool followed by the recycled design points
        recycled = design.n - cfg.init_keep
        pts = list(design.points[recycled:])
        pots = list(design.potentials[recycled:])
        rows = list(design_rows[recycled:])
        c_pts = list(pool.points) + list(design.points[:recycled])
        c_pots = list(pool.potentials) + list(design.potentials[:recycled])
        c_rows = list(pool.per_datum) + list(design_rows[:recycled])
        while len(pts) < cfg.max_size:
            j, _ = ad.mice_select(DesignSet(points=np.array(pts),
                                            potentials=np.array(pots)),
                                  np.array(c_pts), rho)
            pts.append(c_pts.pop(j))
            pots.append(c_pots.pop(j))
            rows.append(c_rows.pop(j))

        assert info["added"] == cfg.max_size - cfg.init_keep
        assert np.array_equal(out.points, np.array(pts))
        assert np.array_equal(out.potentials, np.array(pots))
        assert np.array_equal(np.array(info["rows"]), np.array(rows))
        assert np.array_equal(out.gfi, per_datum_gram(np.array(rows)))

    def test_refresh_builds_no_emulator_and_copies_rows_once(self, monkeypatch):
        """A refresh at N = 30 000 holds about one copy of the refined rows."""
        from gpgmc.targets import BBDTarget
        rng = np.random.default_rng(3)
        target = BBDTarget.simulate(rng, n_data=30_000, dim=4)
        pts = rng.standard_normal((76, 4))
        evals = [target.potential_per_datum(p) for p in pts]
        pots = np.array([u for u, _ in evals])
        rows = np.array([v for _, v in evals])
        design = DesignSet(points=pts[:16], potentials=pots[:16])
        pool = ad.CandidatePool(pts[16:], pots[16:], rows[16:])
        rho = fitted_rho(design)
        builds = []
        build = ad.build_emulator
        monkeypatch.setattr(ad, "build_emulator",
                            lambda *a, **k: builds.append(1) or build(*a, **k))

        tracemalloc.start()
        try:
            out, info = ad.mice_refine(design, pool, ad.MICEConfig(), rho,
                                       rows=rows[:16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        refined_rows = np.array(info["rows"])
        assert info["added"] == 35 and refined_rows.shape == (40, 30_000)
        assert out.gfi.shape == (40, 40)
        assert builds == []
        assert peak <= 1.25 * refined_rows.nbytes


class TestNarrowedFailures:
    """A refresh whose lengthscale fit fails keeps the current lengthscales;
    any other error propagates, and MICE selection itself makes no fit."""

    def refresh(self, banana, design):
        """One refresh of a sampler started at rho = (0.7, 0.4)."""
        sampler = ad.AdaptiveGPeSampler(
            banana, design, IntegratorConfig(step_size=0.05, n_steps=10),
            mice_cfg=ad.MICEConfig(init_keep=5, max_size=design.n + 3),
            rng=np.random.default_rng(0),
            hyper=Hyperparameters(rho=np.array([0.7, 0.4])))
        for p in spread_points(np.random.default_rng(10), 12, 2, spread=2.5,
                               min_sep=0.3):
            sampler._record_tour(p, *banana.potential_per_datum(p))
        state = init_state(sampler.target, np.zeros(2), np.random.default_rng(1))
        sampler._adapt(state, sampler.log_c)
        return sampler

    @staticmethod
    def raising(exc):
        def fit(*args, **kwargs):
            raise exc
        return fit

    @pytest.mark.parametrize("exc", [OptimFailed("diverged"), TooFewPoints("few"),
                                     IllConditioned("singular")])
    def test_fit_failure_keeps_rho(self, banana, spread_banana_design,
                                   monkeypatch, exc):
        monkeypatch.setattr(ad, "fit_hyperparameters", self.raising(exc))
        sampler = self.refresh(banana, spread_banana_design)
        assert sampler.n_adaptations == 1
        assert sampler.design is not spread_banana_design
        np.testing.assert_array_equal(sampler.hyper.rho, [0.7, 0.4])

    @pytest.mark.parametrize("exc", [ShapeMismatch("bad shape"), TypeError("bug")])
    def test_unrelated_fit_error_propagates(self, banana, spread_banana_design,
                                            monkeypatch, exc):
        monkeypatch.setattr(ad, "fit_hyperparameters", self.raising(exc))
        with pytest.raises(type(exc)) as raised:
            self.refresh(banana, spread_banana_design)
        assert raised.value is exc

    def test_refine_makes_no_fit(self, banana, spread_banana_design, monkeypatch):
        monkeypatch.setattr(ad, "fit_hyperparameters",
                            self.raising(AssertionError("fitted")))
        pool_pts = spread_points(np.random.default_rng(10), 12, 2, spread=2.5,
                                 min_sep=0.3)
        pool = ad.CandidatePool(pool_pts,
                                np.array([banana.potential(p) for p in pool_pts]))
        cfg = ad.MICEConfig(init_keep=5, max_size=spread_banana_design.n + 3)
        out, info = ad.mice_refine(spread_banana_design, pool, cfg,
                                   np.array([0.7, 0.4]))
        assert info["added"] > 0 and out.n == cfg.max_size


class TestAdaptiveSampler:
    def test_collect_pool_gathers_rows_once(self):
        """A 240-point tour at N = 30 000 yields its pool's rows by reference."""
        n_tour, n_data = 240, 30_000
        points = np.random.default_rng(5).standard_normal((n_tour, 2))
        sampler = ad.AdaptiveGPeSampler.__new__(ad.AdaptiveGPeSampler)
        sampler.schedule = ad.RegenSchedule()
        sampler.mice_cfg = ad.MICEConfig(maxmin_radius=1e-3)
        sampler._tour_points = list(points)
        sampler._tour_potentials = [float(i) for i in range(n_tour)]
        # each tour row holds its own tour index
        sampler._tour_pd = [np.full(n_data, float(i)) for i in range(n_tour)]
        tracemalloc.start()
        try:
            pool, holdout = sampler._collect_pool()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = np.array(pool.per_datum)
        assert rows.shape == (pool.points.shape[0], n_data)
        assert pool.points.shape[0] > 150 and holdout[0].shape[0] == ad.HOLDOUT_SIZE
        idx = rows[:, 0].astype(int)
        assert np.array_equal(rows, np.repeat(idx[:, None], n_data, axis=1))
        assert all(row is sampler._tour_pd[i] for row, i in zip(pool.per_datum, idx))
        assert np.array_equal(pool.points, points[idx])
        assert np.array_equal(pool.potentials, idx.astype(float))
        assert peak <= 1.25 * rows.nbytes

    def make_sampler(self, banana, design, rng, **schedule_kw):
        cfg = IntegratorConfig(step_size=0.05, n_steps=10)
        schedule = ad.RegenSchedule(test_interval=5, min_pool=12, **schedule_kw)
        return ad.AdaptiveGPeSampler(
            banana, design, cfg, kernel="hmc", schedule=schedule,
            mice_cfg=ad.MICEConfig(init_keep=5, maxmin_radius=0.25, max_size=40),
            rng=rng)

    def test_inactive_adaptation_never_mutates_design(self, banana,
                                                      spread_banana_design):
        rng = np.random.default_rng(14)
        sampler = self.make_sampler(banana, spread_banana_design, rng,
                                    adaptation_active=False)
        state = init_state(sampler.target, np.zeros(2), rng)
        before = sampler.design
        for _ in range(300):
            state, _ = sampler.step(state)
        assert sampler.design is before
        assert sampler.n_regenerations == 0
        assert sampler.events == []

    def test_rebuild_counter_matches_regenerations(self, banana,
                                                   spread_banana_design,
                                                   monkeypatch):
        """One emulator build at the start and one per refresh, the holdout
        of a refresh scoring the rebuilt emulator; a regeneration whose tour
        is too thin to refresh builds nothing."""
        builds = []
        build = ad.build_emulator
        monkeypatch.setattr(ad, "build_emulator",
                            lambda *a, **k: builds.append(1) or build(*a, **k))
        rng = np.random.default_rng(15)
        sampler = self.make_sampler(banana, spread_banana_design, rng)
        state = init_state(sampler.target, np.zeros(2), rng)
        for _ in range(600):
            state, _ = sampler.step(state)
        assert 0 < sampler.n_adaptations < sampler.n_regenerations
        assert any(ev.kind == "adapt_done" and np.isfinite(ev.holdout_mspe)
                   for ev in sampler.events)
        assert len(builds) == 1 + sampler.n_adaptations

    def test_tours_are_exchangeable(self, banana, spread_banana_design):
        """Shuffling tours leaves the batch-means variance consistent."""
        rng = np.random.default_rng(16)
        sampler = self.make_sampler(banana, spread_banana_design, rng,
                                    refine=False)
        state = init_state(sampler.target, np.zeros(2), rng)
        # calibrate a fixed split constant at the chain's typical pi/q ratio
        warm = []
        for _ in range(500):
            state, _ = sampler.step(state)
            warm.append(-state.potential - sampler.proposal.logpdf(state.theta))
        sampler.log_c = float(np.median(warm))
        samples, boundaries = [], []
        for _ in range(20_000):
            state, info = sampler.step(state)
            samples.append(state.theta[0])
            if info["regenerated"]:
                boundaries.append(len(samples))
        assert len(boundaries) >= 10
        x = np.array(samples)
        tours = np.split(x, boundaries[:-1])

        def bm_var(y, nb=100):
            y = y[:len(y) - len(y) % nb]
            means = y.reshape(nb, -1).mean(axis=1)
            return means.var(ddof=1) / nb

        v_orig = bm_var(x)
        shuffles = []
        srng = np.random.default_rng(17)
        for _ in range(50):
            order = srng.permutation(len(tours))
            shuffles.append(bm_var(np.concatenate([tours[i] for i in order])))
        v_shuf = np.median(shuffles)
        assert abs(v_shuf - v_orig) <= 0.2 * max(v_orig, v_shuf)

    def test_rebuilt_emulator_answers_gradient_queries_afresh(self, banana,
                                                             spread_banana_design):
        """Once a refinement swaps in an emulator of a new design, the
        sampler's gradient queries are a fresh emulator's of that design and
        its lengthscales: nothing built for the old weights is left in use."""
        from gpgmc.emulator import build_emulator
        from gpgmc.geometry import EmulatedGeometry
        rng = np.random.default_rng(14)
        sampler = self.make_sampler(banana, spread_banana_design, rng)
        first = sampler.geometry
        state = init_state(sampler.target, np.zeros(2), rng)
        for _ in range(3000):
            state, _ = sampler.step(state)
            if sampler.design is not first.emulator.design:
                break
        assert sampler.geometry.emulator.design is sampler.design
        assert sampler.design is not first.emulator.design
        fresh = EmulatedGeometry(build_emulator(sampler.design, sampler.hyper))
        for x in np.random.default_rng(15).uniform(-1.5, 1.5, (5, 2)):
            np.testing.assert_array_equal(sampler.geometry.grad(x), fresh.grad(x))
            assert not np.array_equal(sampler.geometry.grad(x), first.grad(x))

    def test_post_adaptation_segment_converges(self):
        """Once the stop rule fires the kernel is fixed and averages converge."""
        from gpgmc.targets import GaussianTarget
        mean = np.array([0.8, -0.5])
        cov = np.array([[1.0, 0.3], [0.3, 0.7]])
        target = GaussianTarget(mean, cov)
        rng = np.random.default_rng(40)
        pts = mean + spread_points(np.random.default_rng(41), 14, 2,
                                   spread=1.8, min_sep=0.35)
        design = evaluated_design(target, pts)
        sampler = ad.AdaptiveGPeSampler(
            target, design, IntegratorConfig(step_size=0.4, n_steps=6),
            kernel="hmc",
            schedule=ad.RegenSchedule(test_interval=5, max_adaptations=3,
                                      min_pool=10),
            mice_cfg=ad.MICEConfig(init_keep=5, maxmin_radius=0.3, max_size=30),
            rng=rng)
        state = init_state(sampler.target, mean.copy(), rng)
        for _ in range(3000):
            state, _ = sampler.step(state)
            if not sampler.schedule.adaptation_active:
                break
        assert not sampler.schedule.adaptation_active
        draws = np.empty((10_000, 2))
        for i in range(10_000):
            state, _ = sampler.step(state)
            draws[i] = state.theta
        nb = 50
        bm = draws.reshape(nb, -1, 2).mean(axis=1)
        se = bm.std(axis=0, ddof=1) / np.sqrt(nb)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se)

    def test_caller_configs_unchanged_by_tuned_run(self, banana):
        rng = np.random.default_rng(18)
        pts = 0.15 * np.random.default_rng(19).standard_normal((10, 2))
        cfg = IntegratorConfig(step_size=0.05, n_steps=10)
        schedule = ad.RegenSchedule(test_interval=5, min_pool=12,
                                    max_adaptations=1)
        sampler = ad.AdaptiveGPeSampler(
            banana, evaluated_design(banana, pts), cfg, kernel="hmc",
            schedule=schedule,
            mice_cfg=ad.MICEConfig(init_keep=5, maxmin_radius=0.25, max_size=40),
            rng=rng, tune=True)
        state = init_state(sampler.target, np.zeros(2), rng)
        for _ in range(2000):
            state, _ = sampler.step(state)
            if not sampler.schedule.adaptation_active:
                break
        # the sampler's own copies moved; the caller's did not
        assert not sampler.schedule.adaptation_active
        assert sampler.cfg.step_size != 0.05
        assert cfg == IntegratorConfig(step_size=0.05, n_steps=10)
        assert schedule == ad.RegenSchedule(test_interval=5, min_pool=12,
                                            max_adaptations=1)

    def test_unconverged_fits_leave_mle_warn_events(self, banana, monkeypatch):
        """The start's fit and each refresh's refit, capped at one iteration."""
        monkeypatch.setattr(mle, "FIT_MAX_ITER", 1)
        rng = np.random.default_rng(18)
        pts = 0.15 * np.random.default_rng(19).standard_normal((10, 2))
        sampler = self.make_sampler(banana, evaluated_design(banana, pts), rng,
                                    max_adaptations=2)
        state = init_state(sampler.target, np.zeros(2), rng)
        for _ in range(2000):
            state, _ = sampler.step(state)
            if not sampler.schedule.adaptation_active:
                break
        at = lambda kind: [ev.iteration for ev in sampler.events if ev.kind == kind]
        assert len(at("adapt_start")) >= 1
        assert at("mle_warn") == [0] + at("adapt_start")

    def test_budget_deactivates_adaptation(self, banana):
        rng = np.random.default_rng(18)
        drng = np.random.default_rng(19)
        pts = 0.15 * drng.standard_normal((10, 2))
        design = evaluated_design(banana, pts)
        sampler = self.make_sampler(banana, design, rng, max_adaptations=2)
        state = init_state(sampler.target, np.zeros(2), rng)
        for _ in range(2000):
            state, _ = sampler.step(state)
            if not sampler.schedule.adaptation_active:
                break
        assert sampler.n_adaptations <= 2
        assert not sampler.schedule.adaptation_active
        # once off, the kernel is frozen
        size = sampler.design.n
        for _ in range(100):
            state, _ = sampler.step(state)
        assert sampler.design.n == size
