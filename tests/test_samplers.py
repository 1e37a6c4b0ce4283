import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import SmoothTestFunction, per_datum_design, spread_points
from gpgmc import adaptation as ad
from gpgmc.emulator import DesignSet, Hyperparameters, build_emulator
from gpgmc.errors import (FixedPointDivergence, NonFiniteGradient,
                          RejectionBudgetExhausted)
from gpgmc.geometry import EmulatedGeometry, ExactGeometry
from gpgmc.geometry import christoffel_first_kind
from gpgmc.mle import fit_hyperparameters
from gpgmc.samplers import (ChainState, DualAveraging, IntegratorConfig,
                            _ManifoldPoint, generalized_leapfrog, hmc_step,
                            init_state, leapfrog, lmc_integrator, lmc_step,
                            rhmc_step, rwm_step)
from gpgmc.samplers import _omega
from gpgmc.targets import CountingTarget, GaussianTarget, banana_target


@pytest.fixture(scope="module")
def banana():
    return banana_target(rng=np.random.default_rng(11))


@pytest.fixture(scope="module")
def gauss2d():
    return GaussianTarget(np.array([0.5, -1.0]),
                          np.array([[1.0, 0.6], [0.6, 2.0]]))


@pytest.fixture(scope="module")
def smooth_emulated():
    """Emulated geometry of a smooth 12-datum surface from a gradient design."""
    rng = np.random.default_rng(12)
    fn = SmoothTestFunction(rng, dim=2, n_data=12)
    design = fn.design(spread_points(rng, 14, 2, spread=1.8))
    return EmulatedGeometry(build_emulator(design, Hyperparameters(rho=np.ones(2))))


def run_chain(step, state, n):
    draws = np.empty((n, state.theta.size))
    acc = 0
    for i in range(n):
        state, info = step(state)
        draws[i] = state.theta
        acc += info.accepted
    return draws, acc / n


class TestLeapfrog:
    def test_zero_steps_returns_input(self, banana):
        geo = ExactGeometry(banana)
        theta, p = np.array([0.1, 0.2]), np.array([1.0, -1.0])
        t2, p2 = leapfrog(theta, p, geo.grad, 0.1, 0)
        np.testing.assert_array_equal(t2, theta)
        np.testing.assert_array_equal(p2, p)

    def test_reversibility(self, banana):
        geo = ExactGeometry(banana)
        theta0, p0 = np.array([0.3, -0.4]), np.array([0.7, 0.2])
        t1, p1 = leapfrog(theta0, p0, geo.grad, 0.05, 30)
        t2, p2 = leapfrog(t1, -p1, geo.grad, 0.05, 30)
        assert np.abs(t2 - theta0).max() < 1e-8
        assert np.abs(-p2 - p0).max() < 1e-8

    def test_volume_preservation(self, banana):
        geo = ExactGeometry(banana)

        def flow(z):
            t, p = leapfrog(z[:2], z[2:], geo.grad, 0.05, 10)
            return np.concatenate([t, p])

        z0 = np.array([0.3, -0.4, 0.7, 0.2])
        h = 1e-6
        J = np.column_stack([(flow(z0 + h * np.eye(4)[i])
                              - flow(z0 - h * np.eye(4)[i])) / (2 * h)
                             for i in range(4)])
        assert abs(np.linalg.det(J) - 1.0) < 1e-6

    def test_harmonic_oscillator_energy_error(self):
        target = GaussianTarget(np.zeros(1), np.eye(1))
        geo = ExactGeometry(target)
        theta, p = leapfrog(np.array([1.0]), np.array([0.5]), geo.grad, 0.01, 100)
        h0 = 0.5 * 1.0**2 + 0.5 * 0.5**2
        h1 = 0.5 * theta[0]**2 + 0.5 * p[0]**2
        assert abs(h1 - h0) < 1e-3

    def test_non_finite_gradient_raises(self):
        with pytest.raises(NonFiniteGradient):
            leapfrog(np.zeros(2), np.zeros(2), lambda t: np.array([np.nan, 0.0]),
                     0.1, 5)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gradient_turning_non_finite_mid_trajectory_is_divergent(
            self, gauss2d, bad):
        """A gradient that leaves the finite range at the third of five
        steps: the proposal is divergent, rejected without an exact call,
        and nothing is raised."""
        queries = []

        class Turning:
            def grad(self, theta):
                queries.append(1)
                g = gauss2d.potential_grad(theta)[1]
                return np.array([bad, g[1]]) if len(queries) == 4 else g

        target = CountingTarget(gauss2d)
        state = init_state(target, gauss2d.mean, np.random.default_rng(3))
        evals = target.n_potential
        new_state, info = hmc_step(state, target, Turning(),
                                   IntegratorConfig(step_size=0.1, n_steps=5))
        assert new_state is state
        assert info.divergent and not info.accepted and info.exact_calls == 0
        assert target.n_potential == evals
        assert len(queries) == 4

    @pytest.mark.parametrize("theta0, p0", [
        # the position's own sum overflows
        (0.9 * np.finfo(float).max * np.ones(2), np.array([1.0, -2.0])),
        # the position's and the momentum's sums overflow together
        (0.9 * np.finfo(float).max * np.array([1.0, 0.0]),
         0.9 * np.finfo(float).max * np.array([0.0, 1.0]))])
    def test_finite_iterates_with_an_overflowing_sum_keep_integrating(
            self, theta0, p0):
        """Finite iterates near the largest double whose sum is inf are no
        divergence: the trajectory is the one a scan of every entry allows."""
        def grad(theta):
            return np.array([0.5, 0.25]) * (theta / np.finfo(float).max)

        def scanned_leapfrog(theta, p, step_size, n_steps):
            g = grad(theta)
            for _ in range(n_steps):
                p = p - 0.5 * step_size * g
                theta = theta + step_size * p
                g = grad(theta)
                assert all(np.isfinite(a).all() for a in (theta, p, g))
                p = p - 0.5 * step_size * g
            return theta, p

        theta, p = leapfrog(theta0, p0, grad, 0.1, 5)
        theta_ref, p_ref = scanned_leapfrog(theta0, p0, 0.1, 5)
        np.testing.assert_array_equal(theta, theta_ref)
        np.testing.assert_array_equal(p, p_ref)
        with np.errstate(over="ignore"):
            assert np.isinf(theta.sum() + p.sum() + grad(theta).sum())


class TestRWM:
    def test_vanishing_proposal_always_accepts(self, gauss2d):
        rng = np.random.default_rng(0)
        state = init_state(gauss2d, gauss2d.mean, rng)
        acc = 0
        for _ in range(200):
            state, info = rwm_step(state, gauss2d, 1e-12)
            acc += info.accepted
        assert acc == 200

    def test_recovers_standard_normal_mean(self):
        target = GaussianTarget(np.zeros(1), np.eye(1))
        rng = np.random.default_rng(1)
        state = init_state(target, np.zeros(1), rng)
        draws, ap = run_chain(lambda s: rwm_step(s, target, 2.4), state, 20_000)
        nb = 50
        bm = draws[:, 0].reshape(nb, -1).mean(axis=1)
        se = bm.std(ddof=1) / np.sqrt(nb)
        assert abs(draws[:, 0].mean()) < 3 * se

    def test_rejection_keeps_state_bitwise(self, banana):
        rng = np.random.default_rng(2)
        state = init_state(banana, np.array([0.2, 0.1]), rng)
        theta_before = state.theta
        rejected = False
        for _ in range(200):
            new_state, info = rwm_step(state, banana, 50.0)
            if not info.accepted:
                assert new_state.theta is theta_before
                rejected = True
                break
            state = new_state
            theta_before = state.theta
        assert rejected


class TestHMC:
    def test_nonpositive_energy_change_always_accepts(self):
        from gpgmc.samplers import _accept
        rng = np.random.default_rng(3)
        state = ChainState(np.zeros(1), 0.0, rng)
        for log_ratio in (0.0, 0.5, 3.0, 100.0):
            ok, alpha = _accept(state, log_ratio)
            assert ok and alpha == 1.0
        ok, alpha = _accept(state, -1.0)
        assert alpha == pytest.approx(np.exp(-1.0))

    def test_tuned_acceptance_in_window(self, gauss2d):
        geo = ExactGeometry(gauss2d)
        cfg = IntegratorConfig(step_size=0.05, n_steps=8)
        tuner = DualAveraging(cfg.step_size, target=0.7)
        rng = np.random.default_rng(4)
        state = init_state(gauss2d, gauss2d.mean, rng)
        for _ in range(500):
            state, info = hmc_step(state, gauss2d, geo, cfg)
            cfg.step_size = tuner.update(info.alpha)
        cfg.step_size = tuner.tuned_step
        acc = 0
        for _ in range(1000):
            state, info = hmc_step(state, gauss2d, geo, cfg)
            acc += info.accepted
        assert 0.6 <= acc / 1000 <= 0.95

    def test_divergent_geometry_autorejects(self, gauss2d):
        class BadGeometry:
            def grad(self, theta):
                return np.array([np.nan, np.nan])

        rng = np.random.default_rng(5)
        state = init_state(gauss2d, gauss2d.mean, rng)
        new_state, info = hmc_step(state, gauss2d, BadGeometry(),
                                   IntegratorConfig(step_size=0.1, n_steps=3))
        assert not info.accepted and info.divergent
        assert new_state is state
        assert info.exact_calls == 0


class TestGeneralizedLeapfrog:
    def test_constant_metric_reduces_to_preconditioned_leapfrog(self, gauss2d):
        geo = ExactGeometry(gauss2d)
        cfg = IntegratorConfig(step_size=0.1, n_steps=15, fixed_point_iters=1)
        rng = np.random.default_rng(6)
        theta0 = np.array([0.3, -0.4])
        p0 = rng.standard_normal(2)
        t_r, p_r, _ = generalized_leapfrog(theta0, p0, geo, cfg)
        cf = cho_factor(gauss2d.prec, lower=True)
        t_l, p_l = leapfrog(theta0, p0, geo.grad, 0.1, 15,
                            lambda p: cho_solve(cf, p))
        assert np.abs(t_r - t_l).max() < 1e-10
        assert np.abs(p_r - p_l).max() < 1e-10

    def test_reversibility_with_converged_fixed_points(self, banana):
        geo = ExactGeometry(banana)
        cfg = IntegratorConfig(step_size=0.02, n_steps=12,
                               fixed_point_iters=100, fixed_point_tol=1e-13)
        theta0 = np.array([0.3, -0.4])
        point = _ManifoldPoint(geo, theta0)
        p0 = point.sample_momentum(np.random.default_rng(7))
        t1, p1, _ = generalized_leapfrog(theta0, p0, geo, cfg)
        t2, p2, _ = generalized_leapfrog(t1, -p1, geo, cfg)
        assert np.abs(t2 - theta0).max() < 1e-6
        assert np.abs(-p2 - p0).max() < 1e-6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_reversibility_under_emulated_geometry(self, smooth_emulated, start,
                                                   seed):
        """Flipping the momentum at the end retraces the emulated trajectory."""
        cfg = IntegratorConfig(step_size=0.02, n_steps=10,
                               fixed_point_iters=100, fixed_point_tol=1e-13)
        theta0 = np.array(start)
        point = _ManifoldPoint(smooth_emulated, theta0)
        p0 = point.sample_momentum(np.random.default_rng(seed))
        t1, p1, _ = generalized_leapfrog(theta0, p0, smooth_emulated, cfg,
                                         start=point)
        t2, p2, _ = generalized_leapfrog(t1, -p1, smooth_emulated, cfg)
        scale = 1.0 + np.abs(p0).max()
        assert np.abs(t2 - theta0).max() < 1e-6
        assert np.abs(-p2 - p0).max() < 1e-6 * scale

    def test_fixed_point_residuals_decrease(self, banana):
        """Momentum fixed-point iterates contract for a small step size."""
        geo = ExactGeometry(banana)
        point = _ManifoldPoint(geo, np.array([0.5, -0.8]))
        p = point.sample_momentum(np.random.default_rng(8))
        eps = 0.01
        p_half = p.copy()
        residuals = []
        for _ in range(6):
            p_new = p - 0.5 * eps * (point.gphi - 0.5 * point.nu(p_half))
            residuals.append(np.max(np.abs(p_new - p_half)))
            p_half = p_new
        assert all(residuals[i + 1] <= residuals[i] + 1e-15
                   for i in range(len(residuals) - 1))


def full_point_leapfrog(theta, p, geometry, cfg, point):
    """Oracle: the generalized leapfrog with a full point at every sweep."""
    eps = cfg.step_size
    theta, p = np.array(theta, dtype=float), np.array(p, dtype=float)
    for _ in range(cfg.n_steps):
        p_half = p.copy()
        for _ in range(cfg.fixed_point_iters):
            p_new = p - 0.5 * eps * (point.gphi - 0.5 * point.nu(p_half))
            delta = np.max(np.abs(p_new - p_half))
            p_half = p_new
            if delta < cfg.fixed_point_tol:
                break
        theta_new, end = theta.copy(), point
        for _ in range(cfg.fixed_point_iters):
            theta_next = theta + 0.5 * eps * (point.Ginv + end.Ginv) @ p_half
            delta = np.max(np.abs(theta_next - theta_new))
            theta_new = theta_next
            if delta < cfg.fixed_point_tol:
                break
            end = _ManifoldPoint(geometry, theta_new)
        if not np.array_equal(end.theta, theta_new):
            end = _ManifoldPoint(geometry, theta_new)
        theta = theta_new
        p = p_half - 0.5 * eps * (end.gphi - 0.5 * end.nu(p_half))
        point = end
    return theta, p


class CountingGeometry:
    """Provider wrapper that counts each query."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"grad": 0, "metric": 0, "metric_and_derivs": 0}

    def grad(self, theta):
        self.calls["grad"] += 1
        return self.inner.grad(theta)

    def metric(self, theta):
        self.calls["metric"] += 1
        return self.inner.metric(theta)

    def metric_and_derivs(self, theta):
        self.calls["metric_and_derivs"] += 1
        return self.inner.metric_and_derivs(theta)


class TestPositionSweeps:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(emulated=st.booleans(),
           start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           seed=st.integers(0, 2**32 - 1),
           step_size=st.floats(0.005, 0.1),
           n_steps=st.integers(1, 6),
           iters=st.integers(1, 8),
           tol=st.sampled_from([0.0, 1e-10]))
    def test_matches_full_point_oracle_bitwise(self, banana, smooth_emulated,
                                               emulated, start, seed,
                                               step_size, n_steps, iters, tol):
        """Metric-only sweeps reproduce the full-point loop bit for bit."""
        geo = smooth_emulated if emulated else ExactGeometry(banana)
        cfg = IntegratorConfig(step_size=step_size, n_steps=n_steps,
                               fixed_point_iters=iters, fixed_point_tol=tol)
        theta0 = np.array(start)
        point = _ManifoldPoint(geo, theta0)
        p0 = point.sample_momentum(np.random.default_rng(seed))
        t1, p1, end = generalized_leapfrog(theta0, p0, geo, cfg, start=point)
        t_ref, p_ref = full_point_leapfrog(theta0, p0, geo, cfg, point)
        np.testing.assert_array_equal(t1, t_ref)
        np.testing.assert_array_equal(p1, p_ref)
        np.testing.assert_array_equal(end.theta, t1)

    @pytest.mark.parametrize("iters", [1, 2, 4, 6])
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_one_full_point_per_step(self, banana, smooth_emulated, iters,
                                     n_steps):
        for inner in (ExactGeometry(banana), smooth_emulated):
            geo = CountingGeometry(inner)
            theta0 = np.array([0.3, -0.4])
            point = _ManifoldPoint(inner, theta0)
            p0 = point.sample_momentum(np.random.default_rng(3))
            cfg = IntegratorConfig(step_size=0.05, n_steps=n_steps,
                                   fixed_point_iters=iters, fixed_point_tol=0.0)
            generalized_leapfrog(theta0, p0, geo, cfg, start=point)
            assert geo.calls == {"grad": 0, "metric": n_steps * (iters - 1),
                                 "metric_and_derivs": n_steps}

    def test_converged_sweeps_stop_asking_for_the_metric(self, banana):
        geo = CountingGeometry(ExactGeometry(banana))
        theta0 = np.array([0.3, -0.4])
        point = _ManifoldPoint(geo.inner, theta0)
        p0 = point.sample_momentum(np.random.default_rng(4))
        cfg = IntegratorConfig(step_size=0.02, n_steps=4,
                               fixed_point_iters=50, fixed_point_tol=1e-10)
        generalized_leapfrog(theta0, p0, geo, cfg, start=point)
        assert 0 < geo.calls["metric"] < 4 * 49
        assert geo.calls["metric_and_derivs"] == 4

    def test_non_finite_intermediate_metric_rejects(self, gauss2d):
        class NaNMetric(CountingGeometry):
            def metric(self, theta):
                return np.full((2, 2), np.nan)

        geo = NaNMetric(ExactGeometry(gauss2d))
        state = init_state(gauss2d, gauss2d.mean, np.random.default_rng(5))
        cfg = IntegratorConfig(step_size=0.1, n_steps=2, fixed_point_iters=3,
                               fixed_point_tol=0.0)
        new_state, info = rhmc_step(state, gauss2d, geo, cfg)
        assert new_state is state
        assert info.divergent and not info.accepted and info.exact_calls == 0


class IndefiniteGeometry(CountingGeometry):
    """A finite metric that is not positive definite, from the sweep queries
    (``where="sweep"``) or at every full point after the first ("point")."""

    BAD = np.array([[1.0, 2.0], [2.0, 1.0]])

    def __init__(self, inner, where):
        super().__init__(inner)
        self.where = where

    def metric(self, theta):
        G = super().metric(theta)
        return self.BAD.copy() if self.where == "sweep" else G

    def metric_and_derivs(self, theta):
        G, dG, grad = super().metric_and_derivs(theta)
        if self.where == "point" and self.calls["metric_and_derivs"] > 1:
            G = self.BAD.copy()
        return G, dG, grad


@pytest.mark.parametrize("kernel, where", [(rhmc_step, "sweep"),
                                           (rhmc_step, "point"),
                                           (lmc_step, "point")])
def test_indefinite_metric_rejects_without_exact_call(gauss2d, kernel, where):
    """The inverse's factorization fails; the step is divergent, spends no
    exact evaluation and raises nothing."""
    target = CountingTarget(gauss2d)
    geo = IndefiniteGeometry(ExactGeometry(gauss2d), where)
    state = init_state(target, gauss2d.mean, np.random.default_rng(6))
    cfg = IntegratorConfig(step_size=0.1, n_steps=2, fixed_point_iters=3,
                           fixed_point_tol=0.0)
    evals = target.n_potential
    new_state, info = kernel(state, target, geo, cfg)
    assert new_state is state
    assert info.divergent and not info.accepted and info.exact_calls == 0
    assert target.n_potential == evals
    assert geo.calls["metric" if where == "sweep" else "metric_and_derivs"] >= 1


@pytest.mark.parametrize("step_size", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_integrator_config_rejects_a_step_size_that_is_not_positive_and_finite(
        step_size):
    with pytest.raises(ValueError, match="step_size"):
        IntegratorConfig(step_size=step_size, n_steps=3)


class FixedGeometry:
    """A provider returning fixed arrays: ``G`` and ``dG`` with a zero
    gradient at every full point, ``sweep_G`` from every ``metric`` query."""

    def __init__(self, G, dG, sweep_G=None):
        self.G, self.dG = G, dG
        self.sweep_G = G if sweep_G is None else sweep_G

    def metric(self, theta):
        return self.sweep_G.copy()

    def metric_and_derivs(self, theta):
        return self.G.copy(), self.dG.copy(), np.zeros(self.G.shape[0])


@pytest.mark.parametrize("geo, where", [
    # nu(p) = 1e100 (p_1 + p_2)^2 grows the momentum iterates doubly
    # exponentially until they overflow
    (FixedGeometry(np.eye(2), np.full((2, 2, 2), 1e100)), "momentum"),
    # a subnormal sweep metric: its inverse, and so the next position
    # iterate, overflows
    (FixedGeometry(np.eye(2), np.zeros((2, 2, 2)), 1e-310 * np.eye(2)),
     "position")])
def test_fixed_point_divergence_rejects_without_exact_call(gauss2d, geo, where):
    cfg = IntegratorConfig(step_size=0.1, n_steps=2, fixed_point_iters=6,
                           fixed_point_tol=0.0)
    with pytest.raises(FixedPointDivergence, match=f"{where} iterate non-finite"):
        generalized_leapfrog(gauss2d.mean, np.array([0.3, 0.5]), geo, cfg)
    target = CountingTarget(gauss2d)
    state = init_state(target, gauss2d.mean, np.random.default_rng(7))
    evals = target.n_potential
    new_state, info = rhmc_step(state, target, geo, cfg)
    assert new_state is state
    assert info.divergent and not info.accepted and info.exact_calls == 0
    assert target.n_potential == evals


def test_finite_iterates_with_an_overflowing_increment_do_not_diverge():
    """Two finite position iterates of opposite sign near the largest double
    differ by more than it: the sup-norm increment is inf, yet no iterate is
    non-finite, so the trajectory goes on as the finiteness scan says."""
    ginv_start = np.array([[2.0, -1.02], [-1.02, 1.0102]])
    ginv_sweep = np.array([[20.0, 2.8], [2.8, 0.972]])
    geo = FixedGeometry(np.linalg.inv(ginv_start), np.zeros((2, 2, 2)),
                        np.linalg.inv(ginv_sweep))
    # first iterate ginv_start @ p ~ 0.9 max (-1, 1), the second
    # (ginv_start + ginv_sweep) @ p / 2 ~ 0.9 max (1, 1)
    p0 = 0.9 * np.finfo(float).max * np.array([0.01, 1.0])
    cfg = IntegratorConfig(step_size=1.0, n_steps=1, fixed_point_iters=2,
                           fixed_point_tol=0.0)
    start = _ManifoldPoint(geo, np.zeros(2))
    theta, p, _ = generalized_leapfrog(np.zeros(2), p0, geo, cfg, start=start)
    first = 0.5 * (start.Ginv + start.Ginv) @ p0
    with np.errstate(over="ignore"):
        assert np.isinf(np.abs(theta - first).max())
    assert np.isfinite(theta).all() and np.isfinite(first).all()
    np.testing.assert_array_equal(p, p0)


class TestRHMC:
    def test_constant_metric_matches_mass_hmc_exactly(self, gauss2d):
        """Same seed, mass = metric: identical chains draw by draw."""
        geo = ExactGeometry(gauss2d)
        cfg_r = IntegratorConfig(step_size=0.4, n_steps=6, fixed_point_iters=6)
        cfg_h = IntegratorConfig(step_size=0.4, n_steps=6, mass=gauss2d.prec)
        s_r = init_state(gauss2d, gauss2d.mean, np.random.default_rng(9))
        s_h = init_state(gauss2d, gauss2d.mean, np.random.default_rng(9))
        for _ in range(300):
            s_r, _ = rhmc_step(s_r, gauss2d, geo, cfg_r)
            s_h, _ = hmc_step(s_h, gauss2d, geo, cfg_h)
            np.testing.assert_allclose(s_r.theta, s_h.theta, atol=1e-10)
            # resync to keep ulp-level arithmetic drift from compounding
            s_h.theta = s_r.theta.copy()
            s_h.potential = s_r.potential

    def test_scaled_identity_metric_log_det_cancels(self):
        """G = c I only shifts the Hamiltonian by a constant."""
        target = GaussianTarget(np.zeros(2), 4.0 * np.eye(2))
        geo = ExactGeometry(target)  # metric = I/4, constant
        cfg_r = IntegratorConfig(step_size=0.5, n_steps=5)
        cfg_h = IntegratorConfig(step_size=0.5, n_steps=5, mass=target.prec)
        s_r = init_state(target, np.zeros(2), np.random.default_rng(10))
        s_h = init_state(target, np.zeros(2), np.random.default_rng(10))
        for _ in range(200):
            s_r, i_r = rhmc_step(s_r, target, geo, cfg_r)
            s_h, i_h = hmc_step(s_h, target, geo, cfg_h)
            assert i_r.alpha == pytest.approx(i_h.alpha, abs=1e-12)
            np.testing.assert_allclose(s_r.theta, s_h.theta, atol=1e-10)
            s_h.theta = s_r.theta.copy()
            s_h.potential = s_r.potential


class TestLMC:
    def test_constant_metric_logdet_is_zero(self, gauss2d):
        geo = ExactGeometry(gauss2d)
        cfg = IntegratorConfig(step_size=0.1, n_steps=10)
        v0 = np.random.default_rng(11).standard_normal(2)
        _, _, _, logdet = lmc_integrator(np.zeros(2), v0, geo, cfg)
        assert logdet == 0.0

    def test_logdet_matches_numerical_jacobian(self, banana):
        geo = ExactGeometry(banana)
        cfg = IntegratorConfig(step_size=0.05, n_steps=5)
        theta0 = np.array([0.3, -0.4])
        v0 = np.array([0.2, -0.1])
        _, _, _, logdet = lmc_integrator(theta0, v0, geo, cfg)

        def flow(z):
            t, v, _, _ = lmc_integrator(z[:2], z[2:], geo, cfg)
            return np.concatenate([t, v])

        z0 = np.concatenate([theta0, v0])
        h = 1e-6
        J = np.column_stack([(flow(z0 + h * np.eye(4)[i])
                              - flow(z0 - h * np.eye(4)[i])) / (2 * h)
                             for i in range(4)])
        assert abs(logdet - np.log(abs(np.linalg.det(J)))) < 1e-4

    def test_per_step_logdet_vanishes_with_step_size(self, banana):
        geo = ExactGeometry(banana)
        theta0, v0 = np.array([0.3, -0.4]), np.array([0.5, 0.2])
        vals = []
        for eps in (0.08, 0.04, 0.02, 0.01):
            cfg = IntegratorConfig(step_size=eps, n_steps=1)
            _, _, _, logdet = lmc_integrator(theta0, v0, geo, cfg)
            vals.append(abs(logdet))
        assert vals[-1] < 0.02
        # linear-in-eps bound: |logdet| <= C eps with a stable constant
        consts = [v / e for v, e in zip(vals, (0.08, 0.04, 0.02, 0.01))]
        assert max(consts) < 2.0 * max(consts[-1], 1e-6) + 1.0

    def test_forward_backward_logdet_cancels(self, banana):
        geo = ExactGeometry(banana)
        cfg = IntegratorConfig(step_size=0.05, n_steps=6)
        theta0, v0 = np.array([0.2, -0.3]), np.array([0.4, 0.6])
        t1, v1, _, ld_f = lmc_integrator(theta0, v0, geo, cfg)
        t2, v2, _, ld_b = lmc_integrator(t1, -v1, geo, cfg)
        assert np.abs(t2 - theta0).max() < 1e-8
        assert np.abs(-v2 - v0).max() < 1e-8
        assert abs(ld_f + ld_b) < 1e-8

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_reversibility_under_emulated_geometry(self, smooth_emulated, start,
                                                   seed):
        """Flipping the velocity at the end retraces the emulated trajectory,
        and the backward log Jacobian cancels the forward one."""
        cfg = IntegratorConfig(step_size=0.02, n_steps=10)
        theta0 = np.array(start)
        point = _ManifoldPoint(smooth_emulated, theta0)
        v0 = point.sample_velocity(np.random.default_rng(seed))
        t1, v1, _, ld_f = lmc_integrator(theta0, v0, smooth_emulated, cfg,
                                         start=point)
        t2, v2, _, ld_b = lmc_integrator(t1, -v1, smooth_emulated, cfg)
        scale = 1.0 + np.abs(v0).max()
        # the integrator is explicit, so only round-off remains (seen ~1e-12)
        assert np.abs(t2 - theta0).max() < 1e-9
        assert np.abs(-v2 - v0).max() < 1e-9 * scale
        assert abs(ld_f + ld_b) < 1e-9

    def test_banana_mean_matches_hmc_reference(self, banana):
        geo = ExactGeometry(banana)
        ref_state = init_state(banana, np.zeros(2), np.random.default_rng(12))
        cfg_h = IntegratorConfig(step_size=0.1, n_steps=10)
        ref, _ = run_chain(lambda s: hmc_step(s, banana, geo, cfg_h)[:2],
                           ref_state, 20_000)
        cfg_l = IntegratorConfig(step_size=0.25, n_steps=4)
        state = init_state(banana, np.zeros(2), np.random.default_rng(13))
        draws, ap = run_chain(lambda s: lmc_step(s, banana, geo, cfg_l),
                              state, 20_000)
        assert ap > 0.3
        nb = 50
        for d in range(2):
            bm = draws[:, d].reshape(nb, -1).mean(axis=1)
            bm_ref = ref[:, d].reshape(nb, -1).mean(axis=1)
            se = np.sqrt(bm.var(ddof=1) / nb + bm_ref.var(ddof=1) / nb)
            assert abs(draws[:, d].mean() - ref[:, d].mean()) < 3 * se


def test_cached_connection_matches_direct_omega(banana, smooth_emulated):
    """The cached second-kind connection gives LMC's Omega bit for bit."""
    rng = np.random.default_rng(16)
    for geo in (ExactGeometry(banana), smooth_emulated):
        point = _ManifoldPoint(geo, rng.uniform(-1.0, 1.0, 2))
        gamma2 = np.einsum("km,ijm->ijk", point.Ginv,
                           christoffel_first_kind(point.dG))
        for v in rng.standard_normal((3, 2)):
            np.testing.assert_array_equal(
                _omega(point, v), np.einsum("i,ijk->kj", v, gamma2))


class TestEmulatedModeContract:
    def test_exactly_one_exact_potential_call_per_proposal(self, banana):
        rng = np.random.default_rng(14)
        pts = spread_points(rng, 25, 2, spread=2.0, min_sep=0.3)
        design = per_datum_design(banana, pts, gradients=True)
        hyper, _ = fit_hyperparameters(
            DesignSet(points=pts, potentials=design.potentials),
            rng=np.random.default_rng(0))
        geometry = EmulatedGeometry(build_emulator(design, hyper))
        for step, cfg in [
            (hmc_step, IntegratorConfig(step_size=0.05, n_steps=5)),
            (rhmc_step, IntegratorConfig(step_size=0.1, n_steps=3)),
            (lmc_step, IntegratorConfig(step_size=0.1, n_steps=3)),
        ]:
            counter = CountingTarget(banana)
            state = init_state(counter, np.zeros(2), np.random.default_rng(15))
            before = counter.n_potential
            n, div = 60, 0
            for _ in range(n):
                state, info = step(state, counter, geometry, cfg)
                div += info.divergent
            assert counter.n_potential - before == n - div


class TestExactCallContract:
    """Exact potential calls = transitions - divergent + independence probes
    + sample_Q tries, for RWM and for the adaptive sampler."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sd=st.floats(0.05, 3.0))
    def test_rwm(self, banana, seed, sd):
        counter = CountingTarget(banana)
        state = init_state(counter, np.zeros(2), np.random.default_rng(seed))
        before = counter.n_potential
        for _ in range(50):
            state, _ = rwm_step(state, counter, sd)
        assert counter.n_potential - before == 50

    @pytest.fixture(scope="class")
    def banana_design(self, banana):
        pts = spread_points(np.random.default_rng(21), 14, 2, spread=2.2, min_sep=0.35)
        return per_datum_design(banana, pts)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adaptive_sampler(self, banana, banana_design, seed):
        divergent, tries = [], []
        real_step, real_sample_Q = ad.samplers.hmc_step, ad.sample_Q
        budget = inspect.signature(real_sample_Q).parameters["max_tries"].default

        def step(*args):
            state, info = real_step(*args)
            divergent.append(info.divergent)
            return state, info

        def sample_Q(*args, **kwargs):
            try:
                out = real_sample_Q(*args, **kwargs)
            except RejectionBudgetExhausted:
                tries.append(kwargs.get("max_tries", budget))
                raise
            tries.append(out[2])
            return out

        counter = CountingTarget(banana)
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad.samplers, "hmc_step", step)
            mp.setattr(ad, "sample_Q", sample_Q)
            sampler = ad.AdaptiveGPeSampler(
                counter, banana_design, IntegratorConfig(step_size=0.1, n_steps=4),
                schedule=ad.RegenSchedule(test_interval=2, max_adaptations=2),
                rng=rng, hyper=Hyperparameters(rho=np.array([0.7, 0.4])))
            state = init_state(sampler.target, np.zeros(2), rng)
            before = counter.n_potential
            n, probes = 80, 0
            for _ in range(n):
                state, info = sampler.step(state)
                probes += info["indep_accepted"] is not None
        assert len(divergent) == n and probes == n // 2
        assert counter.n_potential - before == n - sum(divergent) + probes + sum(tries)
