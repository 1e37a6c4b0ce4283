"""Acceptance suite: one test per release criterion, each printing a PASS line.

Wall-clock shapes (not absolute timings) are asserted where the criterion is
about scaling; statistical checks use fixed seeds so the suite is
deterministic on one platform.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import per_datum_design, spread_points
from gpgmc import adaptation as ad
from gpgmc import cli, kernels, mle
from gpgmc.diagnostics import ess
from gpgmc.elliptic import EllipticTarget, KLExpansion
from gpgmc.emulator import (NUGGET_DEFAULT, DesignSet, Emulator, Hyperparameters,
                             build_emulator)
from gpgmc.geometry import EmulatedGeometry, ExactGeometry
from gpgmc.mle import fit_hyperparameters
from gpgmc.samplers import (DualAveraging, IntegratorConfig, _ManifoldPoint,
                            generalized_leapfrog, hmc_step, init_state,
                            leapfrog, lmc_integrator, lmc_step, rhmc_step,
                            rwm_step)
from gpgmc.targets import BBDTarget, CountingTarget, GaussianTarget, banana_target


def _report(num, name, t0):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def banana():
    return banana_target(rng=np.random.default_rng(11))


@pytest.fixture(scope="module")
def banana_grid(banana):
    g1 = np.linspace(-4.0, 2.5, 30)
    g2 = np.linspace(-2.5, 2.5, 30)
    grid = np.array([[a, b] for a in g1 for b in g2])
    true_u = np.array([banana.potential(t) for t in grid])
    return grid, true_u


@pytest.fixture(scope="module")
def banana_design_points(banana):
    """40 spread posterior samples from an exact chain, first 20 nested."""
    geo = ExactGeometry(banana)
    cfg = IntegratorConfig(step_size=0.1, n_steps=10)
    state = init_state(banana, np.zeros(2), np.random.default_rng(31))
    draws = []
    for _ in range(4000):
        state, _ = hmc_step(state, banana, geo, cfg)
        draws.append(state.theta.copy())
    thin = np.array(draws[200::10])
    for radius in (0.35, 0.3, 0.25, 0.2, 0.15, 0.1):
        keep = ad.maxmin_filter(thin, radius)[:40]
        if keep.size >= 40:
            break
    assert keep.size >= 40
    return thin[keep]


def test_c01_kernel_derivative_correctness():
    t0 = time.perf_counter()
    for dim in (2, 4):
        rng = np.random.default_rng(100 + dim)
        rho = rng.uniform(0.3, 1.5, dim)
        h = 1e-5
        for _ in range(25):  # 25 pairs per dimension = 50 total
            A = rng.normal(size=(1, dim))
            B = rng.normal(size=(1, dim))
            K10 = kernels.corr_block(A, B, 1, 0, rho)
            K11 = kernels.corr_block(A, B, 1, 1, rho)
            K20 = kernels.corr_block(A, B, 2, 0, rho)
            K21 = kernels.corr_block(A, B, 2, 1, rho)
            for k in range(dim):
                Ap, Am = A.copy(), A.copy()
                Ap[0, k] += h
                Am[0, k] -= h
                fd = (kernels.corr_block(Ap, B, 0, 0, rho)
                      - kernels.corr_block(Am, B, 0, 0, rho)) / (2 * h)
                np.testing.assert_allclose(K10[k], fd[0], rtol=1e-5, atol=1e-9)
                fd = (kernels.corr_block(Ap, B, 1, 0, rho)
                      - kernels.corr_block(Am, B, 1, 0, rho)) / (2 * h)
                np.testing.assert_allclose(K20[k * dim:(k + 1) * dim, 0],
                                           fd[:, 0], rtol=1e-5, atol=1e-8)
                fd = (kernels.corr_block(Ap, B, 1, 1, rho)
                      - kernels.corr_block(Am, B, 1, 1, rho)) / (2 * h)
                np.testing.assert_allclose(K21[k * dim:(k + 1) * dim],
                                           fd, rtol=1e-5, atol=1e-8)
            for l in range(dim):
                Bp, Bm = B.copy(), B.copy()
                Bp[0, l] += h
                Bm[0, l] -= h
                fd = (kernels.corr_block(A, Bp, 1, 0, rho)
                      - kernels.corr_block(A, Bm, 1, 0, rho)) / (2 * h)
                np.testing.assert_allclose(K11[:, l], fd[:, 0], rtol=1e-5,
                                           atol=1e-8)
    _report(1, "kernel derivative blocks vs finite differences", t0)


def test_c02_projection_identities():
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        dim = 2 if seed % 2 == 0 else 3
        # separation comparable to the lengthscale keeps the augmented kernel
        # matrix well conditioned, as the max-min candidate filter does in
        # the real pipeline
        pts = spread_points(rng, 12 + (seed % 3), dim, min_sep=0.6)
        for gradients in (False, True):
            design = DesignSet(
                points=pts, potentials=rng.normal(size=pts.shape[0]),
                gradients=rng.normal(size=pts.shape) if gradients else None)
            em = Emulator(design, Hyperparameters(rho=rng.uniform(0.4, 0.9, dim)))
            assert np.abs(em.P @ em.H - np.eye(em.q)).max() < 1e-8
            assert np.abs(em.Q @ em.H).max() < 1e-8
            assert np.abs(em.Q - em.Q.T).max() < 1e-10
            assert np.linalg.eigvalsh(em.Q).min() > -1e-10
    _report(2, "projection identities on 20 random designs", t0)


def test_c03_derivative_information_improves_emulation(banana, banana_grid,
                                                       banana_design_points):
    t0 = time.perf_counter()
    pts = banana_design_points[:20]
    with_grads = per_datum_design(banana, pts, gradients=True)
    without = per_datum_design(banana, pts, gradients=False)
    hyper, _ = fit_hyperparameters(
        DesignSet(points=pts, potentials=without.potentials),
        rng=np.random.default_rng(0))
    em_g = build_emulator(with_grads, hyper)
    em_0 = build_emulator(without, hyper)

    grid, true_u = banana_grid
    check = grid[::18][:50]
    v0 = em_0.predictive_variance(check, 0, scaled=False)
    v1 = em_g.predictive_variance(check, 0, scaled=False)
    assert (v0 - v1).min() > -1e-10

    mae_g = np.mean(np.abs(em_g.predict(grid, 0).mean - true_u))
    mae_0 = np.mean(np.abs(em_0.predict(grid, 0).mean - true_u))
    assert mae_g < mae_0
    _report(3, "gradient observations shrink variance and density error", t0)


def test_c04_design_growth_nests_variance(banana, banana_grid,
                                          banana_design_points):
    t0 = time.perf_counter()
    small = per_datum_design(banana, banana_design_points[:20], False)
    big = per_datum_design(banana, banana_design_points, False)
    hyper, _ = fit_hyperparameters(
        DesignSet(points=small.points, potentials=small.potentials),
        rng=np.random.default_rng(0))
    em_small = build_emulator(small, hyper)
    em_big = build_emulator(big, hyper)
    grid, _ = banana_grid
    check = grid[::18][:50]
    v_small = em_small.predictive_variance(check, 0, scaled=False)
    v_big = em_big.predictive_variance(check, 0, scaled=False)
    assert (v_small - v_big).min() > -1e-10
    _report(4, "predictive variance non-increasing under design growth", t0)


def test_c05_quadratic_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)
    a, b, c = 0.7, np.array([0.5, -1.0, 0.2]), np.array([1.5, 0.7, 0.9])
    pts = rng.normal(size=(14, 3)) * 2
    design = DesignSet(points=pts, potentials=a + pts @ b + pts**2 @ c,
                       gradients=b + 2 * c * pts)
    em = Emulator(design, Hyperparameters(rho=np.full(3, 0.4), nugget=0.0))
    for far in (np.array([[9.0, -7.0, 4.0]]), np.array([[0.1, 0.2, -0.3]])):
        assert abs(em.predict(far, 0).mean[0]
                   - (a + far[0] @ b + far[0]**2 @ c)) < 1e-8
        np.testing.assert_allclose(em.predict(far, 1).mean[0],
                                   b + 2 * c * far[0], atol=1e-8)
        np.testing.assert_allclose(em.predict(far, 2).mean[0],
                                   np.diag(2 * c), atol=1e-8)
    _report(5, "quadratic potentials emulated exactly everywhere", t0)


def test_c06_likelihood_derivatives(banana, banana_design_points):
    t0 = time.perf_counter()
    rng = np.random.default_rng(600)
    for gradients in (False, True):
        design = per_datum_design(banana, banana_design_points[:16], gradients)
        design = DesignSet(points=design.points, potentials=design.potentials,
                           gradients=design.gradients)
        for _ in range(5):  # 5 per mode = 10 random rho
            rho = np.exp(rng.uniform(-1.5, 0.5, 2))
            _, grad = mle.profile_loglik_grad(design, rho)
            fd_g = np.zeros(2)
            for d in range(2):
                h = 1e-3 * rho[d]
                rp, rm = rho.copy(), rho.copy()
                rp[d] += h
                rm[d] -= h
                fd_g[d] = (mle.profile_loglik(design, rp)
                           - mle.profile_loglik(design, rm)) / (2 * h)
            assert np.abs(grad - fd_g).max() / max(1, np.abs(fd_g).max()) < 1e-4
            _, _, hess = mle.profile_loglik_hess(design, rho)
            fd_h = np.zeros((2, 2))
            for e in range(2):
                h = 1e-3 * rho[e]
                rp, rm = rho.copy(), rho.copy()
                rp[e] += h
                rm[e] -= h
                fd_h[:, e] = (mle.profile_loglik_grad(design, rp)[1]
                              - mle.profile_loglik_grad(design, rm)[1]) / (2 * h)
            assert np.abs(hess - fd_h).max() / max(1, np.abs(fd_h).max()) < 1e-3
    _report(6, "marginal-likelihood gradient and Hessian vs differences", t0)


def test_c07_integrators(banana):
    t0 = time.perf_counter()
    geo = ExactGeometry(banana)
    theta0 = np.array([0.3, -0.4])

    p0 = np.array([0.7, 0.2])
    t1, p1 = leapfrog(theta0, p0, geo.grad, 0.05, 30)
    t2, p2 = leapfrog(t1, -p1, geo.grad, 0.05, 30)
    assert max(np.abs(t2 - theta0).max(), np.abs(-p2 - p0).max()) < 1e-8

    cfg = IntegratorConfig(step_size=0.02, n_steps=12, fixed_point_iters=100,
                           fixed_point_tol=1e-13)
    point = _ManifoldPoint(geo, theta0)
    p0 = point.sample_momentum(np.random.default_rng(700))
    t1, p1, _ = generalized_leapfrog(theta0, p0, geo, cfg)
    t2, p2, _ = generalized_leapfrog(t1, -p1, geo, cfg)
    assert max(np.abs(t2 - theta0).max(), np.abs(-p2 - p0).max()) < 1e-6

    cfg_l = IntegratorConfig(step_size=0.05, n_steps=5)
    v0 = np.array([0.2, -0.1])
    _, _, _, logdet = lmc_integrator(theta0, v0, geo, cfg_l)

    def flow(z):
        t, v, _, _ = lmc_integrator(z[:2], z[2:], geo, cfg_l)
        return np.concatenate([t, v])

    z0 = np.concatenate([theta0, v0])
    h = 1e-6
    J = np.column_stack([(flow(z0 + h * np.eye(4)[i])
                          - flow(z0 - h * np.eye(4)[i])) / (2 * h)
                         for i in range(4)])
    assert abs(logdet - np.log(abs(np.linalg.det(J)))) < 1e-4

    gauss = GaussianTarget(np.array([0.5, -1.0]),
                           np.array([[1.0, 0.6], [0.6, 2.0]]))
    ggeo = ExactGeometry(gauss)
    cfg_c = IntegratorConfig(step_size=0.1, n_steps=15, fixed_point_iters=6)
    p0 = np.random.default_rng(701).standard_normal(2)
    cf = cho_factor(gauss.prec, lower=True)
    t_pre, p_pre = leapfrog(theta0, p0, ggeo.grad, 0.1, 15,
                            lambda p: cho_solve(cf, p))
    t_r, p_r, _ = generalized_leapfrog(theta0, p0, ggeo, cfg_c)
    assert max(np.abs(t_r - t_pre).max(), np.abs(p_r - p_pre).max()) < 1e-10
    v0 = cho_solve(cf, p0)
    t_v, v_v, _, ld = lmc_integrator(theta0, v0, ggeo, cfg_c)
    assert ld == 0.0
    assert np.abs(t_v - t_pre).max() < 1e-10
    assert np.abs(v_v - cho_solve(cf, p_pre)).max() < 1e-10
    _report(7, "integrator reversibility, Jacobians, constant-metric limits", t0)


def test_c08_sampler_moment_recovery():
    t0 = time.perf_counter()
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    target = GaussianTarget(mean, cov)
    geo = ExactGeometry(target)
    B = 20_000
    cfg = IntegratorConfig(step_size=0.35, n_steps=8)
    cfg_m = IntegratorConfig(step_size=0.6, n_steps=6, fixed_point_tol=1e-10)
    steppers = {
        "rwm": lambda s: rwm_step(s, target, 1.2),
        "hmc": lambda s: hmc_step(s, target, geo, cfg),
        "rhmc": lambda s: rhmc_step(s, target, geo, cfg_m),
        "lmc": lambda s: lmc_step(s, target, geo, cfg_m),
    }
    for name, step in steppers.items():
        state = init_state(target, mean.copy(), np.random.default_rng(800))
        draws = np.empty((B, 2))
        for i in range(B):
            state, _ = step(state)
            draws[i] = state.theta
        nb = 100
        bm = draws.reshape(nb, -1, 2).mean(axis=1)
        se = bm.std(axis=0, ddof=1) / np.sqrt(nb)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se), name
        est_cov = np.cov(draws.T)
        assert np.abs((est_cov - cov) / cov).max() < 0.10, name
    _report(8, "all four kernels recover Gaussian moments", t0)


def test_c09_emulated_gradient_cost_is_data_size_free():
    t0 = time.perf_counter()
    eval_pts = np.random.default_rng(900).standard_normal((300, 4)) * 0.5

    def best_times(fns, reps=11, min_sample_s=0.02):
        """Best of ``reps`` samples per function, each sample the mean time
        of enough calls to fill ``min_sample_s``.  The samples of the
        functions alternate, so a slow phase of the host, which can outlast
        a whole run of samples, slows every function alike."""
        calls = {}
        for key, fn in fns.items():
            fn()  # warm up allocator and BLAS paths
            calls[key] = 1
            while True:
                s = time.perf_counter()
                for _ in range(calls[key]):
                    fn()
                if time.perf_counter() - s >= min_sample_s:
                    break
                calls[key] *= 2
        best = dict.fromkeys(fns, np.inf)
        for _ in range(reps):
            for key, fn in fns.items():
                s = time.perf_counter()
                for _ in range(calls[key]):
                    fn()
                best[key] = min(best[key], (time.perf_counter() - s) / calls[key])
        return best

    targets, emulators = {}, {}
    for n_data in (3000, 30_000):
        target = targets[n_data] = BBDTarget.simulate(
            np.random.default_rng(42), n_data=n_data, dim=4)
        pts = spread_points(np.random.default_rng(7), 40, 4, spread=2.0,
                            min_sep=0.5)
        pots, grads = [], []
        for th in pts:
            u, g = target.potential_grad(th)
            pots.append(u)
            grads.append(g)
        design = DesignSet(points=pts, potentials=np.array(pots),
                           gradients=np.array(grads))
        hyper, _ = fit_hyperparameters(
            DesignSet(points=pts, potentials=np.array(pots)),
            rng=np.random.default_rng(1))
        emulators[n_data] = build_emulator(design, hyper)
    exact_cost = best_times({n: (lambda t=t: t.potential_grad_batch(eval_pts))
                             for n, t in targets.items()})
    gpe_cost = best_times({n: (lambda em=em: em.predict(eval_pts, 1))
                           for n, em in emulators.items()})

    assert exact_cost[30_000] / exact_cost[3000] > 5.0
    assert gpe_cost[30_000] / gpe_cost[3000] < 1.2

    # exactly one exact potential evaluation per emulated proposal
    target = BBDTarget.simulate(np.random.default_rng(42), n_data=3000, dim=4)
    counter = CountingTarget(target)
    geometry = EmulatedGeometry(emulators[3000])
    cfg = IntegratorConfig(step_size=0.05, n_steps=8)
    state = init_state(counter, np.zeros(4), np.random.default_rng(901))
    base = counter.n_potential
    n, div = 200, 0
    for _ in range(n):
        state, info = hmc_step(state, counter, geometry, cfg)
        div += info.divergent
    assert counter.n_potential - base == n - div
    _report(9, "emulated gradient cost flat in N, one exact call/proposal", t0)


def test_c10_regeneration_construction(banana):
    t0 = time.perf_counter()
    # perfect proposal: pi/q constant equal to c
    assert ad.regen_prob(3.0, 2.0, -1.0, -2.0, 1.0) == pytest.approx(1.0)

    rng = np.random.default_rng(1000)
    for _ in range(10_000):
        lw_t, lw_t1, lc = rng.normal(scale=40.0, size=3)
        log_r = ad.regen_log_prob(lw_t, lw_t1, lc)
        assert log_r <= 0.0
        log_S = min(0.0, lc - lw_t)
        log_Q = min(0.0, lw_t1 - lc)
        log_T = min(0.0, lw_t1 - lw_t)
        assert log_S + log_Q - log_T <= 1e-12

    mix = ad.GaussianMixtureProposal(np.array([[0.5]]), (np.eye(1) / 4.0)[None],
                                     np.zeros(1))
    log_pi = lambda th: -0.5 * float(th[0])**2
    log_c = 1.0
    rng = np.random.default_rng(1001)
    draws = np.array([ad.sample_Q(rng, log_pi, mix, log_c)[0][0]
                      for _ in range(100_000)])
    grid = np.linspace(-8, 8, 4001)
    logq = np.array([mix.logpdf(np.array([g])) for g in grid])
    dens = np.exp(logq + np.minimum(0.0, -0.5 * grid**2 - log_c - logq))
    dens /= np.trapezoid(dens, grid)
    hist, edges = np.histogram(draws, bins=80, range=(-8, 8), density=True)
    centres = 0.5 * (edges[1:] + edges[:-1])
    tv = 0.5 * np.sum(np.abs(hist - np.interp(centres, grid, dens))) \
        * (edges[1] - edges[0])
    assert tv < 0.05
    _report(10, "split-kernel inequality, probabilities, Q sampler", t0)


def test_c11_greedy_selection_oracle(banana, banana_design_points):
    t0 = time.perf_counter()
    design = per_datum_design(banana, banana_design_points[:20], False)
    rho = np.array([0.7, 0.9])
    rng = np.random.default_rng(1100)
    for _ in range(50):
        n_cand = int(rng.integers(20, 60))
        cand = rng.uniform(-2.5, 2.5, size=(n_cand, 2))
        idx, _ = ad.mice_select(design, cand, rho)
        best, best_val = None, -np.inf
        for j in range(n_cand):
            C = kernels.corr_block(design.points, design.points, 0, 0, rho)
            C[np.diag_indices_from(C)] += NUGGET_DEFAULT
            Ci = np.linalg.inv(C)
            c = kernels.corr_block(cand[j:j + 1], design.points, 0, 0, rho)
            H = kernels.basis(design.points, 0)
            hstar = kernels.basis(cand[j:j + 1], 0)
            R = hstar - c @ Ci @ H
            num = (1.0 - c @ Ci @ c.T
                   + R @ np.linalg.inv(H.T @ Ci @ H) @ R.T)[0, 0]
            others = np.delete(cand, j, axis=0)
            Cc = kernels.corr_block(others, others, 0, 0, rho)
            Cc[np.diag_indices_from(Cc)] += ad.CAND_NUGGET
            cc = kernels.corr_block(cand[j:j + 1], others, 0, 0, rho)
            Cci = np.linalg.inv(Cc)
            den = (1.0 - cc @ Cci @ cc.T)[0, 0]
            if others.shape[0] >= 6:
                Hc = kernels.basis(others, 0)
                Rc = hstar - cc @ Cci @ Hc
                den += (Rc @ np.linalg.inv(Hc.T @ Cci @ Hc) @ Rc.T)[0, 0]
            val = max(num, 0.0) / max(den, 1e-14) if den > 1e-14 else -np.inf
            if val > best_val:
                best, best_val = j, val
        assert idx == best

    # refinement reduces holdout error
    rng = np.random.default_rng(1101)
    init_pts = spread_points(rng, 12, 2, spread=0.6, min_sep=0.12)
    init = per_datum_design(banana, init_pts, False)
    pool_pts = spread_points(rng, 50, 2, spread=2.4, min_sep=0.25)
    pool = ad.CandidatePool(
        pool_pts, np.array([banana.potential(p) for p in pool_pts]),
        np.stack([banana.potential_per_datum(p)[1] for p in pool_pts]))
    hold_pts = spread_points(np.random.default_rng(1102), 20, 2, spread=2.0,
                             min_sep=0.2)
    holdout = (hold_pts, np.array([banana.potential(p) for p in hold_pts]))
    hyper, _ = fit_hyperparameters(
        DesignSet(points=init.points, potentials=init.potentials),
        rng=np.random.default_rng(0))
    before = ad._holdout_mspe(build_emulator(init, hyper), holdout)
    refined, _ = ad.mice_refine(
        init, pool, ad.MICEConfig(init_keep=6, max_size=40), hyper.rho)
    after = ad._holdout_mspe(build_emulator(refined, hyper), holdout)
    assert after < before
    _report(11, "greedy selection equals exhaustive argmax; holdout improves", t0)


def test_c12_adaptive_refinement_halves_density_error(banana, banana_grid):
    t0 = time.perf_counter()
    # design crowded at the chain's starting point (the prior mean)
    drng = np.random.default_rng(1)
    pts = 0.15 * drng.standard_normal((10, 2))
    design = per_datum_design(banana, pts, False)
    rng = np.random.default_rng(0)
    sampler = ad.AdaptiveGPeSampler(
        banana, design, IntegratorConfig(step_size=0.05, n_steps=10),
        kernel="hmc",
        schedule=ad.RegenSchedule(test_interval=1, max_adaptations=10,
                                  min_pool=12),
        mice_cfg=ad.MICEConfig(init_keep=5, maxmin_radius=0.25, max_size=40),
        rng=rng)
    grid, true_u = banana_grid

    def grid_mae():
        return float(np.mean(np.abs(sampler.emulator.predict(grid, 0).mean
                                    - true_u)))

    mae_before = grid_mae()
    state = init_state(sampler.target, np.zeros(2), rng)
    for _ in range(4000):
        state, _ = sampler.step(state)
        if sampler.n_adaptations >= 10:
            break
    assert sampler.n_adaptations <= 10
    mae_after = grid_mae()
    assert mae_after <= 0.5 * mae_before, (mae_before, mae_after)
    _report(12, f"adaptive refinement cut density error "
            f"{mae_before:.1f} -> {mae_after:.1f}", t0)


def test_c13_effective_sample_size():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    B = 10_000
    vals, _ = ess(rng.standard_normal((B, 2)))
    assert np.all(vals >= 0.8 * B) and np.all(vals <= 1.2 * B)

    B, phi = 50_000, 0.5
    x = np.empty(B)
    x[0] = rng.standard_normal()
    eps = rng.standard_normal(B)
    for t in range(1, B):
        x[t] = phi * x[t - 1] + eps[t]
    vals, _ = ess(x[:, None])
    assert abs(vals[0] - B / 3) / (B / 3) < 0.15
    _report(13, "effective sample size calibration", t0)


def test_c14_elliptic_inversion():
    t0 = time.perf_counter()
    kl = KLExpansion(n_modes=6, mesh_size=20)
    rng = np.random.default_rng(3)
    theta_true = rng.standard_normal(6)
    target = EllipticTarget.simulate(rng, theta_true, kl=kl)

    theta = 0.5 * np.random.default_rng(4).standard_normal(6)
    def pred_on(m):  # the same data and KL modes on an m x m mesh
        return EllipticTarget(kl, target.obs, mesh_size=m).solve(
            theta, want_sens=False)[1]

    ref = pred_on(80)
    errs = [np.linalg.norm(pred_on(m) - ref) for m in (10, 20, 40)]
    assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 1.8

    _, _, sens = target.solve(theta)
    h = 1e-6
    for d in range(6):
        e = np.zeros(6)
        e[d] = h
        fd = (target.solve(theta + e, want_sens=False)[1]
              - target.solve(theta - e, want_sens=False)[1]) / (2 * h)
        assert np.abs(sens[d] - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4

    geo = ExactGeometry(target)
    cfg = IntegratorConfig(step_size=0.1, n_steps=6)
    tuner = DualAveraging(cfg.step_size, target=0.7)
    state = init_state(target, np.zeros(6), np.random.default_rng(10))
    for _ in range(400):
        state, info = hmc_step(state, target, geo, cfg)
        cfg.step_size = tuner.update(info.alpha)
    cfg.step_size = tuner.tuned_step

    exact_draws = np.empty((5000, 6))
    for i in range(5000):
        state, _ = hmc_step(state, target, geo, cfg)
        exact_draws[i] = state.theta

    thin = exact_draws[::25]
    pts = thin[ad.maxmin_filter(thin, 0.3)[:40]]
    design = per_datum_design(target, pts, gradients=True)
    hyper, _ = fit_hyperparameters(
        DesignSet(points=pts, potentials=design.potentials),
        rng=np.random.default_rng(0))
    gpe = EmulatedGeometry(build_emulator(design, hyper))

    state2 = init_state(target, pts[0], np.random.default_rng(11))
    gpe_draws = np.empty((5000, 6))
    acc = 0
    for i in range(5000):
        state2, info = hmc_step(state2, target, gpe, cfg)
        gpe_draws[i] = state2.theta
        acc += info.accepted
    assert acc / 5000 > 0.3

    nb = 50
    for d in range(6):
        bm1 = exact_draws[:, d].reshape(nb, -1).mean(axis=1)
        bm2 = gpe_draws[:, d].reshape(nb, -1).mean(axis=1)
        se = np.sqrt(bm1.var(ddof=1) / nb + bm2.var(ddof=1) / nb)
        assert abs(exact_draws[:, d].mean() - gpe_draws[:, d].mean()) < 3 * se
    _report(14, "elliptic inversion: convergence, sensitivities, GPe posterior", t0)


def test_c15_run_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "target": {"name": "banana", "n_data": 60},
        "sampler": {"name": "hmc", "step_size": 0.08, "n_steps": 8},
        "geometry": {"mode": "exact"},
        "seed": 99,
        "iters": 200,
        "burnin": 40,
        "timing": "none",
    }
    outs = []
    for sub in ("a", "b"):
        run_cfg = cli.validate_config({**cfg, "output_dir": str(tmp_path / sub)})
        outs.append(cli.run(run_cfg))
    for name in ("chain.csv", "events.csv", "summary.csv", "data.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    meta0 = json.loads((outs[0] / "meta.json").read_text())
    meta1 = json.loads((outs[1] / "meta.json").read_text())
    meta0["config"].pop("output_dir")
    meta1["config"].pop("output_dir")
    for meta in (meta0, meta1):
        meta.pop("wall_seconds")
    assert meta0 == meta1
    _report(15, "repeated (config, seed) runs byte-identical", t0)
