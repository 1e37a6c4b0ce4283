import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpgmc import elliptic
from gpgmc.elliptic import EllipticTarget, KLExpansion
from gpgmc.errors import DegenerateKernel, SolverFailure


@pytest.fixture(scope="module")
def kl():
    return KLExpansion(n_modes=6, mesh_size=20)


@pytest.fixture(scope="module")
def target(kl):
    rng = np.random.default_rng(3)
    theta_true = rng.standard_normal(6)
    return EllipticTarget.simulate(rng, theta_true, kl=kl)


def on_mesh(target, m):
    """The target's KL modes and data on an m x m mesh."""
    return EllipticTarget(target.kl, target.obs, mesh_size=m)


class TestKL:
    def test_eigenvalues_sorted_positive(self, kl):
        assert np.all(kl.eigenvalues > 0)
        assert np.all(np.diff(kl.eigenvalues) <= 1e-14)

    def test_discrete_orthonormality(self, kl):
        gram = (kl.eigenfunctions * kl.weights) @ kl.eigenfunctions.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_kernel_reconstruction_from_top_modes(self):
        kl50 = KLExpansion(n_modes=50, mesh_size=20, lengthscale=0.5)
        K = kl50._kernel(kl50.nodes, kl50.nodes)
        approx = (kl50.eigenfunctions.T * kl50.eigenvalues) @ kl50.eigenfunctions
        assert np.linalg.norm(K - approx) / np.linalg.norm(K) < 0.05

    def test_degenerate_request_raises(self):
        with pytest.raises(DegenerateKernel):
            KLExpansion(n_modes=120, mesh_size=10, lengthscale=1.5)

    def test_nystrom_extension_matches_nodes(self, kl):
        vals = kl.eigenfunction_values(kl.nodes[:50])
        np.testing.assert_allclose(vals, kl.eigenfunctions[:, :50], atol=1e-10)


class TestSolver:
    def test_constant_field_max_principle(self, target):
        u, _, _ = target.solve(np.zeros(6), want_sens=False)
        boundary = target.grid.dirichlet
        interior = np.setdiff1d(np.arange(u.size), boundary)
        assert u[interior].max() <= u[boundary].max() + 1e-12
        assert u[interior].min() >= u[boundary].min() - 1e-12

    def test_self_convergence_order(self, target):
        theta = 0.5 * np.random.default_rng(4).standard_normal(6)
        ref = on_mesh(target, 80).solve(theta, want_sens=False)[1]
        errs = [np.linalg.norm(on_mesh(target, m).solve(theta, want_sens=False)[1]
                               - ref) for m in (10, 20, 40)]
        orders = [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
        assert min(orders) >= 1.8

    def test_sensitivities_match_finite_differences(self, target):
        theta = 0.3 * np.random.default_rng(5).standard_normal(6)
        _, _, sens = target.solve(theta)
        h = 1e-6
        for d in range(6):
            e = np.zeros(6)
            e[d] = h
            fd = (target.solve(theta + e, want_sens=False)[1]
                  - target.solve(theta - e, want_sens=False)[1]) / (2 * h)
            rel = np.abs(sens[d] - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-4

    def test_mirrored_boundary_data_mirrors_solution(self, target):
        m = target.mesh_size
        xs = np.linspace(0, 1, m + 1)
        # diffusivity even in theta = 0 (constant) is mirror-symmetric
        uA = target.solve(np.zeros(6), want_sens=False)[0].reshape(m + 1, m + 1)
        uB = target.solve(np.zeros(6), want_sens=False,
                          bc_bottom=1 - xs, bc_top=xs)[0].reshape(m + 1, m + 1)
        assert np.abs(uB - uA[:, ::-1]).max() < 1e-10


class TestPotential:
    def test_gradient_matches_finite_differences(self, target):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = 0.5 * rng.standard_normal(6)
            _, grad = target.potential_grad(theta)
            fd = np.zeros(6)
            for d in range(6):
                h = 1e-5 * (1 + abs(theta[d]))
                e = np.zeros(6)
                e[d] = h
                fd[d] = (target.potential(theta + e)
                         - target.potential(theta - e)) / (2 * h)
            assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5

    def test_per_datum_consistency(self, target):
        theta = 0.2 * np.random.default_rng(7).standard_normal(6)
        u, grad, values, DU = target.per_datum(theta)
        assert values.shape == (121,)
        assert DU.shape == (6, 121)
        np.testing.assert_allclose(DU.sum(axis=1) + theta, grad, rtol=1e-12)
        u2, values2 = target.potential_per_datum(theta)
        assert u2 == pytest.approx(u)
        np.testing.assert_allclose(values2, values)

    def test_fisher_is_spd(self, target):
        fi = target.fisher(0.3 * np.random.default_rng(8).standard_normal(6))
        assert np.abs(fi - fi.T).max() < 1e-10
        assert np.linalg.eigvalsh(fi).min() >= 1.0 - 1e-9  # prior floor


def dense_reference(target, theta, m, bb, bt):
    """Solution and sensitivities at every node from the full
    (nodes x nodes) system with Dirichlet identity rows, assembled face by
    face and solved by ``np.linalg.solve``."""
    n = (m + 1) ** 2
    idx = np.arange(n).reshape(m + 1, m + 1)
    faces = [(idx[j, i], idx[j, i + 1], 1.0)
             for j in range(m + 1) for i in range(m)]
    faces += [(idx[j, i], idx[j + 1, i], 0.5 if i in (0, m) else 1.0)
              for j in range(m) for i in range(m + 1)]
    lo, hi, wt = (np.array(col) for col in zip(*faces))
    xs = np.linspace(0.0, 1.0, m + 1)
    X1, X2 = np.meshgrid(xs, xs)
    nodes = np.column_stack([X1.ravel(), X2.ravel()])
    kl = target.kl
    modes = np.sqrt(kl.eigenvalues)[:, None] * kl.eigenfunction_values(nodes)
    c = np.exp(theta @ modes)
    a, b = c[lo], c[hi]
    c_face = 2.0 * a * b / (a + b) * wt
    dc = modes * c
    dc_face = 2.0 * (dc[:, lo] * b**2 + dc[:, hi] * a**2) / (a + b)**2 * wt

    def stiffness(cf):
        K = np.zeros((n, n))
        np.add.at(K, (lo, lo), cf)
        np.add.at(K, (hi, hi), cf)
        np.add.at(K, (lo, hi), -cf)
        np.add.at(K, (hi, lo), -cf)
        return K

    dirichlet = np.concatenate([idx[0], idx[-1]])
    A = stiffness(c_face)
    A[dirichlet] = 0.0
    A[dirichlet, dirichlet] = 1.0
    rhs = np.zeros(n)
    rhs[idx[0]] = bb
    rhs[idx[-1]] = bt
    u = np.linalg.solve(A, rhs)
    dAu = np.array([stiffness(d) @ u for d in dc_face])
    dAu[:, dirichlet] = 0.0
    sens = np.linalg.solve(A, -dAu.T).T
    return u, sens


class TestBandedSolve:
    @pytest.mark.parametrize("m", [10, 20])
    @pytest.mark.parametrize("custom_bc", [False, True])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    @pytest.mark.parametrize("gth", [False, True])
    def test_matches_dense_reference(self, target, monkeypatch, m, custom_bc,
                                     scale, gth):
        if gth:
            # a gate no factorization passes sends every solve to GTH
            monkeypatch.setattr(elliptic, "_MIN_ROW_SUM_SHARE", np.inf)
        theta = scale * np.random.default_rng(9).standard_normal(6)
        xs = np.linspace(0.0, 1.0, m + 1)
        bb, bt = (np.sin(3 * xs), 0.5 + xs**2) if custom_bc else (xs, 1 - xs)
        kwargs = {"bc_bottom": bb, "bc_top": bt} if custom_bc else {}
        mesh = on_mesh(target, m)
        u, pred, sens = mesh.solve(theta, **kwargs)
        assert mesh.n_gth_factorizations == int(gth)
        u_ref, sens_ref = dense_reference(target, theta, m, bb, bt)
        obs = np.arange(u.size).reshape(m + 1, m + 1)[::m // 10, ::m // 10].ravel()
        assert np.abs(u - u_ref).max() <= 1e-11 * np.abs(u_ref).max()
        np.testing.assert_array_equal(pred, u[obs])
        assert (np.abs(sens - sens_ref[:, obs]).max()
                <= 1e-11 * np.abs(sens_ref[:, obs]).max())

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(5.0, 50.0), seed=st.integers(0, 2**32 - 1),
           m=st.sampled_from([10, 20, 30]), mirrored=st.booleans())
    def test_maximum_principle_at_high_contrast(self, target, scale, seed, m,
                                                mirrored):
        theta = scale * np.random.default_rng(seed).standard_normal(6)
        xs = np.linspace(0.0, 1.0, m + 1)
        bb, bt = (1 - xs, xs) if mirrored else (xs, 1 - xs)
        u = on_mesh(target, m).solve(theta, want_sens=False,
                                     bc_bottom=bb, bc_top=bt)[0]
        bc = np.concatenate([bb, bt])
        assert u.min() >= bc.min() - 1e-8
        assert u.max() <= bc.max() + 1e-8

    def test_lost_row_sums_fall_back_to_gth(self, target):
        # a draw whose LU solution left [0, 1] by 7e-5 before the gate
        theta = 43.0 * np.random.default_rng(2598).standard_normal(6)
        mesh = on_mesh(target, 10)
        u = mesh.solve(theta, want_sens=False)[0]
        assert mesh.n_gth_factorizations == 1
        assert 0.0 <= u.min() and u.max() <= 1.0

    @pytest.mark.parametrize("call", ["solve", "solve_no_sens", "potential",
                                      "potential_grad"])
    def test_one_factorization_per_call(self, target, monkeypatch, call):
        calls = []
        dgbtrf = elliptic.lapack.dgbtrf

        def counting(*args, **kwargs):
            calls.append(1)
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(elliptic.lapack, "dgbtrf", counting)
        theta = 0.3 * np.random.default_rng(10).standard_normal(6)
        before = target.n_gth_factorizations
        {"solve": lambda: target.solve(theta),
         "solve_no_sens": lambda: target.solve(theta, want_sens=False),
         "potential": lambda: target.potential(theta),
         "potential_grad": lambda: target.potential_grad(theta)}[call]()
        assert len(calls) == 1
        assert target.n_gth_factorizations == before

    def test_non_finite_solution_raises(self, target):
        with pytest.raises(SolverFailure):
            target.solve(np.full(6, np.nan), want_sens=False)

    def test_no_sparse_lu(self):
        assert not hasattr(elliptic, "splu")
        assert "splu" not in inspect.getsource(elliptic)
