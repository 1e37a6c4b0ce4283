import numpy as np
import pytest

from gpgmc import kernels
from gpgmc.errors import ShapeMismatch


def test_basis_order0_at_origin():
    h = kernels.basis(np.zeros((1, 2)), 0)
    assert h.shape == (1, 5)
    np.testing.assert_array_equal(h[0], [1, 0, 0, 0, 0])


def test_basis_order1_rows():
    dh = kernels.basis(np.array([[1.0, 2.0]]), 1)
    # row for d/dtheta_1 at (1, 2)
    np.testing.assert_array_equal(dh[0], [0, 1, 0, 2, 0])
    np.testing.assert_array_equal(dh[1], [0, 0, 1, 0, 4])


def test_basis_order2_constant():
    d2h = kernels.basis(np.array([[3.0, -1.0]]), 2)
    assert d2h.shape == (4, 5)
    np.testing.assert_array_equal(d2h[0], [0, 0, 0, 2, 0])   # d2/dt1 dt1
    np.testing.assert_array_equal(d2h[1], [0, 0, 0, 0, 0])   # cross term
    np.testing.assert_array_equal(d2h[3], [0, 0, 0, 0, 2])   # d2/dt2 dt2


def test_basis_order1_is_derivative_of_order0():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(3, 4))
    h = 1e-6
    dh = kernels.basis(pts, 1)
    for k in range(4):
        shifted_p = pts.copy()
        shifted_m = pts.copy()
        shifted_p[:, k] += h
        shifted_m[:, k] -= h
        fd = (kernels.basis(shifted_p, 0) - kernels.basis(shifted_m, 0)) / (2 * h)
        np.testing.assert_allclose(dh[k * 3:(k + 1) * 3], fd, atol=1e-8)


def test_kernel_identical_points():
    rho = np.array([0.7, 1.3])
    th = np.array([[0.5, -0.2]])
    assert kernels.corr_block(th, th, 0, 0, rho)[0, 0] == 1.0
    np.testing.assert_array_equal(kernels.corr_block(th, th, 1, 0, rho), 0.0)


@pytest.mark.parametrize("dim", [2, 4])
def test_all_blocks_match_finite_differences(dim):
    """Every derivative block is the coordinate derivative of a lower block."""
    rng = np.random.default_rng(dim)
    rho = rng.uniform(0.3, 1.5, dim)
    A = rng.normal(size=(2, dim))
    B = rng.normal(size=(3, dim))
    m, n = 2, 3
    h = 1e-5

    def fd_A(block_fn, k):
        out = []
        for i in range(m):
            Ap, Am = A.copy(), A.copy()
            Ap[i, k] += h
            Am[i, k] -= h
            out.append((block_fn(Ap)[_rows(i)] - block_fn(Am)[_rows(i)]) / (2 * h))
        return out

    # (1,0) rows are d/dA_k of (0,0)
    K10 = kernels.corr_block(A, B, 1, 0, rho)
    for k in range(dim):
        for i in range(m):
            Ap, Am = A.copy(), A.copy()
            Ap[i, k] += h
            Am[i, k] -= h
            fd = (kernels.corr_block(Ap, B, 0, 0, rho)[i]
                  - kernels.corr_block(Am, B, 0, 0, rho)[i]) / (2 * h)
            np.testing.assert_allclose(K10[k * m + i], fd, rtol=1e-5, atol=1e-8)

    # (1,1) columns are d/dB_l of (1,0)
    K11 = kernels.corr_block(A, B, 1, 1, rho)
    for l in range(dim):
        for j in range(n):
            Bp, Bm = B.copy(), B.copy()
            Bp[j, l] += h
            Bm[j, l] -= h
            fd = (kernels.corr_block(A, Bp, 1, 0, rho)[:, j]
                  - kernels.corr_block(A, Bm, 1, 0, rho)[:, j]) / (2 * h)
            np.testing.assert_allclose(K11[:, l * n + j], fd, rtol=1e-5, atol=1e-8)

    # (2,0) rows are d/dA_k of (1,0)
    K20 = kernels.corr_block(A, B, 2, 0, rho)
    for k in range(dim):
        for l in range(dim):
            for i in range(m):
                Ap, Am = A.copy(), A.copy()
                Ap[i, k] += h
                Am[i, k] -= h
                fd = (kernels.corr_block(Ap, B, 1, 0, rho)[l * m + i]
                      - kernels.corr_block(Am, B, 1, 0, rho)[l * m + i]) / (2 * h)
                np.testing.assert_allclose(K20[(k * dim + l) * m + i], fd,
                                           rtol=1e-5, atol=1e-8)

    # (2,1) rows are d/dA_k of (1,1), the third-order block
    K21 = kernels.corr_block(A, B, 2, 1, rho)
    for k in range(dim):
        for l in range(dim):
            for i in range(m):
                Ap, Am = A.copy(), A.copy()
                Ap[i, k] += h
                Am[i, k] -= h
                fd = (kernels.corr_block(Ap, B, 1, 1, rho)[l * m + i]
                      - kernels.corr_block(Am, B, 1, 1, rho)[l * m + i]) / (2 * h)
                np.testing.assert_allclose(K21[(k * dim + l) * m + i], fd,
                                           rtol=1e-5, atol=1e-7)


def _einsum_block(A, B, order_a, order_b, rho):
    """Term-by-term einsum form of each block, as an independent reference."""
    diff = A[:, None, :] - B[None, :, :]
    corr = np.exp(-np.einsum("ijk,k->ij", diff**2, rho))
    m, n, dim = diff.shape
    eye = np.eye(dim)
    if (order_a, order_b) == (0, 0):
        return corr
    if (order_a, order_b) == (1, 0):
        return np.einsum("k,ijk,ij->kij", -2.0 * rho, diff, corr).reshape(dim * m, n)
    if (order_a, order_b) == (0, 1):
        return np.einsum("l,ijl,ij->ilj", 2.0 * rho, diff, corr).reshape(m, dim * n)
    if (order_a, order_b) in ((1, 1), (2, 0)):
        pref = 2.0 * np.einsum("kl,ij->klij", np.diag(rho), corr)
        pref -= 4.0 * np.einsum("k,l,ijk,ijl,ij->klij", rho, rho, diff, diff, corr)
        if (order_a, order_b) == (2, 0):
            return (-pref).reshape(dim * dim * m, n)
        return pref.transpose(0, 2, 1, 3).reshape(dim * m, dim * n)
    t = -4.0 * np.einsum("kl,k,p,ijp,ij->klpij", eye, rho, rho, diff, corr)
    t += -4.0 * np.einsum("kp,k,l,ijl,ij->klpij", eye, rho, rho, diff, corr)
    t += -4.0 * np.einsum("lp,k,l,ijk,ij->klpij", eye, rho, rho, diff, corr)
    t += 8.0 * np.einsum("k,l,p,ijk,ijl,ijp,ij->klpij", rho, rho, rho,
                         diff, diff, diff, corr)
    return t.transpose(0, 1, 3, 2, 4).reshape(dim * dim * m, dim * n)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("orders", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)])
def test_single_pass_blocks_match_einsum_reference(dim, orders):
    rng = np.random.default_rng(10 + dim)
    rho = rng.uniform(0.3, 1.5, dim)
    A = rng.normal(size=(3, dim))
    B = rng.normal(size=(5, dim))
    ref = _einsum_block(A, B, *orders, rho)
    got = kernels.corr_block(A, B, *orders, rho)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("with_gradients", [False, True])
def test_cross_corr_orders_share_one_pass(with_gradients):
    """The rows of several orders from one pass are those of one
    ``cross_corr`` call per order, and its blocks side by side."""
    rng = np.random.default_rng(21)
    rho = rng.uniform(0.3, 1.5, 3)
    x = rng.normal(size=(2, 3))
    design = rng.normal(size=(6, 3))
    cross = kernels.CrossDiffs(*kernels._diff_and_corr(x, design, rho), rho)
    together = cross.rows((0, 1, 2), with_gradients)
    for order, got in zip((0, 1, 2), together):
        alone = kernels.cross_corr(x, order, design, rho, with_gradients)
        np.testing.assert_array_equal(got, alone)
        blocks = [kernels.corr_block(x, design, order, b, rho)
                  for b in ((0, 1) if with_gradients else (0,))]
        np.testing.assert_array_equal(got, np.hstack(blocks))


@pytest.mark.parametrize("dim", range(1, 7))
def test_gradient_tilde_corr_is_prefactor_times_k_to_the_bit(dim):
    """C~ of a gradient design is, bit for bit and signed zeros included,
    each block's prefactor formed first and then times k: (0,0) ``1``,
    (0,1) ``a_p``, (1,0) ``-a_k`` and (1,1) ``(-a_k a_p) + 2 rho_k d_kp``,
    with ``a = 2 rho * diff``.  Every emulator factorizes this matrix, so
    reordering its products would move every emulated chain."""
    rng = np.random.default_rng(40 + dim)
    n = 2 * dim + 4
    pts = rng.normal(size=(n, dim))
    rho = rng.uniform(0.3, 1.5, dim)
    diff = pts[:, None, :] - pts[None, :, :]
    k = np.exp(-np.einsum("...k,k->...", diff**2, rho))
    a = 2.0 * rho * diff  # (i, j, p)
    ref = np.empty((1 + dim, n, 1 + dim, n))  # (row block, i, column block, j)
    ref[0, :, 0] = 1.0 * k
    for p in range(dim):
        ref[0, :, 1 + p] = a[..., p] * k
        ref[1 + p, :, 0] = -a[..., p] * k
        for q in range(dim):
            ref[1 + p, :, 1 + q] = (-a[..., p] * a[..., q]
                                    + (2.0 * rho[p] if p == q else 0.0)) * k
    ref = ref.reshape(n * (1 + dim), -1)
    for points in (pts, kernels.PairDiffs(pts)):
        assert kernels.tilde_corr(points, rho, True).tobytes() == ref.tobytes()


def _rows(i):
    return i


def test_transpose_duality():
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.5, 1.2, 3)
    A = rng.normal(size=(2, 3))
    B = rng.normal(size=(4, 3))
    for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        left = kernels.corr_block(A, B, a, b, rho)
        right = kernels.corr_block(B, A, b, a, rho).T
        np.testing.assert_allclose(left, right, atol=1e-14)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        kernels.corr_block(np.zeros((2, 2)), np.zeros((2, 3)), 0, 0, np.ones(2))
    with pytest.raises(ShapeMismatch):
        kernels.corr_block(np.zeros((2, 2)), np.zeros((2, 2)), 0, 0, np.ones(3))


@pytest.mark.parametrize("with_gradients", [False, True])
@pytest.mark.parametrize("dim", [2, 4])
def test_tilde_rho_derivatives_match_central_differences(dim, with_gradients):
    """dC~/drho and d2C~/drho2 against differences of the level below."""
    rng = np.random.default_rng(30 + dim)
    rho = rng.uniform(0.4, 1.4, dim)
    pts = rng.normal(size=(4, dim))
    first = [(d,) for d in range(dim)]

    def rho_grad(r):
        return np.stack(list(kernels.tilde_corr_rho_derivs(pts, r, with_gradients,
                                                           first)))
    grad = rho_grad(rho)
    n_tilde = 4 * (1 + dim) if with_gradients else 4
    assert grad.shape == (dim, n_tilde, n_tilde)
    h = 1e-6
    for e in range(dim):
        rp, rm = rho.copy(), rho.copy()
        rp[e] += h
        rm[e] -= h
        fd = (kernels.tilde_corr(pts, rp, with_gradients)
              - kernels.tilde_corr(pts, rm, with_gradients)) / (2 * h)
        np.testing.assert_allclose(grad[e], fd, atol=1e-8)
        fd_grad = (rho_grad(rp) - rho_grad(rm)) / (2 * h)
        hess = kernels.tilde_corr_rho_derivs(pts, rho, with_gradients,
                                             [(d, e) for d in range(dim)])
        for d, hess_de in enumerate(hess):
            np.testing.assert_allclose(hess_de, fd_grad[d], atol=1e-7)
