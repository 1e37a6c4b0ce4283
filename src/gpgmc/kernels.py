"""Squared-exponential kernel and its derivative cross-correlation blocks.

The correlation between two points is ``exp(-(x-y)' diag(rho) (x-y))`` with a
positive inverse-squared-lengthscale vector ``rho``.  Regression additionally
uses the quadratic mean basis ``h(x) = [1, x', (x^2)']`` of size ``q = 1+2D``.

Derivative blocks follow a fixed coordinate-major stacking: for a set of ``m``
points, the first-derivative axis is flattened as ``row = k*m + i`` (coordinate
``k`` slow, point ``i`` fast) and the second-derivative axis as
``row = (k*D + l)*m + i``.  Blocks are named by the derivative order of each
operand, e.g. ``(2,1)`` correlates second derivatives at the first point set
with first derivatives at the second.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

__all__ = ["basis", "corr_block", "corr_block_rho_grad", "corr_block_rho_hess",
           "tilde_basis", "tilde_corr", "cross_corr"]


def basis(points: np.ndarray, order: int = 0) -> np.ndarray:
    """Quadratic regression basis and its point derivatives.

    Parameters
    ----------
    points : (m, D) array
    order : {0, 1, 2}
        0 returns ``h`` rows (m, q); 1 returns d/dx_k rows (m*D, q); 2 returns
        d^2/dx_k dx_l rows (m*D^2, q), both coordinate-major.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, dim = points.shape
    q = 1 + 2 * dim
    if order == 0:
        return np.hstack([np.ones((m, 1)), points, points**2])
    if order == 1:
        out = np.zeros((dim, m, q))
        for k in range(dim):
            out[k, :, 1 + k] = 1.0
            out[k, :, 1 + dim + k] = 2.0 * points[:, k]
        return out.reshape(dim * m, q)
    if order == 2:
        out = np.zeros((dim, dim, m, q))
        for k in range(dim):
            out[k, k, :, 1 + dim + k] = 2.0
        return out.reshape(dim * dim * m, q)
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


def _diff_and_corr(A, B, rho):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rho = np.asarray(rho, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatch(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    if rho.shape != (A.shape[1],):
        raise ShapeMismatch(f"rho has shape {rho.shape}, expected ({A.shape[1]},)")
    diff = A[:, None, :] - B[None, :, :]
    corr = np.exp(-np.einsum("ijk,k->ij", diff**2, rho))
    return diff, corr


def _block_rows(diff, corr, rho, orders, with_gradients):
    """Cross-correlation blocks of each evaluation order, from one pass.

    For each ``order_a`` in ``orders`` returns the (m D^order_a, n~) matrix
    ``[(order_a, 0) | (order_a, 1)]``, or the (order_a, 0) block alone
    without gradients.  Every block is a polynomial prefactor times ``corr``;
    with ``a = 2 rho * diff`` the prefactors are

    * (0,0): ``1``, and (0,1): ``a_p``;
    * (1,0): ``-a_k``, and (1,1): ``2 rho_k d_kp - a_k a_p``;
    * (2,0): ``a_k a_l - 2 rho_k d_kl``, the negative of (1,1);
    * (2,1): ``(a_k a_l - 2 rho_k d_kl) a_p - 2 rho_k d_kp a_l
      - 2 rho_l d_lp a_k``.

    With ``at = [1; a]`` the (o,0) and (o,1) prefactors stack along one
    axis, so each matrix is one product with ``corr`` and one reshape.
    """
    if not with_gradients and not any(orders):
        # plain values: no prefactor, and the hot path of MLE fits and MICE
        return [corr for _ in orders]
    m, n, dim = diff.shape
    a = 2.0 * rho[:, None, None] * diff.transpose(2, 0, 1)  # (p, i, j)
    at = np.concatenate([np.ones((1, m, n)), a]) if with_gradients \
        else np.ones((1, m, n))
    two_rho = np.diag(2.0 * rho)[:, :, None, None]  # 2 rho_k d_kp
    out = []
    for order in orders:
        if order == 0:
            pref = at
        elif order == 1:
            pref = -a[:, None] * at[None]  # (k, q, i, j)
            if with_gradients:
                pref[:, 1:] += two_rho
        elif order == 2:
            a2 = a[:, None] * a[None] - two_rho  # (k, l, i, j)
            pref = a2[:, :, None] * at[None, None]  # (k, l, q, i, j)
            if with_gradients:
                cross = two_rho[None] * a[:, None, None]  # 2 rho_l d_lp a_k
                pref[:, :, 1:] -= cross + cross.swapaxes(0, 1)
        else:
            raise ValueError(f"evaluation order must be 0, 1 or 2, got {order}")
        blk = pref * corr
        # (deriv..., q, i, j) -> (deriv..., i, q, j), flattened
        blk = blk.swapaxes(-3, -2)
        out.append(blk.reshape(dim**order * m, at.shape[0] * n))
    return out


def corr_block(A: np.ndarray, B: np.ndarray, order_a: int, order_b: int,
               rho: np.ndarray) -> np.ndarray:
    """Cross-correlation block between derivative observations.

    ``order_a`` in {0,1,2} is the derivative order at points ``A`` (m points),
    ``order_b`` in {0,1} the order at ``B`` (n points).  Output shapes are
    ``(m D^order_a, n D^order_b)`` with coordinate-major flattening.
    """
    if order_b not in (0, 1):
        raise ValueError(f"unsupported block orders ({order_a}, {order_b})")
    diff, corr = _diff_and_corr(A, B, rho)
    rows = _block_rows(diff, corr, np.asarray(rho, dtype=float), (order_a,),
                       with_gradients=order_b == 1)[0]
    return rows[:, diff.shape[1]:] if order_b == 1 else rows


def _prefactors(diff, rho, order_a, order_b):
    """Polynomial prefactor P (block = P*corr) and its rho derivatives.

    Returns (P, dP, ddP) with dP[d] = dP/drho_d and ddP[d,e] the second
    derivative.  Axes are (derivative axes..., i, j), the point axes always
    last.  Only orders in {0,1} are needed (design-side blocks).
    """
    m, n, dim = diff.shape
    eye = np.eye(dim)
    if (order_a, order_b) == (0, 0):
        P = np.ones((m, n))
        dP = np.zeros((dim, m, n))
        ddP = np.zeros((dim, dim, m, n))
    elif (order_a, order_b) == (1, 0):
        P = np.einsum("k,ijk->kij", -2.0 * rho, diff)
        dP = np.einsum("kd,ijk->dkij", -2.0 * eye, diff)
        ddP = np.zeros((dim, dim, dim, m, n))
    elif (order_a, order_b) == (0, 1):
        P = np.einsum("l,ijl->lij", 2.0 * rho, diff)
        dP = np.einsum("ld,ijl->dlij", 2.0 * eye, diff)
        ddP = np.zeros((dim, dim, dim, m, n))
    elif (order_a, order_b) == (1, 1):
        dd = np.einsum("ijk,ijl->klij", diff, diff)
        P = 2.0 * np.einsum("kl,ij->klij", np.diag(rho), np.ones((m, n)))
        P -= 4.0 * np.einsum("k,l,klij->klij", rho, rho, dd)
        dP = np.einsum("kd,kl,ij->dklij", 2.0 * eye, eye, np.ones((m, n)))
        dP = dP - 4.0 * np.einsum("kd,l,klij->dklij", eye, rho, dd) \
            - 4.0 * np.einsum("k,ld,klij->dklij", rho, eye, dd)
        ddP = -4.0 * (np.einsum("kd,le,klij->deklij", eye, eye, dd)
                      + np.einsum("ke,ld,klij->deklij", eye, eye, dd))
    else:
        raise ValueError(f"rho derivatives unsupported for orders ({order_a}, {order_b})")
    return P, dP, ddP


def _reorder(arr, order_a, order_b, m, n, dim):
    """Flatten a prefactor-shaped block (deriv axes..., i, j) to matrix layout."""
    if (order_a, order_b) == (0, 0):
        return arr
    if (order_a, order_b) == (1, 0):
        return arr.reshape(dim * m, n)
    if (order_a, order_b) == (0, 1):
        # (l, i, j) -> (i, l, j)
        return arr.transpose(1, 0, 2).reshape(m, dim * n)
    # (1, 1): (k, l, i, j) -> (k, i, l, j)
    return arr.transpose(0, 2, 1, 3).reshape(dim * m, dim * n)


def corr_block_rho_grad(A, B, order_a, order_b, rho):
    """d(block)/d rho_d for all d, stacked as (D, rows, cols)."""
    diff, corr = _diff_and_corr(A, B, rho)
    m, n, dim = diff.shape
    rho = np.asarray(rho, dtype=float)
    P, dP, _ = _prefactors(diff, rho, order_a, order_b)
    sq = diff**2  # (m, n, D)
    out = []
    for d in range(dim):
        term = dP[d] - P * sq[:, :, d]
        out.append(_reorder(term * corr, order_a, order_b, m, n, dim))
    return np.stack(out)


def corr_block_rho_hess(A, B, order_a, order_b, rho, d, e):
    """d^2(block)/d rho_d d rho_e as a single matrix."""
    diff, corr = _diff_and_corr(A, B, rho)
    m, n, dim = diff.shape
    rho = np.asarray(rho, dtype=float)
    P, dP, ddP = _prefactors(diff, rho, order_a, order_b)
    sq = diff**2
    term = ddP[d, e] - dP[d] * sq[:, :, e] - dP[e] * sq[:, :, d] \
        + P * sq[:, :, d] * sq[:, :, e]
    return _reorder(term * corr, order_a, order_b, m, n, dim)


def tilde_basis(points: np.ndarray, with_gradients: bool) -> np.ndarray:
    """Stacked basis [H; dH] for a design, or plain H without gradients."""
    H = basis(points, 0)
    if not with_gradients:
        return H
    return np.vstack([H, basis(points, 1)])


def tilde_corr(points: np.ndarray, rho: np.ndarray, with_gradients: bool,
               rho_grad: bool = False):
    """Design auto-correlation matrix, optionally with its rho gradient.

    Returns ``C`` of size (n~, n~) where n~ = n or n(1+D); with ``rho_grad``
    also returns the stacked derivatives (D, n~, n~).
    """
    diff, corr = _diff_and_corr(points, points, rho)
    if not with_gradients:
        if rho_grad:
            return corr, corr_block_rho_grad(points, points, 0, 0, rho)
        return corr
    C = np.vstack(_block_rows(diff, corr, np.asarray(rho, dtype=float), (0, 1), True))
    if not rho_grad:
        return C
    d00 = corr_block_rho_grad(points, points, 0, 0, rho)
    d01 = corr_block_rho_grad(points, points, 0, 1, rho)
    d10 = corr_block_rho_grad(points, points, 1, 0, rho)
    d11 = corr_block_rho_grad(points, points, 1, 1, rho)
    dim = points.shape[1]
    dC = np.stack([np.block([[d00[d], d01[d]], [d10[d], d11[d]]])
                   for d in range(dim)])
    return C, dC


def tilde_corr_rho_hess(points, rho, with_gradients, d, e):
    """d^2 C~ / d rho_d d rho_e."""
    h00 = corr_block_rho_hess(points, points, 0, 0, rho, d, e)
    if not with_gradients:
        return h00
    h01 = corr_block_rho_hess(points, points, 0, 1, rho, d, e)
    h10 = corr_block_rho_hess(points, points, 1, 0, rho, d, e)
    h11 = corr_block_rho_hess(points, points, 1, 1, rho, d, e)
    return np.block([[h00, h01], [h10, h11]])


def cross_corr(eval_points: np.ndarray, order, design_points: np.ndarray,
               rho: np.ndarray, with_gradients: bool):
    """Cross-correlation of order-``order`` evaluations against a design.

    Output is (m D^order, n~): the order-0 design block, extended with the
    order-1 design block when the design carries gradients.  ``order`` may
    also be a tuple of orders; the matrices of every order are then built
    from one pass over the design and returned as a tuple.
    """
    single = np.ndim(order) == 0
    diff, corr = _diff_and_corr(eval_points, design_points, rho)
    out = _block_rows(diff, corr, np.asarray(rho, dtype=float),
                      (order,) if single else order, with_gradients)
    return out[0] if single else tuple(out)
