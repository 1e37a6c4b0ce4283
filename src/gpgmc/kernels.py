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

Each block is a polynomial prefactor times the correlation, and one
builder writes them all: :meth:`CrossDiffs.rows`, from a pass (the
differences of points against a design and their correlations at one rho).
A query's pass is taken against the design points, a design's own from its
cached differences (:meth:`PairDiffs.at`); the design's auto-correlation
``C~`` (:func:`tilde_corr`) is its own order-0 and order-1 rows.  Posterior
means need no block: :func:`_corr_dot` contracts a pass with the weights.
Inputs are checked at :func:`cross_corr`, :func:`corr_block` and
:meth:`PairDiffs.at`, and nowhere below them.

The maximum-likelihood fit differentiates ``C~`` in rho;
:func:`tilde_corr_rho_derivs` gives its first and second rho-derivatives
from one pass over the design.  With ``delta = x - y``,
``dk/drho_d = -delta_d^2 k``, and d/drho commutes with the point
derivatives, so each rho-derivative is a block of ``g k`` for a polynomial
``g(delta)``: ``g = -delta_d^2`` for the gradient and
``g = delta_d^2 delta_e^2`` for the Hessian.  A value-only design needs
``g k`` alone.  With gradients, the product rule (x-derivatives are
d/d delta, y-derivatives -d/d delta) gives the blocks of ``g k`` from those
of ``k`` in ``C~``::

    G00    = g K00
    G10_k  = g K10_k  + g_k K00
    G01_l  = g K01_l  - g_l K00
    G11_kl = g K11_kl + g_k K01_l - g_l K10_k - g_kl K00
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ShapeMismatch

__all__ = ["basis", "corr_block", "PairDiffs", "CrossDiffs", "tilde_basis",
           "tilde_corr", "tilde_corr_rho_derivs", "cross_corr"]


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


class PairDiffs:
    """Pairwise differences ``diff[i, j] = x_i - x_j`` of one point set, and
    their squares ``sq``.

    Neither depends on rho, so one instance serves every correlation matrix
    of the set and its rho-derivatives: the ``tilde_*`` functions take one in
    place of the points.
    """

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.diff = self.points[:, None, :] - self.points[None, :, :]
        self.sq = self.diff**2

    def at(self, rho) -> CrossDiffs:
        """The set's own pass at ``rho`` (checked here), from the cached
        differences."""
        rho = _checked_rho(rho, self.points.shape[1])
        return CrossDiffs(self.diff, _corr(self.sq, rho), rho)


def _checked_rho(rho, dim):
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (dim,):
        raise ShapeMismatch(f"rho has shape {rho.shape}, expected ({dim},)")
    return rho


def _checked(A, B, rho):
    """Evaluation points, design points and rho as float arrays of one
    dimension; the public entry points check their inputs here, once."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatch(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return A, B, _checked_rho(rho, A.shape[1])


def _corr(sq, rho):
    return np.exp(-np.einsum("...k,k->...", sq, rho))


def _diff_and_corr(A, B, rho):
    """Differences of the points ``A`` against the design ``B``, and their
    correlations: the one pass over the design that a query makes.

    The inputs are taken as checked (:func:`_checked`).  ``A`` is (m, D), or
    a single (D,) point, whose results then have no point axis.
    """
    diff = A[..., None, :] - B
    return diff, _corr(diff**2, rho)


class CrossDiffs:
    """A pass: differences ``diff[i, j] = x_i - y_j`` of (m, D) evaluation
    points against an n-point design, and their correlations ``corr`` at one
    (D,) ``rho``, as :func:`_diff_and_corr` or :meth:`PairDiffs.at` makes
    them.

    Every block of the points (:meth:`rows`) and kernel contraction
    (:func:`_corr_dot` on ``diff`` and ``corr``) is built from one instance,
    so a query that needs several pays for one pass over the design.
    """

    def __init__(self, diff, corr, rho):
        self.diff, self.corr, self.rho = diff, corr, rho

    def rows(self, orders, with_gradients):
        """Cross-correlation rows of each evaluation order in ``orders``.

        For each order ``o`` returns the (m D^o, n~) matrix
        ``[(o,0) | (o,1)]``, or the (o,0) block alone without gradients.
        With ``a = 2 rho * diff`` and the design-side columns
        ``b = [k; a_p k]`` (just ``k`` without gradients) the rows are

        * order 0: ``b``;
        * order 1: ``-a_k k``, and in block ``p`` the prefactor
          ``(-a_k a_p) + 2 rho_k d_kp`` times ``k``;
        * order 2: ``(a_k a_l - 2 rho_k d_kl) b``, minus ``2 rho_k a_l k`` in
          block ``p = k`` and ``2 rho_l a_k k`` in block ``p = l``.

        The order-1 prefactors are formed before they multiply ``k``, so a
        design's own rows are bitwise the ``C~`` every emulator factorizes.
        """
        diff, corr = self.diff, self.corr
        if not with_gradients and not any(orders):
            # plain values: no prefactor, and the hot path of MLE fits and MICE
            return [corr for _ in orders]
        m, n, dim = diff.shape
        two_rho = 2.0 * self.rho
        a = (diff * two_rho).transpose(2, 0, 1)  # (p, i, j)
        ak = a * corr  # a_p k, the (0,1)_p prefactor times k
        # products whose diagonal is then updated are written to C-ordered
        # arrays, so that the diagonal over two adjacent axes is a strided
        # view of a reshape
        sq = (dim, dim, m, n)
        out = []
        for order in orders:
            # ``first`` is the (order, 0) block; ``rest``, with gradients, the
            # (order, 1)_p blocks with p next to the derivative axis k, where
            # the terms in d_kp and d_lp are diagonal views
            if order == 0:
                first, rest = corr, ak.transpose(1, 0, 2)  # rest: (i, p, j)
            elif order == 1:
                first = -ak
                if with_gradients:
                    # (k, p, i, j): 2 rho_k d_kp - a_k a_p, which is
                    # (-a_k a_p) + 2 rho_k d_kp bit for bit, signed zeros too
                    rest = np.multiply(a[:, None], a[None], out=np.empty(sq))
                    np.subtract(np.diag(two_rho)[:, :, None, None], rest, out=rest)
                    rest *= corr
                    rest = rest.transpose(0, 2, 1, 3)
            elif order == 2:
                a2 = np.multiply(a[:, None], a[None], out=np.empty(sq))  # (k, l, i, j)
                a2.reshape(dim * dim, m, n)[::dim + 1] -= two_rho[:, None, None]
                first = a2 * corr
                if with_gradients:
                    rest = np.multiply(a2[:, None], ak[None, :, None],
                                       out=np.empty((dim,) + sq))  # (k, p, l, i, j)
                    t = two_rho[:, None, None, None] * ak  # t[k, l] = 2 rho_k a_l k
                    rest.reshape(dim * dim, dim, m, n)[::dim + 1] -= t  # p = k
                    rest.reshape(dim, dim * dim, m, n)[:, ::dim + 1] -= t.swapaxes(0, 1)
                    rest = rest.transpose(0, 2, 3, 1, 4)
            else:
                raise ValueError(f"evaluation order must be 0, 1 or 2, got {order}")
            if with_gradients:
                rows = np.empty(first.shape[:-1] + (1 + dim, n))
                rows[..., 0, :] = first
                rows[..., 1:, :] = rest
                first = rows
            out.append(first.reshape(-1, (1 + dim if with_gradients else 1) * n))
        return out


def _dot_operands(w, n, rho, with_gradients):
    """What the contraction with the weights ``w`` of an n-point design
    multiplies by: ``(2 rho, w0, V)`` in the notation of :func:`_corr_dot`,
    with ``w0 = w`` and ``V = None`` without gradients.  An emulator builds
    them once for its weights."""
    two_rho = 2.0 * rho
    if not with_gradients:
        return two_rho, w, None
    return two_rho, w[:n], w[n:].reshape(rho.size, n).T * two_rho


def _corr_dot(diff, corr, order, two_rho, w0, V):
    """The order-``order`` rows of :meth:`CrossDiffs.rows` times the weights
    ``w``, from the pass's differences and correlations and the
    :func:`_dot_operands` of ``w``, without forming the rows.

    The result is in natural shape: (m,), (m, D) or (m, D, D) by order,
    i.e. the coordinate-major vector ``rows @ w`` with its points axis moved
    first.  A pass of a single point, without the point axis, gives a result
    without it; the contractions are the same, point by point.  With
    ``a_j = 2 rho * (x - x_j)``, ``k_j`` the correlation, ``w`` split as
    ``w0 = w[:n]`` and ``W1[j] = w[n:].reshape(D, n)[:, j]`` (``W1 = 0``
    without gradients), ``V_j = 2 rho * W1[j]`` and
    ``s_j = w0_j + a_j . W1[j]``, the rows summed against ``w`` give

    * order 0: ``sum_j k_j s_j``;
    * order 1: ``sum_j k_j (V_j - a_j s_j)``;
    * order 2: ``sum_j k_j ((a_j a_j' - diag(2 rho)) s_j - V_j a_j'
      - a_j V_j')``.

    Cost is O(m n D), or O(m n D^2) at order 2, against the rows'
    O(m n~ D^order).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"evaluation order must be 0, 1 or 2, got {order}")
    if order == 0 and V is None:
        return corr @ w0  # plain values, as for the block itself
    if V is not None:  # a_j . W1[j] = diff_j . V_j
        ks = corr * (w0 + np.einsum("...jp,jp->...j", diff, V))
    else:
        ks = corr * w0
    if order == 0:
        return ks.sum(axis=-1)
    if order == 1:  # sum_j k_j s_j a_j = 2 rho * sum_j k_j s_j diff_j
        ksa = np.einsum("...j,...jp->...p", ks, diff) * two_rho
        return -ksa if V is None else corr @ V - ksa
    d = np.arange(two_rho.size)
    a = diff * two_rho
    out = np.einsum("...j,...jk,...jl->...kl", ks, a, a)
    out[..., d, d] -= ks.sum(axis=-1)[..., None] * two_rho
    if V is not None:
        Va = np.einsum("...j,jk,...jl->...kl", corr, V, a)
        out -= Va + Va.swapaxes(-1, -2)
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
    rows = cross_corr(A, order_a, B, rho, with_gradients=order_b == 1)
    return rows[:, np.atleast_2d(B).shape[0]:] if order_b == 1 else rows


def _rho_poly(diff, coords):
    """g = prod over ``coords`` of ``-diff_c^2``, whose ``g k`` is the
    rho-derivative of ``k`` over ``coords``, with its diff-derivatives
    ``g1[k]`` and ``g2[k, l]`` in dicts that hold the non-zero ones alone."""
    g, g1, g2 = 1.0, {}, {}
    for c in coords:  # product rule for one more factor f = -diff_c^2
        f, df = -diff[:, :, c]**2, -2.0 * diff[:, :, c]
        g2 = {kl: v * f for kl, v in g2.items()}
        for k, v in g1.items():
            for kl in ((c, k), (k, c)):
                g2[kl] = g2.get(kl, 0.0) + v * df
        g2[c, c] = g2.get((c, c), 0.0) - 2.0 * g
        g1 = {k: v * f for k, v in g1.items()}
        g1[c] = g1.get(c, 0.0) + g * df
        g = g * f
    return g, g1, g2


def tilde_basis(points: np.ndarray, with_gradients: bool) -> np.ndarray:
    """Stacked basis [H; dH] for a design, or plain H without gradients."""
    H = basis(points, 0)
    if not with_gradients:
        return H
    return np.vstack([H, basis(points, 1)])


def _pairs(points):
    """``points``' :class:`PairDiffs`: given, or built from the (n, D) design."""
    return points if isinstance(points, PairDiffs) else PairDiffs(points)


def tilde_corr(points, rho: np.ndarray, with_gradients: bool):
    """Design auto-correlation matrix ``C`` of size (n~, n~), n~ = n or n(1+D).

    ``points`` is the (n, D) design or its :class:`PairDiffs`.  With
    gradients it is the design's own order-0 and order-1 rows stacked.
    """
    own = _pairs(points).at(rho)
    if not with_gradients:
        return own.corr
    return np.vstack(own.rows((0, 1), True))


def tilde_corr_rho_derivs(points, rho, with_gradients, coords):
    """Rho-derivatives of C~, one (n~, n~) matrix per tuple in ``coords``:
    dC~/drho_d for ``(d,)``, d^2 C~/drho_d drho_e for ``(d, e)``.

    ``points`` is as for :func:`tilde_corr`.  All come from one pass and,
    with gradients, one C~, and are yielded in turn.  Without gradients each
    is ``g k``; with them, the product rule of the module docstring builds
    its blocks from those of C~, where K00 = k, K01_l = a_l k and
    K10_k = -a_k k.
    """
    pairs = _pairs(points)
    own = pairs.at(rho)
    if with_gradients:
        n, dim = own.diff.shape[1:]
        # C~ as (r, i, s, j): row block r and column block s are 0 for values
        # and 1 + k for the derivative in coordinate k
        K = np.vstack(own.rows((0, 1), True)).reshape(1 + dim, n, 1 + dim, n)
        K00, K01, K10 = K[0, :, 0], K[0, :, 1:], K[1:, :, 0]
    for cs in coords:
        if not with_gradients:  # from the cached squares, the hot path of fits
            yield reduce(np.multiply, (-pairs.sq[:, :, c] for c in cs)) * own.corr
            continue
        g, g1, g2 = _rho_poly(own.diff, cs)
        G = g[:, None] * K
        for k, gk in g1.items():
            G[1 + k, :, 0] += gk * K00
            G[0, :, 1 + k] -= gk * K00
            G[1 + k, :, 1:] += gk[:, None] * K01
            G[1:, :, 1 + k] -= gk * K10
        for (k, l), gkl in g2.items():
            G[1 + k, :, 1 + l] -= gkl * K00
        yield G.reshape(n * (1 + dim), -1)


def cross_corr(eval_points: np.ndarray, order: int, design_points: np.ndarray,
               rho: np.ndarray, with_gradients: bool):
    """Cross-correlation of order-``order`` evaluations against a design.

    Output is (m D^order, n~): the order-0 design block, extended with the
    order-1 design block when the design carries gradients.
    """
    A, B, rho = _checked(eval_points, design_points, rho)
    return CrossDiffs(*_diff_and_corr(A, B, rho), rho).rows(
        (order,), with_gradients)[0]
