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

Each block is a polynomial prefactor times the correlation.  The blocks of
evaluation points against a design come from :class:`CrossDiffs`, which
takes the differences and correlations once and builds the rows of every
evaluation order from them (:meth:`CrossDiffs.rows`).  Posterior means need
no block: :func:`cross_corr_dot` contracts the prefactors with the weights
directly.  Inputs are checked at the public entry points (:func:`cross_corr`,
:func:`cross_corr_dot`, :func:`corr_block` and the :class:`CrossDiffs`
constructor) and nowhere below them, so an emulator, whose design and rho
were checked when it was built, makes its passes without the checks
(:meth:`CrossDiffs.unchecked`) and contracts with weights split once.

The maximum-likelihood fit differentiates a design's auto-correlation
``C~`` (:func:`tilde_corr`) in rho; :func:`tilde_corr_rho_derivs` gives its
first and second rho-derivatives from one pass over the design.  With
``delta = x - y``, ``dk/drho_d = -delta_d^2 k``, and d/drho commutes with
the point derivatives, so each rho-derivative is a block of ``g k`` for a
polynomial ``g(delta)``: ``g = -delta_d^2`` for the gradient and
``g = delta_d^2 delta_e^2`` for the Hessian.  A value-only design needs
``g k`` alone.  With gradients, the product rule (x-derivatives are
d/d delta, y-derivatives -d/d delta) gives the blocks of ``g k`` from those
of ``k``::

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
           "tilde_corr", "tilde_corr_rho_derivs", "cross_corr", "cross_corr_dot"]


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


def _pairs_and_corr(points, rho):
    """A design's PairDiffs (given, or built from its points) and correlation."""
    pairs = points if isinstance(points, PairDiffs) else PairDiffs(points)
    rho = _checked_rho(rho, pairs.points.shape[1])
    return pairs, rho, _corr(pairs.sq, rho)


def _prefactor_table(diff, rho):
    """Polynomial prefactors ``(T0, T1)`` of a gradient design's own blocks.

    ``T0`` has axes (q, i, j) and ``T1`` axes (k, q, i, j): ``k`` is the
    derivative axis of the order-1 rows, ``q`` runs over the blocks
    ``[(o,0); (o,1)_p]`` and ``i, j`` over the points.  With
    ``a = 2 rho * diff`` the prefactors are

    * (0,0): ``1``, and (0,1): ``a_p``;
    * (1,0): ``-a_k``, and (1,1): ``2 rho_k d_kp - a_k a_p``.

    :func:`tilde_corr` and the rho-derivatives of
    :func:`tilde_corr_rho_derivs` are built on them; evaluation points take
    their blocks from :meth:`CrossDiffs.rows`.
    """
    m, n, dim = diff.shape
    a = 2.0 * rho[:, None, None] * diff.transpose(2, 0, 1)  # (p, i, j)
    T0 = np.concatenate([np.ones((1, m, n)), a])
    T1 = -a[:, None] * T0[None]
    T1[:, 1:] += np.diag(2.0 * rho)[:, :, None, None]
    return T0, T1


class CrossDiffs:
    """Differences ``diff[i, j] = x_i - y_j`` of evaluation points against a
    design, with their correlations ``corr`` at one rho.

    Every cross block (:meth:`rows`) and kernel contraction
    (:func:`_corr_dot` on ``diff`` and ``corr``) of the points is built from
    one instance, so a query that needs several pays for one pass over the
    design.  The constructor checks its inputs; :meth:`unchecked` skips that
    for inputs checked once already.
    """

    def __init__(self, eval_points, design_points, rho):
        self._pass(*_checked(eval_points, design_points, rho))

    @classmethod
    def unchecked(cls, eval_points, design_points, rho):
        """An instance from float arrays already checked: (m, D) points,
        (n, D) design points and a (D,) rho, as an emulator holds them."""
        cross = cls.__new__(cls)
        cross._pass(eval_points, design_points, rho)
        return cross

    def _pass(self, A, B, rho):
        self.rho = rho
        self.diff, self.corr = _diff_and_corr(A, B, rho)

    def rows(self, orders, with_gradients):
        """Cross-correlation rows of each evaluation order in ``orders``.

        For each order ``o`` returns the (m D^o, n~) matrix
        ``[(o,0) | (o,1)]``, or the (o,0) block alone without gradients.
        With ``a = 2 rho * diff`` and the design-side columns
        ``b = [k; a_p k]`` (just ``k`` without gradients) the rows are

        * order 0: ``b``;
        * order 1: ``-a_k b``, plus ``2 rho_k k`` in block ``p = k``;
        * order 2: ``(a_k a_l - 2 rho_k d_kl) b``, minus ``2 rho_k a_l k`` in
          block ``p = k`` and ``2 rho_l a_k k`` in block ``p = l``.
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
                    # (k, p, i, j)
                    rest = np.multiply(a[:, None], first[None], out=np.empty(sq))
                    rest.reshape(dim * dim, m, n)[::dim + 1] += \
                        two_rho[:, None, None] * corr
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


def cross_corr_dot(eval_points: np.ndarray, order: int,
                   design_points: np.ndarray, rho: np.ndarray,
                   with_gradients: bool, w: np.ndarray) -> np.ndarray:
    """``cross_corr(eval_points, order, design_points, rho, with_gradients) @ w``
    without forming the block.

    The result is in natural shape: (m,), (m, D) or (m, D, D) by order,
    i.e. the coordinate-major vector ``cross_corr(...) @ w`` with its points
    axis moved first.  With ``a_j = 2 rho * (x - x_j)``, ``k_j`` the
    correlation, ``w`` split as ``w0 = w[:n]`` and
    ``W1[j] = w[n:].reshape(D, n)[:, j]`` (``W1 = 0`` without gradients),
    ``V_j = 2 rho * W1[j]`` and ``s_j = w0_j + a_j . W1[j]``, the rows of
    :meth:`CrossDiffs.rows` summed against ``w`` give

    * order 0: ``sum_j k_j s_j``;
    * order 1: ``sum_j k_j (V_j - a_j s_j)``;
    * order 2: ``sum_j k_j ((a_j a_j' - diag(2 rho)) s_j - V_j a_j'
      - a_j V_j')``.

    Cost is O(m n D), or O(m n D^2) at order 2, against the block's
    O(m n~ D^order).
    """
    A, B, rho = _checked(eval_points, design_points, rho)
    return _corr_dot(*_diff_and_corr(A, B, rho), order,
                     *_dot_operands(w, B.shape[0], rho, with_gradients))


def _dot_operands(w, n, rho, with_gradients):
    """What the contraction with the weights ``w`` of an n-point design
    multiplies by: ``(2 rho, w0, V)`` in the notation of
    :func:`cross_corr_dot`, with ``w0 = w`` and ``V = None`` without
    gradients.  An emulator builds them once for its weights."""
    two_rho = 2.0 * rho
    if not with_gradients:
        return two_rho, w, None
    return two_rho, w[:n], w[n:].reshape(rho.size, n).T * two_rho


def _corr_dot(diff, corr, order, two_rho, w0, V):
    """:func:`cross_corr_dot` on the differences and correlations of a pass
    and the :func:`_dot_operands` of the weights.

    A pass of a single point, without the point axis, gives a result without
    it; the contractions are the same, point by point.
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


def _flatten(blk):
    """(deriv..., q, i, j) -> (deriv..., i, q, j), as a (rows, q n) matrix."""
    q, _, n = blk.shape[-3:]
    return blk.swapaxes(-3, -2).reshape(-1, q * n)


def corr_block(A: np.ndarray, B: np.ndarray, order_a: int, order_b: int,
               rho: np.ndarray) -> np.ndarray:
    """Cross-correlation block between derivative observations.

    ``order_a`` in {0,1,2} is the derivative order at points ``A`` (m points),
    ``order_b`` in {0,1} the order at ``B`` (n points).  Output shapes are
    ``(m D^order_a, n D^order_b)`` with coordinate-major flattening.
    """
    if order_b not in (0, 1):
        raise ValueError(f"unsupported block orders ({order_a}, {order_b})")
    cross = CrossDiffs(A, B, rho)
    rows = cross.rows((order_a,), with_gradients=order_b == 1)[0]
    return rows[:, cross.diff.shape[1]:] if order_b == 1 else rows


def _rho_poly(diff, coords):
    """g = prod over ``coords`` of ``-diff_c^2``, with its diff-derivatives.

    Returns ``(g, g1, g2)`` with ``g1[k] = dg/d diff_k`` and ``g2[k, l]`` the
    second derivatives; ``g k`` is the rho-derivative of ``k`` over ``coords``.
    """
    m, n, dim = diff.shape
    g, g1, g2 = np.ones((m, n)), np.zeros((dim, m, n)), np.zeros((dim, dim, m, n))
    for c in coords:  # product rule for one more factor f = -diff_c^2
        f, df = -diff[:, :, c]**2, -2.0 * diff[:, :, c]
        g2 *= f
        g2[c] += g1 * df
        g2[:, c] += g1 * df
        g2[c, c] -= 2.0 * g
        g1 *= f
        g1[c] += g * df
        g = g * f
    return g, g1, g2


def tilde_basis(points: np.ndarray, with_gradients: bool) -> np.ndarray:
    """Stacked basis [H; dH] for a design, or plain H without gradients."""
    H = basis(points, 0)
    if not with_gradients:
        return H
    return np.vstack([H, basis(points, 1)])


def tilde_corr(points, rho: np.ndarray, with_gradients: bool):
    """Design auto-correlation matrix ``C`` of size (n~, n~), n~ = n or n(1+D).

    ``points`` is the (n, D) design or its :class:`PairDiffs`.
    """
    pairs, rho, corr = _pairs_and_corr(points, rho)
    if not with_gradients:
        return corr
    return np.vstack([_flatten(pref * corr)
                      for pref in _prefactor_table(pairs.diff, rho)])


def tilde_corr_rho_derivs(points, rho, with_gradients, coords):
    """Rho-derivatives of C~, one (n~, n~) matrix per tuple in ``coords``:
    dC~/drho_d for ``(d,)``, d^2 C~/drho_d drho_e for ``(d, e)``.

    ``points`` is as for :func:`tilde_corr`.  All come from one correlation
    pass and, with gradients, one prefactor table, and are yielded in turn.
    Without gradients each is ``g k``; with them, the product rule of the
    module docstring builds its blocks, where K00 = 1, K01_l = a_l and
    K10_k = -a_k.
    """
    pairs, rho, corr = _pairs_and_corr(points, rho)
    if with_gradients:
        T0, T1 = _prefactor_table(pairs.diff, rho)
        a = T0[1:]
    for cs in coords:
        if not with_gradients:
            yield reduce(np.multiply, (-pairs.sq[:, :, c] for c in cs)) * corr
            continue
        g, g1, g2 = _rho_poly(pairs.diff, cs)
        G0 = g * T0
        G1 = g * T1
        G1[:, 0] += g1
        G0[1:] -= g1  # the (., 1) blocks
        G1[:, 1:] += g1[:, None] * a[None] + a[:, None] * g1[None] - g2
        yield np.vstack([_flatten(G0 * corr), _flatten(G1 * corr)])


def cross_corr(eval_points: np.ndarray, order, design_points: np.ndarray,
               rho: np.ndarray, with_gradients: bool):
    """Cross-correlation of order-``order`` evaluations against a design.

    Output is (m D^order, n~): the order-0 design block, extended with the
    order-1 design block when the design carries gradients.  ``order`` may
    also be a tuple of orders; the matrices of every order are then built
    from one pass over the design and returned as a tuple.
    """
    single = np.ndim(order) == 0
    out = CrossDiffs(eval_points, design_points, rho).rows(
        (order,) if single else order, with_gradients)
    return out[0] if single else tuple(out)
