"""Derivative-aware Gaussian-process emulator of a potential surface.

Conditions on a design of points with potential values, optional gradients and
optional per-datum data.  The per-datum data enter only the empirical Fisher
matrices and connections, and only through the (n~, n~) centred Gram
``U J_N U'`` of the stacked per-datum matrix U, so a design carries that Gram
(:func:`per_datum_gram`) and never the (n~, N) rows: its size and every query's
cost are free of the data size N.  Every prediction (value,
gradient, Hessian, empirical Fisher matrix, metric-derivative tensor) is a
linear map of the stacked design data, so the heavy factorizations are done
once per design.  A build makes one correlation pass for ``C~``, one LAPACK
factorization and inverse of it (:func:`linalg.cholesky_inverse`), with no
solve against the identity, and a q x q factorization of
``B = H' C~^-1 H``: O(n~^3) in all.  The likelihood fit builds one emulator
per evaluation (:mod:`gpgmc.mle`), so this is the cost of each.
``sigma2_hat`` is the sum of squares of the whitened residual
``L^-1 (u - H beta_hat)``, which keeps its accuracy near the nugget floor,
where ``u'Qu`` cancels.  Posterior means need no map at all: they read the
weights ``beta_hat = P u`` and ``w = Q u`` stored at build time, and the
kernel term is a direct contraction of the kernel-derivative polynomials with ``w``
(:func:`kernels._corr_dot`), costing O(m n D) for m points of an
n-point design, or O(m n D^2) for Hessians, with no cross-correlation block.
Cross blocks are built only for covariances, for the order-1 map behind the
Fisher matrices and for the connections, which multiply the order-2 block
into ``Q gfi A1'`` and never form the order-2 map.

Each query takes the differences and correlations of its points against the
design once (:class:`kernels.CrossDiffs`); the cross rows and the gradient
contraction of the query all come from that pass, as the design's own
correlation ``C~`` comes from its own pass (:func:`kernels.tilde_corr`).
What the passes and contractions multiply by is built once per emulator:
``2 rho``, the weights split as the contraction reads them, and the basis
slices of ``beta_hat`` and ``P``.  The design and rho are checked when the emulator is built, so a
query checks only its points' dimension.  A one-point gradient query, the
HMC integrator's, runs the same contraction without the point axis.  At one
point of an n-point gradient design (n~ = n (1 + D)) the metric query
(:meth:`Emulator.predict_efi`) costs O(D n~^2) and the full point
(:meth:`Emulator.predict_metric_bundle`: metric, connection and gradient)
O(D n~^2 + D^3 n~), both dominated by the products with Q and the Gram; at the
sizes the samplers use (n~ ~ 100, D ~ 4) the fixed cost of each numpy call
matters as much, so a query makes as few of them as it can.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.lapack import dtrtrs

from . import kernels
from .errors import (DesignFileError, IllConditioned, MissingPerDatum,
                     ShapeMismatch, TooFewPoints)
from .linalg import cholesky_inverse

__all__ = ["Hyperparameters", "DesignSet", "Prediction", "Emulator",
           "per_datum_gram", "build_emulator", "save_design", "load_design"]

NUGGET_DEFAULT = 1e-8
NUGGET_MAX = 1e-4
VARIANCE_CLAMP = -1e-10


@dataclass
class Hyperparameters:
    """Kernel inverse-squared lengthscales and diagonal jitter."""

    rho: np.ndarray
    nugget: float = NUGGET_DEFAULT

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if not np.all((self.rho > 0) & np.isfinite(self.rho)):
            raise ValueError("rho must be positive and finite componentwise")
        if self.nugget < 0:
            raise ValueError("nugget must be non-negative")


def per_datum_gram(rows: np.ndarray) -> np.ndarray:
    """Centred Gram ``U J_N U'`` (J_N = I - 11'/N) of per-datum rows.

    ``rows`` is the stacked (n~, N) float64 matrix U in ``data_vector`` row
    order: potential rows, then one block of gradient rows per coordinate.
    It is centred in place, so the caller hands over rows it no longer needs.
    """
    rows -= rows.mean(axis=1, keepdims=True)
    gfi = rows @ rows.T
    return 0.5 * (gfi + gfi.T)


@dataclass
class DesignSet:
    """Evaluated configurations the emulator conditions on.

    ``gradients`` holds per-point potential gradients (n, D).  ``gfi`` holds
    the (n~, n~) centred Gram of the design's per-datum potentials (and, with
    gradients, their per-datum gradients) from :func:`per_datum_gram`; the
    empirical Fisher matrices need it, and nothing reads the per-datum rows
    themselves.  A design is not modified after construction: it caches the
    pairwise differences of its points.
    """

    points: np.ndarray
    potentials: np.ndarray
    gradients: np.ndarray | None = None
    gfi: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.potentials = np.asarray(self.potentials, dtype=float)
        n, dim = self.points.shape
        if not np.all(np.isfinite(self.points)):
            raise ValueError("design points must be finite")
        if self.potentials.shape != (n,):
            raise ShapeMismatch(f"potentials shape {self.potentials.shape}, expected ({n},)")
        if self.gradients is not None:
            self.gradients = np.asarray(self.gradients, dtype=float)
            if self.gradients.shape != (n, dim):
                raise ShapeMismatch("gradients must be (n, D)")
        if self.gfi is not None:
            self.gfi = np.asarray(self.gfi, dtype=float)
            if self.gfi.shape != (self.n_tilde,) * 2:
                raise ShapeMismatch("gfi must be (n~, n~)")
        if n > 1:
            d2 = np.sum(self.pair_diffs.sq, axis=-1)
            np.fill_diagonal(d2, np.inf)
            if d2.min() <= 0.0:
                raise ValueError("design points must be pairwise distinct")

    @cached_property
    def pair_diffs(self) -> kernels.PairDiffs:
        """Pairwise differences of the points: every correlation matrix of
        the design, at any rho, and its rho-derivatives are built from them."""
        return kernels.PairDiffs(self.points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def has_gradients(self) -> bool:
        return self.gradients is not None

    @property
    def n_tilde(self) -> int:
        return self.n * (1 + self.dim) if self.has_gradients else self.n

    def data_vector(self) -> np.ndarray:
        """Stacked observation vector [u; grad rows], coordinate-major."""
        if not self.has_gradients:
            return self.potentials.copy()
        return np.concatenate([self.potentials, self.gradients.T.reshape(-1)])


@dataclass
class Prediction:
    """Posterior-mean prediction, ``mean`` in natural shape ((m,), (m, D) or
    (m, D, D) by order); :meth:`Emulator.predictive_variance` serves the
    variances."""

    mean: np.ndarray


class Emulator:
    """Factorized GP conditioned on a design set.

    Immutable after construction; predictions are read-only.  Adaptation
    builds a fresh instance and swaps it in between transitions.
    """

    def __init__(self, design: DesignSet, hyper: Hyperparameters):
        self.design = design
        self.hyper = hyper
        n_tilde = design.n_tilde
        q = 1 + 2 * design.dim
        if n_tilde <= q + 2:
            raise TooFewPoints(
                f"need n~ > q+2 = {q + 2} stacked observations, have {n_tilde}")

        # C is built from points and rho that DesignSet and Hyperparameters
        # check are finite, so its factorization skips any finiteness scan;
        # it is kept, since the likelihood's gradient contracts with it
        C = kernels.tilde_corr(design.pair_diffs, hyper.rho, design.has_gradients)
        C.flat[::n_tilde + 1] += hyper.nugget
        try:
            self._chol, Ci = cholesky_inverse(C)
        except LinAlgError as exc:
            raise IllConditioned(f"design correlation factorization failed: {exc}") from exc
        self.C = C

        self.H = kernels.tilde_basis(design.points, design.has_gradients)
        Ci_H = Ci @ self.H
        self.B = self.H.T @ Ci_H
        try:
            self._chol_B = cho_factor(self.B, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise IllConditioned(f"basis Gram factorization failed: {exc}") from exc
        self.P = cho_solve(self._chol_B, Ci_H.T, check_finite=False)
        # the basis derivatives are constant rows: d/dx_k h = e_{1+k}
        # + 2 x_k e_{1+D+k} and d2/dx_k dx_l h = 2 d_kl e_{1+D+k}, so their
        # products with P are slices of it, kept as (D, 1, n~) to broadcast
        # over points
        self._P1 = self.P[1:1 + design.dim, None]
        self._P2 = 2.0 * self.P[1 + design.dim:, None]
        self.Q = Ci - Ci_H @ self.P
        self.Q = 0.5 * (self.Q + self.Q.T)

        u = design.data_vector()
        self.beta_hat = self.P @ u
        self.w = self.Q @ u
        # what the mean's contractions multiply by, built once: 2 rho, the
        # weights w0 and V of kernels._corr_dot, and the basis slices
        self._dot = kernels._dot_operands(self.w, design.n, hyper.rho,
                                          design.has_gradients)
        self._b1 = self.beta_hat[1:1 + design.dim]
        self._b2 = self.beta_hat[1 + design.dim:]
        # sigma2_hat from the whitened GLS residual L^-1 (u - H beta_hat), a
        # sum of squares, where u'Qu would cancel near the nugget floor
        white, _ = dtrtrs(self._chol, u - self.H @ self.beta_hat, lower=1)
        self.sigma2_hat = float(white @ white) / (n_tilde - q - 2)
        self.dof = n_tilde - q
        self.q = q
        self.logdet_C = 2.0 * np.sum(np.log(np.diagonal(self._chol)))
        self.logdet_B = 2.0 * np.sum(np.log(np.diagonal(self._chol_B[0])))

        self.gfi = design.gfi

    # -- linear maps -----------------------------------------------------

    def _points(self, points):
        """Query points as an (m, D) float array; the emulator's design and
        rho were checked when it was built, so only the points' dimension is
        left to check, and its passes over the design check nothing."""
        points = np.asarray(points, dtype=float)
        if points.ndim < 2:  # one point
            points = points.reshape(1, -1)
        if points.shape[1] != self.design.dim:
            raise ShapeMismatch(f"point dimensions differ: {points.shape[1]} "
                                f"vs {self.design.dim}")
        return points

    def _cross(self, points):
        rho = self.hyper.rho
        return kernels.CrossDiffs(
            *kernels._diff_and_corr(points, self.design.points, rho), rho)

    def _cross_corr(self, points, order):
        return self._cross(points).rows((order,), self.design.has_gradients)[0]

    def linear_map(self, points: np.ndarray,
                   cross: np.ndarray | None = None) -> np.ndarray:
        """Order-1 prediction operator A1, so that the (D m,) gradient means
        in flat (coordinate-major) layout are A1 @ data_vector.

        ``cross`` is the order-1 cross-correlation of ``points`` with the
        design, when the caller has already built it.  The basis term is read
        off slices of P.
        """
        points = self._points(points)
        C1 = self._cross_corr(points, 1) if cross is None else cross
        m, dim = points.shape
        L = (C1 @ self.Q).reshape(dim, m, -1)
        L += self._P1 + points.T[:, :, None] * self._P2
        return L.reshape(dim * m, -1)

    def _mean(self, points, order, cross=None):
        """Posterior mean H_e beta_hat + C_ed w in natural shape.

        The cross term is a kernel contraction of the operands built at
        construction on the points' pass over the design (``cross``, when
        the caller has already made it); no cross block is formed.  At
        order 1 ``points`` may be a single (D,) point, whose mean then has
        no point axis.
        """
        if cross is None:
            diff, corr = kernels._diff_and_corr(points, self.design.points,
                                                self.hyper.rho)
        else:
            diff, corr = cross.diff, cross.corr
        cw = kernels._corr_dot(diff, corr, order, *self._dot)
        if order == 0:
            return kernels.basis(points, 0) @ self.beta_hat + cw
        if order == 1:
            return self._b1 + 2.0 * points * self._b2 + cw
        hess = cw + np.diag(2.0 * self._b2)
        return 0.5 * (hess + hess.transpose(0, 2, 1))

    # -- predictions -----------------------------------------------------

    def predict(self, points: np.ndarray, order: int = 0) -> Prediction:
        """Posterior means of potentials (order 0), gradients (1) or
        Hessians (2)."""
        points = self._points(points)
        if order == 1 and len(points) == 1:
            # one gradient, as HMC asks: the contraction without a point axis
            return Prediction(mean=self._mean(points[0], 1)[None])
        return Prediction(mean=self._mean(points, order))

    def _corr_cov(self, points, order):
        """Unscaled predictive covariance C** in flat layout.

        Available for orders 0 and 1; the order-2 auto-block would need
        fourth kernel derivatives, which are never formed.
        """
        if order not in (0, 1):
            raise ValueError("covariance only available for orders 0 and 1")
        H_e = kernels.basis(points, order)
        C_ed = self._cross_corr(points, order)
        C_ee = kernels.corr_block(points, points, order, order, self.hyper.rho)
        HPC = H_e @ self.P @ C_ed.T
        cov = C_ee - C_ed @ self.Q @ C_ed.T \
            + H_e @ cho_solve(self._chol_B, H_e.T) - HPC - HPC.T
        cov = 0.5 * (cov + cov.T)
        diag = np.diagonal(cov)
        if diag.min() < VARIANCE_CLAMP:
            raise IllConditioned(
                f"predictive variance {diag.min():.3e} below clamp threshold")
        d = np.arange(cov.shape[0])
        cov[d, d] = np.maximum(diag, 0.0)
        return cov

    def predictive_variance(self, points: np.ndarray, order: int = 0,
                            scaled: bool = True) -> np.ndarray:
        """Pointwise predictive variances (flat layout for order 1)."""
        var = np.diagonal(self._corr_cov(self._points(points), order)).copy()
        if scaled:
            var *= self.sigma2_hat
        return var

    def _fisher(self, A1, m, dim):
        """Empirical Fisher matrices from the order-1 map of ``m`` points.

        Returns the (m, D, D) matrices and ``gfi @ A1.T``, which the metric
        bundle reuses for the connection.
        """
        if self.gfi is None:
            raise MissingPerDatum("design carries no per-datum Gram")
        gA1 = self.gfi @ A1.T
        M = A1 @ gA1
        M = 0.5 * (M + M.T)
        return np.einsum("kili->ikl", M.reshape(dim, m, dim, m)), gA1

    def predict_efi(self, points: np.ndarray) -> np.ndarray:
        """Emulated empirical Fisher matrices, (m, D, D), symmetric PSD.

        One pass over the design builds the order-1 rows and map alone; the
        matrices are bitwise those of :meth:`predict_metric_bundle`.
        """
        points = self._points(points)
        return self._fisher(self.linear_map(points), *points.shape)[0]

    def predict_metric_bundle(self, points: np.ndarray):
        """Emulated metric, its raw derivative tensor and the gradient.

        One pass over the design (:class:`kernels.CrossDiffs`) gives the
        order-1 and order-2 rows and the gradient contraction.  Returns
        ``(G, T3, grad)`` with ``G`` the (m, D, D) empirical Fisher matrices,
        ``T3`` the (m, D, D, D) tensors ``T3[i][a,b,c]`` equal to the
        first-kind connection Gamma_{ab,c} (the metric derivative follows as
        dG_c[a,b] = T3[a,c,b] + T3[b,c,a]), and ``grad`` the (m, D) potential
        gradients, bitwise ``predict(points, 1).mean``.

        The connection is A2 gfi A1' for the order-2 map A2 = C2 Q plus the
        basis rows 2 d_kl P_{1+D+k}, taken point by point as C2 (Q gfi A1')
        plus the basis term on the rows k = l, so A2 is never formed.  Each
        point's products are the ones a one-point query makes, so a batch
        gives the one-point tensors to round-off in ``gfi A1'`` alone.
        """
        points = self._points(points)
        m, dim = points.shape
        cross = self._cross(points)
        C1, C2 = cross.rows((1, 2), self.design.has_gradients)
        G, gA1 = self._fisher(self.linear_map(points, C1), m, dim)
        # (m, n~, D): each point's columns of gfi A1', contiguous so that its
        # products take the BLAS path of a one-point query
        gA1 = np.ascontiguousarray(gA1.reshape(-1, dim, m).transpose(2, 0, 1))
        T3 = (C2.reshape(dim * dim, m, -1).transpose(1, 0, 2) @ (self.Q @ gA1)
              ).reshape(m, dim, dim, dim)
        d = np.arange(dim)
        T3[:, d, d] += self._P2[:, 0] @ gA1
        return G, T3, self._mean(points, 1, cross)


def build_emulator(design: DesignSet, hyper: Hyperparameters) -> Emulator:
    """Build the factorization, escalating the nugget on failure.

    The nugget is raised by decades up to 1e-4; if factorization still fails
    the last IllConditioned error propagates.
    """
    nugget = hyper.nugget
    while True:
        try:
            return Emulator(design, Hyperparameters(rho=hyper.rho, nugget=nugget))
        except IllConditioned:
            nugget = 1e-10 if nugget == 0.0 else nugget * 10.0
            if nugget > NUGGET_MAX:
                raise


# -- persistence ---------------------------------------------------------

def save_design(path, design: DesignSet, hyper: Hyperparameters) -> None:
    """Write a design plus fitted hyperparameters.

    ``path`` gets a JSON document with the points, potentials, gradients and
    hyperparameters, each float as its shortest round-trip decimal.  A design
    with a per-datum Gram also gets a sidecar ``<stem>.per_datum.npy`` beside
    it: the (n~, n~) float64 matrix ``DesignSet.gfi``, written by ``np.save``.
    The JSON names the sidecar under ``per_datum_path``.
    """
    path = Path(path)
    per_datum_path = None
    if design.gfi is not None:
        per_datum_path = path.with_suffix(".per_datum.npy").name
        np.save(path.parent / per_datum_path, design.gfi, allow_pickle=False)
    doc = {
        "points": [[repr(float(v)) for v in row] for row in design.points],
        "potentials": [repr(float(v)) for v in design.potentials],
        "gradients": None if design.gradients is None
        else [[repr(float(v)) for v in row] for row in design.gradients],
        "per_datum_path": per_datum_path,
        "rho": [repr(float(v)) for v in hyper.rho],
        "nugget": repr(float(hyper.nugget)),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_design(path) -> tuple[DesignSet, Hyperparameters]:
    """Round-trip counterpart of :func:`save_design` (bit-stable).

    Raises DesignFileError, naming the file, when the design JSON or its
    sidecar is missing or unreadable, the JSON lacks a key or holds a ragged
    or non-numeric array or an invalid design, or the sidecar is not the
    symmetric float64 (n~, n~) Gram that save_design writes (older (n~, N)
    per-datum row files and decimal-text sidecars are not read).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
        raise DesignFileError(f"{path}: cannot read design file: {exc}") from exc
    try:
        points = np.array([[float(v) for v in row] for row in doc["points"]])
        potentials = np.array([float(v) for v in doc["potentials"]])
        gradients = None
        if doc.get("gradients") is not None:
            gradients = np.array([[float(v) for v in row] for row in doc["gradients"]])
        gfi = None
        if doc.get("per_datum_path"):
            n, dim = points.shape
            gfi = _load_gram(path.parent / doc["per_datum_path"],
                             n * (1 + dim) if gradients is not None else n)
        design = DesignSet(points=points, potentials=potentials,
                           gradients=gradients, gfi=gfi)
        hyper = Hyperparameters(rho=np.array([float(v) for v in doc["rho"]]),
                                nugget=float(doc["nugget"]))
    except KeyError as exc:
        raise DesignFileError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, ShapeMismatch) as exc:  # ragged, non-numeric
        raise DesignFileError(f"{path}: not a design file: {exc}") from exc
    return design, hyper


def _load_gram(pd_file: Path, n_tilde: int) -> np.ndarray:
    """The sidecar's Gram, checked to be the matrix save_design writes."""
    try:
        gfi = np.load(pd_file, allow_pickle=False)
    except OSError as exc:
        raise DesignFileError(f"{pd_file}: cannot read per-datum Gram: {exc}") from exc
    except (ValueError, EOFError):  # text, pickled or truncated content
        gfi = None
    if not (isinstance(gfi, np.ndarray) and gfi.dtype == np.float64
            and gfi.shape == (n_tilde, n_tilde) and np.array_equal(gfi, gfi.T)):
        raise DesignFileError(
            f"{pd_file}: expected the symmetric float64 ({n_tilde}, {n_tilde}) "
            f"per-datum Gram written by save_design; regenerate the design")
    return gfi
