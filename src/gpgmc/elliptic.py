"""Steady-state diffusion inverse problem on the unit square.

The forward model solves ``div(c grad u) = 0`` with Dirichlet data ``u = x1``
on the bottom edge, ``u = 1 - x1`` on the top edge and zero-flux sides.  The
log-diffusivity is a truncated Karhunen-Loeve expansion of a Gaussian-kernel
random field, so the unknowns are the D expansion coefficients.

Discretization is vertex-centred finite volumes on a regular mesh with
harmonic averaging of the diffusivity at cell faces.  The Dirichlet rows are
eliminated, and the remaining free-node system, a symmetric M-matrix of
half-bandwidth m + 1 in natural ordering, is factorized once by banded LU with
partial pivoting (LAPACK ``dgbtrf``).  That one factorization serves the
solution and all D parameter sensitivities, which are solved together.  At a
conductance contrast where the LU's pivots have cancelled away the row sums,
the same band is factorized by GTH elimination instead, which keeps them and
with them the discrete maximum principle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateKernel, SolverFailure

__all__ = ["KLExpansion", "EllipticTarget"]


class KLExpansion:
    """Nystrom eigenpairs of a Gaussian-kernel integral operator on [0,1]^2.

    Eigenfunctions are normalized to unit discrete L2 norm on the quadrature
    mesh and extendable to arbitrary points via the Nystrom formula.
    """

    def __init__(self, n_modes: int, mesh_size: int = 20,
                 lengthscale: float = 0.5, variance: float = 1.0):
        self.n_modes = n_modes
        self.lengthscale = float(lengthscale)
        self.variance = float(variance)
        m = mesh_size
        xs = np.linspace(0.0, 1.0, m + 1)
        X1, X2 = np.meshgrid(xs, xs, indexing="xy")
        self.nodes = np.column_stack([X1.ravel(), X2.ravel()])
        # trapezoid weights on the tensor grid
        w1 = np.full(m + 1, 1.0 / m)
        w1[0] = w1[-1] = 0.5 / m
        self.weights = np.outer(w1, w1).ravel()

        K = self._kernel(self.nodes, self.nodes)
        sw = np.sqrt(self.weights)
        sym = sw[:, None] * K * sw[None, :]
        sym = 0.5 * (sym + sym.T)
        vals, vecs = np.linalg.eigh(sym)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        if n_modes > vals.size or vals[n_modes - 1] <= 1e-12 * max(vals[0], 1.0):
            raise DegenerateKernel(
                f"requested {n_modes} modes but spectrum is numerically "
                f"degenerate beyond {int(np.sum(vals > 1e-12 * vals[0]))}")
        self.eigenvalues = vals[:n_modes]
        # phi = W^(-1/2) psi has unit discrete L2 norm: phi' W phi = 1
        self.eigenfunctions = (vecs[:, :n_modes] / sw[:, None]).T  # (D, nodes)

    def _kernel(self, A, B):
        d2 = ((A[:, None, :] - B[None, :, :])**2).sum(-1)
        return self.variance * np.exp(-0.5 * d2 / self.lengthscale**2)

    def eigenfunction_values(self, points: np.ndarray) -> np.ndarray:
        """Eigenfunctions at arbitrary points via Nystrom extension, (D, P)."""
        K = self._kernel(np.atleast_2d(points), self.nodes)
        return (self.eigenfunctions * self.weights) @ K.T / self.eigenvalues[:, None]


class _Grid:
    """Vertex-centred mesh bookkeeping for one resolution."""

    def __init__(self, m: int):
        self.m = m
        self.h = 1.0 / m
        xs = np.linspace(0.0, 1.0, m + 1)
        X1, X2 = np.meshgrid(xs, xs, indexing="xy")
        self.x1 = X1.ravel()
        self.x2 = X2.ravel()
        self.nodes = np.column_stack([self.x1, self.x2])
        self.n_nodes = (m + 1) * (m + 1)
        idx = np.arange(self.n_nodes).reshape(m + 1, m + 1)  # [row j][col i]
        self.idx = idx
        self.dirichlet = np.concatenate([idx[0, :], idx[-1, :]])
        # the free nodes are the contiguous range between the first and last
        # mesh rows; in natural ordering their neighbours lie within w of them
        w = m + 1
        self.w = w
        self.free = slice(w, self.n_nodes - w)
        self.n_free = self.n_nodes - 2 * w
        # horizontal faces (i,j)-(i+1,j), then vertical faces (i,j)-(i,j+1)
        jj, ii = np.meshgrid(np.arange(m + 1), np.arange(m), indexing="ij")
        h_lo, h_hi = idx[jj, ii].ravel(), idx[jj, ii + 1].ravel()
        jj, ii = np.meshgrid(np.arange(m), np.arange(m + 1), indexing="ij")
        v_lo, v_hi = idx[jj, ii].ravel(), idx[jj + 1, ii].ravel()
        self.n_h = h_lo.size
        self.f_lo = np.concatenate([h_lo, v_lo])
        self.f_hi = np.concatenate([h_hi, v_hi])
        # vertical faces in the boundary columns carry half a control volume
        self.f_w = np.concatenate([np.ones(self.n_h),
                                   np.where((ii.ravel() == 0) | (ii.ravel() == m), 0.5, 1.0)])
        self.f_ends = np.concatenate([self.f_lo, self.f_hi])
        # LAPACK general band storage with kl = ku = w, held transposed as
        # ab[j, 2w + i - j] = K[i, j] so that ab.T is Fortran-ordered; a face
        # joining free nodes p < q fills K[p, q] and K[q, p]
        self.band_rows = 3 * w + 1
        inner = np.flatnonzero((self.f_lo >= w) & (self.f_hi < self.n_nodes - w))
        p, q = self.f_lo[inner] - w, self.f_hi[inner] - w
        self.band_off = np.concatenate([q * self.band_rows + 2 * w + p - q,
                                        p * self.band_rows + 2 * w + q - p])
        self.band_face = np.concatenate([inner, inner])
        self.no_swaps = np.arange(self.n_free, dtype=np.int32)


def _harmonic(a, b):
    return 2.0 * a * b / (a + b)


# share of a row's diagonal below which its Schur-complement row sum, as
# dgbtrf leaves it in U, is taken to have lost its digits to cancellation
_MIN_ROW_SUM_SHARE = 1e-6


def _gth_factor(c_f, grid):
    """LU of the free-node matrix K by GTH elimination (Grassmann, Taksar &
    Heyman 1985), in ``dgbtrf``'s band layout with no row interchanges.

    Each pivot is its row's sum plus the magnitudes of its off-diagonals,
    and the row sums are carried along (s_i += |l_i| s_k); every quantity
    is thus a sum of terms of one sign and keeps its relative accuracy
    whatever the conductance contrast.  One Python step per free node, so
    it is the fallback, not the rule."""
    g = grid
    w, n, R = g.w, g.n_free, g.band_rows
    lu_t = np.zeros((n + w, R))
    flat = lu_t.reshape(-1)
    flat[g.band_off] = -c_f[g.band_face]
    # the row sums of K: each free node's couplings to the Dirichlet rows
    c_v = c_f[g.n_h:]
    s = np.zeros(n + w)
    s[:w] += c_v[:w]
    s[n - w:n] += c_v[-w:]
    i, j = np.triu_indices(w + 1, 1)
    i, j = i[i > 0], j[i > 0]
    # the Schur update K[k+i, k+j] -= l_i a_j, i < j, kept in U's slots:
    # flat index k R + 2w + j (R - 1) + i
    upd = 2 * w + j * (R - 1) + i
    a_at = 2 * w + np.arange(1, w + 1) * (R - 1)
    for k in range(n):
        a = flat[k * R + a_at]          # K_k,k+1..k+w of the Schur complement
        d = s[k] - a.sum()
        l = a / d
        lu_t[k, 2 * w] = d
        lu_t[k, 2 * w + 1:] = l
        flat[k * R + upd] -= l[i - 1] * a[j - 1]
        s[k + 1:k + w + 1] -= l * s[k]
    return lu_t[:n].T


class EllipticTarget:
    """Bayesian inversion of the diffusion field from noisy interior heads.

    Observations live on the regular 11x11 grid (co-located with solver nodes,
    so the mesh size must be a multiple of 10).  The prior on the expansion
    coefficients is standard normal.
    """

    def __init__(self, kl: KLExpansion, obs: np.ndarray, noise_sd: float = 0.1,
                 mesh_size: int = 20):
        if mesh_size % 10 != 0:
            raise ValueError("mesh_size must be a multiple of 10 to host the "
                             "11x11 observation grid")
        self.kl = kl
        self.obs = np.asarray(obs, dtype=float)
        self.noise_sd = float(noise_sd)
        self.mesh_size = mesh_size
        self.dim = kl.n_modes
        self.n_gth_factorizations = 0
        self.grid = _Grid(mesh_size)
        step = mesh_size // 10
        self.obs_idx = self.grid.idx[::step, ::step].ravel()
        if self.obs.shape != (121,):
            raise ValueError(f"expected 121 observations, got {self.obs.shape}")
        # sqrt(lambda_d) phi_d at solver nodes, precomputed once
        self._modes = (np.sqrt(kl.eigenvalues)[:, None]
                       * kl.eigenfunction_values(self.grid.nodes))

    @property
    def data_count(self) -> int:
        return self.obs.size

    @classmethod
    def simulate(cls, rng: np.random.Generator, theta_true: np.ndarray,
                 kl: KLExpansion | None = None, noise_sd: float = 0.1,
                 mesh_size: int = 20):
        """Build a target with synthetic noisy observations at theta_true."""
        theta_true = np.asarray(theta_true, dtype=float)
        if kl is None:
            kl = KLExpansion(n_modes=theta_true.size, mesh_size=mesh_size)
        clean = cls(kl=kl, obs=np.zeros(121), noise_sd=noise_sd,
                    mesh_size=mesh_size)
        _, pred, _ = clean.solve(theta_true, want_sens=False)
        obs = pred + noise_sd * rng.standard_normal(121)
        return cls(kl=kl, obs=obs, noise_sd=noise_sd, mesh_size=mesh_size)

    # -- forward solve -----------------------------------------------------

    def diffusivity(self, theta):
        logc = np.asarray(theta, dtype=float) @ self._modes
        # clip keeps the stiffness matrix finite for absurd proposals; the
        # prior term already makes such points all but certain rejections
        return np.exp(np.clip(logc, -150.0, 150.0))

    def _factor(self, c):
        """Banded LU of the free-node stiffness matrix K and the face
        conductances; K is positive on the diagonal, -c_face off it.

        LAPACK forms each pivot by subtraction, which at high conductance
        contrast can cancel the small row sums that tie a strongly coupled
        patch to the boundary.  K is symmetric, so with no row interchanges
        U = diag(d) L' and row k of U sums to d_k (1 + sum_j L_jk), the
        k-th Schur complement's row sum.  Where one of these has lost its
        digits, or a pivot was swapped or zero, K is factorized again by
        ``_gth_factor``, which forms every pivot from row sums."""
        g = self.grid
        w = g.w
        c_f = _harmonic(c[g.f_lo], c[g.f_hi]) * g.f_w
        ab = np.zeros((g.n_free, g.band_rows))
        diag = np.bincount(g.f_ends, np.concatenate([c_f, c_f]), g.n_nodes)[g.free]
        ab[:, 2 * w] = diag
        ab.reshape(-1)[g.band_off] = -c_f[g.band_face]
        lu, piv, info = lapack.dgbtrf(ab.T, w, w, overwrite_ab=1)
        d, mult = lu.T[:, 2 * w], lu.T[:, 2 * w + 1:]
        if (info != 0 or np.any(piv != g.no_swaps)
                or np.any(d * (1.0 + mult.sum(axis=1)) < _MIN_ROW_SUM_SHARE * diag)):
            self.n_gth_factorizations += 1
            return _gth_factor(c_f, g), g.no_swaps, c_f
        return lu, piv, c_f

    def solve(self, theta, want_sens: bool = True, bc_bottom=None, bc_top=None):
        """Solve the PDE on the target's grid; return (field, obs_pred, sens).

        ``sens`` is the (D, 121) sensitivity of predicted observations, or
        None when ``want_sens`` is false.  Custom Dirichlet data may be passed
        as arrays over the edge nodes.  Another mesh needs its own target.
        """
        grid = self.grid
        w = grid.w
        xs = grid.x1[grid.idx[0, :]]
        bb = xs if bc_bottom is None else np.asarray(bc_bottom, dtype=float)
        bt = 1.0 - xs if bc_top is None else np.asarray(bc_top, dtype=float)
        c = self.diffusivity(theta)
        lu, piv, c_f = self._factor(c)
        # the faces into the Dirichlet rows move c_v * u_D to the right side;
        # they are the first and last w vertical faces
        c_v = c_f[grid.n_h:]
        rhs = np.zeros((grid.n_free, 1))
        rhs[:w, 0] += c_v[:w] * bb
        rhs[-w:, 0] += c_v[-w:] * bt
        u_free, _ = lapack.dgbtrs(lu, w, w, rhs, piv, overwrite_b=1)
        u = np.empty(grid.n_nodes)
        u[:w], u[grid.free], u[-w:] = bb, u_free[:, 0], bt
        if not np.all(np.isfinite(u)):
            raise SolverFailure("solution contains non-finite values")
        pred = u[self.obs_idx]
        if not want_sens:
            return u, pred, None
        r = self._dA_u(c, c_f, u)
        # the sensitivities vanish on the Dirichlet rows, and A = -K on the
        # free rows, so A s = -r there reads K s = r: one solve, D columns
        s_free, _ = lapack.dgbtrs(lu, w, w, r[:, 1:-1, :].reshape(self.dim, -1).T,
                                  piv, overwrite_b=1)
        s = np.zeros((self.dim, grid.n_nodes))
        s[:, grid.free] = s_free.T
        return u, pred, s[:, self.obs_idx]

    def _dA_u(self, c, c_f, u):
        """(dA/dtheta_d) u for every mode d at once, (D, m+1, m+1), assembled
        facewise without forming dA; A = -K is the discrete div(c grad .)."""
        g = self.grid
        m = g.m
        a, b = c[g.f_lo], c[g.f_hi]
        # d c_face = c_face (b dlogc_lo + a dlogc_hi) / (a + b) for the
        # harmonic mean c_face = 2ab/(a + b) times the face weight
        t = c_f * (u[g.f_hi] - u[g.f_lo]) / (a + b)
        flux = self._modes[:, g.f_lo] * (t * b) + self._modes[:, g.f_hi] * (t * a)
        # faces in mesh layout: horizontal [j, i] joins (j, i)-(j, i+1),
        # vertical [j, i] joins (j, i)-(j+1, i)
        fh = flux[:, :g.n_h].reshape(-1, m + 1, m)
        fv = flux[:, g.n_h:].reshape(-1, m, m + 1)
        r = np.zeros((self.dim, m + 1, m + 1))
        # row P of A@u gets +c_face*(u_Q - u_P), so its theta-derivative is
        # +dc_face*(u_Q - u_P); row Q the negative
        r[:, :, :-1] += fh
        r[:, :, 1:] -= fh
        r[:, :-1, :] += fv
        r[:, 1:, :] -= fv
        return r

    # -- potential interface ------------------------------------------------

    def potential(self, theta) -> float:
        _, pred, _ = self.solve(theta, want_sens=False)
        theta = np.asarray(theta, dtype=float)
        resid = self.obs - pred
        return float((resid**2).sum() / (2 * self.noise_sd**2)
                     + 0.5 * (theta**2).sum())

    def potential_per_datum(self, theta):
        _, pred, _ = self.solve(theta, want_sens=False)
        theta = np.asarray(theta, dtype=float)
        values = (self.obs - pred)**2 / (2 * self.noise_sd**2)
        return float(values.sum() + 0.5 * (theta**2).sum()), values

    def potential_grad(self, theta):
        u, grad, _, _ = self.per_datum(theta)
        return u, grad

    def per_datum(self, theta):
        theta = np.asarray(theta, dtype=float)
        _, pred, sens = self.solve(theta)
        resid = self.obs - pred
        values = resid**2 / (2 * self.noise_sd**2)
        DU = sens * (-resid)[None, :] / self.noise_sd**2
        grad = DU.sum(axis=1) + theta
        u = float(values.sum() + 0.5 * (theta**2).sum())
        return u, grad, values, DU

    def fisher(self, theta) -> np.ndarray:
        """Gauss-Newton Fisher information plus the unit prior precision."""
        _, _, sens = self.solve(theta)
        fi = sens @ sens.T / self.noise_sd**2
        fi[np.diag_indices_from(fi)] += 1.0
        return fi

    def prior_precision(self) -> np.ndarray:
        return np.eye(self.dim)
