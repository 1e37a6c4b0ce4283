"""The Cholesky factor and inverse of a symmetric positive-definite matrix.

Both the emulator's design correlation ``C~`` and the samplers' D x D
metrics are inverted here, by LAPACK's potrf and potri called directly: at
the sizes gpgmc works at the fixed cost of scipy's checked wrappers and of a
solve against the identity is much of the cost.
"""

from __future__ import annotations

from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotri

__all__ = ["cholesky_inverse"]


def cholesky_inverse(A):
    """Lower Cholesky factor and inverse of a symmetric matrix already
    checked finite; ``A`` itself is left as it was.

    Raises LinAlgError when ``A`` is not positive definite, which each
    caller turns into its own error.
    """
    chol, info = dpotrf(A, lower=1, clean=1)
    if info == 0:
        inv, info = dpotri(chol, lower=1)
    if info != 0:
        raise LinAlgError(f"matrix is not positive definite (LAPACK info {info})")
    # potri fills the lower triangle and leaves chol's zeros above it, so
    # adding the transpose doubles the diagonal alone; halving it is exact
    inv = inv + inv.T
    inv.flat[::A.shape[0] + 1] *= 0.5
    return chol, inv
