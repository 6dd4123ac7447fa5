"""Validated symmetric eigendecomposition for small symmetric matrices.

One entry point is shared by the PSD projection and the matrix optimality
certificates, so both sides of those checks agree on the exact same
spectral arithmetic.  The decomposition itself is LAPACK's, through
``numpy.linalg.eigh``; this wrapper adds the input checks.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(matrix):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Rejects non-square, non-finite and non-symmetric input (asymmetry above
    1e-10 times the Frobenius norm), then decomposes the symmetrized matrix.
    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, like
    numpy.linalg.eigh.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (a + a.T))
