"""Independent references the tests check the package against.

Nothing in `numrad` calls these. `herm_eig` and `fn_of_psd` reach
`f(H)` through a Hermitian eigendecomposition instead of the SVD route
of `numrad.linalg`, `abs_op` and `fn_of_abs` assemble `|M|` and `phi(|M|)`
as matrices from one lone SVD, as the bound evaluators did before they
settled their decompositions in stacked rounds, and
`omega_offdiag_symmetric_check` certifies X and its symmetric embedding
`[[0, X], [X, 0]]`, whose radii are equal.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from numrad.errors import (
    ConvergenceError,
    NegativeSpectrumError,
    NotHermitianError,
    NotSquareError,
)
from numrad.linalg import (
    adjoint,
    as_matrix,
    embed_offdiag,
    hermitian_part,
    polar_eigen,
    recompose,
    spectral_norm,
    spectrum_values,
)
from numrad.radius import CertifiedRadius, omega

# Residual bound for eigendecompositions, relative to max(1, ||H||).
EIG_TOL = 1e-10
# Relative threshold separating rounding noise from a genuinely negative spectrum.
CLAMP_TOL = 1e-12


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of Hermitian H = V diag(w) V*, w nondecreasing.

    The input may deviate from exact Hermitian symmetry by at most
    ``EIG_TOL * max(1, ||H||)``; it is symmetrized before decomposition.

    Raises:
        NotSquareError: non-square input.
        NotHermitianError: the symmetry pre-check fails.
        ConvergenceError: the decomposition misses its residual target.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise NotSquareError(f"herm_eig requires a square matrix, got {h.shape}")
    nrm = spectral_norm(h)
    scale = max(1.0, nrm)
    if spectral_norm(h - adjoint(h)) > EIG_TOL * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    hs = hermitian_part(h)
    try:
        w, v = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    residual = spectral_norm(hs - (v * w) @ np.conj(v).T)
    if residual > EIG_TOL * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds target"
        )
    return w, v


def abs_op(m) -> np.ndarray:
    """Operator absolute value (M*M)^(1/2), a PSD matrix of side M.cols."""
    return recompose(*polar_eigen(m)[0])


def fn_of_abs(m, phi: Callable) -> np.ndarray:
    """phi(|M|) computed through a single SVD of M."""
    s, v = polar_eigen(m)[0]
    return recompose(spectrum_values(phi, s), v)


def fn_of_psd(h, phi: Callable) -> np.ndarray:
    """phi(H) for PSD Hermitian H via the spectral theorem.

    Eigenvalues in [-CLAMP_TOL * max(w[-1], -w[0], 0), 0) are rounding noise
    and are clamped to zero before phi is applied; one further below signals
    an indefinite matrix or a failed decomposition. phi must be finite and
    nonnegative on the clamped spectrum.
    """
    w, v = herm_eig(h)
    floor = -CLAMP_TOL * max(float(w[-1]), -float(w[0]), 0.0)
    if float(w[0]) < floor:
        raise NegativeSpectrumError(
            f"eigenvalue {float(w[0]):.3e} of H below clamping floor {floor:.3e}"
        )
    return recompose(spectrum_values(phi, np.clip(w, 0.0, None)), v)


def omega_offdiag_symmetric_check(
    x, tol: float | None = None
) -> tuple[CertifiedRadius, CertifiedRadius]:
    """Certified radii of X and of [[0, X], [X, 0]].

    The embedded symmetric matrix has the same numerical radius as X, so
    the two intervals should overlap; the function only returns them and
    leaves that comparison, with whatever widening, to the caller.
    """
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise NotSquareError(f"expected a square matrix, got {x.shape}")
    return omega(x, tol), omega(embed_offdiag(x, x), tol)
