"""Dense complex-matrix kernel.

Adjoints, spectral norms, the spectral data of operator absolute values,
and 2x2 block assembly. Singular values, and with them |M| and |M*|, come
from one SVD. Each decomposition has a lone form and a stacked one that
solves a (B, m, n) stack in one numpy call and gives each member the lone
result to the bit.
All matrices are dense ``numpy`` arrays of ``complex128`` at desk scale
(sides <= 64); every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, InvalidFunctionError


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a dense complex matrix, rejecting NaN/Inf entries and
    entries that are not numbers."""
    raw = np.asarray(entries)
    if raw.dtype.kind not in "biufc":
        raise ValueError(f"matrix entries must be numbers, got {raw.dtype} entries")
    m = np.array(raw, dtype=np.complex128, copy=True)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m, dtype=np.complex128)).T.copy()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2


def spectral_norm(m) -> float:
    """Largest singular value; exactly 0.0 for the zero matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def polar_eigen(m) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Spectral data of |M| and |M*| from one SVD M = U S V*.

    Returns ((s, V), (t, U)) with |M| = V diag(s) V* and |M*| = U diag(t) U*;
    s and t are the singular values padded with zeros to the column and row
    count of M (two views of one array). Singular values are
    nonnegative by construction, so small ones keep their absolute
    accuracy, about u ||M||.
    """
    m = as_matrix(m)
    u, sv, vh = np.linalg.svd(m)
    rows, cols = m.shape
    s = np.zeros(max(rows, cols))
    s[:sv.size] = sv
    return (s[:cols], np.conj(vh).T), (s[:rows], u)


def recompose(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """V diag(values) V*, symmetrized."""
    out = (vectors * values) @ np.conj(vectors).T
    return (out + np.conj(out).T) / 2


def spectrum_values(phi: Callable, values: np.ndarray) -> np.ndarray:
    """phi(values) as the values of phi(M) = V diag(phi(values)) V*: phi is
    applied to the array of values once and must return a finite,
    nonnegative array of its shape."""
    out = np.asarray(phi(values), dtype=np.float64)
    if out.shape != values.shape or not np.isfinite(out).all() or (out < 0).any():
        raise InvalidFunctionError(
            "function must map the spectrum to a finite, nonnegative array of its shape")
    return out


# The stacked helpers below give each member of a (B, m, n) stack what the
# lone function gives it, to the bit, from one numpy call. numpy raises for
# a whole stack when one member holds a NaN, so a member with a non-finite
# entry is left out of the SVD call and comes back NaN.


def _finite(stack: np.ndarray) -> np.ndarray:
    return np.isfinite(stack).all(axis=(1, 2))


def spectral_norms(stack) -> np.ndarray:
    """`spectral_norm` of each matrix of a (B, m, n) stack: exactly 0.0 for
    a zero member and NaN for one with a non-finite entry."""
    stack = np.asarray(stack, dtype=np.complex128)
    out = np.zeros(len(stack))
    keep = _finite(stack)
    out[~keep] = np.nan
    keep &= stack.any(axis=(1, 2))
    if keep.all():
        out = np.linalg.svd(stack, compute_uv=False)[:, 0]
    elif keep.any():
        out[keep] = np.linalg.svd(stack[keep], compute_uv=False)[:, 0]
    return out


def polar_eigens(stack) -> list:
    """`polar_eigen` of each matrix of a (B, m, n) stack; every array of a
    member with a non-finite entry is NaN."""
    stack = np.asarray(stack, dtype=np.complex128)
    count, rows, cols = stack.shape
    keep = _finite(stack)
    if keep.all():
        u, sv, vh = np.linalg.svd(stack)
    else:
        u = np.full((count, rows, rows), np.nan, dtype=np.complex128)
        sv = np.full((count, min(rows, cols)), np.nan)
        vh = np.full((count, cols, cols), np.nan, dtype=np.complex128)
        if keep.any():
            u[keep], sv[keep], vh[keep] = np.linalg.svd(stack[keep])
    s = np.zeros((count, max(rows, cols)))
    s[:, :sv.shape[1]] = sv
    s[~keep] = np.nan
    v = np.conj(vh).transpose(0, 2, 1)
    return [((s[k, :cols], v[k]), (s[k, :rows], u[k])) for k in range(count)]


def recompose_many(values, vectors) -> np.ndarray:
    """`recompose` of each (values, vectors) pair of a (B, n) and a
    (B, n, n) stack, by one batched matmul."""
    vectors = np.asarray(vectors)
    out = (vectors * np.asarray(values)[:, None, :]) @ np.conj(vectors).transpose(0, 2, 1)
    return (out + np.conj(out).transpose(0, 2, 1)) / 2


@dataclass
class OffDiagPair:
    """Blocks of [[0, X], [Y, 0]]: X maps the second summand into the first."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = as_matrix(self.x)
        self.y = as_matrix(self.y)
        if self.x.shape != self.y.shape[::-1]:
            raise DimensionMismatchError(
                f"off-diagonal blocks need X m-by-n and Y n-by-m, "
                f"got {self.x.shape} and {self.y.shape}"
            )


@dataclass
class Block2x2:
    """Blocks of [[A, B], [C, D]] with A m-by-m, B m-by-n, C n-by-m, D n-by-n."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        self.a = as_matrix(self.a)
        self.b = as_matrix(self.b)
        self.c = as_matrix(self.c)
        self.d = as_matrix(self.d)
        m, n = self.a.shape[0], self.d.shape[0]
        ok = (
            self.a.shape == (m, m)
            and self.d.shape == (n, n)
            and self.b.shape == (m, n)
            and self.c.shape == (n, m)
        )
        if not ok:
            raise DimensionMismatchError(
                "block shapes must be (m,m), (m,n), (n,m), (n,n); got "
                f"{self.a.shape}, {self.b.shape}, {self.c.shape}, {self.d.shape}"
            )

    def matrix(self) -> np.ndarray:
        """The assembled [[A, B], [C, D]] of side m+n."""
        return np.block([[self.a, self.b], [self.c, self.d]])


def embed_offdiag(x, y) -> np.ndarray:
    """Assemble [[0, X], [Y, 0]] of side m+n."""
    pair = OffDiagPair(x, y)
    m, n = pair.x.shape
    top = np.hstack([np.zeros((m, m), dtype=np.complex128), pair.x])
    bottom = np.hstack([pair.y, np.zeros((n, n), dtype=np.complex128)])
    return np.vstack([top, bottom])


def embed_block(a, b, c, d) -> np.ndarray:
    """Assemble [[A, B], [C, D]] of side m+n."""
    return Block2x2(a, b, c, d).matrix()

