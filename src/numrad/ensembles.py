"""Seeded, reproducible random-matrix generators.

Streams are immutable values: two streams built from the same
(master_seed, stream_index) yield identical sequences, and deriving child
streams is pure, so concurrent trials stay deterministic as long as each
owns its own derived stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumradError, ShapeUnsupportedError
from .linalg import adjoint, spectral_norm

_U64 = (1 << 64) - 1

KINDS = (
    "ginibre",
    "hermitian",
    "psd",
    "unitary",
    "normal",
    "contraction",
    "nilpotent_shift",
    "scalar",
    "zero",
)
SQUARE_ONLY = frozenset({"hermitian", "psd", "unitary", "normal", "nilpotent_shift"})

# Contractions back off by this factor so rounding never pushes them past 1.
_CONTRACTION_BACKOFF = 1.0 - 1e-12
_POST_CHECK_TOL = 1e-10


def _mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit words."""
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Named position in a deterministic tree of random streams."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=(self.master_seed & _U64, self.stream_index & _U64)
        )
        return np.random.Generator(np.random.PCG64(seq))


def derive(stream: RngStream, label: int) -> RngStream:
    """Child stream deterministic in (master_seed, stream_index, label)."""
    child = _mix64((stream.stream_index ^ _mix64(label & _U64)) & _U64)
    return RngStream(master_seed=stream.master_seed, stream_index=child)


def _ginibre(g: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) * np.sqrt(0.5)


def sample(kind: str, m: int, n: int, stream: RngStream) -> np.ndarray:
    """Draw one matrix of the given ensemble kind.

    Square-only kinds (hermitian, psd, unitary, normal, nilpotent_shift)
    require m == n; scalar requires m == n == 1.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if kind in SQUARE_ONLY and m != n:
        raise ShapeUnsupportedError(f"{kind} requires a square shape, got {m}x{n}")
    if kind == "scalar" and (m, n) != (1, 1):
        raise ShapeUnsupportedError(f"scalar requires shape 1x1, got {m}x{n}")

    g = stream.generator()
    if kind == "zero":
        out = np.zeros((m, n), dtype=np.complex128)
    elif kind == "ginibre":
        out = _ginibre(g, m, n)
    elif kind == "scalar":
        out = _ginibre(g, 1, 1)
    elif kind == "hermitian":
        z = _ginibre(g, m, m)
        out = (z + adjoint(z)) / 2
    elif kind == "psd":
        z = _ginibre(g, m, m)
        out = (adjoint(z) @ z) / m
    elif kind == "unitary":
        q, r = np.linalg.qr(_ginibre(g, m, m))
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        out = q * (d / np.abs(d))
    elif kind == "normal":
        q, r = np.linalg.qr(_ginibre(g, m, m))
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        u = q * (d / np.abs(d))
        eigs = _ginibre(g, 1, m).ravel()
        out = (u * eigs) @ adjoint(u)
    elif kind == "contraction":
        z = _ginibre(g, m, n)
        nrm = spectral_norm(z)
        if nrm > 0.0:
            out = z * (min(1.0, nrm) * _CONTRACTION_BACKOFF / nrm)
        else:
            out = z
    elif kind == "nilpotent_shift":
        out = np.diag(np.ones(m - 1, dtype=np.complex128), 1) if m > 1 else \
            np.zeros((1, 1), dtype=np.complex128)
    else:  # pragma: no cover
        raise AssertionError(kind)

    _post_check(kind, out)
    return out


def _post_check(kind: str, out: np.ndarray) -> None:
    """Verify the kind's defining property; a failure is an internal bug."""
    ok = True
    if kind == "hermitian":
        ok = spectral_norm(out - adjoint(out)) <= _POST_CHECK_TOL * max(1.0, spectral_norm(out))
    elif kind == "psd":
        w = np.linalg.eigvalsh((out + adjoint(out)) / 2)
        ok = float(w[0]) >= -_POST_CHECK_TOL * max(1.0, spectral_norm(out))
    elif kind == "unitary":
        eye = np.eye(out.shape[0])
        ok = spectral_norm(adjoint(out) @ out - eye) <= _POST_CHECK_TOL
    elif kind == "normal":
        comm = adjoint(out) @ out - out @ adjoint(out)
        ok = spectral_norm(comm) <= _POST_CHECK_TOL * max(1.0, spectral_norm(out) ** 2)
    elif kind == "contraction":
        ok = spectral_norm(out) <= 1.0
    elif kind == "zero":
        ok = not out.any()
    elif kind == "nilpotent_shift":
        expect = np.diag(np.ones(out.shape[0] - 1), 1) if out.shape[0] > 1 else \
            np.zeros(out.shape)
        ok = np.array_equal(out, expect.astype(np.complex128))
    if not ok:
        raise NumradError(f"ensemble post-check failed for kind {kind!r}")
