"""Scalar function pairs (f, g) with f(t) * g(t) = t on [0, inf).

The canonical family is f(t) = t**alpha, g(t) = t**(1-alpha) with the
convention 0**0 = 1, so the endpoints alpha in {0, 1} stay legal.
User-supplied pairs are accepted but can only be validated on sampled
points; continuity is assumed, not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidFunctionError, OutOfRangeError

# |f(t)g(t) - t| <= PAIR_TOL * max(1, t) on every validation sample.
PAIR_TOL = 1e-9
HOLDER_TOL = 1e-12

ScalarFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FunctionPair:
    """Nonnegative scalar functions with f(t) * g(t) = t."""

    f: ScalarFn
    g: ScalarFn
    tag: str = "custom"


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents with 1/p + 1/q = 1; both must be finite and > 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        p, q = float(self.p), float(self.q)
        if not (math.isfinite(p) and math.isfinite(q)):
            raise OutOfRangeError("Holder exponents must be finite")
        if p < 1.0 or q < 1.0:
            raise OutOfRangeError(f"Holder exponents must be >= 1, got ({p}, {q})")
        if abs(1.0 / p + 1.0 / q - 1.0) > HOLDER_TOL:
            raise OutOfRangeError(f"1/{p} + 1/{q} must equal 1")


def conjugate_exponent(p: float) -> HolderPair:
    """HolderPair with q solved from 1/p + 1/q = 1; requires p > 1."""
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise OutOfRangeError(f"conjugate exponent needs p > 1, got {p}")
    return HolderPair(p, p / (p - 1.0))


def power_pair(alpha: float) -> FunctionPair:
    """The pair f(t) = t**alpha, g(t) = t**(1-alpha) for alpha in [0, 1]."""
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise OutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")
    beta = 1.0 - alpha

    # numpy already gives 0.0**0 == 1.0, matching the endpoint convention
    def f(t, _a=alpha):
        return np.asarray(t, dtype=np.float64) ** _a

    def g(t, _b=beta):
        return np.asarray(t, dtype=np.float64) ** _b

    return FunctionPair(f=f, g=g, tag=f"power alpha={alpha:g}")


def pow_of_pair(pair: FunctionPair, exponent: float) -> tuple[ScalarFn, ScalarFn]:
    """Pointwise powers (f**e, g**e), preserving the 0**0 = 1 convention."""
    e = float(exponent)
    if not math.isfinite(e) or e < 0.0:
        raise OutOfRangeError(f"exponent must be finite and >= 0, got {e}")

    def fe(t, _f=pair.f, _e=e):
        return np.asarray(_f(t), dtype=np.float64) ** _e

    def ge(t, _g=pair.g, _e=e):
        return np.asarray(_g(t), dtype=np.float64) ** _e

    return fe, ge


def validate_pair(pair: FunctionPair, samples) -> None:
    """Check f(t)*g(t) = t and nonnegativity of f, g on the given samples.

    Passes iff f and g map the sample array to finite, nonnegative arrays of
    its shape with |f(t)g(t) - t| <= PAIR_TOL * max(1, t) at every sample;
    raises InvalidFunctionError otherwise, and OutOfRangeError for a
    negative or non-finite sample.
    """
    t = np.asarray(samples, dtype=np.float64).ravel()
    if t.size == 0:
        return
    if not np.isfinite(t).all() or (t < 0).any():
        raise OutOfRangeError("validation samples must be finite and nonnegative")
    try:
        ft = np.asarray(pair.f(t), dtype=np.float64)
        gt = np.asarray(pair.g(t), dtype=np.float64)
        if ft.shape != t.shape or gt.shape != t.shape:
            raise ValueError(f"shapes {ft.shape} and {gt.shape}, expected {t.shape}")
    except Exception as exc:
        raise InvalidFunctionError(
            f"pair {pair.tag!r} failed validation on the sample array: {exc}") from exc

    dev = np.abs(ft * gt - t)
    allowed = PAIR_TOL * np.maximum(1.0, t)
    if (np.isfinite(ft).all() and np.isfinite(gt).all()
            and (ft >= 0.0).all() and (gt >= 0.0).all() and (dev <= allowed).all()):
        return
    worst = float(t[int(np.argmax(dev - allowed))])
    raise InvalidFunctionError(
        f"pair {pair.tag!r} failed validation: max deviation {dev.max():.3e} "
        f"at t={worst:g}, min f={ft.min():.3e}, min g={gt.min():.3e}"
    )
