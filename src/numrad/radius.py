"""Numerical radius with certified enclosures, and the generalized
Euclidean operator radius.

The numerical radius of a square matrix M is recovered from the rotation
identity: with h(theta) = lambda_max(Re(e^{i theta} M)), the radius equals
max_theta h(theta) over a full period. h is 1-dimensional, continuous and
generally multimodal, so the enclosure comes from branch-and-bound over
angle cells. h(theta) = max_x |<Mx, x>| cos(theta + arg <Mx, x>) over unit
x is a maximum of sinusoids of amplitude at most ||M||, so on a cell the
majorant is the highest such sinusoid that stays below h at both ends
(`_cell_majorant`); it is computed once, when the cell is made.

Since Re(e^{i(theta + pi)} M) = -Re(e^{i theta} M), one eigensolve gives h
at two antipodal angles: h(theta + pi) = -lambda_min(Re(e^{i theta} M)).
The cells therefore cover [0, pi) and carry two value tracks, theta and
theta + pi; a cell's majorant is the larger of the two tracks'. The
evaluation budget counts angles, two per eigensolve.

The achieved maximum over evaluated angles is the lower endpoint (it is a
value of h, hence a true lower bound); the cell majorants give the upper
endpoint.

omega_p, the generalized radius, is estimated from below by projected-
gradient ascent of F(x) = sum_i |<T_i x, x>|^p over unit vectors, with all
seeded restarts advancing together as one batch. Along the great circle
x cos t + u sin t every <T_i x, x> is alpha + beta cos 2t + gamma sin 2t,
so the line search evaluates F in closed form over a fixed ladder of
angles. A brute-force quasi-uniform sphere scan serves as an oracle for
omega_p at tiny sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import RngStream, derive
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyListError,
    NotSquareError,
    OutOfRangeError,
    ToleranceUnreachableError,
)
from .linalg import adjoint, as_matrix, embed_offdiag, hermitian_part, spectral_norm

# Default cap on angles evaluated certifying one radius (two per eigensolve).
DEFAULT_EVAL_BUDGET = 2_000_000
# Grid angles on the full circle: half as many cells on [0, pi), two tracks.
# Cells start pi/32 wide, inside the w < pi/2 that `_cell_majorant` needs.
_INITIAL_CELLS = 64
_MAX_SPLITS_PER_ROUND = 8192
# Angles per batched eigensolve; bounds the (chunk, n, n) stack and its
# temporaries.
_EIG_CHUNK = 256
# |z|^(p-2) z is treated as 0 below this relative magnitude (p < 2 kink guard).
_PHASE_ZERO_TOL = 1e-14
# Angles tried by the great-circle line search of `_sphere_ascent`: a
# geometric ladder pi/2 * 2^-j down to about 1e-15 for short steps and a
# uniform grid over the half circle (x and -x give the same form values)
# for long ones, with cos 2t and sin 2t precomputed.
_LADDER = np.union1d(0.5 * np.pi * 0.5 ** np.arange(50), np.pi * np.arange(1, 16) / 16)
_LADDER_COS, _LADDER_SIN = np.cos(2.0 * _LADDER), np.sin(2.0 * _LADDER)


@dataclass(frozen=True)
class CertifiedRadius:
    """Enclosure lo <= omega <= hi with hi - lo <= tol.

    lo is h(witness_theta), an attained value; hi is a rigorous majorant.
    evals counts the angles evaluated, two per eigensolve.
    """

    lo: float
    hi: float
    witness_theta: float
    tol: float
    evals: int


def _rotated_tops(m: np.ndarray, m_adj: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """h(theta) and h(theta + pi) for a batch of angles, shape (2, b).

    Both come from one eigensolve of Re(e^{i theta} M) per angle: its
    lambda_max is h(theta) and minus its lambda_min is h(theta + pi).
    """
    out = np.empty((2, thetas.shape[0]))
    for start in range(0, thetas.shape[0], _EIG_CHUNK):
        chunk = thetas[start:start + _EIG_CHUNK]
        phase = np.exp(1j * chunk)
        stack = 0.5 * (phase[:, None, None] * m
                       + np.conj(phase)[:, None, None] * m_adj)
        spectra = np.linalg.eigvalsh(stack)
        out[0, start:start + _EIG_CHUNK] = spectra[:, -1]
        out[1, start:start + _EIG_CHUNK] = -spectra[:, 0]
    return out


def _cell_majorant(u, v, w, nrm):
    """Majorant of h on cells of width w < pi/2 with end values u and v.

    It is the supremum over the cell of every sinusoid r cos(theta - psi)
    with r <= nrm that is at most u at the left end and v at the right
    end. One that peaks outside the cell is highest at an end, so at most
    max(u, v). One that peaks inside, t from the left end, has
    r cos t <= u and r cos(w - t) <= v. When min(u, v) >= max(u, v) cos w
    (u, v > 0 with v >= u cos w and u >= v cos w, or u = v = 0), the
    largest such r has both equal: r = sqrt((u - v)^2 + 4 u v sin^2(w/2))
    / sin w. Otherwise it peaks at an end, at most max(u, v). Arrays
    broadcast elementwise.
    """
    top = np.maximum(u, v)
    peak = np.minimum(u, v) >= top * np.cos(w)
    # the radicand is u^2 + v^2 - 2 u v cos w >= (|u| - |v|)^2 for all signs
    s = np.sqrt((u - v) ** 2 + 4.0 * u * v * np.sin(0.5 * w) ** 2) / np.sin(w)
    return np.where(peak, np.maximum(top, np.minimum(s, nrm)), top)


def omega(m, tol: float | None = None, max_evals: int = DEFAULT_EVAL_BUDGET) -> CertifiedRadius:
    """Certified enclosure of the numerical radius of a square matrix.

    Args:
        m: square complex matrix.
        tol: requested width of the enclosure; defaults to
            1e-8 * max(1, ||M||) and must be finite and
            >= 1e-12 * max(1, ||M||).
        max_evals: budget of angles evaluated before giving up (each
            eigensolve evaluates two, theta and theta + pi).

    Raises:
        OutOfRangeError: tol is not finite or is too small.
        ToleranceUnreachableError: budget exhausted before hi - lo <= tol.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"omega requires a square matrix, got {m.shape}")
    nrm = spectral_norm(m)
    scale = max(1.0, nrm)
    if tol is None:
        tol = 1e-8 * scale
    tol = float(tol)
    if not math.isfinite(tol):
        raise OutOfRangeError(f"tolerance must be finite, got {tol}")
    if tol < 1e-12 * scale:
        raise OutOfRangeError(f"tolerance {tol:.3e} below 1e-12 * max(1, ||M||)")
    if nrm == 0.0:
        return CertifiedRadius(lo=0.0, hi=0.0, witness_theta=0.0, tol=tol, evals=0)

    m_adj = adjoint(m)

    # Cells cover [0, pi); row 0 of each value array tracks h(theta), row 1
    # tracks h(theta + pi). At pi the two tracks meet each other's start.
    grid = np.linspace(0.0, np.pi, _INITIAL_CELLS // 2, endpoint=False)
    h = _rotated_tops(m, m_adj, grid)
    evals = 2 * grid.size

    lefts = grid
    rights = np.append(grid[1:], np.pi)
    h_left = h
    h_right = np.concatenate([h[:, 1:], h[::-1, :1]], axis=1)
    ub = _cell_majorant(h_left, h_right, rights - lefts, nrm).max(axis=0)

    track, best = divmod(int(np.argmax(h)), grid.size)
    lo = float(h[track, best])
    witness = float(grid[best]) + track * np.pi

    while True:
        hi = max(lo, float(ub.max())) if ub.size else lo
        if hi - lo <= tol:
            return CertifiedRadius(lo=lo, hi=hi, witness_theta=witness % (2.0 * np.pi),
                                   tol=tol, evals=evals)

        split = ub > lo + tol
        if split.sum() > _MAX_SPLITS_PER_ROUND:
            # the cap's worth of highest majorants, all above lo + tol
            chosen = np.argpartition(ub, -_MAX_SPLITS_PER_ROUND)[-_MAX_SPLITS_PER_ROUND:]
            split = np.zeros_like(split)
            split[chosen] = True
        hold = (ub > lo) & ~split

        mids = 0.5 * (lefts[split] + rights[split])
        if evals + 2 * mids.size > max_evals:
            raise ToleranceUnreachableError(
                f"angle budget {max_evals} exhausted at width {hi - lo:.3e}"
            )
        h_mid = _rotated_tops(m, m_adj, mids)
        evals += 2 * mids.size

        if mids.size:
            track, top = divmod(int(np.argmax(h_mid)), mids.size)
            if float(h_mid[track, top]) > lo:
                lo = float(h_mid[track, top])
                witness = float(mids[top]) + track * np.pi

        lefts = np.concatenate([lefts[hold], lefts[split], mids])
        rights = np.concatenate([rights[hold], mids, rights[split]])
        h_left = np.concatenate([h_left[:, hold], h_left[:, split], h_mid], axis=1)
        h_right = np.concatenate([h_right[:, hold], h_mid, h_right[:, split]], axis=1)
        # held cells keep their majorants; only the new halves get one
        held = np.count_nonzero(hold)
        ub = np.concatenate([ub[hold], _cell_majorant(
            h_left[:, held:], h_right[:, held:], rights[held:] - lefts[held:], nrm).max(axis=0)])


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


@dataclass(frozen=True)
class OmegaPEstimate:
    """Best found value of (sum_i |<T_i x, x>|^p)^(1/p); a lower bound."""

    value: float
    witness: np.ndarray
    p: float
    restarts_used: int
    converged: bool


def _prepare_ops(ops) -> np.ndarray:
    """The operators stacked into one (k, n, n) complex array."""
    mats = [as_matrix(t) for t in ops]
    if not mats:
        raise EmptyListError("at least one operator is required")
    side = mats[0].shape[0]
    for t in mats:
        if t.shape != (side, side):
            raise DimensionMismatchError(
                f"operators must share one square shape, got {t.shape}"
            )
    return np.stack(mats)


def form_values(stack: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_i x, <T_i x, x>) for a (k, n, n) stack of operators T.

    x is one vector (n,) or a batch (b, n); the results keep the operator
    axis first, with shapes (k, n) and (k,), or (k, b, n) and (k, b).
    """
    tx = x @ np.swapaxes(stack, -1, -2)
    return tx, np.sum(tx * np.conj(x), axis=-1)


def omega_p_objective(ops, p: float, x: np.ndarray):
    """F(x) = sum_i |<T_i x, x>|^p (not yet raised to 1/p).

    A float for one vector x, an array of b values for a (b, n) batch.
    """
    _, z = form_values(np.asarray(ops), np.asarray(x))
    f = np.sum(np.abs(z) ** p, axis=0)
    return float(f) if f.ndim == 0 else f


def omega_p_gradient(ops, p: float, x: np.ndarray,
                     zero_tol: float = 0.0) -> np.ndarray:
    """Euclidean ascent direction of F at x (complex vector, real pairing).

    The directional derivative of F along d equals Re <d, G> with
    G = sum_i c_i T_i x + conj(c_i) T_i* x, c_i = p |z_i|^(p-2) conj(z_i),
    where T_i* x = conj(conj(x) T_i); terms with |z_i| below zero_tol are
    dropped (the p < 2 kink guard). x is one vector or a (b, n) batch,
    giving G of the same shape.
    """
    stack = np.asarray(ops, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    tx, z = form_values(stack, x)
    az = np.abs(z)
    c = np.power(az, p - 2.0, out=np.zeros_like(az), where=az > zero_tol) * (p * np.conj(z))
    return (np.einsum("k...,k...i->...i", c, tx)
            + np.conj(np.einsum("k...,k...i->...i", c, np.conj(x) @ stack)))


def _great_circle(stack: np.ndarray, x: np.ndarray, u: np.ndarray):
    """Coefficients of <T_i y, y> along the great circles y = x cos t + u sin t.

    x and u are (b, n) batches of unit vectors with Re <x, u> = 0. Along
    each circle every value is alpha + beta cos 2t + gamma sin 2t; the
    three (k, b) coefficient arrays come from one product of the stack
    with x and u.
    """
    b = x.shape[0]
    tw, z = form_values(stack, np.concatenate([x, u]))
    cross = np.sum(tw[:, :b] * np.conj(u) + tw[:, b:] * np.conj(x), axis=-1)
    return (z[:, :b] + z[:, b:]) / 2, (z[:, :b] - z[:, b:]) / 2, cross / 2


def _sphere_ascent(stack, p, x0, max_iter, grad_tol, zero_tol):
    """Projected-gradient ascent of F on the unit sphere, advancing a
    (b, n) batch of starts x0 in lockstep.

    Each iteration evaluates F in closed form along the great circle
    through x in the direction of the tangent gradient, at every angle of
    `_LADDER`, moves to the best one, and keeps the move only if the
    recomputed F(x) does not decrease. A row leaves the batch when its
    tangent gradient drops below grad_tol, when a move is refused (it
    would repeat exactly) or after three moves in a row that gain nothing.
    Returns the final x (b, n) and F(x) (b,).
    """
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    f = omega_p_objective(stack, p, x)
    out_x, out_f = x.copy(), f.copy()
    rows = np.arange(x.shape[0])
    stall = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        live = stall < 3
        if not live.all():
            rows, x, f, stall = rows[live], x[live], f[live], stall[live]
        if not rows.size:
            break
        g = omega_p_gradient(stack, p, x, zero_tol)
        gt = g - np.real(np.sum(np.conj(x) * g, axis=1))[:, None] * x
        gn = np.linalg.norm(gt, axis=1)
        live = gn > grad_tol
        if not live.all():
            rows, x, f, stall, gt, gn = rows[live], x[live], f[live], stall[live], gt[live], gn[live]
            if not rows.size:
                break
        u = gt / gn[:, None]
        alpha, beta, gamma = _great_circle(stack, x, u)
        curve = np.sum(np.abs(alpha[..., None] + beta[..., None] * _LADDER_COS
                              + gamma[..., None] * _LADDER_SIN) ** p, axis=0)
        t = _LADDER[np.argmax(curve, axis=1)][:, None]
        cand = x * np.cos(t) + u * np.sin(t)
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = omega_p_objective(stack, p, cand)
        up = fc >= f
        gain = fc - f
        x = np.where(up[:, None], cand, x)
        f = np.where(up, fc, f)
        stall = np.where(~up, 3, np.where(gain <= 1e-16 * np.maximum(1.0, f), stall + 1, 0))
        out_x[rows], out_f[rows] = x, f
    return out_x, out_f


def _dual_gap(stack: np.ndarray, p: float, x: np.ndarray) -> float:
    """lambda_max(Re sum_i conj(c_i) T_i) - ||z||_p at a unit vector x.

    z_i = <T_i x, x> and c = |z|^(p-1) sign(z) / ||z||_p^(p-1) is the unit
    q-norm dual of z. The gap is >= 0, and 0 exactly when x maximizes the
    linearized problem max_y Re sum_i conj(c_i) <T_i y, y>; inf when z = 0.
    """
    _, z = form_values(stack, x)
    az = np.abs(z)
    norm = float(np.sum(az ** p) ** (1.0 / p))
    if norm == 0.0:
        return math.inf
    c = np.divide(z, az, out=np.zeros_like(z), where=az > 0.0) * (az / norm) ** (p - 1.0)
    form = hermitian_part(np.tensordot(np.conj(c), stack, axes=1))
    return float(np.linalg.eigvalsh(form)[-1]) - norm


def omega_p(
    ops,
    p: float,
    restarts: int | None = None,
    tol: float | None = None,
    stream: RngStream | None = None,
    max_iter: int = 300,
) -> OmegaPEstimate:
    """Estimate the generalized Euclidean operator radius from below.

    Runs :func:`_sphere_ascent` on F(x) = sum_i |<T_i x, x>|^p from
    `restarts` (default 8n) starts, restart k drawn from derive(stream, k),
    and keeps the best; the value is recomputed from the witness, so it is
    a true lower bound. `tol` (absolute, default 1e-8 * max(1, max ||T_i||))
    sets the ascent's stopping gradient, and `converged` means the
    :func:`_dual_gap` at the witness is <= tol: a first-order certificate,
    not a global one (with all <T_i x, x> = 0, True only for zero T_i).
    """
    stack = _prepare_ops(ops)
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    side = stack.shape[1]
    if restarts is None:
        restarts = 8 * side
    if restarts < 1:
        raise OutOfRangeError(f"restarts must be >= 1, got {restarts}")
    if stream is None:
        stream = RngStream(master_seed=0)
    norms = [spectral_norm(t) for t in stack]
    scale = max(1.0, max(norms))
    if tol is None:
        tol = 1e-8 * scale
    if math.isnan(tol):
        raise OutOfRangeError("tolerance must not be NaN")
    # stop a restart once the tangent gradient falls to a tenth of the
    # requested relative tolerance, in the objective's own units
    f_cap = sum(nv ** p for nv in norms)
    grad_tol = 0.1 * (float(tol) / scale) * p * max(1.0, f_cap)

    starts = np.empty((restarts, side), dtype=np.complex128)
    for k in range(restarts):
        g = derive(stream, k).generator()
        x0 = g.standard_normal(side) + 1j * g.standard_normal(side)
        starts[k] = x0 if x0.any() else 1.0
    x, f = _sphere_ascent(stack, p, starts, max_iter, grad_tol, _PHASE_ZERO_TOL * scale)
    best = int(np.argmax(f))
    witness = x[best] / np.linalg.norm(x[best])
    return OmegaPEstimate(
        value=float(omega_p_objective(stack, p, witness) ** (1.0 / p)),
        witness=witness,
        p=p,
        restarts_used=restarts,
        converged=max(norms) == 0.0 or _dual_gap(stack, p, witness) <= tol,
    )


def omega_p_bruteforce(ops, p: float, grid_density: int = 16384) -> float:
    """Lower-bound oracle for omega_p at sides <= 3.

    Scans a quasi-uniform (scrambled Sobol through the Gaussian map) sample
    of the unit sphere of the stated size, then polishes the best candidates
    with Nelder-Mead. Independent of the gradient-ascent estimator.
    """
    from scipy.optimize import minimize
    from scipy.special import ndtri
    from scipy.stats import qmc

    stack = _prepare_ops(ops)
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    side = stack.shape[1]
    if side > 3:
        raise DimensionTooLargeError(
            f"brute force supports sides <= 3, got {side}"
        )
    if grid_density < 2:
        raise OutOfRangeError("grid_density must be >= 2")

    dim = 2 * side
    sob = qmc.Sobol(d=dim, scramble=True, seed=9001)
    u = sob.random_base2(max(1, math.ceil(math.log2(grid_density))))
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    pts = z[:, :side] + 1j * z[:, side:]
    lens = np.linalg.norm(pts, axis=1)
    pts = pts[lens > 1e-12]
    pts /= np.linalg.norm(pts, axis=1)[:, None]

    inner = np.einsum("bi,kij,bj->kb", np.conj(pts), stack, pts)
    f_vals = np.sum(np.abs(inner) ** p, axis=0)

    order = np.argsort(f_vals)[::-1]
    best = float(f_vals[order[0]])

    def neg_f(w):
        v = w[:side] + 1j * w[side:]
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            return 0.0
        v = v / nv
        return -omega_p_objective(stack, p, v)

    for idx in order[:8]:
        w0 = np.concatenate([pts[idx].real, pts[idx].imag])
        res = minimize(neg_f, w0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 4000, "maxfev": 8000})
        best = max(best, float(-res.fun))

    return best ** (1.0 / p)
