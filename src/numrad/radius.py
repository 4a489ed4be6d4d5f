"""Numerical radius with certified enclosures, and the generalized
Euclidean operator radius.

The numerical radius of a square matrix M is recovered from the rotation
identity: with h(theta) = lambda_max(Re(e^{i theta} M)), the radius equals
max_theta h(theta) over a full period. h is 1-dimensional, continuous and
generally multimodal, so the enclosure comes from branch-and-bound over
angle cells with two rigorous majorants derived from ||M||:

* Lipschitz: |h(t1) - h(t2)| <= ||M|| |t1 - t2|, giving
  (h(a)+h(b))/2 + ||M|| w/2 on a cell of width w;
* curvature: for every unit x, Re(e^{i theta}<Mx, x>) has second derivative
  bounded below by -||M||, so h(mid + s) + ||M|| s^2 / 2 is convex and
  h <= max(h(a), h(b)) + ||M|| w^2 / 8 on the cell.

The achieved maximum over evaluated angles is the lower endpoint (it is a
value of h, hence a true lower bound); the cell majorants give the upper
endpoint.

`sphere_maximize` is the one sphere optimizer of the package: seeded
restarts of a projected-gradient line-search ascent on the unit sphere,
taking the objective and its gradient as callables. The generalized radius
omega_p is estimated from below with it, over the operators stacked into
one (k, n, n) array; the gap term of `bounds.bound_main3` uses it on the
negated gap. A brute-force quasi-uniform sphere scan serves as an oracle
for omega_p at tiny sizes.
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
from .linalg import adjoint, as_matrix, embed_offdiag, spectral_norm

# Default cap on eigendecompositions spent certifying one radius.
DEFAULT_EVAL_BUDGET = 2_000_000
_INITIAL_CELLS = 64
_MAX_SPLITS_PER_ROUND = 8192
# |z|^(p-2) z is treated as 0 below this relative magnitude (p < 2 kink guard).
_PHASE_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class CertifiedRadius:
    """Enclosure lo <= omega <= hi with hi - lo <= tol.

    lo is h(witness_theta), an attained value; hi is a rigorous majorant.
    """

    lo: float
    hi: float
    witness_theta: float
    tol: float


def _rotated_tops(m: np.ndarray, m_adj: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(Re(e^{i theta} M)) for a batch of angles."""
    out = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], 4096):
        chunk = thetas[start:start + 4096]
        phase = np.exp(1j * chunk)
        stack = 0.5 * (phase[:, None, None] * m
                       + np.conj(phase)[:, None, None] * m_adj)
        out[start:start + 4096] = np.linalg.eigvalsh(stack)[:, -1]
    return out


def omega(m, tol: float | None = None, max_evals: int = DEFAULT_EVAL_BUDGET) -> CertifiedRadius:
    """Certified enclosure of the numerical radius of a square matrix.

    Args:
        m: square complex matrix.
        tol: requested width of the enclosure; defaults to
            1e-8 * max(1, ||M||) and must be >= 1e-12 * max(1, ||M||).
        max_evals: budget of eigendecompositions before giving up.

    Raises:
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
    if tol < 1e-12 * scale:
        raise OutOfRangeError(f"tolerance {tol:.3e} below 1e-12 * max(1, ||M||)")
    if nrm == 0.0:
        return CertifiedRadius(lo=0.0, hi=0.0, witness_theta=0.0, tol=tol)

    m_adj = adjoint(m)
    lip = nrm   # global Lipschitz constant of h
    curv = nrm  # lower bound on -h'' along every supporting cosine

    grid = np.linspace(0.0, 2.0 * np.pi, _INITIAL_CELLS, endpoint=False)
    h = _rotated_tops(m, m_adj, grid)
    evals = grid.size

    lefts = grid
    rights = np.append(grid[1:], 2.0 * np.pi)
    h_left = h
    h_right = np.append(h[1:], h[0])

    best = int(np.argmax(h))
    lo = float(h[best])
    witness = float(grid[best])

    while True:
        width = rights - lefts
        ub = np.minimum(
            0.5 * (h_left + h_right) + 0.5 * lip * width,
            np.maximum(h_left, h_right) + 0.125 * curv * width * width,
        )
        hi = max(lo, float(ub.max())) if ub.size else lo
        if hi - lo <= tol:
            return CertifiedRadius(lo=lo, hi=hi,
                                   witness_theta=witness % (2.0 * np.pi), tol=tol)

        keep = ub > lo
        split = ub > lo + tol
        if split.sum() > _MAX_SPLITS_PER_ROUND:
            order = np.argsort(ub)[::-1][:_MAX_SPLITS_PER_ROUND]
            chosen = np.zeros_like(split)
            chosen[order] = True
            split &= chosen
        hold = keep & ~split

        mids = 0.5 * (lefts[split] + rights[split])
        if evals + mids.size > max_evals:
            raise ToleranceUnreachableError(
                f"eigendecomposition budget {max_evals} exhausted at width {hi - lo:.3e}"
            )
        h_mid = _rotated_tops(m, m_adj, mids)
        evals += mids.size

        top = int(np.argmax(h_mid)) if h_mid.size else -1
        if top >= 0 and float(h_mid[top]) > lo:
            lo = float(h_mid[top])
            witness = float(mids[top])

        lefts = np.concatenate([lefts[hold], lefts[split], mids])
        rights = np.concatenate([rights[hold], mids, rights[split]])
        h_left = np.concatenate([h_left[hold], h_left[split], h_mid])
        h_right = np.concatenate([h_right[hold], h_mid, h_right[split]])


def omega_offdiag_symmetric_check(
    x, tol: float | None = None
) -> tuple[CertifiedRadius, CertifiedRadius]:
    """Certified radii of X and of [[0, X], [X, 0]].

    The two intervals must overlap (after widening by 1e-9 * scale);
    the embedded symmetric matrix has the same numerical radius as X.
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


def omega_p_objective(ops, p: float, x: np.ndarray) -> float:
    """F(x) = sum_i |<T_i x, x>|^p (not yet raised to 1/p)."""
    x = np.asarray(x)
    z = (np.asarray(ops) @ x) @ np.conj(x)
    return float(np.sum(np.abs(z) ** p))


def omega_p_gradient(ops, p: float, x: np.ndarray,
                     zero_tol: float = 0.0) -> np.ndarray:
    """Euclidean ascent direction of F at x (complex vector, real pairing).

    The directional derivative of F along d equals Re <d, G> with
    G = sum_i p |z_i|^(p-2) (conj(z_i) T_i x + z_i T_i* x); terms with
    |z_i| below zero_tol are dropped (the p < 2 kink guard).
    """
    stack = np.asarray(ops, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    xc = np.conj(x)
    tx = stack @ x
    z = tx @ xc
    az = np.abs(z)
    c = np.power(az, p - 2.0, out=np.zeros_like(az), where=az > zero_tol) * (p * np.conj(z))
    # sum_i c_i T_i x + conj(c_i) T_i* x, where T_i* x = conj(conj(x) @ T_i)
    return c @ tx + np.conj(c @ (xc @ stack))


def _sphere_ascent(value, gradient, x0, max_iter, grad_tol, ceiling=math.inf):
    """Projected-gradient ascent of value(x) on the unit sphere.

    Steps along the tangent part of gradient(x) with a backtracking line
    search. A first try that succeeds probes one doubled step; otherwise
    the accepted step is refined by parabolic interpolation through the
    bracketing evaluations, which avoids the slow ping-pong across a ridge
    that pure step-halving produces. The iterate value never decreases.
    The ascent stops when the tangent gradient drops below grad_tol
    (converged), when the value reaches `ceiling` (a known supremum), or
    after three steps in a row that gain nothing.
    """

    def retract(base, direction, length):
        cand = base + length * direction
        cand /= np.linalg.norm(cand)
        return cand, value(cand)

    x = x0 / np.linalg.norm(x0)
    f = value(x)
    step = 1.0
    converged = False
    stall = 0
    for _ in range(max_iter):
        if f >= ceiling:
            break
        g = gradient(x)
        gt = g - np.real(np.vdot(x, g)) * x
        gn = float(np.linalg.norm(gt))
        if gn <= grad_tol:
            converged = True
            break
        trail: list[tuple[float, float]] = []
        accepted = None
        sigma = step
        while sigma >= 1e-18:
            cand, fc = retract(x, gt, sigma)
            trail.append((sigma, fc))
            if fc >= f + 1e-4 * sigma * gn * gn:
                accepted = (sigma, cand, fc)
                break
            sigma *= 0.5
        if accepted is None:
            break
        sigma, cand, fc = accepted
        if len(trail) == 1:
            # first try succeeded: probe expansion once
            cand2, fc2 = retract(x, gt, 2.0 * sigma)
            if fc2 > fc:
                sigma, cand, fc = 2.0 * sigma, cand2, fc2
        else:
            # parabola through (0, f), (sigma, fc) and the rejected 2*sigma
            f_reject = trail[-2][1]
            denom = f_reject - 2.0 * fc + f
            if denom < 0.0:
                vertex = sigma * 0.5 * (f_reject - 4.0 * fc + 3.0 * f) / denom
                if 0.0 < vertex < 2.0 * sigma:
                    cand3, fc3 = retract(x, gt, vertex)
                    if fc3 > fc:
                        sigma, cand, fc = vertex, cand3, fc3
        improvement = fc - f
        x, f = cand, fc
        step = min(max(sigma * 2.0, 1e-12), 1e6)
        stall = stall + 1 if improvement <= 1e-16 * max(1.0, f) else 0
        if stall >= 3:
            break
    return x, f, converged


def sphere_maximize(value, gradient, dim: int, restarts: int, stream: RngStream,
                    max_iter: int, grad_tol: float,
                    ceiling: float = math.inf) -> tuple[np.ndarray, float]:
    """Best (x, value(x)) of :func:`_sphere_ascent` over seeded restarts.

    Restart k starts from a complex Gaussian point of dimension `dim`
    drawn from derive(stream, k).
    """
    if restarts < 1:
        raise OutOfRangeError(f"restarts must be >= 1, got {restarts}")
    best_x, best_f = None, -math.inf
    for k in range(restarts):
        g = derive(stream, k).generator()
        x0 = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        if not x0.any():
            x0 = np.ones(dim, dtype=np.complex128)
        x, f, _ = _sphere_ascent(value, gradient, x0, max_iter, grad_tol, ceiling)
        if best_x is None or f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


def omega_p(
    ops,
    p: float,
    restarts: int | None = None,
    tol: float | None = None,
    stream: RngStream | None = None,
    max_iter: int = 300,
) -> OmegaPEstimate:
    """Estimate the generalized Euclidean operator radius from below.

    Runs :func:`sphere_maximize` on F(x) = sum_i |<T_i x, x>|^p from
    `restarts` independent seeded starts and keeps the best. The reported
    value is recomputed from the witness, so it is always a true lower
    bound on the radius.
    """
    stack = _prepare_ops(ops)
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    side = stack.shape[1]
    if restarts is None:
        restarts = 8 * side
    if stream is None:
        stream = RngStream(master_seed=0)
    norms = [spectral_norm(t) for t in stack]
    scale = max(1.0, max(norms))
    if tol is None:
        tol = 1e-8 * scale
    # stop a restart once the tangent gradient falls to a tenth of the
    # requested relative tolerance, in the objective's own units
    f_cap = sum(nv ** p for nv in norms)
    grad_tol = 0.1 * (float(tol) / scale) * p * max(1.0, f_cap)
    zero_tol = _PHASE_ZERO_TOL * scale

    # looked up by module name at call time, so patched counters see them
    def value(x):
        return omega_p_objective(stack, p, x)

    def gradient(x):
        return omega_p_gradient(stack, p, x, zero_tol)

    best_x, best_f = sphere_maximize(value, gradient, side, restarts, stream,
                                     max_iter, grad_tol)
    # polish the winner with a second, longer run from its own endpoint
    x, f, _ = _sphere_ascent(value, gradient, best_x, 2 * max_iter, grad_tol * 0.1)
    if f >= best_f:
        best_x, best_f = x, f

    best_x = best_x / np.linalg.norm(best_x)
    g_fin = gradient(best_x)
    gt_fin = g_fin - np.real(np.vdot(best_x, g_fin)) * best_x
    return OmegaPEstimate(
        value=float(value(best_x) ** (1.0 / p)),
        witness=best_x,
        p=p,
        restarts_used=restarts,
        converged=bool(float(np.linalg.norm(gt_fin)) <= grad_tol),
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
