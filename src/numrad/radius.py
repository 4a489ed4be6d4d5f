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
The cells therefore cover [0, pi), starting as 8 cells pi/8 wide, and
carry two value tracks, theta and theta + pi; a cell's majorant is the
larger of the two tracks'. The evaluation budget counts angles, two per
eigensolve, so the initial grid costs 16.

An operator whose graph of nonzero entries is bipartite (`_bipartition`),
such as [[0, X], [Y, 0]] or a shift, takes a cheaper kernel: Re(e^{i theta}
M) permutes to 1/2 [[0, K], [K*, 0]] with K = e^{i theta} M[A][:, B] +
e^{-i theta} M[B][:, A]*, so h(theta) = h(theta + pi) = sigma_max(K) / 2,
one SVD of the |A| x |B| block per angle in place of an eigensolve of
side n (Hirzallah, Kittaneh & Shebrawi, Integral Equations Operator
Theory 71, 2011). Such an operator's cells also get a cap on their
majorant (`_cell_majorant`), which closes [[0, X], [0, 0]] on the initial
grid.

Where the field of values is a disk, h is flat at the radius and the cells
would have to shrink to a width of about sqrt(8 tol / omega). Such an
operator closes by a PSD certificate instead (`_ando_bound`, after Ando's
characterization of the radius), which it tries at lo + tol/4 in every
round that splits at least 16 of its cells; over both default seeds, the
default campaign never tries it.

The achieved maximum over evaluated angles is the lower endpoint (it is a
value of h, hence a true lower bound); the cell majorants, or the
certificate where it is smaller, give the upper endpoint.

`omega_many` runs the branch and bound of several operators, of any sides,
in lockstep: each round makes one batched solve per kernel and side (or
block shape) over the live cells of its operators, while the split cap,
the angle budget, the lower end and witness, and termination stay per
operator. An operator's kernel depends on it alone, its cells keep the
order they would have alone and each angle's matrix is built the same way
whatever else shares its batch, so every result equals a lone run to the
bit; `omega` is the lockstep run of one operator.

omega_p, the generalized radius, is estimated from below by projected-
gradient ascent of F(x) = sum_i |<T_i x, x>|^p over unit vectors from
seeded restarts. Along the great circle x cos t + u sin t every
<T_i x, x> is alpha + beta cos 2t + gamma sin 2t, so the line search
evaluates F in closed form over a fixed ladder of angles. An ascent is a
request (`ascent_request`), and `ascend_many` advances the restarts of
every request of one operator count, side and p in lockstep: each
product is one batched call of every request's rows with its own stack,
and each other step one call over all rows, while the stopping gradient,
the iteration budget and the exits stay per request, so every request
ends as it would alone, to the bit. `omega_p` runs its own request as a
batch of one, or takes the ends of one that ran in a larger batch, and
picks the witness, recomputes the value and judges convergence itself.
A brute-force quasi-uniform sphere scan serves as an oracle for omega_p
at tiny sizes.

Both run at norm [1/2, 1) (`_unit_scaled`), on M 2^-e or T 2^-e, e the
binary exponent of ||M|| or max ||T_i||, at tol 2^-e, and scale their ends
or value back. So no square underflows or overflows, every tolerance is
relative to the operators' norm, and omega(2^k M, 2^k tol) and omega_p(2^k
T) are 2^k times the originals, to the bit. Where scaling rounds entries of
M among the subnormals, omega's ends widen by one ulp.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ensembles import RngStream, derive
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyListError,
    NotSquareError,
    NumradError,
    OutOfRangeError,
    ToleranceUnreachableError,
)
from .linalg import as_matrix, embed_offdiag, hermitian_part, spectral_norm

# Default cap on angles evaluated certifying one radius (two per eigensolve).
DEFAULT_EVAL_BUDGET = 2_000_000
# Grid angles on the full circle: half as many cells on [0, pi), two tracks.
# Cells start pi/8 wide, inside the w < pi/2 that `_cell_majorant` and its
# bipartite cap need.
_INITIAL_CELLS = 16
_MAX_SPLITS_PER_ROUND = 8192
# Angles per batched solve; bounds the (chunk, n, n) stack and its
# temporaries, which also stay within 2^12 matrix (or block) entries.
_EIG_CHUNK = 256
_EIG_CHUNK_ENTRIES = 2 ** 12
# The initial cells' left and right ends.
_GRID = np.linspace(0.0, np.pi, _INITIAL_CELLS // 2, endpoint=False)
_GRID_RIGHTS = np.append(_GRID[1:], np.pi)
# An operator tries the `_ando_bound` certificate in every round that splits
# at least this many of its cells: a disk, whose first round splits all 8
# initial cells, tries it in its second.
_CERTIFY_SPLITS = 16
# Doubling steps allowed to build the certificate.
_DOUBLING_STEPS = 60
_EPS = np.finfo(np.float64).eps
# |z|^(p-2) z is treated as 0 below this magnitude (p < 2 kink guard); every
# ascent runs at norm about 1 (`_ascent_setup`), so this is relative.
_PHASE_ZERO_TOL = 1e-14
# Angles tried by the great-circle line search of `_lockstep_ascent`: a
# geometric ladder pi/2 * 2^-j down to about 1e-15 for short steps and a
# uniform grid over the half circle (x and -x give the same form values)
# for long ones, with cos 2t and sin 2t precomputed.
_LADDER = np.union1d(0.5 * np.pi * 0.5 ** np.arange(50), np.pi * np.arange(1, 16) / 16)
_LADDER_COS, _LADDER_SIN = np.cos(2.0 * _LADDER), np.sin(2.0 * _LADDER)


@dataclass(frozen=True)
class CertifiedRadius:
    """Enclosure lo <= omega <= hi; hi - lo <= tol but for subnormal rounding.

    lo is h(witness_theta), an attained value; hi is a rigorous majorant,
    the largest cell majorant or, where smaller, a PSD certificate
    (`_ando_bound`). evals counts the angles evaluated, two per
    eigensolve; rounds counts the splitting rounds after the initial grid.
    Both count the branch and bound's work only, not the certificate's.
    """

    lo: float
    hi: float
    witness_theta: float
    tol: float
    evals: int
    rounds: int


def _rotated_tops(kernels: list, thetas: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """h(theta) and h(theta + pi) of operator owner[j] at angle thetas[j],
    shape (2, c). `kernels` holds (first, ms, adjs, svd) stacks of the
    operators first, first + 1, ...; `owner` is nondecreasing.

    Where svd is False, ms is a (b, n, n) stack, adjs its adjoints, and
    both come from one eigensolve of Re(e^{i theta} M) per angle: its
    lambda_max is h(theta) and minus its lambda_min is h(theta + pi).
    Otherwise ms and adjs are the (b, |A|, |B|) blocks X and Y* of
    bipartite operators (`_bipartition`), and both are sigma_max(e^{i
    theta} X + e^{-i theta} Y*) / 2, from one SVD per angle (|k| / 2 for
    cheaper 1x1 blocks).
    Angles are solved in chunks of at most _EIG_CHUNK angles and
    _EIG_CHUNK_ENTRIES matrix (or block) entries, one angle at least,
    however many operators the kernels hold. A chunk of one owner
    broadcasts that operator as a 3-d slice and any other gathers one
    operator per angle. Both are 3-d operands, which round alike, so an
    angle's bits do not depend on its chunk-mates.
    """
    out = np.empty((2, thetas.shape[0]))
    for first, ms, adjs, svd in kernels:
        lo, hi = np.searchsorted(owner, [first, first + ms.shape[0]])
        if lo == hi:
            continue
        step = min(_EIG_CHUNK, max(1, _EIG_CHUNK_ENTRIES // ms[0].size))
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            own = owner[start:stop] - first
            pick = slice(own[0], own[0] + 1) if own[0] == own[-1] else own
            phase = np.exp(1j * thetas[start:stop])
            stack = phase[:, None, None] * ms[pick]
            stack += np.conj(phase)[:, None, None] * adjs[pick]
            stack *= 0.5
            if not svd:
                spectra = np.linalg.eigvalsh(stack)
                out[0, start:stop] = spectra[:, -1]
                out[1, start:stop] = -spectra[:, 0]
            elif stack.shape[1:] == (1, 1):
                out[:, start:stop] = np.abs(stack[:, 0, 0])
            else:
                out[:, start:stop] = np.linalg.svd(stack, compute_uv=False)[:, 0]
    return out


def _cell_majorant(u, v, w, nrm, amp):
    """Majorant of h on cells of width w < pi/2 with end values u and v.

    It is the supremum over the cell of every sinusoid r cos(theta - psi)
    with r <= nrm that is at most u at the left end and v at the right
    end. One that peaks outside the cell is highest at an end, so at most
    max(u, v). One that peaks inside, t from the left end, has
    r cos t <= u and r cos(w - t) <= v. When min(u, v) >= max(u, v) cos w
    (u, v > 0 with v >= u cos w and u >= v cos w, or u = v = 0), the
    largest such r has both equal: r = sqrt((u - v)^2 + 4 u v sin^2(w/2))
    / sin w. Otherwise it peaks at an end, at most max(u, v).

    For a bipartite operator the result is capped at
    sqrt(max(u, v)^2 + amp sin^2(w/2)), amp = ||X||_F ||Y*||_F (inf for
    any other operator). There 4 h^2 is a maximum of c + d cos(2 theta +
    phi) with d <= 2 ||X|| ||Y||, and such a term peaking inside the cell,
    at most w from its larger end in theta, rises above that end by at
    most d (1 - cos w) = 2 d sin^2(w/2). The sinusoid bound is that
    class's c >= d half and the cap its d <= 2 ||X|| ||Y|| half, so their
    minimum is a majorant too. Arrays broadcast elementwise.
    """
    top = np.maximum(u, v)
    peak = np.minimum(u, v) >= top * np.cos(w)
    half = np.sin(0.5 * w) ** 2
    # the radicand is u^2 + v^2 - 2 u v cos w >= (|u| - |v|)^2 for all signs
    s = np.sqrt((u - v) ** 2 + 4.0 * u * v * half) / np.sin(w)
    return np.minimum(np.where(peak, np.maximum(top, np.minimum(s, nrm)), top),
                      np.sqrt(top * top + amp * half))


def _ando_bound(m: np.ndarray, level: float) -> float:
    """Upper bound on the numerical radius of m from one PSD test at
    `level`; inf where the test overflows.

    For Hermitian X let H = [[X, -m], [-m*, 2 level I - X]]. A unit x and
    w = [x; e^{i theta} x] give w* H w = 2 level - 2 Re(e^{i theta} <m x,
    x>) >= |w|^2 lambda_min(H) = 2 lambda_min(H), so omega(m) <= level -
    lambda_min(H) for every Hermitian X (Ando's characterization, doubled
    so that the off-diagonal blocks are m itself). H is PSD and singular
    when X solves X + m* X^{-1} m = 2 level I, its Schur complement being
    0; such an X exists exactly when level >= omega(m). X is the Q_k of
    the structure-preserving doubling algorithm (Lin & Xu, SIAM J. Matrix
    Anal. Appl. 28, 2006), which decreases to the equation's largest
    solution; a Q_k - P_k whose Cholesky factorization fails means level
    is below the radius, and the bound is inf. An X that solves the
    equation only roughly still gives a valid, looser bound.

    Rounding: lambda_min(H) is taken err = 2n u' ||H||_F lower than
    eigvalsh gives it, a backward-error allowance for the 2n x 2n solve
    (u' = 2^-52, twice the unit roundoff). The only rounded entries of H,
    the diagonal 2 level - X_ii, add u'/2 max |2 level - X_ii|, at least
    half of max |E_ii| as (e^{i theta} x)* E (e^{i theta} x) <= max |E_ii|.
    The last sum is rounded up. `omega_many` scales m to norm [1/2, 1),
    so no square overflows and what underflows lies far below err.
    """
    n = m.shape[0]
    level = 2.0 * level
    q, p, ak = level * np.eye(n, dtype=np.complex128), np.zeros((n, n), np.complex128), m
    for _ in range(_DOUBLING_STEPS):
        d = q - p
        try:
            np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            return math.inf
        w = np.linalg.solve(d, np.concatenate([ak, np.conj(ak).T], axis=1))
        step = np.conj(ak).T @ w[:, :n]
        q, p, ak = q - step, p + ak @ w[:, n:], ak @ w[:, :n]
        if not np.abs(step).max() > _EPS * level:
            break
    x = 0.5 * (q + np.conj(q).T)
    if not np.isfinite(x).all():
        return math.inf
    h = np.block([[x, -m], [-np.conj(m).T, level * np.eye(n) - x]])
    low = float(np.linalg.eigvalsh(h)[0])
    err = 2 * n * _EPS * float(np.linalg.norm(h))
    hi = (0.5 * level + max(0.0, err - low)
          + 0.5 * _EPS * float(np.abs(level - x.diagonal().real).max())) * (1.0 + 4.0 * _EPS)
    return hi if math.isfinite(hi) else math.inf


def omega(m, tol: float | None = None, max_evals: int = DEFAULT_EVAL_BUDGET) -> CertifiedRadius:
    """Certified enclosure of the numerical radius of a square matrix.

    Args:
        m: square complex matrix.
        tol: requested width of the enclosure; defaults to 1e-8 ||M||
            and must be finite and >= 1e-12 ||M||.
        max_evals: budget of angles evaluated before giving up (each
            eigensolve evaluates two, theta and theta + pi).

    Raises:
        NotSquareError: m is not square.
        OutOfRangeError: tol is not finite or is too small, or an end
            scaled back lies past the float range.
        ToleranceUnreachableError: budget exhausted before hi - lo <= tol.
    """
    (out,) = omega_many([m], [tol], max_evals)
    if isinstance(out, NumradError):
        raise out
    return out


def omega_many(mats, tols, max_evals: int = DEFAULT_EVAL_BUDGET, norms=None) -> list:
    """:func:`omega` of operators of any sides, certified in lockstep.

    tols[i] (None for the default) and the budget apply to mats[i] alone,
    and so do the split cap, the witness updates and termination; only the
    solves of each round are shared, one batch per kernel and side (or
    block shape) over the live cells of its operators. Returns one
    CertifiedRadius, or the NumradError :func:`omega` would raise, per
    operator; each equals :func:`omega` of that operator alone to the bit.

    norms[i], when given, is ``spectral_norm(mats[i])`` as the caller took
    it, and stands in for that SVD here; the results keep their bits. Each
    operator runs at norm [1/2, 1), its tol and checks alike (`_unit_scaled`).

    Raises:
        DimensionMismatchError: tols or norms has another length than
            mats.
    """
    mats, tols = list(mats), list(tols)
    norms = [None] * len(mats) if norms is None else list(norms)
    if not len(tols) == len(norms) == len(mats):
        raise DimensionMismatchError(f"{len(mats)} operators, {len(tols)} tolerances "
                                     f"and {len(norms)} norms")
    out: list = [None] * len(mats)
    # (svd, shape of X or M) -> (index, X or M, Y* or M*, norm, tol, `_rescaled` args)
    groups: dict = {}
    # operators of one call often share a nonzero pattern; each is 2-coloured once
    patterns: dict = {}
    for i, (m, tol, nrm) in enumerate(zip(mats, tols, norms)):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            out[i] = NotSquareError(f"omega requires a square matrix, got {m.shape}")
            continue
        nrm = spectral_norm(m) if nrm is None else nrm
        tol = relative_tol(1e-8, nrm) if tol is None else float(tol)
        run, e = _unit_scaled(m, nrm)
        # lo >= cos(pi/16) ||M|| / 2 on the initial grid, so a tol above ||M|| closes there
        run_tol = math.ldexp(tol, -e) if tol <= nrm else math.inf
        if not math.isfinite(tol):
            out[i] = OutOfRangeError(f"tolerance must be finite, got {tol}")
        elif run_tol < 1e-12 * math.ldexp(nrm, -e):
            out[i] = OutOfRangeError(f"tolerance {tol:.3e} below 1e-12 ||M||")
        elif nrm == 0.0:
            out[i] = CertifiedRadius(lo=0.0, hi=0.0, witness_theta=0.0, tol=tol,
                                     evals=0, rounds=0)
        else:
            back = (e, tol, e > 0 and not (
                np.ldexp(run.view(np.float64), e).view(np.complex128) == m).all())
            m, nrm, tol = run, math.ldexp(nrm, -e), run_tol
            nz = m != 0
            key = nz.tobytes()
            if key not in patterns:
                patterns[key] = _bipartition(nz)
            parts = patterns[key]
            if parts is None:
                x, y = m, np.conj(m).T
            else:
                a, b = parts
                x, y = m[a[:, None], b], np.conj(m[b[:, None], a]).T
            groups.setdefault((parts is not None, x.shape), []).append((i, x, y, nrm, tol, back))
    if groups:
        kernels, live, amps = [], [], []
        for (svd, _), group in groups.items():
            _, xs, ys, *_ = zip(*group)
            xs, ys = np.stack(xs), np.stack(ys)
            # the `_cell_majorant` caps ||X||_F ||Y*||_F, none for an eigensolve
            amps.append(np.linalg.norm(xs, axis=(1, 2)) * np.linalg.norm(ys, axis=(1, 2))
                        if svd else np.full(len(group), np.inf))
            kernels.append((len(live), xs, ys, svd))
            live += group
        index, _, _, norms, widths, backs = zip(*live)
        done = _branch_and_bound(kernels, np.array(norms), np.concatenate(amps),
                                 np.array(widths), max_evals)
        for i, res, back in zip(index, done, backs):
            out[i] = _rescaled(res, *back)
    return out


def _rescaled(res, e: int, tol: float, rounded: bool):
    """A result of `_branch_and_bound` for M 2^-e as one for M, at the
    caller's tol, or its error. Where scaling rounded entries of M, both
    ends first move one ulp outward: omega is 1-Lipschitz in the norm, and
    M 2^-e moved by at most n 2^-1074, far below an ulp of an end >= 0.24."""
    if not isinstance(res, CertifiedRadius):
        return ToleranceUnreachableError(f"{res}, of M scaled by 2^{-e}")
    try:
        return replace(res, tol=tol, lo=_scaled_back(res.lo, e, -math.inf, rounded),
                       hi=_scaled_back(res.hi, e, math.inf, rounded))
    except OutOfRangeError as err:
        return err


def _unit_scaled(a: np.ndarray, nrm: float) -> tuple[np.ndarray, int]:
    """(a 2^-e, e), e the binary exponent of nrm, so a norm nrm becomes [1/2, 1);
    np.ldexp scales the parts exactly but for those it takes among the subnormals."""
    e = math.frexp(nrm)[1]
    return np.ldexp(np.ascontiguousarray(a).view(np.float64), -e).view(np.complex128), e


def _scaled_back(x: float, e: int, outward: float, nudge: bool = False) -> float:
    """x 2^e, one step toward `outward` where it rounds among the subnormals,
    and first one step where `nudge`; raises OutOfRangeError past the float range."""
    x = math.nextafter(x, outward) if nudge else x
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        raise OutOfRangeError(f"{x!r} 2^{e} lies past the float range") from None
    return y if math.ldexp(y, -e) == x else math.nextafter(y, outward)


def relative_tol(rel: float, nrm: float) -> float:
    """rel ||M|| for nrm = ||M||, rounded up among the subnormals: 0 only for M = 0."""
    e = math.frexp(nrm)[1]
    return _scaled_back(rel * math.ldexp(nrm, -e), e, math.inf)


def _bipartition(nz: np.ndarray):
    """Index arrays (A, B) with nz[A][:, A] and nz[B][:, B] all False that
    cover every index with a True entry in its row or column, for the
    nonzero pattern nz of an operator, or None when its diagonal has a
    True entry or its graph an odd cycle. The graph is 2-coloured breadth
    first, each component from its lowest index; an index in neither class
    only adds zero eigenvalues.
    """
    if nz.diagonal().any():
        return None
    adj = nz | nz.T
    colour = np.zeros(nz.shape[0], dtype=np.int8)
    for s in np.flatnonzero(adj.any(axis=1)):
        if colour[s]:
            continue
        colour[s], front, c = 1, np.arange(s, s + 1), 1
        while front.size:
            near = adj[front].any(axis=0)
            if (colour[near] == c).any():
                return None
            c = 3 - c
            front = np.flatnonzero(near & (colour == 0))
            colour[front] = c
    return np.flatnonzero(colour == 1), np.flatnonzero(colour == 2)


def _operator(kernels: list, k: int) -> np.ndarray:
    """Operator k, by its index across all of `_rotated_tops` kernels, as
    a matrix: M, or [[0, X], [Y, 0]] for a bipartite one, which is M
    permuted and stripped of zero rows and columns, so it has M's
    numerical radius and norm."""
    first, ms, adjs, svd = next(kern for kern in kernels
                                if kern[0] <= k < kern[0] + kern[1].shape[0])
    return embed_offdiag(ms[k - first], np.conj(adjs[k - first]).T) if svd else ms[k - first]


def _raise_lo(lo: np.ndarray, witness: np.ndarray, h_mid: np.ndarray, mids: np.ndarray,
              starts: np.ndarray, lengths: np.ndarray) -> None:
    """Raise each owner's lo, in place, to the highest new value in its run
    of the (2, c) values h_mid at angles mids (runs begin at `starts`),
    and move its witness there.

    A tie goes to the first value in (track, angle) order, where argmax
    over one owner's flattened values lands, and lo moves only on a
    strict rise.
    """
    peak = np.maximum.reduceat(h_mid, starts, axis=1)
    track = (peak[1] > peak[0]).astype(int)
    runs = np.arange(starts.size)
    value = peak[track, runs]
    cols = np.where(h_mid == value.repeat(lengths), np.arange(h_mid.shape[1]), h_mid.shape[1])
    col = np.minimum.reduceat(cols, starts, axis=1)[track, runs]
    up = value > lo
    lo[up], witness[up] = value[up], mids[col[up]] + track[up] * np.pi


def _branch_and_bound(kernels: list, nrm: np.ndarray, amp: np.ndarray, tol: np.ndarray,
                      max_evals: int) -> list:
    """The rounds of :func:`omega_many` over nonzero operators, given as
    `_rotated_tops` kernels, with their norms, `_cell_majorant` caps and
    checked tolerances.

    Each cell has a left and a right end, h at both ends on both tracks
    and a majorant, and `own` names its operator. Cells are kept in owner
    order, and each owner's in the order it would have alone: held cells,
    then the left halves of split cells, then the right halves. Per-owner
    maxima are taken over each owner's run of cells, ties going to its
    first, as they would alone. An operator leaves when it ends, so every
    owner left has a run; each left splits in every round, so all share
    one round count. A lone operator is a batch of one: it runs these
    same steps, so its place in a larger batch differs only in its
    chunk-mates.

    An operator whose round splits at least _CERTIFY_SPLITS of its cells
    tries `_ando_bound` at lo + tol/4 and ends if the smaller upper end
    closes it. The try reads only the operator's own state, looked up in
    `kernels` by its original index, so it keeps every result equal to a
    lone run's; its work is not counted in evals or rounds.
    """
    ids = np.arange(nrm.size)
    out: list = [None] * ids.size

    # Cells cover [0, pi); row 0 of each value array tracks h(theta), row 1
    # tracks h(theta + pi). At pi the two tracks meet each other's start.
    g = _GRID.size
    own = ids.repeat(g)
    starts = ids * g
    lefts, rights = np.tile(_GRID, ids.size), np.tile(_GRID_RIGHTS, ids.size)
    h = _rotated_tops(kernels, lefts, own).reshape(2, -1, g)
    h_left = h.reshape(2, -1)
    h_right = np.concatenate([h[:, :, 1:], h[::-1, :, :1]], axis=2).reshape(2, -1)
    ub = _cell_majorant(h_left, h_right, rights - lefts, nrm[own], amp[own]).max(axis=0)
    # eigensolves each operator may still make
    room0 = (max_evals - 2 * g) // 2
    room = np.full(ids.size, room0)

    flat = h.transpose(1, 0, 2).reshape(ids.size, -1)
    best = flat.argmax(axis=1)
    lo = flat[ids, best]
    track, best = divmod(best, g)
    witness = _GRID[best] + track * np.pi

    for rounds in itertools.count():
        top = np.maximum.reduceat(ub, starts)
        split = ub > (lo + tol)[own]
        splits = np.bincount(own[split], minlength=ids.size)
        done = top - lo <= tol
        for k in np.flatnonzero(~done & (splits >= _CERTIFY_SPLITS)):
            top[k] = min(top[k], _ando_bound(_operator(kernels, ids[k]), lo[k] + 0.25 * tol[k]))
            done[k] = top[k] - lo[k] <= tol[k]
        if splits.max() > _MAX_SPLITS_PER_ROUND:
            for k in np.flatnonzero(splits > _MAX_SPLITS_PER_ROUND):
                # the cap's worth of highest majorants, all above lo + tol
                run = slice(starts[k], starts[k + 1] if k + 1 < starts.size else None)
                chosen = np.argpartition(ub[run], -_MAX_SPLITS_PER_ROUND)[-_MAX_SPLITS_PER_ROUND:]
                split[run] = False
                split[starts[k] + chosen] = True
            splits = np.minimum(splits, _MAX_SPLITS_PER_ROUND)
        gone = done | (splits > room)
        if gone.any():
            for k in np.flatnonzero(gone):
                hi = max(lo[k], top[k])
                out[ids[k]] = CertifiedRadius(
                    lo=float(lo[k]), hi=float(hi),
                    witness_theta=float(witness[k]) % (2.0 * np.pi), tol=float(tol[k]),
                    evals=2 * int(g + room0 - room[k]), rounds=rounds) if done[k] else \
                    ToleranceUnreachableError(f"angle budget {max_evals} exhausted at "
                                              f"width {hi - lo[k]:.3e}")
            keep = ~gone
            if not keep.any():
                return out
            kept = keep[own]
            split, own = split[kept], (np.cumsum(keep) - 1)[own[kept]]
            lefts, rights, ub = lefts[kept], rights[kept], ub[kept]
            h_left, h_right = h_left[:, kept], h_right[:, kept]
            ids, nrm, amp, tol, lo, witness, room, splits = (
                a[keep] for a in (ids, nrm, amp, tol, lo, witness, room, splits))
        hold = (ub > lo[own]) & ~split

        mids = 0.5 * (lefts[split] + rights[split])
        own_mid = own[split]
        h_mid = _rotated_tops(kernels, mids, ids[own_mid])
        starts = np.cumsum(splits) - splits
        room -= splits
        _raise_lo(lo, witness, h_mid, mids, starts, splits)

        lefts = np.concatenate([lefts[hold], lefts[split], mids])
        rights = np.concatenate([rights[hold], mids, rights[split]])
        h_left = np.concatenate([h_left[:, hold], h_left[:, split], h_mid], axis=1)
        h_right = np.concatenate([h_right[:, hold], h_mid, h_right[:, split]], axis=1)
        # held cells keep their majorants; only the new halves get one
        held = np.count_nonzero(hold)
        new = np.concatenate([own_mid, own_mid])
        ub = np.concatenate([ub[hold], _cell_majorant(
            h_left[:, held:], h_right[:, held:], rights[held:] - lefts[held:],
            nrm[new], amp[new]).max(axis=0)])
        own = np.concatenate([own[hold], new])
        order = np.argsort(own, kind="stable")
        own, lefts, rights, ub = own[order], lefts[order], rights[order], ub[order]
        h_left, h_right = h_left[:, order], h_right[:, order]
        counts = np.bincount(own)
        starts = np.cumsum(counts) - counts


@dataclass(frozen=True)
class OmegaPEstimate:
    """Best found value of (sum_i |<T_i x, x>|^p)^(1/p); a lower bound."""

    value: float
    witness: np.ndarray
    p: float
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


def _rows_times(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """x @ mats for one vector x (n,) or rows x (..., b, n).

    numpy hands a one-row product to gemv, which rounds differently from
    the gemm it uses for two rows or more, so a lone row is doubled: each
    row's products then come out the same to the bit however many rows
    share its matrix, and the restarts of one ascent, or of ascents run in
    lockstep (`_lockstep_ascent`), cannot couple through rounding.
    """
    if x.ndim >= 2 and x.shape[-2] != 1:
        return x @ mats
    if x.ndim == 1:
        return (np.concatenate([x, x]).reshape(2, -1) @ mats)[..., 0, :]
    return (np.concatenate([x, x], axis=-2) @ mats)[..., :1, :]


def form_values(stack: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_i x, <T_i x, x>) for a (k, n, n) stack of operators T.

    x is one vector (n,) or a batch (b, n); the results keep the operator
    axis first, with shapes (k, n) and (k,), or (k, b, n) and (k, b).
    """
    tx = _rows_times(x, np.swapaxes(stack, -1, -2))
    return tx, (tx * np.conj(x)).sum(axis=-1)


def _doubled(stack: np.ndarray) -> np.ndarray:
    """[T_i^T; conj(T_i)], shape (2k, ...): x @ it is [T_i x; T_i* x]."""
    return np.concatenate([np.swapaxes(stack, -1, -2), np.conj(stack)])


def _products(doubled: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """W = [T_i x; T_i* x] and z_i = <T_i x, x> from one product with the
    `_doubled` stack, and conj(x); x is one vector (n,) or rows (..., b, n)."""
    w, cx = _rows_times(x, doubled), np.conj(x)
    return w, (w[:doubled.shape[0] // 2] * cx).sum(axis=-1), cx


def omega_p_objective(ops, p: float, x: np.ndarray, z: np.ndarray | None = None):
    """F(x) = sum_i |<T_i x, x>|^p (not yet raised to 1/p).

    A float for one vector x, an array of b values for a (b, n) batch.
    z, when given, holds the values <T_i x, x> already computed at x.
    """
    if z is None:
        _, z = form_values(np.asarray(ops), np.asarray(x))
    f = (np.abs(z) ** p).sum(axis=0)
    return float(f) if f.ndim == 0 else f


def omega_p_gradient(ops, p: float, x: np.ndarray, zero_tol: float = 0.0,
                     products: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Euclidean ascent direction of F at x (complex vector, real pairing).

    The directional derivative of F along d equals Re <d, G> with
    G = sum_i c_i T_i x + conj(c_i) T_i* x, c_i = p |z_i|^(p-2) conj(z_i);
    terms with |z_i| below zero_tol are dropped (the p < 2 kink guard).
    x is one vector or a (b, n) batch, giving G of the same shape.
    `products`, when given, is the pair (W, z) of `_products` at x.
    """
    if products is None:
        products = _products(_doubled(np.asarray(ops, dtype=np.complex128)),
                             np.asarray(x, dtype=np.complex128))[:2]
    w, z = products
    az = np.abs(z)
    c = np.power(az, p - 2.0, out=np.zeros_like(az), where=az > zero_tol) * (p * np.conj(z))
    k = c.shape[0]
    return (np.einsum("k...,k...i->...i", c, w[:k])
            + np.einsum("k...,k...i->...i", np.conj(c), w[k:]))


def _great_circle(stack: np.ndarray, x: np.ndarray, u: np.ndarray,
                  at_x: tuple[np.ndarray, ...] | None = None):
    """Coefficients of <T_i y, y> along the great circles y = x cos t + u sin t.

    x and u are (..., b, n) rows of unit vectors with Re <x, u> = 0. Along
    each circle every value is alpha + beta cos 2t + gamma sin 2t; the
    three (k, ..., b) coefficient arrays come from the products of the
    stack with x and u. `at_x`, when given, is (T_i x, <T_i x, x>,
    conj(x)) already computed, so only T_i u is formed.
    """
    tx, zx, cx = (*form_values(stack, x), np.conj(x)) if at_x is None else at_x
    tu = _rows_times(u, np.swapaxes(stack, -1, -2))
    cu = np.conj(u)
    zu = (tu * cu).sum(axis=-1)
    cross = (tx * cu + tu * cx).sum(axis=-1)
    return (zx + zu) / 2, (zx - zu) / 2, cross / 2


@dataclass(frozen=True, eq=False)
class AscentRequest:
    """One restarted ascent of F(x) = sum_i |<T_i x, x>|^p, as
    :func:`ascent_request` states it for :func:`ascend_many`.

    `stack` holds the (k, n, n) operators scaled by 2^-e to norm [1/2, 1)
    (`_ascent_setup`), and `starts` the (restarts, n) starting points.
    grad_tol, the stopping tangent gradient, is in the scaled objective's
    units. `norms` are the spectral norms of the operators as given, which
    :func:`omega_p` takes back with the ends instead of taking them again.
    """

    stack: np.ndarray
    p: float
    starts: np.ndarray
    max_iter: int
    grad_tol: float
    norms: tuple


class AscentEnds(NamedTuple):
    """Where a request's restarts ended: x (restarts, n), F(x) of the
    request's stack (restarts,), the iterations its restarts ran in all,
    and the request's `norms`."""

    x: np.ndarray
    f: np.ndarray
    steps: int
    norms: tuple


def _ascent_setup(ops, p, restarts, tol, max_iter, norms=None) -> tuple:
    """The checked arguments of :func:`omega_p`, as (stack, p, restarts,
    norms, tol, e): the ascent runs on stack = T 2^-e at tol 2^-e.

    norms, when given, are the spectral norms of ops and stand in for
    those SVDs. T 2^-e has norm [1/2, 1) (`_unit_scaled`); a scaled tol
    that overflows stops every restart at its start.
    """
    stack = _prepare_ops(ops)
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    if restarts is None:
        restarts = 8 * stack.shape[1]
    for name, val, low in (("restarts", restarts, 1), ("max_iter", max_iter, 0)):
        if not (isinstance(val, numbers.Integral) and not isinstance(val, bool) and val >= low):
            raise OutOfRangeError(f"{name} must be an integer >= {low}, got {val!r}")
    norms = tuple(spectral_norm(t) for t in stack) if norms is None else tuple(norms)
    if len(norms) != stack.shape[0]:
        raise DimensionMismatchError(f"{len(norms)} norms for {stack.shape[0]} operators")
    tol = relative_tol(1e-8, max(norms)) if tol is None else float(tol)
    if not math.isfinite(tol) or tol < 0.0:
        # an infinite tol would stop every restart at its start and call it
        # converged; a negative one could never be met
        raise OutOfRangeError(f"tolerance must be finite and >= 0, got {tol}")
    stack, e = _unit_scaled(stack, max(norms))
    with np.errstate(over="ignore"):
        return stack, p, int(restarts), norms, float(np.ldexp(tol, -e)), e


def ascent_request(ops, p: float, restarts: int | None = None, tol: float | None = None,
                   stream: RngStream | None = None, max_iter: int = 300,
                   norms=None) -> AscentRequest:
    """The ascent :func:`omega_p` runs for these arguments, checked as it
    checks them, for :func:`ascend_many`: restart k starts from a draw of
    derive(stream, k). norms, when given, are the spectral norms of ops
    and stand in for those SVDs."""
    stack, p, restarts, norms, tol, e = _ascent_setup(ops, p, restarts, tol, max_iter, norms)
    if stream is None:
        stream = RngStream(master_seed=0)
    side = stack.shape[1]
    starts = np.empty((restarts, side), dtype=np.complex128)
    for k in range(restarts):
        g = derive(stream, k).generator()
        x0 = g.standard_normal(side) + 1j * g.standard_normal(side)
        starts[k] = x0 if x0.any() else 1.0
    # stop a restart once the tangent gradient falls to a tenth of the
    # tolerance, in the scaled objective's own units
    f_cap = sum(math.ldexp(nv, -e) ** p for nv in norms)
    grad_tol = 0.1 * tol * p * max(1.0, f_cap)
    return AscentRequest(stack, p, starts, max_iter, grad_tol, norms)


def ascend_many(requests) -> list:
    """Run :class:`AscentRequest`s, those of one operator count, side and
    p in lockstep (`_lockstep_ascent`). Returns one :class:`AscentEnds`
    per request, equal to the bit to that request run alone."""
    requests = list(requests)
    out: list = [None] * len(requests)
    groups: dict = {}
    for i, req in enumerate(requests):
        groups.setdefault((req.stack.shape, req.p), []).append(i)
    for (_, p), index in groups.items():
        for i, ends in zip(index, _lockstep_ascent([requests[i] for i in index], p)):
            out[i] = ends
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of complex rows, to the bit, without its
    argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _lockstep_ascent(reqs: list, p: float) -> list:
    """Projected-gradient ascent of F on the unit sphere for requests of
    one (k, n) and p, every restart of every request advancing together.

    Each iteration evaluates F in closed form along the great circle
    through x in the direction of the tangent gradient, at every angle of
    `_LADDER`, moves to the best one, and keeps the move only if the
    recomputed F(x) does not decrease. A row leaves when its tangent
    gradient drops below its request's grad_tol, when a move is refused
    (it would repeat exactly), after three moves in a row that gain
    nothing, or when its request has run max_iter iterations. Each row
    carries W = [T_i x; T_i* x] and z = <T_i x, x> with F(x), so an
    iteration forms T_i u for the line search and one product of the
    doubled stack with the candidate, which gives its z and F and, once
    the move is kept, the next W.

    Rows live in a (T, b, n) array, one line per request, so each product
    is one batched call of every request's rows with its own stack and
    every other step one call over all rows. A request with fewer live
    rows than b repeats them to fill its line: a repeat rounds as its
    original does (`_rows_times`), so it leaves with it, and the lines are
    re-gathered only when rows leave. A lone line drops the line axis and
    runs as (b, n) rows against its (k, n, n) stack, the calls of a
    request run alone. No step mixes rows, so each request ends as it
    would alone.
    """
    k, side = reqs[0].stack.shape[:2]
    sizes = np.array([req.starts.shape[0] for req in reqs])
    first = np.cumsum(sizes) - sizes
    out_x = np.empty((int(sizes.sum()), side), dtype=np.complex128)
    out_f = np.empty(out_x.shape[0])
    out_steps = np.zeros(out_x.shape[0], dtype=int)
    # slot: the output row of each place; own: which places are not
    # repeats, None where no line holds repeats
    own = None
    if len(reqs) == 1:
        (req,) = reqs
        stacks, x = req.stack, req.starts
        slot = np.arange(sizes[0])
        grad_tol = req.grad_tol
    else:
        stacks = np.stack([req.stack for req in reqs], axis=1)  # (k, T, n, n)
        width = np.arange(sizes.max())
        slot = first[:, None] + width % sizes[:, None]
        if not (sizes == width.size).all():
            own = width < sizes[:, None]
        x = np.stack([req.starts[width % req.starts.shape[0]] for req in reqs])
        grad_tol = np.array([req.grad_tol for req in reqs])[:, None]
    max_iter = np.array([req.max_iter for req in reqs])
    stop = int(max_iter.min())
    doubled = _doubled(stacks)
    x = x / _row_norms(x)[..., None]
    w, z, cx = _products(doubled, x)
    f = omega_p_objective(stacks, p, x, z)
    stall = np.zeros(f.shape, dtype=int)

    def drop(gone, steps, *extra):
        """Write out the rows `gone` after `steps` iterations and gather the
        rest, with the row arrays `extra`; None when no row is left, else
        the gathered `extra`."""
        nonlocal x, cx, f, stall, slot, w, z, own, stacks, doubled, grad_tol, max_iter, stop
        sel = slot[gone]
        out_x[sel], out_f[sel], out_steps[sel] = x[gone], f[gone], steps
        stay = ~gone if own is None else own & ~gone
        if stay.ndim == 1:
            at = (np.flatnonzero(stay),)
            if not at[0].size:
                return None
        else:
            counts = stay.sum(axis=1)
            lines = np.flatnonzero(counts)
            if not lines.size:
                return None
            if lines.size < counts.size:
                counts, stay = counts[lines], stay[lines]
                stacks, doubled = stacks[:, lines], doubled[:, lines]
                grad_tol, max_iter = grad_tol[lines], max_iter[lines]
                stop = int(max_iter.min())
            if lines.size == 1:
                at = (lines[0], np.flatnonzero(stay[0]))
                stacks, doubled = stacks[:, 0], doubled[:, 0]
                grad_tol, own = grad_tol[0, 0], None
            else:
                # each kept line's staying places first, in order, then repeated
                places = np.arange(counts.max())
                order = np.argsort(~stay, axis=1, kind="stable")
                at = (lines[:, None], np.take_along_axis(order, places % counts[:, None], axis=1))
                own = None if (counts == places.size).all() else places < counts[:, None]
        x, cx, f, stall, slot = x[at], cx[at], f[at], stall[at], slot[at]
        w, z = w[(slice(None), *at)], z[(slice(None), *at)]
        return [a[at] for a in extra]

    for it in itertools.count():
        if it >= stop and drop(np.repeat(max_iter <= it, f.shape[-1]).reshape(f.shape),
                               it) is None:
            break
        g = omega_p_gradient(stacks, p, x, _PHASE_ZERO_TOL, (w, z))
        gt = g - (cx * g).sum(axis=-1).real[..., None] * x
        gn = _row_norms(gt)
        live = gn > grad_tol
        # count_nonzero is the cheapest whole-mask test on these few rows
        if np.count_nonzero(live) < live.size:
            kept = drop(~live, it + 1, gt, gn)
            if kept is None:
                break
            gt, gn = kept
        u = gt / gn[..., None]
        alpha, beta, gamma = _great_circle(stacks, x, u, (w[:k], z, cx))
        curve = (np.abs(alpha[..., None] + beta[..., None] * _LADDER_COS
                        + gamma[..., None] * _LADDER_SIN) ** p).sum(axis=0)
        t = _LADDER[curve.argmax(axis=-1)][..., None]
        cand = x * np.cos(t) + u * np.sin(t)
        cand /= _row_norms(cand)[..., None]
        wc, zc, cc = _products(doubled, cand)
        fc = omega_p_objective(stacks, p, cand, zc)
        up = fc >= f
        stall = np.where(fc - f <= 1e-16 * np.maximum(1.0, fc), stall + 1, 0)
        if np.count_nonzero(up) < up.size:
            # a refused move would repeat exactly, so the row leaves at x
            cand[~up], cc[~up], fc[~up], stall[~up] = x[~up], cx[~up], f[~up], 3
        x, cx, f, w, z = cand, cc, fc, wc, zc
        live = stall < 3
        if np.count_nonzero(live) < live.size and drop(~live, it + 1) is None:
            break
    return [AscentEnds(out_x[lo:lo + size], out_f[lo:lo + size],
                       int(out_steps[lo:lo + size].sum()), req.norms)
            for req, lo, size in zip(reqs, first, sizes)]


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
    ends: AscentEnds | None = None,
) -> OmegaPEstimate:
    """Estimate the generalized Euclidean operator radius from below.

    Runs the projected-gradient ascent of F(x) = sum_i |<T_i x, x>|^p from
    `restarts` (default 8n) starts, restart k drawn from derive(stream, k),
    as a batch of one of :func:`ascend_many`, and keeps the best; the value
    is recomputed from the witness, so it is a true lower bound. `tol`
    (absolute, finite and >= 0, default 1e-8 * max ||T_i||) sets the
    ascent's stopping gradient, and `converged` means the
    :func:`_dual_gap` at the witness is <= tol: a first-order certificate,
    not a global one (with all <T_i x, x> = 0, True only for zero T_i).
    Both run at norm about 1, so omega_p(2^k T) is 2^k omega_p(T).

    `ends`, when given, is what :func:`ascend_many` returned for
    ``ascent_request`` of the same arguments: it replaces the starts and
    the ascent, and its norms stand in for those SVDs. The witness, the
    value and `converged` are still taken here from `ops`, so ends can
    change how good the estimate is but not that it is a lower bound.

    Raises:
        OutOfRangeError: p < 1 or not finite; restarts not an integer
            >= 1 or max_iter not an integer >= 0; tol not finite or < 0;
            the value scaled back lies past the float range.
        DimensionMismatchError: ends do not hold `restarts` points of
            the operators' side, or one norm per operator.
    """
    if ends is None:
        (ends,) = ascend_many([ascent_request(ops, p, restarts, tol, stream, max_iter)])
    stack, p, restarts, norms, tol, e = _ascent_setup(ops, p, restarts, tol, max_iter, ends.norms)
    if ends.x.shape != (restarts, stack.shape[1]):
        raise DimensionMismatchError(f"ends of shape {ends.x.shape} for {restarts} restarts "
                                     f"of side {stack.shape[1]}")
    best = int(np.argmax(ends.f))
    witness = ends.x[best] / np.linalg.norm(ends.x[best])
    value = float(omega_p_objective(stack, p, witness) ** (1.0 / p))
    return OmegaPEstimate(
        value=_scaled_back(value, e, -math.inf),
        witness=witness,
        p=p,
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
