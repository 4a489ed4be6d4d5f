"""Upper-bound evaluators for numerical radii of off-diagonal and full
2x2 operator matrices, and the table of bound ids built on them.

Each evaluator returns a :class:`BoundOutcome` holding the right-hand-side
value, the exponent e of its contract (radius**e <= value), the named
intermediate norms, and the parameters used. The evaluators never compare
against a radius themselves; validity checking lives in the harness.

No evaluator takes a decomposition itself. It states the SVDs and
compositions its closed form needs as a :class:`Pending`, whose finish may
state the next ones, and :func:`settle`, the one engine that resolves
pendings, solves those of many pendings in rounds, one stacked call per
(kind, shape) and round for each SETTLE_STEPS pendings, and certifies
their radii and runs their ascents in one batched call each. A public
bound_* function settles its own as a batch of one; a campaign settles a
block's together.

`BOUNDS` maps every bound id to its :class:`BoundSpec`: the campaign grid
axes, how inputs are drawn and checked (and so how many matrix files the
CLI reads), the evaluator call and the contract-side measure. An
evaluator whose value needs certified radii names them in its pending,
and every contract side is one (`BoundSpec.contract_side`). The harness
and the CLI dispatch on this table only and name no input key or
measure, so adding a bound over existing grid axes means writing its
evaluator and adding one entry.

The two-exponent (Holder) bound carries a documented constant discrepancy:
its printed prefactor 4**(r-2) is falsified by the scalar case X = Y = [1]
(value 0.5 against a radius power of 1), while the prefactor 4**(r-1)
supported by the derivation chain and by its own Y = X, p = q = 2 special
case holds up. `constant_mode` selects between them and defaults to the
proved constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable

import numpy as np

from .ensembles import RngStream, derive, sample
from .errors import (
    DimensionMismatchError,
    NotContractionError,
    NotNormalError,
    NumradError,
    OutOfRangeError,
    UnknownBoundError,
)
from .funcpair import (
    FunctionPair,
    HolderPair,
    conjugate_exponent,
    pow_of_pair,
    power_pair,
    validate_pair,
)
from .linalg import (
    Block2x2,
    OffDiagPair,
    adjoint,
    as_matrix,
    embed_block,
    embed_offdiag,
    polar_eigen,
    polar_eigens,
    recompose_many,
    spectral_norm,
    spectral_norms,
    spectrum_values,
)
from .radius import ascend_many, ascent_request, omega_many, omega_p, relative_tol

# Normality check: ||M*M - MM*|| <= NORMALITY_TOL * ||M||^2.
NORMALITY_TOL = 1e-9
# Contractions may exceed norm 1 by at most this absolute slack.
CONTRACTION_SLACK = 1e-10
# The prefactors of the Holder bound: the printed one and the proved one.
CONSTANT_MODES = ("as_stated", "as_proved")


@dataclass
class BoundOutcome:
    """Evaluated right-hand side with its contract exponent and metadata."""

    bound_id: str
    value: float
    exponent: float
    terms: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise OutOfRangeError(f"bound value must be finite and >= 0, got {self.value}")
        for name, term in self.terms.items():
            if not math.isfinite(term) or term < 0.0:
                raise OutOfRangeError(f"term {name} must be finite and >= 0, got {term}")


@dataclass(slots=True)
class Pending:
    """A result that waits on decompositions, certified radii or ascents.

    `norms` and `polars` list matrices whose :func:`spectral_norm` and
    :func:`polar_eigen` are wanted, `compositions` (values, vectors) pairs
    to :func:`recompose`, `radii` (operator, absolute tol,
    ``spectral_norm(operator)``) requests to certify and `ascents`
    :class:`~numrad.radius.AscentRequest`s to run, any of them possibly
    none. `finish(results)` takes their results in that order and gives the
    result, or a further Pending: a radius's result is the
    :func:`omega_many` certificate or the NumradError it raised, and an
    ascent's its :func:`ascend_many` ends. :func:`settle` resolves any mix
    of them, the decompositions first, then the radii, then the ascents.
    """

    finish: Callable
    norms: list = ()
    polars: list = ()
    compositions: list = ()
    radii: list = ()
    ascents: list = ()


# Steps `settle` takes through their decomposition rounds at a time. A
# campaign block's 1024 steps (then a value and a side per trial) settled at
# once held every trial's intermediates together, and a campaign_bounds
# unit's peak RSS rose 4.5 MB over 43.7 MB; 128 at a time, 0.8 MB, at the
# same speed. A trial is one step, so 64 keeps 64 trials a chunk.
SETTLE_STEPS = 64

# The exceptions that fail one pending and not the batch it is settled in;
# in a campaign, the ones that turn a trial into an error record.
FAILURES = (NumradError, ValueError, TypeError)


# The decompositions a Pending may name, each with the shape of a request:
# requests of one kind and shape are solved in one stacked call.
_KINDS = {"norms": attrgetter("shape"), "polars": attrgetter("shape"),
          "compositions": lambda pair: pair[1].shape}
# The request kinds in the order `settle` solves them.
_STAGES = (tuple(_KINDS), ("radii",), ("ascents",))


def _solve(kind: str, requests: list) -> tuple[list, dict]:
    """The results of one (kind, shape) group of requests, and {position:
    error} of those whose lone call raised. A norm or polar request with a
    non-finite entry, and every request of a stack whose SVD raised, gets
    what the lone function gives it: its result or its error."""
    if kind == "compositions":
        values, vectors = zip(*requests)
        return list(recompose_many(np.stack(values), np.stack(vectors))), {}
    stack = np.stack(requests)
    lone = spectral_norm if kind == "norms" else polar_eigen
    try:
        results = spectral_norms(stack).tolist() if kind == "norms" else polar_eigens(stack)
        redo = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    except np.linalg.LinAlgError:
        results, redo = [None] * len(requests), range(len(requests))
    errors = {}
    for k in redo:
        try:
            results[k] = lone(requests[k])
        except FAILURES as exc:
            errors[k] = exc
    return results, errors


def settle(steps: list) -> tuple[list, list]:
    """Resolve every Pending in the list `steps`, in place, so a step's
    intermediates are freed as it moves on; a step that is no Pending is a
    result and stays as it is. This is the one engine of stage 2.

    It loops until no pending is left. Each pass first takes the steps
    through their decomposition rounds, SETTLE_STEPS at a time: each round
    gathers the norm, polar and composition requests of every pending that
    names some (or names nothing at all), solves each (kind, shape) in one
    stacked call (`linalg.spectral_norms`, `polar_eigens`,
    `recompose_many`) and runs those pendings' finishes, whose results may
    name the next round's requests. Then, if any pending names radii, one
    :func:`omega_many` call certifies every radius of every step, with the
    norms its request carries, and their finishes run; otherwise, if any
    names ascents, one :func:`ascend_many` call runs every ascent, and
    their finishes run.

    Returns (steps, spent): each step's outcome (a result, or the error in
    FAILURES that its finish or, first in request order, one of its
    decompositions raised; a finish's OverflowError, a value out of the
    float range, becomes an OutOfRangeError) and the time charged to it. A
    stacked call's time is split evenly over its requests, omega_many's by
    the angles each operator evaluated and ascend_many's by the iterations
    each request's restarts ran (evenly when all are 0), and a finish's
    time is its own, so the charges add up to the time `settle` took.
    """
    def certify(requests):
        ops, tols, norms = zip(*requests)
        return omega_many(ops, tols, norms=norms)

    spent = [0.0] * len(steps)
    now = perf_counter()
    while True:
        for start in range(0, len(steps), SETTLE_STEPS):
            now = _rounds(steps, range(start, min(start + SETTLE_STEPS, len(steps))), spent,
                          now)
        if any(isinstance(step, Pending) and step.radii for step in steps):
            now = _batched(steps, spent, now, 1, certify, lambda res: getattr(res, "evals", 0))
        elif any(isinstance(step, Pending) for step in steps):
            now = _batched(steps, spent, now, 2, ascend_many, attrgetter("steps"))
        else:
            return steps, spent


def _rounds(steps: list, chunk: range, spent: list, now: float) -> float:
    """Run the decomposition rounds of the steps at the positions in
    `chunk`, in place; returns the clock's last reading."""
    while True:
        live = [i for i in chunk if isinstance(steps[i], Pending)
                and (steps[i].norms or steps[i].polars or steps[i].compositions
                     or not (steps[i].radii or steps[i].ascents))]
        if not live:
            return now
        results = {i: [] for i in live}
        groups: dict = {}
        for i in live:
            slots = results[i]
            for kind, shape in _KINDS.items():
                for req in getattr(steps[i], kind):
                    groups.setdefault((kind, shape(req)), []).append((i, len(slots), req))
                    slots.append(None)
        failed: dict = {}  # step -> (slot, error) of its first failed request
        for (kind, _), group in groups.items():
            answers, errors = _solve(kind, [req for _, _, req in group])
            for k, exc in errors.items():
                i, slot, _ = group[k]
                if slot < failed.get(i, (math.inf,))[0]:
                    failed[i] = (slot, exc)
            before, now = now, perf_counter()
            share = (now - before) / len(group)
            for (i, slot, _), res in zip(group, answers):
                results[i][slot] = res
                spent[i] += share
        for i, (_, exc) in failed.items():
            results[i] = exc
        now = _finish(steps, 0, results, spent, now)


def _batched(steps: list, spent: list, now: float, stage: int, solve: Callable,
             weight: Callable) -> float:
    """One call solve(requests) over the requests of `_STAGES[stage]` of
    every pending that names some, its time split by weight(result), and
    those pendings' finishes; returns the clock's last reading."""
    (kind,) = _STAGES[stage]
    live = [i for i, step in enumerate(steps) if isinstance(step, Pending) and getattr(step, kind)]
    owners = [i for i in live for _ in getattr(steps[i], kind)]
    answers = solve([req for i in live for req in getattr(steps[i], kind)])
    before, now = now, perf_counter()
    weights = [weight(res) for res in answers]
    total = sum(weights)
    results = {i: [] for i in live}
    for i, res, w in zip(owners, answers, weights):
        results[i].append(res)
        spent[i] += (now - before) * (w / total if total else 1.0 / len(answers))
    return _finish(steps, stage, results, spent, now)


def _finish(steps: list, stage: int, results: dict, spent: list, now: float) -> float:
    """Advance each step i of `results` over results[i], the results of its
    requests of `_STAGES[stage]` or the error one of them raised, charging
    each its own time; returns the clock's last reading."""
    for i, res in results.items():
        try:
            steps[i] = res if isinstance(res, Exception) else _advance(steps[i], stage, res)
        except FAILURES as exc:
            steps[i] = exc
        except OverflowError as exc:
            steps[i] = OutOfRangeError(f"result out of the float range: {exc}")
        before, now = now, perf_counter()
        spent[i] += now - before
    return now


def _advance(step: Pending, stage: int, results: list):
    """`step` given the results of its requests of `_STAGES[stage]`: its
    finish over them, or, while it names requests of later stages, a
    Pending of those whose finish takes `results` first."""
    later = {kind: getattr(step, kind) for kinds in _STAGES[stage + 1:] for kind in kinds}
    if not any(later.values()):
        return step.finish(results)
    return Pending(lambda rest: step.finish(results + rest), **later)


def _settled(step):
    """A step settled as a batch of one: its result, or the error raised."""
    (out,), _ = settle([step])
    if isinstance(out, Exception):
        raise out
    return out


def _result(step, pending: bool):
    """What a bound_* function returns: its step, or with `pending` False
    the step settled."""
    return step if pending else _settled(step)


def _then(step, fn):
    """A step whose result is fn of the result of `step` (a Pending or a
    result); fn may return a step itself."""
    if not isinstance(step, Pending):
        return fn(step)
    return Pending(lambda results: _then(step.finish(results), fn), step.norms, step.polars,
                   step.compositions, step.radii, step.ascents)


@dataclass
class ZetaEstimate:
    """The split-vector gap functional at a witness where it vanishes.

    The infimum is 0 for every PSD pair (see `_estimate_zeta`), so value
    is 0 up to rounding.
    """

    value: float
    witness: tuple[np.ndarray, np.ndarray]


def _require_r(r: float, name: str = "r") -> float:
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise OutOfRangeError(f"{name} must be >= 1, got {r}")
    return r


def _require_variant(variant: int) -> int:
    if variant not in (1, 2):
        raise OutOfRangeError(f"variant must be 1 or 2, got {variant}")
    return variant


def _pair_terms(pair: FunctionPair, r: float, variant: int, polar_x, polar_y) -> list:
    """The four PSD terms feeding every off-diagonal bound, as composition
    requests (values, vectors).

    They are f**(2r) or g**(2r) applied to |X|, |Y*|, |Y| and |X*|; the
    first two make up the first group and the last two the second.
    One SVD per block, given as its `polar_eigen`, gives both |X| and |X*|
    (and |Y| and |Y*|). Variant 1 mixes f and g inside each group; variant
    2 keeps f with the first group and g with the second. The pair is
    validated on the four spectra and the probes 0 and 1.
    """
    (abs_x, abs_xs), (abs_y, abs_ys) = polar_x, polar_y
    eigs = [abs_x, abs_ys, abs_y, abs_xs]
    validate_pair(pair, np.concatenate([s for s, _ in eigs] + [np.array([0.0, 1.0])]))
    fe, ge = pow_of_pair(pair, 2.0 * r)
    fns = (fe, ge, fe, ge) if variant == 1 else (fe, fe, ge, ge)
    return [(spectrum_values(fn, s), v) for fn, (s, v) in zip(fns, eigs)]


def _summed_norms(mats: list, terms: Callable) -> Pending:
    """The pending of (sums, their norms) in three rounds: the polar pairs
    of `mats`, the composition requests terms(polar pairs), and the norms
    of the sums of those compositions taken two at a time."""
    def norms(compositions):
        sums = [a + b for a, b in zip(compositions[::2], compositions[1::2])]
        return Pending(lambda n: (sums, n), norms=sums)

    return Pending(lambda polars: Pending(norms, compositions=terms(polars)), polars=mats)


def _offdiag_bound(p, pair: FunctionPair, r: float, variant: int, pending: bool,
                   outcome: Callable):
    """outcome(r, first, second, ||first||, ||second||) for the pair
    p = (X, Y), as `_result` gives it: the groups are the two sums of
    :func:`_pair_terms`, which the four off-diagonal bounds share.

    Validates r and the variant.
    """
    p = p if isinstance(p, OffDiagPair) else OffDiagPair(*p)
    r, variant = _require_r(r), _require_variant(variant)
    groups = _summed_norms([p.x, p.y], lambda polars: _pair_terms(pair, r, variant, *polars))
    return _result(_then(groups, lambda sums: outcome(r, *sums[0], *sums[1])), pending)


def refined_young(a: float, b: float, m: int) -> tuple[float, float]:
    """Refined scalar Young inequality at equal exponents.

    Returns (lhs, rhs) with
    lhs = (sqrt(ab))**m + (1/2)**m (a**(m/2) - b**(m/2))**2 and
    rhs = 2**(-m) (a + b)**m; lhs <= rhs holds for a, b >= 0 and integer
    m >= 1, with equality at m = 2.
    """
    a, b = float(a), float(b)
    m = int(m)
    if a < 0.0 or b < 0.0:
        raise OutOfRangeError("a and b must be >= 0")
    if m < 1:
        raise OutOfRangeError(f"m must be a positive integer, got {m}")
    lhs = math.sqrt(a * b) ** m + 0.5 ** m * (a ** (m / 2.0) - b ** (m / 2.0)) ** 2
    rhs = 2.0 ** (-m) * (a + b) ** m
    return lhs, rhs


# Each bound_* function below settles its decompositions as a batch of one
# (`settle`). With `pending` it returns its step instead, a Pending that
# finishes into what it would return, for a caller that settles many.

def bound_main1(p: OffDiagPair, pair: FunctionPair, r: float,
                variant: int = 1, pending: bool = False) -> BoundOutcome:
    """Two-norm product bound for the off-diagonal matrix [[0, X], [Y, 0]].

    value = 2**(r-2) ||group1||^(1/2) ||group2||^(1/2) with the groups of
    f**(2r), g**(2r) applied to |X|, |Y*|, |Y|, |X*|; contract
    omega(T)**r <= value.
    """
    def outcome(r, first, second, n1, n2):
        return BoundOutcome(
            bound_id=f"main1.v{variant}",
            value=2.0 ** (r - 2.0) * math.sqrt(n1) * math.sqrt(n2),
            exponent=r,
            terms={"norm_first": n1, "norm_second": n2},
            params={"r": r, "variant": variant, "pair": pair.tag},
        )

    return _offdiag_bound(p, pair, r, variant, pending, outcome)


def bound_product_xy(x, y, alpha: float, r: float, variant: int = 1,
                     pending: bool = False) -> BoundOutcome:
    """Bound on omega(XY)**(r/2) via the off-diagonal power-pair bound.

    The right-hand side equals bound_main1 on the pair (X, Y) with
    f(t) = t**alpha; only the contract exponent changes to r/2.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[0] != x.shape[1] or x.shape != y.shape:
        raise DimensionMismatchError(
            f"product bound needs two square matrices of one side, "
            f"got {x.shape} and {y.shape}"
        )

    def outcome(base):
        return BoundOutcome(
            bound_id="product_xy",
            value=base.value,
            exponent=r / 2.0,
            terms=base.terms,
            params={"r": r, "alpha": float(alpha), "variant": variant},
        )

    base = bound_main1(OffDiagPair(x, y), power_pair(alpha), r, variant, pending=True)
    return _result(_then(base, outcome), pending)


def is_normal(m, tol: float = NORMALITY_TOL, pending: bool = False) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    comm = adjoint(m) @ m - m @ adjoint(m)
    return _result(Pending(lambda n: n[1] <= tol * max(n[0] * n[0], 1e-300), norms=[m, comm]),
                   pending)


def bound_sum_norm(x, y, r: float, sign: str = "+", normal_mode: bool = False,
                   pending: bool = False) -> BoundOutcome:
    """Norm bound ||X +/- Y*||**r <= 2**(2r-2) ||...||^(1/2) ||...||^(1/2).

    With normal_mode (X, Y square and normal) the contract tightens to
    ||X +/- Y||**r <= 2**(2r-2) || |X|**r + |Y|**r ||. The value does not
    depend on the sign; the sign is recorded for the contract side only.
    Normality is checked for X before Y, and the powers |M|**r come from
    one SVD of each M.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    r = _require_r(r)
    if sign not in ("+", "-"):
        raise OutOfRangeError(f"sign must be '+' or '-', got {sign!r}")
    if x.shape != y.shape[::-1]:
        raise DimensionMismatchError(
            f"need X m-by-n and Y n-by-m, got {x.shape} and {y.shape}"
        )

    def power_norms(mats):
        """The step of the norms of |M|**r + |M'|**r for the matrices M, M'
        of `mats` taken two at a time."""
        def terms(polars):
            return [(spectrum_values(lambda t: np.asarray(t) ** r, s), v) for (s, v), _ in polars]

        return _then(_summed_norms(mats, terms), itemgetter(1))

    def checked(normal):
        if not normal:
            raise NotNormalError("normal mode requires normal operators")
        return power_norms([x, y])

    def outcome(norms):
        if normal_mode:
            (n1,) = norms
            value = 2.0 ** (2.0 * r - 2.0) * n1
            terms = {"norm_sum": n1}
        else:
            n1, n2 = norms
            value = 2.0 ** (2.0 * r - 2.0) * math.sqrt(n1) * math.sqrt(n2)
            terms = {"norm_first": n1, "norm_second": n2}
        return BoundOutcome(
            bound_id="sum_norm.normal" if normal_mode else "sum_norm",
            value=value,
            exponent=r,
            terms=terms,
            params={"r": r, "sign": sign, "normal_mode": normal_mode},
        )

    if normal_mode:
        if x.shape[0] != x.shape[1]:
            raise NotNormalError("normal mode requires square matrices")
        normal = _then(is_normal(x, pending=True), lambda ok: ok and is_normal(y, pending=True))
        norms = _then(normal, checked)
    else:
        norms = power_norms([x, adjoint(y), y, adjoint(x)])
    return _result(_then(norms, outcome), pending)


def bound_main11(p: OffDiagPair, pair: FunctionPair, r: float, hp: HolderPair,
                 variant: int = 1, constant_mode: str = "as_proved",
                 pending: bool = False) -> BoundOutcome:
    """Holder-exponent bound with contract omega(T)**(2r) <= value.

    value = C (alpha_sq + beta_sq) with alpha_sq = ||group1**p|| / p**2 and
    beta_sq = ||group2**q|| / q**2; the groups are PSD, so these norms are
    ||group1||**p and ||group2||**q. The printed constant C = 4**(r-2)
    ('as_stated') fails on scalars; the derivation supports C = 4**(r-1)
    ('as_proved', default).
    """
    if constant_mode not in CONSTANT_MODES:
        raise OutOfRangeError(f"constant_mode must be {' or '.join(CONSTANT_MODES)}, "
                              f"got {constant_mode!r}")

    def outcome(r, first, second, n1, n2):
        pw, qw = hp.p, hp.q
        alpha_sq = n1 ** pw / pw ** 2
        beta_sq = n2 ** qw / qw ** 2
        const = 4.0 ** (r - 2.0) if constant_mode == "as_stated" else 4.0 ** (r - 1.0)
        return BoundOutcome(
            bound_id=f"main11.v{variant}",
            value=const * (alpha_sq + beta_sq),
            exponent=2.0 * r,
            terms={"alpha_sq": alpha_sq, "beta_sq": beta_sq, "constant": const},
            params={"r": r, "variant": variant, "p": pw, "q": qw,
                    "constant_mode": constant_mode, "pair": pair.tag},
        )

    return _offdiag_bound(p, pair, r, variant, pending, outcome)


def bound_main11_young(p: OffDiagPair, pair: FunctionPair, r: float,
                       hp: HolderPair, variant: int = 1,
                       pending: bool = False) -> BoundOutcome:
    """Young-split variant: value = 2**(r-2) (||g1||^(p/2)/p + ||g2||^(q/2)/q),
    contract omega(T)**r <= value."""
    def outcome(r, first, second, n1, n2):
        pw, qw = hp.p, hp.q
        return BoundOutcome(
            bound_id=f"main11.young.v{variant}",
            value=2.0 ** (r - 2.0) * (n1 ** (pw / 2.0) / pw + n2 ** (qw / 2.0) / qw),
            exponent=r,
            terms={"norm_first": n1, "norm_second": n2},
            params={"r": r, "variant": variant, "p": pw, "q": qw, "pair": pair.tag},
        )

    return _offdiag_bound(p, pair, r, variant, pending, outcome)


def zeta_value(a_mat, b_mat, x1, x2):
    """(sqrt(<A x2, x2>) - sqrt(<B x1, x1>))**2 for PSD A, B.

    A float for vectors x1, x2; an array of b values for (b, m) and (b, n)
    batches.
    """
    x1, x2 = np.asarray(x1), np.asarray(x2)
    a = np.maximum(np.sum(np.conj(x2) * (x2 @ np.asarray(a_mat).T), axis=-1).real, 0.0)
    b = np.maximum(np.sum(np.conj(x1) * (x1 @ np.asarray(b_mat).T), axis=-1).real, 0.0)
    gap = (np.sqrt(a) - np.sqrt(b)) ** 2
    return float(gap) if gap.ndim == 0 else gap


def _estimate_zeta(a_mat: np.ndarray, b_mat: np.ndarray) -> ZetaEstimate:
    """A zero of the gap functional on the joint sphere, in closed form.

    For unit u1, u2 put a = <A u2, u2> and b = <B u1, u1>. At
    x = (cos t u1, sin t u2) with (cos t, sin t) = (sqrt(a/(a+b)), sqrt(b/(a+b)))
    both <A x2, x2> and <B x1, x1> equal ab/(a+b), so the gap vanishes and
    inf zeta = 0 for every PSD pair. Here u1 = u2 = e_1, and t = pi/4 when
    a + b = 0. The value is recomputed at the witness, so it carries only
    rounding.
    """
    a = max(float(a_mat[0, 0].real), 0.0)
    b = max(float(b_mat[0, 0].real), 0.0)
    cos_t, sin_t = (math.sqrt(a / (a + b)), math.sqrt(b / (a + b))) if a + b > 0.0 \
        else (math.sqrt(0.5), math.sqrt(0.5))
    x1 = np.zeros(b_mat.shape[0], dtype=np.complex128)
    x2 = np.zeros(a_mat.shape[0], dtype=np.complex128)
    x1[0], x2[0] = cos_t, sin_t
    return ZetaEstimate(value=zeta_value(a_mat, b_mat, x1, x2), witness=(x1, x2))


def bound_main3(p: OffDiagPair, pair: FunctionPair, r: float, variant: int = 1,
                pending: bool = False) -> tuple[BoundOutcome, BoundOutcome, ZetaEstimate]:
    """Norm-sum bound with a subtracted gap term.

    guaranteed uses the lower bound inf zeta >= 0, so
    omega(T)**r <= guaranteed.value is safe. refined subtracts the gap at
    the closed-form witness of `_estimate_zeta`; the gap on the joint
    sphere is vacuous (inf zeta = 0), so refined equals guaranteed up to
    rounding.
    """
    def outcomes(r, first, second, n1, n2):
        base = 2.0 ** (r - 2.0) * (n1 + n2)
        zeta = _estimate_zeta(first, second)
        bound_id = f"main3.v{variant}"
        shared_terms = {"norm_first": n1, "norm_second": n2}
        guaranteed = BoundOutcome(
            bound_id=bound_id,
            value=base,
            exponent=r,
            terms=dict(shared_terms, zeta_lower=0.0),
            params={"r": r, "variant": variant, "pair": pair.tag, "mode": "guaranteed"},
        )
        refined = BoundOutcome(
            bound_id=bound_id,
            value=max(base - 2.0 ** (r - 2.0) * zeta.value, 0.0),
            exponent=r,
            terms=dict(shared_terms, zeta=zeta.value),
            params={"r": r, "variant": variant, "pair": pair.tag,
                    "mode": "refined_heuristic"},
        )
        return guaranteed, refined, zeta

    return _offdiag_bound(p, pair, r, variant, pending, outcomes)


def _contraction_item(item) -> tuple[np.ndarray, ...]:
    """An item (A, B, C, D, X, Y) of `bound_main4` with its shapes checked."""
    a, b, c, d, x, y = (as_matrix(t) for t in item)
    m, n = x.shape
    ok = (a.shape == (m, m) and c.shape == (m, m)
          and b.shape == (n, n) and d.shape == (n, n) and y.shape == (n, m))
    if not ok:
        raise DimensionMismatchError(
            "item needs A, C m-by-m; B, D n-by-n; X m-by-n; Y n-by-m"
        )
    return a, b, c, d, x, y


def main4_operands(items) -> list[np.ndarray]:
    """The compressed off-diagonal products [[0, A*XD], [B*YC, 0]] whose
    generalized radius the contraction bound controls.

    The items must be ones `bound_main4` accepted: their shapes and
    contraction norms are not checked again here.
    """
    return [embed_offdiag(adjoint(a) @ x @ d, adjoint(b) @ y @ c)
            for a, b, c, d, x, y in items]


def bound_main4(items, pair: FunctionPair, p: float, variant: int = 1,
                pending: bool = False) -> BoundOutcome:
    """Contraction-compressed bound on omega_p**p of the products.

    value = 2**(p-2) * sum_i ||D* f^{2p}(|X|) D + B* g^{2p}(|Y*|) B||^(1/2)
    * ||C* f^{2p}(|Y|) C + A* g^{2p}(|X*|) A||^(1/2) (variant 2 groups f
    with f and g with g). Every item's shapes are checked first, then, in
    the first round with the polar pairs of the X_i and Y_i, the norms of
    A_1, B_1, C_1, D_1, A_2, ..., each at most 1 + CONTRACTION_SLACK.
    """
    p = _require_r(p, "p")
    variant = _require_variant(variant)
    items = [_contraction_item(item) for item in items]
    if not items:
        raise OutOfRangeError("at least one item is required")

    def terms(results):
        contractions, polars = results[:4 * len(items)], results[4 * len(items):]
        for name, nrm in zip("ABCD" * len(items), contractions):
            if nrm > 1.0 + CONTRACTION_SLACK:
                raise NotContractionError(f"{name} has spectral norm > 1")
        return Pending(groups, compositions=[
            term for i in range(len(items))
            for term in _pair_terms(pair, p, variant, *polars[2 * i:2 * i + 2])])

    def groups(terms):
        mats = []
        for (a, b, c, d, _, _), i in zip(items, range(0, len(terms), 4)):
            t1, t2, t3, t4 = terms[i:i + 4]
            mats += [adjoint(d) @ t1 @ d + adjoint(b) @ t2 @ b,
                     adjoint(c) @ t3 @ c + adjoint(a) @ t4 @ a]
        return Pending(outcome, norms=mats)

    def outcome(norms):
        per_item = [math.sqrt(n1) * math.sqrt(n2) for n1, n2 in zip(norms[::2], norms[1::2])]
        return BoundOutcome(
            bound_id=f"main4.v{variant}",
            value=2.0 ** (p - 2.0) * sum(per_item),
            exponent=p,
            terms={f"item_{i}": t for i, t in enumerate(per_item)},
            params={"p": p, "variant": variant, "n_operators": len(per_item),
                    "pair": pair.tag},
        )

    return _result(Pending(terms, norms=[t for item in items for t in item[:4]],
                           polars=[t for item in items for t in item[4:]]), pending)


def _th1_inputs(blocks, p: float) -> tuple[list, list, list, float]:
    """th1's inputs checked: the Block2x2 of each block, [A_1, D_1, A_2,
    ...], [B_1, C_1, B_2, ...] and p."""
    p = _require_r(p, "p")
    blocks = [blk if isinstance(blk, Block2x2) else Block2x2(*blk) for blk in blocks]
    if not blocks:
        raise OutOfRangeError("at least one block is required")
    return (blocks, [op for blk in blocks for op in (blk.a, blk.d)],
            [op for blk in blocks for op in (blk.b, blk.c)], p)


def _th1_value(offdiag_norms, p: float, certs) -> BoundOutcome:
    """th1's outcome from the norms [||B_1||, ||C_1||, ||B_2||, ...] and
    the certified radii [w(A_1), w(D_1), w(A_2), ...]: CertifiedRadius
    results, or the NumradError each raised, of which the first is raised.
    The radii are taken at their upper endpoints, the conservative side
    for an upper bound, and `omega_tol` is the tol they were certified at."""
    for cert in certs:
        if isinstance(cert, NumradError):
            raise cert
    total = 0.0
    per_item = []
    for nb, nc, cert_a, cert_d in zip(offdiag_norms[::2], offdiag_norms[1::2],
                                      certs[::2], certs[1::2]):
        wa, wd = cert_a.hi, cert_d.hi
        term = (wa + wd + math.sqrt((wa - wd) ** 2 + (nb + nc) ** 2)) ** p
        per_item.append(term)
        total += term
    return BoundOutcome(
        bound_id="th1",
        value=2.0 ** (-p) * total,
        exponent=p,
        terms={f"item_{i}": t for i, t in enumerate(per_item)},
        params={"p": p, "n_operators": len(per_item), "omega_tol": certs[0].tol},
    )


def _th1_step(blocks, p: float, omega_tol: float) -> Pending:
    """th1's value as a step: the radii A_1, D_1, A_2, ... with their norms,
    at omega_tol relative to the largest block operator's norm, and the
    finish over their results. One round takes the norms of B_1, C_1, B_2,
    ..., of the block operators and of the radii."""
    blocks, ops, offdiag, p = _th1_inputs(blocks, p)
    n, k = len(ops), len(blocks)

    def radii(norms):
        tol = relative_tol(omega_tol, max(norms[n:n + k]))
        return Pending(partial(_th1_value, norms[:n], p),
                       radii=[(op, tol, nrm) for op, nrm in zip(ops, norms[n + k:])])

    return Pending(radii, norms=offdiag + [blk.matrix() for blk in blocks] + ops)


def bound_th1(blocks, p: float, omega_tol: float = 1e-8) -> BoundOutcome:
    """Full-block bound on omega_p**p of [[A_i, B_i], [C_i, D_i]].

    value = 2**(-p) sum_i (w(A_i) + w(D_i)
    + sqrt((w(A_i) - w(D_i))**2 + (||B_i|| + ||C_i||)**2))**p, with the
    radii certified at `omega_tol` times the largest block operator's norm
    and taken at their upper endpoints. Its step is a campaign's, settled
    as a batch of one, so A_1, D_1, A_2, ... are certified by one
    :func:`omega_many` and the first failure in that order is raised.
    """
    return _settled(_th1_step(blocks, p, omega_tol))


# -- the bound table ---------------------------------------------------------


@dataclass(frozen=True)
class Sampler:
    """How one bound's input matrices are drawn, checked, packed and read
    from files.

    Each slot is (name, ensemble role, shape), shape "mn" meaning m-by-n,
    and slot k draws from derive(stream, k + 1). A grouped sampler draws
    one tuple of slots per operator, group i under derive(stream, 10 + i),
    and keeps the list of tuples under the key `group`; otherwise the slot
    names are the keys.
    """

    slots: tuple
    group: str | None = None

    def pack(self, groups: list) -> dict:
        """The input dict from one sequence of matrices per group."""
        if self.group is not None:
            return {self.group: [tuple(g) for g in groups]}
        return dict(zip([name for name, _, _ in self.slots], groups[0]))

    def unpack(self, mats: dict) -> list:
        """Every matrix of a coerced input dict, group by group in slot order."""
        if self.group is None:
            return [mats[name] for name, _, _ in self.slots]
        return [m for g in mats[self.group] for m in g]

    def draw(self, params: dict, kinds: dict, stream: RngStream) -> dict:
        """Fresh inputs of sides params["m"], params["n"] (and
        params["n_operators"] groups), each role drawn from kinds[role]."""
        dims = {"m": params["m"], "n": params["n"]}
        streams = [stream] if self.group is None else \
            [derive(stream, 10 + i) for i in range(params["n_operators"])]
        return self.pack([
            [sample(kinds[role], dims[shape[0]], dims[shape[1]], derive(sub, k + 1))
             for k, (_, role, shape) in enumerate(self.slots)]
            for sub in streams])

    def coerce(self, mats: dict) -> dict:
        """The input dict with every slot's matrix as a complex array.

        Raises DimensionMismatchError when a key is missing, a group value
        is not a list of groups, or a group does not hold one matrix per
        slot, and ValueError on a malformed matrix. Other keys are dropped.
        """
        names = [name for name, _, _ in self.slots]
        keys = names if self.group is None else [self.group]
        if not set(keys) <= set(mats):
            raise DimensionMismatchError(
                f"expected matrices {sorted(keys)}, got {sorted(mats)}")
        if self.group is None:
            return {name: as_matrix(mats[name]) for name in names}
        try:
            groups = [tuple(g) for g in mats[self.group]]
        except TypeError:
            raise DimensionMismatchError(f"{self.group!r} must be a list of matrix "
                                         f"groups, got {mats[self.group]!r}") from None
        for g in groups:
            if len(g) != len(names):
                raise DimensionMismatchError(
                    f"each {self.group!r} group needs matrices {names}, got {len(g)}")
        return {self.group: [tuple(as_matrix(m) for m in g) for g in groups]}


@dataclass(frozen=True)
class EvalSettings:
    """Settings of one bound evaluation that do not vary by trial input.

    `omega_tol` is relative to the measured operator's norm (th1's blocks:
    the largest block operator's); `stream` seeds the generalized-radius
    restarts. Per-trial parameters, `constant_mode` among them, travel in
    the params dict instead.
    """

    omega_tol: float = 1e-6
    omega_p_restarts: int = 8
    omega_p_max_iter: int = 300
    stream: RngStream = RngStream(0)


@dataclass(frozen=True)
class BoundSpec:
    """One bound id: how to sample, evaluate and check it.

    `axes` names the campaign grid axes, outermost first. `evaluate(mats,
    params, settings)` checks the inputs and returns the Pending that
    finishes into the BoundOutcome, after certified radii too when the
    value needs them (`th1`). The contract side takes `measure` ("omega",
    "norm" or "omega_p") of `operand(mats, params)`, and `contract_side`
    states it as a Pending too, so a campaign settles the values and sides
    of a block together. `extras` names the campaign settings each trial
    adds to its params.
    """

    bound_id: str
    axes: tuple
    sampler: Sampler
    evaluate: Callable
    measure: str
    operand: Callable
    extras: tuple = ()

    @property
    def arity(self) -> int:
        """Matrix files one CLI evaluation reads."""
        return len(self.sampler.slots)

    def contract_side(self, mats: dict, params: dict, settings: EvalSettings) -> Pending:
        """The contract side as a Pending that finishes into (lhs, upper
        end or None, extras).

        Every side first takes the norms of its operands. An "omega" side
        is then one radius at `omega_tol ||T||`, with that norm, finished
        as the ends of its certified enclosure. The
        generalized radius of one operator is its numerical radius for
        every p, so an "omega_p" side of one operand is that radius too. A
        "norm" side is the exact norm twice. An "omega_p" side of two or
        more operands is then one ascent of them at `omega_p_restarts` and
        `omega_p_max_iter`, whose request takes those norms; its finish
        takes the estimate from the ascent's ends through :func:`omega_p`,
        a lower estimate with no upper end, and adds its
        `estimate_converged` flag to extras. A radius's or an ascent's
        operands are checked before their norms are taken and the ascent's
        arguments when it is stated, so that bad ones fail their own trial
        and not a stacked or lockstep batch.
        """
        target = self.operand(mats, params)
        if self.measure == "norm":
            return Pending(_norm_ends, norms=[target])
        if self.measure == "omega_p":
            if len(target) > 1:
                targets = [as_matrix(t) for t in target]
                return Pending(partial(_ascent, targets, params, settings), norms=targets)
            (target,) = target
        target = as_matrix(target)
        return Pending(partial(_radius, target, settings.omega_tol), norms=[target])


def _radius(target, omega_tol: float, norms) -> Pending:
    """An "omega" side's radius, at omega_tol relative to its norm."""
    (norm,) = norms
    return Pending(_enclosure_ends, radii=[(target, relative_tol(omega_tol, norm), norm)])


def _enclosure_ends(certs) -> tuple[float, float, dict]:
    """The ends of a lone certified radius, or the error it raised."""
    (cert,) = certs
    if isinstance(cert, NumradError):
        raise cert
    return cert.lo, cert.hi, {}


def _norm_ends(norms) -> tuple[float, float, dict]:
    (norm,) = norms
    return norm, norm, {}


def _ascent(targets, params: dict, settings: EvalSettings, norms) -> Pending:
    """An "omega_p" side's ascent request, with the operands' norms."""
    ascent = ascent_request(targets, float(params.get("p", 1.0)), settings.omega_p_restarts,
                            stream=derive(settings.stream, 102),
                            max_iter=settings.omega_p_max_iter, norms=norms)
    return Pending(partial(_ascent_ends, targets, params, settings), ascents=[ascent])


def _ascent_ends(targets, params: dict, settings: EvalSettings,
                 certs) -> tuple[float, None, dict]:
    """The estimate of a side's ascent, from its ends."""
    (ends,) = certs
    est = omega_p(targets, float(params.get("p", 1.0)), restarts=settings.omega_p_restarts,
                  max_iter=settings.omega_p_max_iter, ends=ends)
    return est.value, None, {"estimate_converged": est.converged}


def _pair_arg(params: dict) -> FunctionPair:
    return params.get("pair") or power_pair(params.get("alpha", 0.5))


def _offdiag(m: dict, params: dict) -> tuple:
    """(blocks, function pair, r): the leading off-diagonal evaluator arguments."""
    return (m["x"], m["y"]), _pair_arg(params), float(params.get("r", 1.0))


def _holder(params: dict) -> HolderPair:
    p = float(params.get("p", 2.0))
    if params.get("q") is not None:
        return HolderPair(p, float(params["q"]))
    return conjugate_exponent(p)


# Evaluators, bound to a variant with functools.partial in the table. Each
# looks its bound_* (th1: `_th1_value`) up by name when called, never when
# the table is built, so a function patched onto this module is the one
# that runs, and returns its step for the harness to settle.

def _main1(variant, m, prm, s):
    return bound_main1(*_offdiag(m, prm), variant, pending=True)


def _main11(variant, m, prm, s):
    mode = prm.get("constant_mode", "as_proved")
    return bound_main11(*_offdiag(m, prm), _holder(prm), variant, constant_mode=mode,
                        pending=True)


def _main11_young(variant, m, prm, s):
    return bound_main11_young(*_offdiag(m, prm), _holder(prm), variant, pending=True)


def _main3(variant, m, prm, s):
    return _then(bound_main3(*_offdiag(m, prm), variant, pending=True), itemgetter(0))


def _main4(variant, m, prm, s):
    return bound_main4(m["items"], _pair_arg(prm), float(prm.get("p", 1.0)), variant,
                       pending=True)


def _product_xy(m, prm, s):
    return bound_product_xy(m["x"], m["y"], float(prm.get("alpha", 0.5)),
                            float(prm.get("r", 1.0)), int(prm.get("variant", 1)),
                            pending=True)


def _sum_norm(normal_mode, m, prm, s):
    return bound_sum_norm(m["x"], m["y"], float(prm.get("r", 1.0)),
                          sign=prm.get("sign", "+"), normal_mode=normal_mode, pending=True)


def _th1(m, prm, s):
    """th1's step at omega_tol relative to the largest block operator's norm."""
    return _th1_step(m["blocks"], float(prm.get("p", 1.0)), s.omega_tol)


def _sign(params: dict) -> float:
    return 1.0 if params.get("sign", "+") == "+" else -1.0


def _embedding(m, prm):
    return embed_offdiag(m["x"], m["y"])


# The ensemble kind of each sampler role unless a campaign names another.
DEFAULT_ROLES = {"x": "ginibre", "y": "ginibre", "contraction": "contraction",
                 "block": "ginibre", "normal": "normal"}

_PAIR = Sampler((("x", "x", "mn"), ("y", "y", "nm")))
_NORMAL_PAIR = Sampler((("x", "normal", "mn"), ("y", "normal", "nm")))
_ITEMS = Sampler((("a", "contraction", "mm"), ("b", "contraction", "nn"),
                  ("c", "contraction", "mm"), ("d", "contraction", "nn"),
                  ("x", "x", "mn"), ("y", "y", "nm")), group="items")
_BLOCKS = Sampler((("a", "block", "mm"), ("b", "block", "mn"),
                   ("c", "block", "nm"), ("d", "block", "nn")), group="blocks")

_GRID = ("dims", "r_values", "alpha_values")
_HOLDER_GRID = _GRID + ("holder_p_values",)
_SQUARE_GRID = ("square_dims", "r_values", "alpha_values")
_OMEGA_P_GRID = ("dims", "omega_p_p_values", "n_operators_values")
_MAIN4_GRID = _OMEGA_P_GRID + ("alpha_values",)

BOUNDS = {spec.bound_id: spec for spec in (
    BoundSpec("main1.v1", _GRID, _PAIR, partial(_main1, 1), "omega", _embedding),
    BoundSpec("main1.v2", _GRID, _PAIR, partial(_main1, 2), "omega", _embedding),
    BoundSpec("product_xy", _SQUARE_GRID, _PAIR, _product_xy, "omega",
              lambda m, prm: m["x"] @ m["y"]),
    BoundSpec("sum_norm", ("dims", "r_values", "signs"), _PAIR,
              partial(_sum_norm, False), "norm",
              lambda m, prm: m["x"] + _sign(prm) * adjoint(m["y"])),
    BoundSpec("sum_norm.normal", ("square_dims", "r_values", "signs"), _NORMAL_PAIR,
              partial(_sum_norm, True), "norm", lambda m, prm: m["x"] + _sign(prm) * m["y"]),
    BoundSpec("main11.v1", _HOLDER_GRID, _PAIR, partial(_main11, 1), "omega", _embedding,
              extras=("constant_mode",)),
    BoundSpec("main11.v2", _HOLDER_GRID, _PAIR, partial(_main11, 2), "omega", _embedding,
              extras=("constant_mode",)),
    BoundSpec("main11.young.v1", _HOLDER_GRID, _PAIR, partial(_main11_young, 1),
              "omega", _embedding),
    BoundSpec("main11.young.v2", _HOLDER_GRID, _PAIR, partial(_main11_young, 2),
              "omega", _embedding),
    BoundSpec("main3.v1", _GRID, _PAIR, partial(_main3, 1), "omega", _embedding),
    BoundSpec("main3.v2", _GRID, _PAIR, partial(_main3, 2), "omega", _embedding),
    BoundSpec("main4.v1", _MAIN4_GRID, _ITEMS, partial(_main4, 1), "omega_p",
              lambda m, prm: main4_operands(m["items"])),
    BoundSpec("main4.v2", _MAIN4_GRID, _ITEMS, partial(_main4, 2), "omega_p",
              lambda m, prm: main4_operands(m["items"])),
    BoundSpec("th1", _OMEGA_P_GRID, _BLOCKS, _th1, "omega_p",
              lambda m, prm: [embed_block(*blk) for blk in m["blocks"]]),
)}

BOUND_IDS = tuple(BOUNDS)


def bound_spec(bound_id: str) -> BoundSpec:
    """The table entry of `bound_id`; raises UnknownBoundError."""
    try:
        return BOUNDS[bound_id]
    except (KeyError, TypeError):
        raise UnknownBoundError(f"unknown bound id {bound_id!r}") from None
