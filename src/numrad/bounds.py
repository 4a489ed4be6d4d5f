"""Upper-bound evaluators for numerical radii of off-diagonal and full
2x2 operator matrices, and the table of bound ids built on them.

Each evaluator returns a :class:`BoundOutcome` holding the right-hand-side
value, the exponent e of its contract (radius**e <= value), the named
intermediate norms, and the parameters used. The evaluators never compare
against a radius themselves; validity checking lives in the harness.

`BOUNDS` maps every bound id to its :class:`BoundSpec`: the campaign grid
axes, how inputs are drawn and checked (and so how many matrix files the
CLI reads), the evaluator call and the contract-side measure. An
evaluator whose value needs certified radii names them in a
:class:`Pending`, and every contract side is one
(`BoundSpec.contract_side`). The harness and the CLI dispatch on this
table only and name no input key or measure, so adding a bound over
existing grid axes means writing its evaluator and adding one entry.

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
    fn_of_abs,
    fn_of_spectrum,
    polar_eigen,
    spectral_norm,
)
from .radius import ascent_request, omega_many, omega_p

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


@dataclass(frozen=True)
class Pending:
    """A result that waits on certified radii and ascents: `radii` lists
    the (operator, absolute tol, ``spectral_norm(operator)``) requests to
    certify and `ascents` the :class:`~numrad.radius.AscentRequest`s to
    run, either possibly none, and `finish(certs)` makes the result from
    the :func:`omega_many` results of the radii followed by the
    :func:`ascend_many` ends of the ascents, in that order. A campaign
    keeps a bound's value and its contract side as one each; only a
    contract side names ascents."""

    radii: list
    finish: Callable
    ascents: list = field(default_factory=list)


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


def _pair_terms(pair: FunctionPair, r: float, variant: int,
                x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """The four PSD terms feeding every off-diagonal bound.

    They are f**(2r) or g**(2r) applied to |X|, |Y*|, |Y| and |X*|; the
    first two make up the first group and the last two the second.
    One SVD per block gives both |X| and |X*| (and |Y| and |Y*|).
    Variant 1 mixes f and g inside each group; variant 2 keeps f with the
    first group and g with the second. The pair is validated on the four
    spectra and the probes 0 and 1.
    """
    (abs_x, abs_xs), (abs_y, abs_ys) = polar_eigen(x), polar_eigen(y)
    eigs = [abs_x, abs_ys, abs_y, abs_xs]
    validate_pair(pair, np.concatenate([s for s, _ in eigs] + [np.array([0.0, 1.0])]))
    fe, ge = pow_of_pair(pair, 2.0 * r)
    fns = (fe, ge, fe, ge) if variant == 1 else (fe, fe, ge, ge)
    return [fn_of_spectrum(fn, s, v) for fn, (s, v) in zip(fns, eigs)]


def _offdiag_groups(p, pair: FunctionPair, r: float, variant: int) -> tuple:
    """(r, first, second, ||first||, ||second||) for the pair p = (X, Y).

    Validates r and the variant; the groups are the two sums of
    :func:`_pair_terms`, which the four off-diagonal bounds share.
    """
    p = p if isinstance(p, OffDiagPair) else OffDiagPair(*p)
    r = _require_r(r)
    t1, t2, t3, t4 = _pair_terms(pair, r, _require_variant(variant), p.x, p.y)
    first, second = t1 + t2, t3 + t4
    return r, first, second, spectral_norm(first), spectral_norm(second)


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


def bound_main1(p: OffDiagPair, pair: FunctionPair, r: float,
                variant: int = 1) -> BoundOutcome:
    """Two-norm product bound for the off-diagonal matrix [[0, X], [Y, 0]].

    value = 2**(r-2) ||group1||^(1/2) ||group2||^(1/2) with the groups of
    f**(2r), g**(2r) applied to |X|, |Y*|, |Y|, |X*|; contract
    omega(T)**r <= value.
    """
    r, _, _, n1, n2 = _offdiag_groups(p, pair, r, variant)
    value = 2.0 ** (r - 2.0) * math.sqrt(n1) * math.sqrt(n2)
    return BoundOutcome(
        bound_id=f"main1.v{variant}",
        value=value,
        exponent=r,
        terms={"norm_first": n1, "norm_second": n2},
        params={"r": r, "variant": variant, "pair": pair.tag},
    )


def bound_product_xy(x, y, alpha: float, r: float, variant: int = 1) -> BoundOutcome:
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
    base = bound_main1(OffDiagPair(x, y), power_pair(alpha), r, variant)
    return BoundOutcome(
        bound_id="product_xy",
        value=base.value,
        exponent=r / 2.0,
        terms=base.terms,
        params={"r": r, "alpha": float(alpha), "variant": variant},
    )


def is_normal(m, tol: float = NORMALITY_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    nrm = spectral_norm(m)
    comm = adjoint(m) @ m - m @ adjoint(m)
    return spectral_norm(comm) <= tol * max(nrm * nrm, 1e-300)


def bound_sum_norm(x, y, r: float, sign: str = "+",
                   normal_mode: bool = False) -> BoundOutcome:
    """Norm bound ||X +/- Y*||**r <= 2**(2r-2) ||...||^(1/2) ||...||^(1/2).

    With normal_mode (X, Y square and normal) the contract tightens to
    ||X +/- Y||**r <= 2**(2r-2) || |X|**r + |Y|**r ||. The value does not
    depend on the sign; the sign is recorded for the contract side only.
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

    def pow_abs(m):
        return fn_of_abs(m, lambda t: np.asarray(t) ** r)

    if normal_mode:
        if x.shape[0] != x.shape[1]:
            raise NotNormalError("normal mode requires square matrices")
        if not (is_normal(x) and is_normal(y)):
            raise NotNormalError("normal mode requires normal operators")
        n1 = spectral_norm(pow_abs(x) + pow_abs(y))
        value = 2.0 ** (2.0 * r - 2.0) * n1
        terms = {"norm_sum": n1}
        bound_id = "sum_norm.normal"
    else:
        n1 = spectral_norm(pow_abs(x) + pow_abs(adjoint(y)))
        n2 = spectral_norm(pow_abs(y) + pow_abs(adjoint(x)))
        value = 2.0 ** (2.0 * r - 2.0) * math.sqrt(n1) * math.sqrt(n2)
        terms = {"norm_first": n1, "norm_second": n2}
        bound_id = "sum_norm"
    return BoundOutcome(
        bound_id=bound_id,
        value=value,
        exponent=r,
        terms=terms,
        params={"r": r, "sign": sign, "normal_mode": normal_mode},
    )


def bound_main11(p: OffDiagPair, pair: FunctionPair, r: float, hp: HolderPair,
                 variant: int = 1, constant_mode: str = "as_proved") -> BoundOutcome:
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
    r, _, _, n1, n2 = _offdiag_groups(p, pair, r, variant)
    pw, qw = hp.p, hp.q
    alpha_sq = n1 ** pw / pw ** 2
    beta_sq = n2 ** qw / qw ** 2
    const = 4.0 ** (r - 2.0) if constant_mode == "as_stated" else 4.0 ** (r - 1.0)
    value = const * (alpha_sq + beta_sq)
    return BoundOutcome(
        bound_id=f"main11.v{variant}",
        value=value,
        exponent=2.0 * r,
        terms={"alpha_sq": alpha_sq, "beta_sq": beta_sq, "constant": const},
        params={"r": r, "variant": variant, "p": pw, "q": qw,
                "constant_mode": constant_mode, "pair": pair.tag},
    )


def bound_main11_young(p: OffDiagPair, pair: FunctionPair, r: float,
                       hp: HolderPair, variant: int = 1) -> BoundOutcome:
    """Young-split variant: value = 2**(r-2) (||g1||^(p/2)/p + ||g2||^(q/2)/q),
    contract omega(T)**r <= value."""
    r, _, _, n1, n2 = _offdiag_groups(p, pair, r, variant)
    pw, qw = hp.p, hp.q
    value = 2.0 ** (r - 2.0) * (n1 ** (pw / 2.0) / pw + n2 ** (qw / 2.0) / qw)
    return BoundOutcome(
        bound_id=f"main11.young.v{variant}",
        value=value,
        exponent=r,
        terms={"norm_first": n1, "norm_second": n2},
        params={"r": r, "variant": variant, "p": pw, "q": qw, "pair": pair.tag},
    )


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
                ) -> tuple[BoundOutcome, BoundOutcome, ZetaEstimate]:
    """Norm-sum bound with a subtracted gap term.

    guaranteed uses the lower bound inf zeta >= 0, so
    omega(T)**r <= guaranteed.value is safe. refined subtracts the gap at
    the closed-form witness of `_estimate_zeta`; the gap on the joint
    sphere is vacuous (inf zeta = 0), so refined equals guaranteed up to
    rounding.
    """
    r, first, second, n1, n2 = _offdiag_groups(p, pair, r, variant)
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


def _as_contraction_item(item) -> tuple[np.ndarray, ...]:
    a, b, c, d, x, y = (as_matrix(t) for t in item)
    m, n = x.shape
    ok = (a.shape == (m, m) and c.shape == (m, m)
          and b.shape == (n, n) and d.shape == (n, n) and y.shape == (n, m))
    if not ok:
        raise DimensionMismatchError(
            "item needs A, C m-by-m; B, D n-by-n; X m-by-n; Y n-by-m"
        )
    for name, t in zip("ABCD", (a, b, c, d)):
        if spectral_norm(t) > 1.0 + CONTRACTION_SLACK:
            raise NotContractionError(f"{name} has spectral norm > 1")
    return a, b, c, d, x, y


def main4_operands(items) -> list[np.ndarray]:
    """The compressed off-diagonal products [[0, A*XD], [B*YC, 0]] whose
    generalized radius the contraction bound controls.

    The items must be ones `bound_main4` accepted: their shapes and
    contraction norms are not checked again here.
    """
    return [embed_offdiag(adjoint(a) @ x @ d, adjoint(b) @ y @ c)
            for a, b, c, d, x, y in items]


def bound_main4(items, pair: FunctionPair, p: float, variant: int = 1) -> BoundOutcome:
    """Contraction-compressed bound on omega_p**p of the products.

    value = 2**(p-2) * sum_i ||D* f^{2p}(|X|) D + B* g^{2p}(|Y*|) B||^(1/2)
    * ||C* f^{2p}(|Y|) C + A* g^{2p}(|X*|) A||^(1/2) (variant 2 groups f
    with f and g with g).
    """
    p = _require_r(p, "p")
    variant = _require_variant(variant)
    norm_items = [_as_contraction_item(item) for item in items]
    if not norm_items:
        raise OutOfRangeError("at least one item is required")
    total = 0.0
    per_item = []
    for a, b, c, d, x, y in norm_items:
        t1, t2, t3, t4 = _pair_terms(pair, p, variant, x, y)
        g1 = adjoint(d) @ t1 @ d + adjoint(b) @ t2 @ b
        g2 = adjoint(c) @ t3 @ c + adjoint(a) @ t4 @ a
        term = math.sqrt(spectral_norm(g1)) * math.sqrt(spectral_norm(g2))
        per_item.append(term)
        total += term
    value = 2.0 ** (p - 2.0) * total
    return BoundOutcome(
        bound_id=f"main4.v{variant}",
        value=value,
        exponent=p,
        terms={f"item_{i}": t for i, t in enumerate(per_item)},
        params={"p": p, "variant": variant, "n_operators": len(per_item),
                "pair": pair.tag},
    )


def _th1_inputs(blocks, p: float) -> tuple[list, list, list, float]:
    """th1's inputs checked: the Block2x2 of each block, [A_1, D_1, A_2, ...],
    [(||B_i||, ||C_i||)] and p."""
    p = _require_r(p, "p")
    blocks = [blk if isinstance(blk, Block2x2) else Block2x2(*blk) for blk in blocks]
    if not blocks:
        raise OutOfRangeError("at least one block is required")
    return (blocks, [op for blk in blocks for op in (blk.a, blk.d)],
            [(spectral_norm(blk.b), spectral_norm(blk.c)) for blk in blocks], p)


def _th1_value(offdiag_norms, p: float, certs) -> BoundOutcome:
    """th1's outcome from the norms [(||B_i||, ||C_i||)] and the certified
    radii [w(A_1), w(D_1), w(A_2), ...]: CertifiedRadius results, or the
    NumradError each raised, of which the first is raised. The radii are
    taken at their upper endpoints, the conservative side for an upper
    bound, and `omega_tol` is the tol they were certified at."""
    for cert in certs:
        if isinstance(cert, NumradError):
            raise cert
    total = 0.0
    per_item = []
    for (nb, nc), cert_a, cert_d in zip(offdiag_norms, certs[::2], certs[1::2]):
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


def bound_th1(blocks, p: float, omega_tol: float = 1e-8) -> BoundOutcome:
    """Full-block bound on omega_p**p of [[A_i, B_i], [C_i, D_i]].

    value = 2**(-p) sum_i (w(A_i) + w(D_i)
    + sqrt((w(A_i) - w(D_i))**2 + (||B_i|| + ||C_i||)**2))**p, with the
    certified radii taken at their upper endpoints. A_1, D_1, A_2, ...
    are certified together by one :func:`omega_many`, and the first
    failure in that order is raised. A campaign certifies these radii in
    its measuring stage instead and finishes the value the same way.
    """
    _, ops, norms, p = _th1_inputs(blocks, p)
    return _th1_value(norms, p, omega_many(ops, [omega_tol] * len(ops)))


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

    `omega_tol` is relative to max(1, scale) of the measured operator;
    `stream` seeds the generalized-radius restarts. Per-trial parameters,
    `constant_mode` among them, travel in the params dict instead.
    """

    omega_tol: float = 1e-6
    omega_p_restarts: int = 8
    omega_p_max_iter: int = 300
    stream: RngStream = RngStream(0)


@dataclass(frozen=True)
class BoundSpec:
    """One bound id: how to sample, evaluate and check it.

    `axes` names the campaign grid axes, outermost first. `evaluate(mats,
    params, settings)` checks the inputs and returns the BoundOutcome, or,
    when the value needs certified radii (`th1`), a Pending naming them.
    The contract side takes `measure` ("omega", "norm" or "omega_p") of
    `operand(mats, params)`, and `contract_side` states it as a Pending
    too, so a campaign certifies the radii of values and sides together
    and then runs their finishes. `extras` names the campaign settings
    each trial adds to its params.
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
        """The contract side as a Pending whose finish returns (lhs, upper
        end or None, extras).

        An "omega" side is one radius at `omega_tol` relative to
        max(1, ||T||), with that norm, finished as the ends of its certified
        enclosure. The generalized radius of one operator is its numerical
        radius for every p, so an "omega_p" side of one operand is that
        radius too. A "norm" side has no radii and is the exact norm twice.
        An "omega_p" side of two or more operands has no radii but one
        ascent of them at `omega_p_restarts` and `omega_p_max_iter`; its
        finish takes the estimate from the ascent's ends through
        :func:`omega_p`, a lower estimate with no upper end, and adds its
        `estimate_converged` flag to extras. A radius's or an ascent's
        operands are checked here, so that bad ones fail their own trial
        and not a lockstep batch.
        """
        target = self.operand(mats, params)
        if self.measure == "norm":
            return Pending([], partial(_norm_ends, target))
        if self.measure == "omega_p":
            if len(target) > 1:
                ascent = ascent_request(target, float(params.get("p", 1.0)),
                                        settings.omega_p_restarts,
                                        stream=derive(settings.stream, 102),
                                        max_iter=settings.omega_p_max_iter)
                return Pending([], partial(_ascent_ends, target, params, settings), [ascent])
            (target,) = target
        target = as_matrix(target)
        norm = spectral_norm(target)
        return Pending([(target, settings.omega_tol * max(1.0, norm), norm)], _enclosure_ends)


def _enclosure_ends(certs) -> tuple[float, float, dict]:
    """The ends of a lone certified radius, or the error it raised."""
    (cert,) = certs
    if isinstance(cert, NumradError):
        raise cert
    return cert.lo, cert.hi, {}


def _norm_ends(target, certs) -> tuple[float, float, dict]:
    norm = spectral_norm(target)
    return norm, norm, {}


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
# that runs.

def _main1(variant, m, prm, s):
    return bound_main1(*_offdiag(m, prm), variant)


def _main11(variant, m, prm, s):
    mode = prm.get("constant_mode", "as_proved")
    return bound_main11(*_offdiag(m, prm), _holder(prm), variant, constant_mode=mode)


def _main11_young(variant, m, prm, s):
    return bound_main11_young(*_offdiag(m, prm), _holder(prm), variant)


def _main3(variant, m, prm, s):
    return bound_main3(*_offdiag(m, prm), variant)[0]


def _main4(variant, m, prm, s):
    return bound_main4(m["items"], _pair_arg(prm), float(prm.get("p", 1.0)), variant)


def _product_xy(m, prm, s):
    return bound_product_xy(m["x"], m["y"], float(prm.get("alpha", 0.5)),
                            float(prm.get("r", 1.0)), int(prm.get("variant", 1)))


def _sum_norm(normal_mode, m, prm, s):
    return bound_sum_norm(m["x"], m["y"], float(prm.get("r", 1.0)),
                          sign=prm.get("sign", "+"), normal_mode=normal_mode)


def _th1(m, prm, s):
    """th1's radii A_1, D_1, A_2, ... with their norms, at omega_tol relative
    to the largest block operator's norm, and the finish over their results."""
    blocks, ops, norms, p = _th1_inputs(m["blocks"], float(prm.get("p", 1.0)))
    tol = s.omega_tol * max([1.0] + [spectral_norm(blk.matrix()) for blk in blocks])
    return Pending([(op, tol, spectral_norm(op)) for op in ops], partial(_th1_value, norms, p))


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
