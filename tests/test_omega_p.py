import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numrad.linalg
import numrad.radius
from numrad.bounds import zeta_value
from numrad.ensembles import RngStream, derive
from numrad.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyListError,
    OutOfRangeError,
)
from numrad.radius import (
    AscentEnds,
    _dual_gap,
    _great_circle,
    ascend_many,
    ascent_request,
    omega,
    omega_p,
    omega_p_bruteforce,
    omega_p_gradient,
    omega_p_objective,
)


def rand_complex(g, n):
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)


class TestOmegaP:
    def test_single_operator_matches_radius(self):
        g = np.random.default_rng(0)
        for k in range(10):
            n = 2 + k % 4
            m = rand_complex(g, n)
            cert = omega(m, tol=1e-10)
            est = omega_p([m], p=1.0 + k % 3)
            assert abs(est.value - cert.lo) <= 1e-6
            assert est.converged
        # disk-shaped fields of values, centred (a continuum of maximizers) and off-centre
        for n in range(2, 9):
            shift = np.eye(n, k=1)
            half = n // 2
            corner = np.zeros((n, n), dtype=complex)
            corner[:half, n - half:] = rand_complex(g, half)
            for m in (shift, corner, 0.3j * np.eye(n) + shift):
                cert = omega(m, tol=1e-8)
                for p in (1.0, 2.0, 3.0):
                    est = omega_p([m], p=p)
                    assert abs(est.value - cert.lo) <= 1e-6
                    assert est.converged

    def test_unconverged_without_iterations(self):
        g = np.random.default_rng(7)
        ops = [rand_complex(g, 3) for _ in range(2)]
        assert omega_p(ops, 2.0, restarts=1, max_iter=0).converged is False

    def test_dual_gap_nonnegative(self):
        # the Hermitian form of the dual coefficients takes the value ||z||_p at x
        g = np.random.default_rng(8)
        for k in range(40):
            n, p = 1 + k % 4, (1.0, 1.5, 2.0, 3.0)[k % 4]
            stack = np.stack([rand_complex(g, n) for _ in range(1 + k % 3)])
            gap = _dual_gap(stack, p, unit_vector(g, n))
            assert gap >= -1e-12 * max(1.0, max(np.linalg.norm(t, 2) for t in stack))

    def test_identity_copies(self):
        for n_ops, p in ((4, 2.0), (3, 1.0), (5, 3.0)):
            est = omega_p([np.eye(3)] * n_ops, p=p, restarts=4)
            assert est.value == pytest.approx(n_ops ** (1.0 / p), abs=1e-9)

    def test_witness_invariants(self):
        g = np.random.default_rng(1)
        ops = [rand_complex(g, 3) for _ in range(2)]
        est = omega_p(ops, p=2.0, restarts=8)
        assert abs(np.linalg.norm(est.witness) - 1.0) <= 1e-12
        recomputed = omega_p_objective(ops, 2.0, est.witness) ** 0.5
        assert abs(recomputed - est.value) <= 1e-10 * max(1.0, est.value)

    def test_deterministic_given_stream(self):
        g = np.random.default_rng(2)
        ops = [rand_complex(g, 3) for _ in range(2)]
        a = omega_p(ops, p=2.0, restarts=6, stream=RngStream(7))
        b = omega_p(ops, p=2.0, restarts=6, stream=RngStream(7))
        assert a.value == b.value
        assert np.array_equal(a.witness, b.witness)

    def test_monotone_in_p(self):
        g = np.random.default_rng(3)
        ops = [rand_complex(g, 3) for _ in range(3)]
        stream = RngStream(11)
        values = [omega_p(ops, p=p, restarts=8, stream=stream).value
                  for p in (1.0, 1.5, 2.0, 3.0)]
        for lo_p, hi_p in zip(values, values[1:]):
            assert hi_p <= lo_p + 1e-6

    def test_empty_list(self):
        with pytest.raises(EmptyListError):
            omega_p([], p=2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            omega_p([np.eye(2), np.eye(3)], p=2.0)

    def test_p_range(self):
        with pytest.raises(OutOfRangeError):
            omega_p([np.eye(2)], p=0.5)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(OutOfRangeError):
            omega_p([np.eye(2)], p=2.0, tol=float("nan"))

    @pytest.mark.parametrize("tol", [float("inf"), float("-inf"), -1.0])
    def test_rejects_infinite_or_negative_tolerance(self, tol):
        # an infinite tol would stop every restart at its random start and
        # still report the estimate converged
        with pytest.raises(OutOfRangeError, match="tolerance"):
            omega_p([np.eye(2, k=1)], p=2.0, tol=tol)

    def test_zero_tolerance_allowed(self):
        est = omega_p([np.eye(2, k=1)], p=2.0, restarts=4, tol=0.0)
        assert est.value == pytest.approx(0.5, abs=1e-9)


class TestGradient:
    def test_matches_central_differences(self):
        g = np.random.default_rng(4)
        step = 1e-6
        for k in range(100):
            n = 2 + k % 3
            n_ops = 1 + k % 3
            p = (1.0, 2.0, 3.0)[k % 3]
            ops = [rand_complex(g, n) for _ in range(n_ops)]
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            x /= np.linalg.norm(x)
            d = g.standard_normal(n) + 1j * g.standard_normal(n)
            d /= np.linalg.norm(d)
            grad = omega_p_gradient(ops, p, x)
            analytic = float(np.real(np.vdot(d, grad)))
            fd = (omega_p_objective(ops, p, x + step * d)
                  - omega_p_objective(ops, p, x - step * d)) / (2 * step)
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))


def unit_vector(g, n):
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    return x / np.linalg.norm(x)


def tangent_vector(g, x):
    """A unit u with Re <x, u> = 0."""
    while True:
        d = unit_vector(g, x.shape[0])
        u = d - np.real(np.vdot(x, d)) * x
        if np.linalg.norm(u) > 1e-3:
            return u / np.linalg.norm(u)


def on_circle(x, u, t):
    return x * np.cos(t) + u * np.sin(t)


def curve_values(forms, x, u, t):
    """Form values at x cos t + u sin t from the closed form of the line search."""
    alpha, beta, gamma = _great_circle(forms, x[None], u[None])
    return (alpha + beta * np.cos(2.0 * t) + gamma * np.sin(2.0 * t))[:, 0]


CIRCLE_CASES = dict(seed=st.integers(0, 2 ** 32 - 1), side=st.integers(1, 6),
                    t=st.floats(0.0, np.pi, exclude_min=True, exclude_max=True))


class TestGreatCircle:
    """The closed-form curve of the line search against direct evaluation.

    Differences are measured relative to the larger of the value and the
    objective's scale sum ||T_i||^p, since a value that cancels to near
    zero carries the rounding of its terms.
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n_ops=st.integers(1, 4), p=st.floats(1.0, 4.0), **CIRCLE_CASES)
    def test_omega_p_curve_matches_objective(self, seed, side, t, n_ops, p):
        g = np.random.default_rng(seed)
        ops = np.stack([rand_complex(g, side) for _ in range(n_ops)])
        x = unit_vector(g, side)
        u = tangent_vector(g, x)
        curve = float(np.sum(np.abs(curve_values(ops, x, u, t)) ** p))
        direct = omega_p_objective(ops, p, on_circle(x, u, t))
        scale = sum(np.linalg.norm(op, 2) ** p for op in ops)
        assert abs(curve - direct) <= 1e-12 * max(direct, scale)


class TestLockstep:
    def test_batched_calls_match_one_vector_calls(self):
        g = np.random.default_rng(6)
        for n, n_ops, p in ((1, 1, 1.0), (3, 2, 2.0), (5, 4, 3.5)):
            ops = np.stack([rand_complex(g, n) for _ in range(n_ops)])
            xs = np.stack([unit_vector(g, n) for _ in range(7)])
            values = omega_p_objective(ops, p, xs)
            grads = omega_p_gradient(ops, p, xs)
            assert values.shape == (7,) and grads.shape == (7, n)
            for row, x in enumerate(xs):
                one = omega_p_objective(ops, p, x)
                assert isinstance(one, float)
                assert values[row] == pytest.approx(one, rel=1e-12)
                np.testing.assert_allclose(grads[row], omega_p_gradient(ops, p, x),
                                           rtol=1e-12, atol=1e-12 * np.abs(grads[row]).max())
            a_half, b_half = rand_complex(g, n), rand_complex(g, n + 1)
            a_mat, b_mat = a_half @ a_half.conj().T, b_half @ b_half.conj().T
            ws = np.stack([unit_vector(g, 2 * n + 1) for _ in range(7)])
            gaps = zeta_value(a_mat, b_mat, ws[:, :n + 1], ws[:, n + 1:])
            for row, w in enumerate(ws):
                one = zeta_value(a_mat, b_mat, w[:n + 1], w[n + 1:])
                assert isinstance(one, float)
                assert gaps[row] == pytest.approx(one, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n,n_ops,p,restarts", [
        (2, 1, 1.0, 5), (3, 2, 2.0, 8), (4, 3, 3.0, 6), (6, 2, 1.5, 4),
    ])
    def test_restarts_do_not_couple(self, monkeypatch, n, n_ops, p, restarts):
        g = np.random.default_rng(n * 10 + n_ops)
        ops = [rand_complex(g, n) for _ in range(n_ops)]
        stream = RngStream(17)
        batched = omega_p(ops, p, restarts=restarts, stream=stream)

        lockstep = numrad.radius.ascend_many
        starts, row_values = [], []

        def one_row_at_a_time(requests):
            (req,) = requests
            runs = lockstep([dataclasses.replace(req, starts=req.starts[k:k + 1])
                             for k in range(len(req.starts))])
            (together,) = lockstep([req])
            starts.append(req.starts)
            row_values.append((together.f, np.concatenate([run.f for run in runs])))
            return [AscentEnds(np.concatenate([run.x for run in runs]),
                               np.concatenate([run.f for run in runs]),
                               sum(run.steps for run in runs), req.norms)]

        monkeypatch.setattr(numrad.radius, "ascend_many", one_row_at_a_time)
        one_by_one = omega_p(ops, p, restarts=restarts, stream=stream)
        assert one_by_one.value == pytest.approx(batched.value, rel=1e-12)
        for k in range(restarts):
            draw = derive(stream, k).generator()
            x0 = draw.standard_normal(n) + 1j * draw.standard_normal(n)
            np.testing.assert_array_equal(starts[0][k], x0)
        for together, alone in row_values:
            np.testing.assert_allclose(together, alone, rtol=1e-12)


def three_call_ascent(stack, p, x0, max_iter, grad_tol, zero_tol):
    """Reference for the lockstep ascent: the same iteration written as three
    calls (gradient, great circle, objective) that each form the products
    of the stack with x afresh, with every live row written out each
    iteration."""
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    f = omega_p_objective(stack, p, x)
    out_x, out_f = x.copy(), f.copy()
    rows = np.arange(x.shape[0])
    stall = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        live = stall < 3
        rows, x, f, stall = rows[live], x[live], f[live], stall[live]
        if not rows.size:
            break
        g = omega_p_gradient(stack, p, x, zero_tol)
        gt = g - np.real(np.sum(np.conj(x) * g, axis=1))[:, None] * x
        gn = np.linalg.norm(gt, axis=1)
        live = gn > grad_tol
        rows, x, f, stall, gt, gn = rows[live], x[live], f[live], stall[live], gt[live], gn[live]
        if not rows.size:
            break
        u = gt / gn[:, None]
        alpha, beta, gamma = _great_circle(stack, x, u)
        ladder = numrad.radius._LADDER
        curve = np.sum(np.abs(alpha[..., None] + beta[..., None] * np.cos(2.0 * ladder)
                              + gamma[..., None] * np.sin(2.0 * ladder)) ** p, axis=0)
        t = ladder[np.argmax(curve, axis=1)][:, None]
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


class TestCarriedProducts:
    """The lockstep ascent carries T_i x, T_i* x, <T_i x, x> and F between
    iterations; every row must end where the three-call reference ends."""

    def run_both(self, monkeypatch, ops, p, restarts):
        pairs = []

        def both(requests):
            carried = ascend_many(requests)
            for req, ends in zip(requests, carried):
                pairs.append((ends.f, three_call_ascent(req.stack, req.p, req.starts, req.max_iter,
                                                        req.grad_tol, req.zero_tol)[1]))
            return carried

        monkeypatch.setattr(numrad.radius, "ascend_many", both)
        omega_p(ops, p, restarts=restarts, stream=RngStream(23))
        (carried, reference), = pairs
        np.testing.assert_allclose(carried, reference, rtol=1e-12)

    @pytest.mark.parametrize("n_ops", [1, 2, 4])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_rows_end_at_reference(self, monkeypatch, n_ops, p):
        g = np.random.default_rng(int(100 * p) + n_ops)
        for side in range(1, 9):
            ops = [rand_complex(g, side) for _ in range(n_ops)]
            self.run_both(monkeypatch, ops, p, restarts=6)

    @pytest.mark.parametrize("n_ops", [2, 4])
    def test_zero_operator_at_p1(self, monkeypatch, n_ops):
        # <0 x, x> = 0 sits on the kink of |z| that zero_tol guards
        g = np.random.default_rng(40 + n_ops)
        for side in range(1, 9):
            ops = [rand_complex(g, side) for _ in range(n_ops - 1)] + [np.zeros((side, side))]
            self.run_both(monkeypatch, ops, 1.0, restarts=6)


def ascent_case(g, side, n_ops, p, restarts, max_iter, zero=False):
    """omega_p arguments of one request; with `zero`, the last operator is 0."""
    ops = [rand_complex(g, side) for _ in range(n_ops)]
    if zero:
        ops[-1] = np.zeros((side, side))
    return dict(ops=ops, p=p, restarts=restarts, stream=RngStream(int(g.integers(2 ** 32))),
                max_iter=max_iter)


def assert_same_ends(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.f, b.f)
    assert a.steps == b.steps and a.norms == b.norms


class TestAscendMany:
    """`ascend_many` runs the ascents of one (k, side, p) in lockstep; each
    request ends as it would alone, and omega_p on its ends gives the lone
    omega_p estimate, to the bit."""

    @staticmethod
    def cases():
        # sides 1-16 at k = 1, 2 and 4 and p = 1, 2 and 3, three requests a
        # key; one restart (a lone row, doubled), max_iter 0 and 7, and a
        # zero operand at p = 1 (the kink guard) among them
        g = np.random.default_rng(29)
        cases = []
        for side in range(1, 17):
            n_ops, p = (1, 2, 4)[side % 3], (1.0, 2.0, 3.0)[side // 3 % 3]
            for restarts, max_iter in ((1, 60), (3, (0, 7, 60)[side % 3]), (4, 60)):
                cases.append(ascent_case(g, side, n_ops, p, restarts, max_iter,
                                         zero=p == 1.0 and n_ops > 1 and restarts == 4))
        return cases

    def test_lockstep_equals_lone_requests(self):
        cases = self.cases()
        requests = [ascent_request(**case) for case in cases]
        alone = [ascend_many([req])[0] for req in requests]
        g = np.random.default_rng(7)
        order = g.permutation(len(requests))
        for i, ends in zip(order, ascend_many([requests[i] for i in order])):
            assert_same_ends(ends, alone[i])
        # sub-batches, each of mixed keys
        for part in np.array_split(g.permutation(len(requests)), 5):
            for i, ends in zip(part, ascend_many([requests[i] for i in part])):
                assert_same_ends(ends, alone[i])
        for case, ends in zip(cases, alone):
            lone = omega_p(**case)
            est = omega_p(**case, ends=ends)
            assert est.value == lone.value and est.converged == lone.converged
            np.testing.assert_array_equal(est.witness, lone.witness)

    def test_steps_count_row_iterations(self):
        g = np.random.default_rng(3)
        idle = ascend_many([ascent_request(**ascent_case(g, 3, 2, 2.0, 4, 0))])[0]
        assert idle.steps == 0
        ends = ascend_many([ascent_request(**ascent_case(g, 3, 2, 2.0, 4, 5))])[0]
        assert 4 <= ends.steps <= 4 * 5

    def test_ends_of_another_shape_are_refused(self):
        g = np.random.default_rng(4)
        case = ascent_case(g, 3, 2, 2.0, 4, 20)
        ends = ascend_many([ascent_request(**case)])[0]
        with pytest.raises(DimensionMismatchError, match="ends"):
            omega_p(**dict(case, restarts=3), ends=ends)
        with pytest.raises(DimensionMismatchError, match="1 norms for 2 operators"):
            omega_p(**case, ends=ends._replace(norms=ends.norms[:1]))

    def test_given_norms_stand_in_for_the_svds(self):
        # a contract side takes its operands' norms as stacked requests and
        # hands them to ascent_request; the request and its ends keep their
        # bits
        g = np.random.default_rng(6)
        case = ascent_case(g, 4, 3, 2.0, 3, 15)
        norms = tuple(numrad.linalg.spectral_norms(np.stack(case["ops"])).tolist())
        given, own = ascent_request(**case, norms=norms), ascent_request(**case)
        for name in ("stack", "starts"):
            np.testing.assert_array_equal(getattr(given, name), getattr(own, name))
        assert (given.p, given.max_iter, given.grad_tol, given.zero_tol, given.norms) == (
            own.p, own.max_iter, own.grad_tol, own.zero_tol, own.norms)
        assert_same_ends(*ascend_many([given, own]))

    def test_any_ends_give_a_lower_bound(self):
        # the value comes from the ops at the best end point, whatever the
        # ends say F is there
        g = np.random.default_rng(5)
        case = ascent_case(g, 3, 2, 3.0, 4, 20)
        points = np.stack([unit_vector(g, 3) for _ in range(4)])
        ends = AscentEnds(points, np.array([0.0, 1e9, 0.0, 0.0]), 0,
                          tuple(np.linalg.norm(t, 2) for t in case["ops"]))
        est = omega_p(**case, ends=ends)
        np.testing.assert_array_equal(est.witness, points[1])
        assert est.value == omega_p_objective(case["ops"], 3.0, points[1]) ** (1 / 3)
        assert est.value <= omega_p(**case).value + 1e-12


class TestArgumentChecks:
    @pytest.mark.parametrize("kwargs,name", [
        ({"restarts": 4.0}, "restarts"),
        ({"restarts": True}, "restarts"),
        ({"restarts": 0}, "restarts"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
        ({"max_iter": False}, "max_iter"),
    ])
    def test_rejects_bad_counts(self, kwargs, name):
        with pytest.raises(OutOfRangeError, match=name):
            omega_p([np.eye(2, k=1)] * 2, 2.0, **kwargs)

    def test_numpy_integers_accepted(self):
        a = omega_p([np.eye(2, k=1)] * 2, 2.0, restarts=np.int64(3), max_iter=np.int32(20))
        b = omega_p([np.eye(2, k=1)] * 2, 2.0, restarts=3, max_iter=20)
        assert a.value == b.value


class TestExtremeNorms:
    """Operators whose F would leave the float range run scaled by a power
    of 2, and their value and tol are scaled back."""

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    @pytest.mark.parametrize("s", (1e-300, 1e-160, 1e-100, 1e100, 1e160, 1e300))
    def test_value_scales_with_the_operators(self, s, p):
        g = np.random.default_rng(8)
        ops = [rand_complex(g, 3) for _ in range(2)]
        ops = [t / max(np.linalg.norm(u, 2) for u in ops) for t in ops]
        unit = omega_p(ops, p, restarts=6, stream=RngStream(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = omega_p([s * t for t in ops], p, restarts=6, stream=RngStream(2))
        assert 0.0 < est.value and est.converged
        assert abs(est.value - s * unit.value) <= 1e-8 * max(1.0, s)

    @pytest.mark.parametrize("s", (1e100, 1e160))
    def test_shift_pair_at_p3(self, s):
        # omega_p of the shift given twice is 2^(1/p) omega(shift) = 2^(1/3) s / 2
        shift = np.array([[0.0, s], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = omega_p([shift, shift], 3.0)
        assert est.converged
        assert est.value == pytest.approx(2.0 ** (1 / 3) * 0.5 * s, rel=1e-6)

    def test_ordinary_norms_run_unscaled(self):
        # at norm about 1e30 and p = 4, F stays near 1e120 and the operators
        # run as given; at p = 5 they run scaled to norm about 1
        g = np.random.default_rng(9)
        ops = [1e30 * rand_complex(g, 3) for _ in range(2)]
        np.testing.assert_array_equal(ascent_request(ops, 4.0, 2).stack, np.stack(ops))
        scaled = ascent_request(ops, 5.0, 2).stack
        assert 0.5 <= max(np.linalg.norm(t, 2) for t in scaled) < 1.0


class TestBruteForce:
    def test_identity(self):
        assert omega_p_bruteforce([np.eye(2)], p=2.0, grid_density=512) == \
            pytest.approx(1.0, abs=1e-9)

    def test_split_projections_p1(self):
        # <T1 x, x> + <T2 x, x> = ||x||^2 = 1 for the two coordinate projections
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert omega_p_bruteforce(ops, p=1.0, grid_density=512) == \
            pytest.approx(1.0, abs=1e-9)

    def test_split_projections_p2_endpoints_win(self):
        # max of sqrt(t^2 + (1-t)^2) over t in [0, 1] sits at the endpoints
        ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        bf = omega_p_bruteforce(ops, p=2.0, grid_density=2048)
        assert bf == pytest.approx(1.0, abs=1e-8)
        est = omega_p(ops, p=2.0, restarts=32)
        assert abs(bf - est.value) <= 1e-6

    def test_agreement_with_estimator(self):
        g = np.random.default_rng(5)
        for k in range(6):
            n = 2 + k % 2
            ops = [rand_complex(g, n) for _ in range(1 + k % 3)]
            p = (1.0, 2.0, 3.0)[k % 3]
            bf = omega_p_bruteforce(ops, p, grid_density=4096)
            est = omega_p(ops, p, restarts=24)
            assert abs(bf - est.value) <= 1e-4

    def test_rejects_large_dimension(self):
        with pytest.raises(DimensionTooLargeError):
            omega_p_bruteforce([np.eye(4)], p=2.0)
