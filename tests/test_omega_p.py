import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _dual_gap,
    _great_circle,
    _sphere_ascent,
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

        lockstep = numrad.radius._sphere_ascent
        starts, row_values = [], []

        def one_row_at_a_time(stack, p, x0, *args):
            runs = [lockstep(stack, p, x0[k:k + 1], *args) for k in range(len(x0))]
            together = lockstep(stack, p, x0, *args)
            starts.append(x0)
            row_values.append((together[1], np.concatenate([run[1] for run in runs])))
            return tuple(np.concatenate(parts) for parts in zip(*runs))

        monkeypatch.setattr(numrad.radius, "_sphere_ascent", one_row_at_a_time)
        one_by_one = omega_p(ops, p, restarts=restarts, stream=stream)
        assert one_by_one.value == pytest.approx(batched.value, rel=1e-12)
        for k in range(restarts):
            draw = derive(stream, k).generator()
            x0 = draw.standard_normal(n) + 1j * draw.standard_normal(n)
            np.testing.assert_array_equal(starts[0][k], x0)
        for together, alone in row_values:
            np.testing.assert_allclose(together, alone, rtol=1e-12)


def three_call_ascent(stack, p, x0, max_iter, grad_tol, zero_tol):
    """Reference for `_sphere_ascent`: the same iteration written as three
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
    """`_sphere_ascent` carries T_i x, T_i* x, <T_i x, x> and F between
    iterations; every row must end where the three-call reference ends."""

    def run_both(self, monkeypatch, ops, p, restarts):
        pairs = []

        def both(*args):
            carried = _sphere_ascent(*args)
            pairs.append((carried[1], three_call_ascent(*args)[1]))
            return carried

        monkeypatch.setattr(numrad.radius, "_sphere_ascent", both)
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
