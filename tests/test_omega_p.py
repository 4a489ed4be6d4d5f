import numpy as np
import pytest

from numrad.ensembles import RngStream
from numrad.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyListError,
    OutOfRangeError,
)
from numrad.radius import (
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
