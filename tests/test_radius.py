import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrad.errors import NotSquareError, OutOfRangeError, ToleranceUnreachableError
from numrad.linalg import adjoint, embed_offdiag, spectral_norm
from numrad.radius import _cell_majorant, _rotated_tops, omega, omega_offdiag_symmetric_check

U = np.finfo(float).eps / 2


def rand_complex(g, n, m=None):
    m = n if m is None else m
    return (g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))) / np.sqrt(2)


def rand_unitary(g, n):
    q, r = np.linalg.qr(rand_complex(g, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def h_direct(m, thetas):
    """lambda_max(Re(e^{i theta} M)) evaluated at each angle itself."""
    phase = np.exp(1j * np.asarray(thetas, dtype=float))[:, None, None]
    return np.linalg.eigvalsh(0.5 * (phase * m + np.conj(phase) * adjoint(m)))[:, -1]


def rounding_slack(m):
    return 32 * m.shape[0] * U * max(1.0, spectral_norm(m))


def mc_lower_bound(g, m, samples=20000):
    """Monte-Carlo lower bound on the radius: max |<Mx, x>| over random x."""
    n = m.shape[0]
    xs = g.standard_normal((samples, n)) + 1j * g.standard_normal((samples, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    return float(np.abs(np.einsum("bi,ij,bj->b", xs.conj(), m, xs)).max())


class TestOmega:
    def test_nilpotent_disk(self):
        cert = omega([[0, 1], [0, 0]], tol=1e-8)
        assert cert.lo == pytest.approx(0.5, abs=1e-8)
        assert cert.hi == pytest.approx(0.5, abs=1e-8)
        assert cert.hi - cert.lo <= 1e-8

    def test_hermitian_is_top_modulus(self):
        cert = omega(np.diag([1.0, -3.0]), tol=1e-10)
        assert cert.lo == pytest.approx(3.0, abs=1e-10)

    def test_zero_matrix(self):
        cert = omega(np.zeros((3, 3)), tol=1e-8)
        assert (cert.lo, cert.hi) == (0.0, 0.0)

    def test_interval_invariants(self):
        g = np.random.default_rng(0)
        for k in range(10):
            m = rand_complex(g, 2 + k % 5)
            cert = omega(m, tol=1e-8)
            assert 0.0 <= cert.lo <= cert.hi
            assert cert.hi - cert.lo <= cert.tol
            assert 0.0 <= cert.witness_theta < 2 * np.pi

    def test_monte_carlo_containment(self):
        g = np.random.default_rng(1)
        for k in range(3):
            m = rand_complex(g, 3 + k)
            cert = omega(m, tol=1e-9)
            lower = mc_lower_bound(g, m, samples=100000)
            scale = max(1.0, spectral_norm(m))
            assert lower <= cert.hi + 1e-9 * scale
            assert cert.lo <= spectral_norm(m) + 1e-9 * scale

    def test_norm_sandwich(self):
        g = np.random.default_rng(2)
        for k in range(10):
            m = rand_complex(g, 2 + k % 6)
            cert = omega(m, tol=1e-9)
            nrm = spectral_norm(m)
            eps = 1e-9 * max(1.0, nrm)
            assert nrm / 2 - eps <= cert.hi
            assert cert.lo <= nrm + eps

    def test_power_inequality(self):
        g = np.random.default_rng(3)
        for k in range(10):
            m = rand_complex(g, 2 + k % 5)
            c1 = omega(m, tol=1e-10)
            c2 = omega(m @ m, tol=1e-10)
            scale = max(1.0, spectral_norm(m)) ** 2
            assert c2.hi <= c1.hi ** 2 + 1e-8 * scale

    def test_unitary_similarity_invariance(self):
        g = np.random.default_rng(4)
        for _ in range(5):
            m = rand_complex(g, 4)
            u = rand_unitary(g, 4)
            c1 = omega(m, tol=1e-9)
            c2 = omega(adjoint(u) @ m @ u, tol=1e-9)
            w = 1e-9 * max(1.0, spectral_norm(m))
            assert c1.lo <= c2.hi + w and c2.lo <= c1.hi + w

    def test_adjoint_invariance(self):
        g = np.random.default_rng(5)
        m = rand_complex(g, 5)
        c1 = omega(m, tol=1e-9)
        c2 = omega(adjoint(m), tol=1e-9)
        w = 1e-9 * max(1.0, spectral_norm(m))
        assert c1.lo <= c2.hi + w and c2.lo <= c1.hi + w

    def test_homogeneity(self):
        g = np.random.default_rng(6)
        m = rand_complex(g, 4)
        c = 3.5
        c1 = omega(m, tol=1e-10)
        c2 = omega(c * m, tol=1e-9)
        scale = 1e-9 * max(1.0, c * spectral_norm(m))
        assert c2.lo >= c * c1.lo - scale
        assert c2.hi <= c * c1.hi + scale

    def test_witness_attains_lo(self):
        g = np.random.default_rng(7)
        m = rand_complex(g, 4)
        cert = omega(m, tol=1e-9)
        rot = np.exp(1j * cert.witness_theta) * m
        top = float(np.linalg.eigvalsh((rot + adjoint(rot)) / 2)[-1])
        assert top == pytest.approx(cert.lo, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            omega(np.zeros((2, 3)))

    def test_rejects_too_small_tolerance(self):
        with pytest.raises(OutOfRangeError):
            omega(np.eye(2), tol=1e-14)

    def test_budget_exhaustion(self):
        g = np.random.default_rng(8)
        m = rand_complex(g, 4)
        with pytest.raises(ToleranceUnreachableError):
            omega(m, tol=1e-11, max_evals=80)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(OutOfRangeError):
            omega(np.eye(2), tol=tol)


def two_track_cases():
    g = np.random.default_rng(30)
    herm = rand_complex(g, 4)
    return {
        "random": rand_complex(g, 5),
        "hermitian": herm + adjoint(herm),
        "shift": np.eye(6, k=1, dtype=complex),
        "offdiag": embed_offdiag(rand_complex(g, 3), rand_complex(g, 3)),
    }


class TestTwoTracks:
    """One eigensolve of Re(e^{i theta} M) gives h(theta) and h(theta + pi)."""

    @pytest.mark.parametrize("kind", ["random", "hermitian", "shift", "offdiag"])
    def test_second_row_is_antipodal_top(self, kind):
        m = two_track_cases()[kind]
        thetas = np.concatenate([np.linspace(0.0, np.pi, 97, endpoint=False),
                                 [np.nextafter(np.pi, 0.0)]])
        tops = _rotated_tops(m, adjoint(m), thetas)
        assert tops.shape == (2, thetas.size)
        slack = rounding_slack(m)
        np.testing.assert_allclose(tops[0], h_direct(m, thetas), rtol=0, atol=slack)
        np.testing.assert_allclose(tops[1], h_direct(m, thetas + np.pi), rtol=0, atol=slack)

    def test_second_track_witness(self):
        m = np.diag([1.0, -3.0])
        cert = omega(m, tol=1e-10)
        assert cert.lo == pytest.approx(3.0, abs=1e-12)
        assert cert.witness_theta == pytest.approx(np.pi, abs=1e-12)
        assert float(h_direct(m, [cert.witness_theta])[0]) == pytest.approx(cert.lo, abs=1e-12)

    def test_eigensolve_count_on_shift(self, monkeypatch):
        solved = count_eigensolves(monkeypatch)
        cert = omega(np.eye(8, k=1, dtype=complex), tol=1e-8)
        assert cert.hi - cert.lo <= 1e-8
        assert solved[0] <= 16384 + 32

    def test_eigensolve_count_on_offdiag_disk(self, monkeypatch):
        # [[0, X], [0, 0]] has the disk of radius ||X|| / 2 as its field of
        # values, so h is flat at half of ||M||: the sinusoid majorant
        # allows cells sqrt(2) times wider than the curvature bound did
        g = np.random.default_rng(32)
        x = rand_complex(g, 4)
        x /= spectral_norm(x)
        zero = np.zeros_like(x)
        m = np.block([[zero, x], [zero, zero]])
        slack = rounding_slack(m)
        solved = count_eigensolves(monkeypatch)
        cert = omega(m, tol=1e-8)
        assert cert.hi - cert.lo <= 1e-8
        assert cert.lo - slack <= 0.5 <= cert.hi + slack
        assert solved[0] <= 8192 + 32
        # every eigensolve but the norm's evaluates two angles
        assert cert.evals == 2 * (solved[0] - 1)

    def test_budget_counts_angles(self):
        # the side-8 shift at tol 1e-6 takes 2048 eigensolves, 4096 angles
        shift = np.eye(8, k=1, dtype=complex)
        assert omega(shift, tol=1e-6, max_evals=4096).hi - np.cos(np.pi / 9) <= 1e-6
        with pytest.raises(ToleranceUnreachableError):
            omega(shift, tol=1e-6, max_evals=4094)

    @pytest.mark.parametrize("kind,side", [("offdiag", 2), ("offdiag", 4),
                                           ("near_disk", 3), ("near_disk", 5)])
    def test_matches_angle_scan(self, kind, side):
        g = np.random.default_rng(31 + side)
        if kind == "offdiag":
            # [[0, X], [Y, 0]] is unitarily similar to its negative, so its
            # field of values is symmetric and both tracks reach the maximum
            m = embed_offdiag(rand_complex(g, side), rand_complex(g, side))
        else:
            m = np.eye(side, k=1, dtype=complex) + 1e-7 * rand_complex(g, side)
        cert = omega(m, tol=1e-10)
        slack = rounding_slack(m)
        scan = h_direct(m, np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
        assert cert.hi - cert.lo <= 1e-10
        assert cert.hi >= scan.max() - slack
        assert abs(cert.lo - float(h_direct(m, [cert.witness_theta])[0])) <= slack


def count_eigensolves(monkeypatch):
    """Patch np.linalg.eigvalsh to count the matrices it solves; returns a
    one-element list holding the running count."""
    solved = [0]
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved[0] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


class TestCellMajorant:
    """`_cell_majorant` bounds h on a cell and is never looser than the
    Lipschitz bound (u + v)/2 + ||M|| w/2 or the curvature bound
    max(u, v) + ||M|| w^2/8 that it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), side=st.integers(1, 5),
           log_scale=st.floats(-3.0, 3.0), nilpotent_eps=st.sampled_from([None, 0.0, 1e-9, 1e-4]),
           left=st.floats(0.0, 2.0 * np.pi),
           width=st.floats(1e-6, 0.5 * np.pi, exclude_max=True))
    def test_bounds_h_and_tightens_old_majorants(self, seed, side, log_scale, nilpotent_eps,
                                                 left, width):
        g = np.random.default_rng(seed)
        m = rand_complex(g, side)
        if nilpotent_eps is not None:
            m = np.eye(side, k=1, dtype=complex) + nilpotent_eps * m
        m *= 10.0 ** log_scale
        nrm = spectral_norm(m)
        if nrm == 0.0:
            return
        u, v = h_direct(m, [left, left + width])
        ub = float(_cell_majorant(u, v, width, nrm))
        slack = 32 * side * U * nrm
        inside = h_direct(m, np.linspace(left, left + width, 66)[1:-1])
        assert ub >= inside.max() - slack
        assert ub <= 0.5 * (u + v) + 0.5 * nrm * width + slack
        assert ub <= max(u, v) + 0.125 * nrm * width ** 2 + slack

    def test_flat_cell_is_secant_over_cosine(self):
        # with equal ends c the highest admissible sinusoid peaks mid-cell
        # and passes through both ends: its height is c / cos(w/2)
        c, w = 0.5, 1e-2
        assert _cell_majorant(c, c, w, 1.0) == pytest.approx(c / np.cos(w / 2), rel=1e-14)

    def test_steep_or_negative_ends_give_larger_end(self):
        w = 0.1
        assert _cell_majorant(1.0, 0.5, w, 2.0) == 1.0  # v < u cos w
        assert _cell_majorant(-0.2, 0.3, w, 2.0) == 0.3


class TestInnerProductProperties:
    """Numerical forms of the convexity and splitting facts the bounds rest on."""

    def test_psd_power_inner_products(self):
        # <Tx, x>**r <= <T**r x, x> for r >= 1 and ||x|| <= 1; reversed for r <= 1
        g = np.random.default_rng(20)
        from numrad.linalg import fn_of_psd

        for k in range(50):
            n = 2 + k % 4
            z = rand_complex(g, n)
            t = adjoint(z) @ z
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            x *= g.uniform(0.0, 1.0) / np.linalg.norm(x)
            base = float(np.real(np.vdot(x, t @ x)))
            eps = 1e-10 * max(1.0, spectral_norm(t)) ** 3
            for r in (1.0, 1.5, 2.0, 3.0):
                tr = fn_of_psd(t, lambda s: np.asarray(s) ** r)
                lifted = float(np.real(np.vdot(x, tr @ x)))
                assert base ** r <= lifted + eps
            for r in (0.25, 0.5, 0.75, 1.0):
                tr = fn_of_psd(t, lambda s: np.asarray(s) ** r)
                lifted = float(np.real(np.vdot(x, tr @ x)))
                assert lifted <= base ** r + eps

    def test_split_schwarz_inequality(self):
        # |<Tx, y>|**2 <= <f^2(|T|) x, x> <g^2(|T*|) y, y> for power pairs
        g = np.random.default_rng(21)
        from numrad.funcpair import pow_of_pair, power_pair
        from numrad.linalg import fn_of_abs

        for k in range(50):
            n = 2 + k % 4
            t = rand_complex(g, n)
            pair = power_pair((0.0, 0.25, 0.5, 0.75, 1.0)[k % 5])
            f2, g2 = pow_of_pair(pair, 2.0)
            left_mat = fn_of_abs(t, f2)
            right_mat = fn_of_abs(adjoint(t), g2)
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            y = g.standard_normal(n) + 1j * g.standard_normal(n)
            lhs = abs(np.vdot(y, t @ x)) ** 2
            rhs = float(np.real(np.vdot(x, left_mat @ x))) * \
                float(np.real(np.vdot(y, right_mat @ y)))
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)


class TestOffdiagSymmetricCheck:
    def overlap(self, c1, c2, scale):
        w = 1e-9 * max(1.0, scale)
        return c1.lo <= c2.hi + w and c2.lo <= c1.hi + w

    def test_scalar(self):
        c1, c2 = omega_offdiag_symmetric_check([[1.0]], tol=1e-10)
        assert c1.lo == pytest.approx(1.0, abs=1e-10)
        assert c2.lo == pytest.approx(1.0, abs=1e-10)

    def test_scaled_nilpotent(self):
        # 2 * (2x2 shift) has radius 1 by homogeneity of the radius-1/2 disk
        c1, c2 = omega_offdiag_symmetric_check([[0, 2], [0, 0]], tol=1e-9)
        assert c1.lo == pytest.approx(1.0, abs=1e-9)
        assert c2.lo == pytest.approx(1.0, abs=1e-9)

    def test_random_overlap(self):
        g = np.random.default_rng(9)
        for _ in range(50):
            x = rand_complex(g, 3)
            c1, c2 = omega_offdiag_symmetric_check(x, tol=1e-8)
            assert self.overlap(c1, c2, spectral_norm(x))
