import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numrad.radius
from numrad.errors import (DimensionMismatchError, NotSquareError, OutOfRangeError,
                           ToleranceUnreachableError)
from numrad.linalg import adjoint, embed_offdiag, spectral_norm
from numrad.radius import _bipartition, _cell_majorant, _rotated_tops, omega, omega_many
from reference import fn_of_psd, omega_offdiag_symmetric_check

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
        tops = _rotated_tops([(0, m[None], None)], thetas)
        assert tops.shape == (2, thetas.size)
        slack = rounding_slack(m)
        np.testing.assert_allclose(tops[0], h_direct(m, thetas), rtol=0, atol=slack)
        np.testing.assert_allclose(tops[1], h_direct(m, thetas + np.pi), rtol=0, atol=slack)
        # the same angles owned by the second operator of a stack
        other = np.eye(m.shape[0], dtype=complex)
        stack = np.stack([other, m])
        owner = np.repeat([0, 1], [3, thetas.size])
        both = _rotated_tops([(0, stack, None)], np.concatenate([thetas[:3], thetas]), owner)
        np.testing.assert_array_equal(both[:, 3:], tops)

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
        # values, so h is flat at half of ||M||; its zero block caps every
        # cell's majorant at its larger end, so the initial grid certifies
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
        assert solved[0] == 33 and cert.rounds == 0
        # every solve but the norm's evaluates two angles; this operand is
        # bipartite, so they are SVDs of its 4x4 block
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


def count_eigensolves(monkeypatch, names=("eigvalsh", "svd")):
    """Patch the named np.linalg solvers (by default both of omega's
    kernels) to count the matrices they solve; returns a one-element list
    holding the running count."""
    solved = [0]

    def counting(solve):
        def wrapped(a, *args, **kwargs):
            solved[0] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return solve(a, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return solved


def bipartite_cases(seed):
    """embed_offdiag operands of shapes (1, 1), (2, 3) and (8, 8), [[0, X],
    [0, 0]], shifts of even and odd side, and a random symmetric
    permutation of each."""
    g = np.random.default_rng(seed)
    x = rand_complex(g, 3)
    cases = [embed_offdiag(rand_complex(g, m, n), rand_complex(g, n, m))
             for m, n in ((1, 1), (2, 3), (8, 8))]
    cases += [np.block([[np.zeros_like(x), x], [np.zeros_like(x), np.zeros_like(x)]]),
              np.eye(6, k=1, dtype=complex), np.eye(7, k=1, dtype=complex)]
    for m in cases[:6]:
        perm = g.permutation(m.shape[0])
        cases.append(m[np.ix_(perm, perm)])
    return cases


def svd_tracks(m, thetas):
    """`_rotated_tops` through the bipartite kernel, from M's blocks."""
    a, b = _bipartition(m != 0)
    return _rotated_tops([(0, m[np.ix_(a, b)][None], np.conj(m[np.ix_(b, a)]).T[None])], thetas)


class TestBipartiteKernel:
    """sigma_max(e^{i theta} X + e^{-i theta} Y*) / 2 gives both tracks of
    an operator whose graph of nonzero entries is bipartite."""

    @pytest.mark.parametrize("case", range(12))
    def test_svd_tracks_match_eigensolve(self, case):
        m = bipartite_cases(50)[case]
        a, b = _bipartition(m != 0)
        assert not m[np.ix_(a, a)].any() and not m[np.ix_(b, b)].any()
        assert np.union1d(a, b).size == m.shape[0]
        thetas = np.linspace(0.0, np.pi, 97, endpoint=False)
        slack = 32 * m.shape[0] * U * spectral_norm(m)
        general = _rotated_tops([(0, m[None], None)], thetas)
        np.testing.assert_allclose(svd_tracks(m, thetas), general, rtol=0, atol=slack)

    def test_not_bipartite(self):
        shift = np.eye(4, k=1, dtype=complex)
        shift[2, 2] = 1e-300
        assert _bipartition(shift != 0) is None
        assert _bipartition(np.roll(np.eye(3), 1, axis=1) != 0) is None
        # isolated indices belong to neither class
        a, b = _bipartition(embed_offdiag(np.array([[0.0, 2.0]]), np.zeros((2, 1))) != 0)
        assert a.tolist() == [0] and b.tolist() == [2]

    def test_lone_solves_are_svds(self, monkeypatch):
        m = bipartite_cases(51)[7]  # the permuted (2, 3) operand
        svds = count_eigensolves(monkeypatch, ("svd",))
        solved = count_eigensolves(monkeypatch)
        cert = omega(m, tol=1e-10)
        # every solve is an SVD: the norm's one and one per angle
        assert solved[0] == svds[0]
        assert cert.evals == 2 * (svds[0] - 1)


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
        ub = float(_cell_majorant(u, v, width, nrm, np.inf))
        slack = 32 * side * U * nrm
        inside = h_direct(m, np.linspace(left, left + width, 66)[1:-1])
        assert ub >= inside.max() - slack
        assert ub <= 0.5 * (u + v) + 0.5 * nrm * width + slack
        assert ub <= max(u, v) + 0.125 * nrm * width ** 2 + slack

    def test_flat_cell_is_secant_over_cosine(self):
        # with equal ends c the highest admissible sinusoid peaks mid-cell
        # and passes through both ends: its height is c / cos(w/2)
        c, w = 0.5, 1e-2
        assert _cell_majorant(c, c, w, 1.0, np.inf) == pytest.approx(c / np.cos(w / 2), rel=1e-14)

    def test_steep_or_negative_ends_give_larger_end(self):
        w = 0.1
        assert _cell_majorant(1.0, 0.5, w, 2.0, np.inf) == 1.0  # v < u cos w
        assert _cell_majorant(-0.2, 0.3, w, 2.0, np.inf) == 0.3


class TestCappedMajorant:
    """The cap sqrt(max(u, v)^2 + amp sin^2(w/2)), amp = ||X||_F ||Y*||_F,
    bounds h on a cell of a bipartite operand [[0, X], [Y, 0]], and with a
    zero block it closes [[0, X], [0, 0]] on the initial grid."""

    @staticmethod
    def block(g, rows, cols, kind, log_scale):
        if kind == "zero":
            return np.zeros((rows, cols), dtype=complex)
        if kind == "rank_one":
            return 10.0 ** log_scale * np.outer(rand_complex(g, rows, 1), rand_complex(g, 1, cols))
        return 10.0 ** log_scale * rand_complex(g, rows, cols)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5), cols=st.integers(1, 5),
           kinds=st.tuples(*[st.sampled_from(["ginibre", "zero", "rank_one"])] * 2),
           scales=st.tuples(*[st.sampled_from([-3.0, 0.0, 3.0])] * 2),
           left=st.floats(0.0, 2.0 * np.pi),
           width=st.floats(1e-6, 0.5 * np.pi, exclude_max=True))
    def test_bounds_h_and_never_loosens(self, seed, rows, cols, kinds, scales, left, width):
        g = np.random.default_rng(seed)
        x = self.block(g, rows, cols, kinds[0], scales[0])
        y = self.block(g, cols, rows, kinds[1], scales[1])
        m = embed_offdiag(x, y)
        nrm = spectral_norm(m)
        if nrm == 0.0:
            return
        amp = np.linalg.norm(x) * np.linalg.norm(y)
        u, v = h_direct(m, [left, left + width])
        capped = float(_cell_majorant(u, v, width, nrm, amp))
        inside = h_direct(m, np.linspace(left, left + width, 66)[1:-1])
        assert capped >= inside.max() - 32 * m.shape[0] * U * nrm
        assert capped <= float(_cell_majorant(u, v, width, nrm, np.inf))

    @pytest.mark.parametrize("width", [1e-4, 0.1, 1.0])
    def test_cap_is_sharp_on_a_scalar_pair(self, width):
        # [[0, 2], [1, 0]] has 4 h^2 = 5 + 4 cos 2 theta, one sinusoid of the
        # largest amplitude the cap allows; on a cell centred on its peak the
        # cap is the peak 3/2 itself, below the sinusoid bound
        m = np.array([[0.0, 2.0], [1.0, 0.0]])
        u, v = h_direct(m, [-0.5 * width, 0.5 * width])
        capped = float(_cell_majorant(u, v, width, 2.0, 2.0))
        assert capped == pytest.approx(1.5, rel=1e-14)
        assert capped < float(_cell_majorant(u, v, width, 2.0, np.inf))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 3), (4, 4), (5, 11),
                                           (8, 8), (16, 16)])
    def test_zero_block_disk_at_tightest_tol(self, rows, cols):
        g = np.random.default_rng(rows * 17 + cols)
        x = rand_complex(g, rows, cols)
        m = embed_offdiag(x, np.zeros((cols, rows)))
        nrm = spectral_norm(m)
        cert = omega(m, 1e-12 * max(1.0, nrm))
        slack = rounding_slack(m)
        assert cert.lo - slack <= spectral_norm(x) / 2 <= cert.hi + slack
        assert cert.hi - cert.lo <= 1e-12 * max(1.0, nrm)
        assert (cert.evals, cert.rounds) == (64, 0)

    @pytest.mark.parametrize("x,y", [(1.0, 2.0), (3j, -1.0), (0.5, 0.5), (1e-3, 1e3),
                                     (1 + 1j, 2 - 0.5j), (0.0, 2.5)])
    def test_scalar_pair_at_tightest_tol(self, x, y):
        m = np.array([[0.0, x], [y, 0.0]], dtype=complex)
        cert = omega(m, 1e-12 * max(1.0, spectral_norm(m)))
        slack = rounding_slack(m)
        assert cert.lo - slack <= (abs(x) + abs(y)) / 2 <= cert.hi + slack


class TestInnerProductProperties:
    """Numerical forms of the convexity and splitting facts the bounds rest on."""

    def test_psd_power_inner_products(self):
        # <Tx, x>**r <= <T**r x, x> for r >= 1 and ||x|| <= 1; reversed for r <= 1
        g = np.random.default_rng(20)
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


def omega_cases(side):
    """Ginibre, shift, [[0, X], [0, 0]] (even sides) and zero operators of one side."""
    g = np.random.default_rng(40 + side)
    cases = [rand_complex(g, side), rand_complex(g, side), np.eye(side, k=1, dtype=complex),
             np.zeros((side, side), dtype=complex)]
    if side % 2 == 0:
        x = rand_complex(g, side // 2)
        zero = np.zeros_like(x)
        cases.append(np.block([[zero, x / spectral_norm(x)], [zero, zero]]))
    return cases


class TestOmegaMany:
    """`omega_many` equals `omega` of each operator alone, bit for bit."""

    TOLS = (1e-6, None, 1e-8)

    @pytest.mark.parametrize("side", (1, 2, 5, 8))
    def test_stack_matches_single_calls(self, side):
        # Ginibre operands share batches with bipartite ones of the same side
        mats = omega_cases(side) + [m for m in bipartite_cases(side) if m.shape[0] == side]
        g = np.random.default_rng(side)
        for m in mats[:2] if side > 1 else ():
            embed = embed_offdiag(m[:side // 2, side // 2:], m[side // 2:, :side // 2])
            perm = g.permutation(side)
            mats += [embed, embed[np.ix_(perm, perm)]]
        tols = [self.TOLS[i % len(self.TOLS)] for i in range(len(mats))]
        alone = [omega(m, tol) for m, tol in zip(mats, tols)]
        assert omega_many(mats, tols) == alone
        for _ in range(4):
            order = g.permutation(len(mats))
            cut = int(g.integers(1, len(mats)))
            for batch in (order[:cut], order[cut:], order):
                got = omega_many([mats[i] for i in batch], [tols[i] for i in batch])
                assert got == [alone[i] for i in batch]

    def test_rounds_and_evals_are_per_operator(self):
        mats = omega_cases(8)
        certs = omega_many(mats, [1e-8] * len(mats))
        assert len({c.rounds for c in certs}) > 1
        assert [c.evals for c in certs] == [omega(m, 1e-8).evals for m in mats]
        assert certs[3] == numrad.radius.CertifiedRadius(0.0, 0.0, 0.0, 1e-8, 0, 0)

    def test_side_one_single_angle_round(self, monkeypatch):
        # a round of this 1x1 operator evaluates one angle, where a 2-d
        # operand rounds Re(e^{i theta} M) differently from a batch of them
        z = np.array([[1.0288568739519013 + 1.6419200406711503j]])
        seen = []
        tops = numrad.radius._rotated_tops

        def recording(kernels, thetas, *args):
            seen.append(thetas.copy())
            return tops(kernels, thetas, *args)

        monkeypatch.setattr(numrad.radius, "_rotated_tops", recording)
        alone = omega(z, 1e-6)
        single = [t[0] for t in seen[1:] if t.size == 1]
        assert single
        flat = [0.5 * (phase * z + np.conj(phase) * adjoint(z))
                for phase in np.exp(1j * np.array(single))[:, None, None, None]]
        cube = [0.5 * (phase * z[None] + np.conj(phase) * adjoint(z)[None])
                for phase in np.exp(1j * np.array(single))[:, None, None, None]]
        assert any(a != b for a, b in zip(flat, cube))
        # the others run more rounds, so z's single angle shares its batch
        g = np.random.default_rng(41)
        others = [rand_complex(g, 1) for _ in range(5)]
        lone = [omega(m, 1e-10) for m in others]
        assert min(c.rounds for c in lone) >= alone.rounds
        for at in (0, 2, 5):
            got = omega_many(others[:at] + [z] + others[at:], [1e-10] * at + [1e-6]
                             + [1e-10] * (5 - at))
            assert got == lone[:at] + [alone] + lone[at:]

    def test_failure_stays_with_its_operator(self):
        mats = omega_cases(8)
        shift = 2  # needs 32768 angles at tol 1e-8
        budget = 4096
        tols = [1e-8 if i == shift else 1e-6 for i in range(len(mats))]
        got = omega_many(mats + [np.ones((8, 8)), np.eye(8)], tols + [1e-14, float("inf")],
                         max_evals=budget)
        assert isinstance(got[shift], ToleranceUnreachableError)
        with pytest.raises(ToleranceUnreachableError, match=str(got[shift])):
            omega(mats[shift], 1e-8, max_evals=budget)
        assert isinstance(got[-2], OutOfRangeError) and isinstance(got[-1], OutOfRangeError)
        for i, m in enumerate(mats):
            if i != shift:
                assert got[i] == omega(m, tols[i], max_evals=budget)

    def test_rejects_mixed_sides_and_tolerance_count(self):
        assert isinstance(omega_many([np.ones((2, 3))], [None])[0], NotSquareError)
        with pytest.raises(DimensionMismatchError, match="share one side"):
            omega_many([np.eye(2), np.eye(3)], [None, None])
        # the side is checked before the zero and tolerance shortcuts
        for mats, tols in (([np.zeros((3, 3)), np.eye(2)], [None, None]),
                           ([np.eye(2), np.zeros((3, 3))], [None, None]),
                           ([np.eye(3), np.eye(2)], [float("inf"), None]),
                           ([np.ones((2, 3)), np.eye(3), np.eye(2)], [None, 1e-14, None])):
            with pytest.raises(DimensionMismatchError, match="share one side"):
                omega_many(mats, tols)
        with pytest.raises(DimensionMismatchError, match="tolerances"):
            omega_many([np.eye(2)], [])
