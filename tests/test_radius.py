import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numrad.radius
from numrad.errors import (DimensionMismatchError, NotSquareError, OutOfRangeError,
                           ToleranceUnreachableError)
from numrad.linalg import adjoint, embed_offdiag, spectral_norm
from numrad.radius import (CertifiedRadius, _ando_bound, _bipartition, _cell_majorant, _rescaled,
                           _rotated_tops, omega, omega_many)
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


def eig_kernel(stack):
    """A general `_rotated_tops` kernel of a (b, n, n) stack, first index 0."""
    return 0, stack, np.conj(stack).transpose(0, 2, 1).copy(), False


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
            omega(m, tol=1e-11, max_evals=32)

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
        tops = _rotated_tops([eig_kernel(m[None])], thetas, np.zeros(thetas.size, int))
        assert tops.shape == (2, thetas.size)
        slack = rounding_slack(m)
        np.testing.assert_allclose(tops[0], h_direct(m, thetas), rtol=0, atol=slack)
        np.testing.assert_allclose(tops[1], h_direct(m, thetas + np.pi), rtol=0, atol=slack)
        # the same angles owned by the second operator of a stack
        other = np.eye(m.shape[0], dtype=complex)
        stack = np.stack([other, m])
        owner = np.repeat([0, 1], [3, thetas.size])
        both = _rotated_tops([eig_kernel(stack)], np.concatenate([thetas[:3], thetas]), owner)
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
        assert solved[0] == 9 and cert.rounds == 0
        # every solve but the norm's evaluates two angles; this operand is
        # bipartite, so they are SVDs of its 4x4 block
        assert cert.evals == 2 * (solved[0] - 1)

    def test_budget_counts_angles(self):
        # the side-8 shift at tol 1e-6 splits all 8 initial cells in its
        # first round, 8 solves and 16 angles past the grid's 16; its
        # second round splits 16 and tries the certificate, which closes it
        shift = np.eye(8, k=1, dtype=complex)
        assert omega(shift, tol=1e-6, max_evals=32).hi - np.cos(np.pi / 9) <= 1e-6
        with pytest.raises(ToleranceUnreachableError):
            omega(shift, tol=1e-6, max_evals=30)

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
    return _rotated_tops([(0, m[np.ix_(a, b)][None], np.conj(m[np.ix_(b, a)]).T[None], True)],
                         thetas, np.zeros(thetas.size, int))


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
        general = _rotated_tops([eig_kernel(m[None])], thetas, np.zeros(thetas.size, int))
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
        assert (cert.evals, cert.rounds) == (16, 0)

    @pytest.mark.parametrize("x,y", [(1.0, 2.0), (3j, -1.0), (0.5, 0.5), (1e-3, 1e3),
                                     (1 + 1j, 2 - 0.5j), (0.0, 2.5)])
    def test_scalar_pair_at_tightest_tol(self, x, y):
        m = np.array([[0.0, x], [y, 0.0]], dtype=complex)
        cert = omega(m, 1e-12 * max(1.0, spectral_norm(m)))
        slack = rounding_slack(m)
        assert cert.lo - slack <= (abs(x) + abs(y)) / 2 <= cert.hi + slack


class TestExtremeNorms:
    """An operator of norm outside [2^-401, 2^400] runs scaled by a power
    of two to norm about 1, so the majorants' squares do not underflow or
    overflow, and its ends are scaled back."""

    @pytest.mark.parametrize("s", [1e-150, 1e-170, 1e-200, 1e-300, 1e150, 1e300])
    def test_scalar_pair_encloses_its_radius(self, s):
        # (|x| + |y|) / 2 = 1.5 s; unscaled, the squares of values near s
        # underflow below about 1e-154, where the majorant fell to the
        # larger end
        m = s * np.array([[0.0, 2.0 * np.exp(1j * np.pi / 64)], [1.0, 0.0]])
        cert = omega(m)
        assert cert.lo <= 1.5 * s * (1.0 + 64 * U) and 1.5 * s <= cert.hi
        assert cert.hi - cert.lo <= cert.tol

    @pytest.mark.parametrize("kind", ["ginibre", "pair", "shift"])
    @pytest.mark.parametrize("k", [-1000, -600, -402, 402, 600, 1000])
    def test_ends_scale_with_the_operator(self, kind, k):
        # m has norm in (1/2, 1), so M 2^k runs as m itself: the same
        # angles, the same lo and witness, and hi up to the norm's rounding
        g = np.random.default_rng(65)
        m = {"ginibre": rand_complex(g, 5), "pair": embed_offdiag(rand_complex(g, 2, 3),
                                                                  rand_complex(g, 3, 2)),
             "shift": np.eye(6, k=1, dtype=complex)}[kind]
        m = m * (0.75 / spectral_norm(m))
        # below norm 1 the tol floor is 1e-12, which a tiny operator meets
        # on the initial grid
        tol = 1e-10 if k > 0 else 1.0
        base = omega(m, tol)
        cert = omega(m * 2.0 ** k, tol * 2.0 ** k if k > 0 else None)
        assert (cert.witness_theta, cert.evals, cert.rounds) == \
            (base.witness_theta, base.evals, base.rounds)
        assert cert.lo == np.ldexp(base.lo, k)
        assert abs(cert.hi - np.ldexp(base.hi, k)) <= 4 * U * np.ldexp(base.hi, k)
        assert cert.hi - cert.lo <= cert.tol

    def test_mixed_norms_match_single_calls(self):
        g = np.random.default_rng(66)
        mats = [rand_complex(g, 4) * 2.0 ** k for k in (-700, 0, 700, -300, 500)]
        mats.append(np.eye(4, k=1, dtype=complex) * 2.0 ** -900)
        tols = [None] * len(mats)
        assert omega_many(mats, tols) == [omega(m) for m in mats]

    def test_subnormal_norm_rounds_outward(self):
        m = 5e-322 * np.array([[0.0, 2.0 * np.exp(1j * np.pi / 64)], [1.0, 0.0]])
        cert = omega(m)
        x, y = abs(m[0, 1]), abs(m[1, 0])
        assert cert.lo <= (x + y) / 2 <= cert.hi

    def test_ends_round_outward_among_subnormals(self):
        # 2^-1060 (1 + 3 2^-16) lies 3/4 of the way to the next subnormal,
        # and 2^-1060 (1 + 2^-16) 1/4: the nearest ones would cross the radius
        res = CertifiedRadius(lo=1.0 + 3 * 2.0 ** -16, hi=1.0 + 2.0 ** -16, witness_theta=0.0,
                              tol=1.0, evals=64, rounds=0)
        out = _rescaled(res, -1060, 1e-12)
        assert np.ldexp(out.lo, 1060) < res.lo and res.hi < np.ldexp(out.hi, 1060)
        assert out.tol == 1e-12

    def test_budget_error_names_the_scale(self):
        with pytest.raises(ToleranceUnreachableError, match=r"exhausted at width .*2\^-601"):
            omega(2.0 ** 600 * np.eye(8, k=1, dtype=complex), 1e-12 * 2.0 ** 600, max_evals=30)

    def test_inexact_scaling_is_refused(self):
        # 5e-324 2^-601 is 0, so M cannot run at norm about 1
        m = np.array([[0.0, 2.0 ** 600], [5e-324, 0.0]], dtype=complex)
        with pytest.raises(OutOfRangeError, match="subnormals"):
            omega(m)
        assert isinstance(omega_many([m, np.eye(2)], [None] * 2)[0], OutOfRangeError)


def shift_plus(g, n, eps):
    return np.eye(n, k=1, dtype=complex) + eps * rand_complex(g, n)


class TestAndoCertificate:
    """`_ando_bound` closes flat enclosures: omega(M) <= level -
    lambda_min([[X, -M], [-M*, 2 level I - X]]) for any Hermitian X."""

    @pytest.mark.parametrize("side", [3, 4, 5, 8, 16, 32])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_shift_encloses_its_radius(self, side, tol):
        m = np.eye(side, k=1, dtype=complex)
        radius = np.cos(np.pi / (side + 1))
        cert = omega(m, tol)
        assert radius <= cert.hi and cert.lo <= radius + rounding_slack(m)
        assert cert.hi - cert.lo <= tol
        # the first round splits all 8 cells and the second tries the certificate
        assert (cert.rounds, cert.evals) == (1, 32)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (4, 4), (8, 8), (16, 16)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_zero_block_disk(self, rows, cols, tol):
        # [[0, X], [0, 0]] closes on the initial grid, so the certificate is
        # tried here directly at the level omega would give it
        g = np.random.default_rng(rows * 31 + cols)
        x = rand_complex(g, rows, cols)
        m = embed_offdiag(x, np.zeros((cols, rows)))
        nrm = spectral_norm(m)
        lo = omega(m, tol * max(1.0, nrm)).lo
        hi = _ando_bound(m, lo + 0.25 * tol * max(1.0, nrm))
        assert spectral_norm(x) / 2 <= hi and hi - lo <= tol * max(1.0, nrm)
        # a unitary similarity is no longer bipartite, so omega itself needs it
        u = rand_unitary(g, m.shape[0])
        rot = adjoint(u) @ m @ u
        cert = omega(rot, tol * max(1.0, nrm))
        assert spectral_norm(x) / 2 <= cert.hi + rounding_slack(rot)
        assert cert.hi - cert.lo <= tol * max(1.0, nrm) and cert.rounds <= 2

    @pytest.mark.parametrize("side", [4, 8, 16])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_disk_matches_angle_scan(self, side, eps):
        g = np.random.default_rng(side * 7 + int(-np.log10(eps)))
        m = shift_plus(g, side, eps)
        scan = h_direct(m, np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)).max()
        for tol in (1e-8, 1e-10, 1e-12):
            cert = omega(m, tol * max(1.0, spectral_norm(m)))
            assert cert.hi >= scan - rounding_slack(m)
            assert cert.hi - cert.lo <= cert.tol
            assert abs(cert.lo - float(h_direct(m, [cert.witness_theta])[0])) <= rounding_slack(m)

    @pytest.mark.parametrize("kind", ["shift", "near_disk", "ginibre", "hermitian"])
    def test_low_level_never_undercuts(self, kind):
        g = np.random.default_rng(61)
        m = {"shift": np.eye(6, k=1, dtype=complex), "near_disk": shift_plus(g, 6, 1e-3),
             "ginibre": rand_complex(g, 6), "hermitian": np.diag([2.0, -1.0, 0.5])}[kind]
        nrm = spectral_norm(m)
        cert = omega(m, 1e-12 * max(1.0, nrm))
        for delta in (0.5, 1e-2, 1e-4, 1e-8, 1e-11, 1e-13, 0.0, -1e-13, -1e-9):
            assert _ando_bound(m, cert.lo * (1.0 - delta)) >= cert.lo
            assert _ando_bound(m, cert.hi * (1.0 - delta)) >= cert.lo

    @pytest.mark.parametrize("steps", [1, 2])
    def test_any_hermitian_x_gives_a_bound(self, monkeypatch, steps):
        # cut short, the doubling hands over an X far from a solution even at
        # levels below the radius, and the bound must still hold
        monkeypatch.setattr(numrad.radius, "_DOUBLING_STEPS", steps)
        m = np.eye(6, k=1, dtype=complex)
        radius = np.cos(np.pi / 7)
        bounds = [_ando_bound(m, radius * (1.0 - delta)) for delta in (1e-2, 1e-8, 0.0)]
        assert all(radius <= b < np.inf for b in bounds)

    def test_ginibre_calls_do_not_try_it(self, monkeypatch):
        # no round of these splits 16 cells, so the certificate is never tried
        tried = []
        monkeypatch.setattr(numrad.radius, "_ando_bound", lambda *a: tried.append(a) or np.inf)
        g = np.random.default_rng(64)
        for side in (2, 8, 16):
            omega_many([rand_complex(g, side) for _ in range(4)], [1e-10] * 4)
        assert not tried
        # where it always fails, the side-8 shift at 1e-6 splits 16, 32,
        # ..., 1024 cells in its rounds 1-7 and tries once in each
        omega(np.eye(8, k=1, dtype=complex), 1e-6)
        assert len(tried) == 7

    @pytest.mark.parametrize("side", [2, 3, 5, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["ginibre", "shift", "jordan", "offdiag"])
    def test_upper_end_checks_out(self, kind, side):
        # two checks of hi apart from the cells that gave it: a certificate
        # at a level above the radius comes back below hi + tol, and no angle
        # of a dense grid rises above hi past the rounding allowance
        g = np.random.default_rng(70 + side)
        a = side // 2
        m = {"ginibre": rand_complex(g, side), "shift": np.eye(side, k=1, dtype=complex),
             "jordan": (0.3 + 0.4j) * np.eye(side) + np.eye(side, k=1),
             "offdiag": embed_offdiag(rand_complex(g, a, side - a),
                                      rand_complex(g, side - a, a))}[kind]
        nrm = spectral_norm(m)
        top = h_direct(m, np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)).max()
        for tol in (1e-6, 1e-8, 1e-10):
            tol *= max(1.0, nrm)
            hi = omega(m, tol).hi
            assert _ando_bound(m, hi + 0.25 * tol) <= hi + tol
            assert hi >= top - 32 * side * U * nrm

    def test_subnormal_entry_bounds_the_radius(self):
        # the blocks of H are m itself, so no entry is rounded in forming it
        m = np.array([[0.0, 4.0], [5e-324, 0.0]], dtype=complex)
        assert all(2.0 <= _ando_bound(m, level) for level in (0.5, 2.0, 2.5))

    def test_overflow_is_inf(self):
        # outside omega_many's scaling the squares in ||H||_F overflow
        with np.errstate(over="ignore"):
            assert _ando_bound(2.0 ** 600 * np.eye(4, k=1, dtype=complex), 2.0 ** 600) == np.inf


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
        from reference import fn_of_abs

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
        shift = 2  # needs 32 angles: its first round splits all 8 cells
        budget = 30  # the others need at most 24 at tol 1e-3
        tols = [1e-8 if i == shift else 1e-3 for i in range(len(mats))]
        got = omega_many(mats + [np.ones((8, 8)), np.eye(8)], tols + [1e-14, float("inf")],
                         max_evals=budget)
        assert isinstance(got[shift], ToleranceUnreachableError)
        with pytest.raises(ToleranceUnreachableError, match=str(got[shift])):
            omega(mats[shift], 1e-8, max_evals=budget)
        assert isinstance(got[-2], OutOfRangeError) and isinstance(got[-1], OutOfRangeError)
        for i, m in enumerate(mats):
            if i != shift:
                assert got[i] == omega(m, tols[i], max_evals=budget)

    def test_certified_shifts_match_single_calls(self):
        # shifts close by the certificate after one round, Ginibre operands
        # by bisection; any of them may be the last live operator
        g = np.random.default_rng(62)
        mats = [np.eye(8, k=1, dtype=complex), rand_complex(g, 8), shift_plus(g, 8, 1e-4),
                rand_complex(g, 8), np.eye(8, k=1, dtype=complex) * 3.0]
        tols = [1e-12, 1e-9, 1e-10, 1e-2, 1e-8]
        alone = [omega(m, tol) for m, tol in zip(mats, tols)]
        assert omega_many(mats, tols) == alone
        for batch in itertools.permutations(range(len(mats)), 3):
            assert omega_many([mats[i] for i in batch], [tols[i] for i in batch]) == \
                [alone[i] for i in batch]

    def test_shift_as_last_live_operator(self):
        # the Ginibre operand ends on the initial grid, and the shift,
        # left alone in the batch, then certifies in its second round
        g = np.random.default_rng(63)
        mats = [rand_complex(g, 8), np.eye(8, k=1, dtype=complex)]
        tols = [1.0, 1e-12]
        alone = [omega(m, tol) for m, tol in zip(mats, tols)]
        assert alone[0].rounds == 0 and alone[1].rounds == 1
        assert omega_many(mats, tols) == alone
        assert omega_many(mats[::-1], tols[::-1]) == alone[::-1]

    @pytest.mark.parametrize("entries, chunk", [(1, 256), (64, 256), (2 ** 12, 3), (2 ** 20, 256)])
    def test_chunk_size_keeps_every_bit(self, monkeypatch, entries, chunk):
        # lone and batched calls are cut into chunks by one rule, so how
        # many angles share a solve must not change any result
        g = np.random.default_rng(64)
        mats = {side: [rand_complex(g, side), rand_complex(g, side)] for side in (2, 8, 16, 32)}
        mats[8] += [np.eye(8, k=1, dtype=complex), embed_offdiag(rand_complex(g, 4),
                                                                  rand_complex(g, 4))]
        tols = {side: [1e-8, 1e-6, 1e-10, 1e-8][:len(ms)] for side, ms in mats.items()}
        alone = {side: [omega(m, tol) for m, tol in zip(ms, tols[side])]
                 for side, ms in mats.items()}
        for side, ms in mats.items():
            assert omega_many(ms, tols[side]) == alone[side]
        monkeypatch.setattr(numrad.radius, "_EIG_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(numrad.radius, "_EIG_CHUNK", chunk)
        for side, ms in mats.items():
            assert [omega(m, tol) for m, tol in zip(ms, tols[side])] == alone[side]
            assert omega_many(ms, tols[side]) == alone[side]

    def test_given_norms_keep_every_bit(self, monkeypatch):
        # a caller's norms stand in for omega_many's own, which it then
        # never takes; the results equal those without them to the bit
        g = np.random.default_rng(65)
        mats = {side: [rand_complex(g, side), rand_complex(g, side)] for side in (2, 4, 8, 16, 32)}
        mats[8] += [np.eye(8, k=1, dtype=complex), embed_offdiag(rand_complex(g, 5, 3),
                                                                  rand_complex(g, 3, 5)),
                    np.zeros((8, 8), dtype=complex)]
        mats[4] += [rand_complex(g, 4) * 1e-200, rand_complex(g, 4) * 1e200,
                    embed_offdiag(rand_complex(g, 2), rand_complex(g, 2)) * 1e-200]
        for side, ms in mats.items():
            tols = [[1e-8, None, 1e-6][i % 3] for i in range(len(ms))]
            tols = [t if t is None else t * max(1.0, spectral_norm(m)) for t, m in zip(tols, ms)]
            norms = [spectral_norm(m) for m in ms]
            want = omega_many(ms, tols)
            with monkeypatch.context() as patch:
                patch.setattr(numrad.radius, "spectral_norm", None)
                assert omega_many(ms, tols, norms=norms) == want
                assert omega_many(ms[::-1], tols[::-1], norms=norms[::-1]) == want[::-1]
        assert all(isinstance(c, CertifiedRadius) for ms in mats.values()
                   for c in omega_many(ms, [None] * len(ms)))

    def test_mixed_sides_match_single_calls(self):
        # general operators of sides 1-5, bipartite ones of block shapes
        # (2, 3) and (4, 4), a zero operator and a non-square input share
        # one call, in any order and any sub-batch
        g = np.random.default_rng(66)
        mats = [rand_complex(g, side) for side in (1, 2, 3, 4, 5, 3, 1)]
        mats += [embed_offdiag(rand_complex(g, 2, 3), rand_complex(g, 3, 2)) for _ in range(2)]
        mats += [embed_offdiag(rand_complex(g, 4), rand_complex(g, 4)) for _ in range(2)]
        mats.append(np.zeros((4, 4), dtype=complex))
        tols = [(1e-6, None, 1e-9)[i % 3] for i in range(len(mats))]
        alone = [omega(m, tol) for m, tol in zip(mats, tols)]
        assert {_bipartition(m != 0) is None for m in mats[:-1]} == {True, False}
        mats.append(np.ones((2, 3)))
        tols.append(None)

        def check(batch):
            got = omega_many([mats[i] for i in batch], [tols[i] for i in batch])
            for i, res in zip(batch, got):
                if i < len(alone):
                    assert res == alone[i]
                else:
                    assert isinstance(res, NotSquareError)

        check(range(len(mats)))
        for _ in range(4):
            order = g.permutation(len(mats))
            cut = int(g.integers(1, len(mats)))
            for batch in (order[:cut], order[cut:], order):
                check(batch)

    def test_rejects_tolerance_and_norm_count(self):
        with pytest.raises(DimensionMismatchError, match="tolerances"):
            omega_many([np.eye(2)], [])
        with pytest.raises(DimensionMismatchError, match="0 norms"):
            omega_many([np.eye(2)], [None], norms=[])
