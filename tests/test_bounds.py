import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrad.bounds import (
    BOUND_IDS,
    BoundOutcome,
    Pending,
    _estimate_zeta,
    bound_main1,
    bound_main3,
    bound_main4,
    bound_main11,
    bound_main11_young,
    bound_product_xy,
    bound_sum_norm,
    bound_th1,
    is_normal,
    refined_young,
    settle,
    zeta_value,
)
from numrad.errors import (
    InvalidFunctionError,
    NotContractionError,
    NotNormalError,
    OutOfRangeError,
    ToleranceUnreachableError,
)
from numrad.funcpair import FunctionPair, HolderPair, power_pair, pow_of_pair
from numrad.linalg import (
    OffDiagPair,
    adjoint,
    embed_block,
    embed_offdiag,
    polar_eigen,
    spectral_norm,
)
import numrad.bounds
from numrad.ensembles import RngStream
from numrad.radius import ascent_request, omega, omega_many
from reference import abs_op, fn_of_abs, fn_of_psd

ONE = [[1.0]]
HALF = power_pair(0.5)
HP22 = HolderPair(2.0, 2.0)


def rand_complex(g, m, n=None):
    n = m if n is None else n
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)


def rand_psd(g, side, scale):
    h = rand_complex(g, side)
    return scale * (h @ h.conj().T)


def zeta_pairs():
    """PSD pairs (A, B) at sides 1-8 and scales 1e-8..1e8, then zero pairs."""
    g = np.random.default_rng(17)
    pairs = [tuple(rand_psd(g, int(g.integers(1, 9)), 10.0 ** g.uniform(-8, 8))
                   for _ in range(2)) for _ in range(300)]
    pairs += [(np.zeros((3, 3)), rand_psd(g, 2, 1.0)),
              (rand_psd(g, 4, 1e-8), np.zeros((1, 1))),
              (np.zeros((2, 2)), np.zeros((5, 5)))]
    return pairs


def test_bound_id_strings():
    assert BOUND_IDS == (
        "main1.v1", "main1.v2", "product_xy", "sum_norm", "sum_norm.normal",
        "main11.v1", "main11.v2", "main11.young.v1", "main11.young.v2",
        "main3.v1", "main3.v2", "main4.v1", "main4.v2", "th1",
    )


# Relative slack of the dominance checks: each is an equality at
# ||group1|| = ||group2|| (and, for main11, at its Young equality case), so
# both sides may differ there by a few rounding errors.
DOMINANCE_ULPS = 16 * 2.0 ** -52


class TestDominance:
    """For one input, main1, main3, main11 and main11.young take the same
    two group norms n1, n2, so main3 >= 2 main1 (AM-GM), main11.young >=
    main1 (Young) and main11 (as proved) >= 2 main1^2 (weighted AM-GM).
    This pins the group norms that the stacked rounds compute."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), n=st.integers(1, 3),
           r=st.floats(1.0, 3.0), alpha=st.floats(0.0, 1.0), variant=st.sampled_from((1, 2)),
           p=st.floats(1.25, 4.0), scale=st.sampled_from((0.1, 1.0, 10.0)))
    def test_off_diagonal_bounds_dominate_main1(self, seed, m, n, r, alpha, variant, p, scale):
        g = np.random.default_rng(seed)
        pair, hp = power_pair(alpha), HolderPair(p, p / (p - 1.0))
        blocks = OffDiagPair(scale * rand_complex(g, m, n), rand_complex(g, n, m))
        main1 = bound_main1(blocks, pair, r, variant).value
        main3 = bound_main3(blocks, pair, r, variant)[0].value
        young = bound_main11_young(blocks, pair, r, hp, variant).value
        main11 = bound_main11(blocks, pair, r, hp, variant).value
        assert main3 >= 2.0 * main1 * (1.0 - DOMINANCE_ULPS)
        assert young >= main1 * (1.0 - DOMINANCE_ULPS)
        assert main11 >= 2.0 * main1 ** 2 * (1.0 - DOMINANCE_ULPS)

    @pytest.mark.parametrize("variant", (1, 2))
    def test_equal_group_norms_are_the_equality_case(self, variant):
        # X = Y = [1] gives n1 = n2: main3 = 2 main1 and, at p = q = 2,
        # main11.young = main1, up to the rounding of sqrt(n1) sqrt(n2)
        one = OffDiagPair(ONE, ONE)
        main1 = bound_main1(one, HALF, 1.0, variant).value
        assert bound_main3(one, HALF, 1.0, variant)[0].value == pytest.approx(
            2.0 * main1, rel=DOMINANCE_ULPS)
        assert bound_main11_young(one, HALF, 1.0, HP22, variant).value == pytest.approx(
            main1, rel=DOMINANCE_ULPS)


class TestRefinedYoung:
    def test_equal_arguments(self):
        assert refined_young(1, 1, 1) == (1.0, 1.0)

    def test_degenerate_argument(self):
        lhs, rhs = refined_young(4, 0, 1)
        assert lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)

    def test_m2_algebraic_identity(self):
        lhs, rhs = refined_young(9, 1, 2)
        assert lhs == pytest.approx(25.0) and rhs == pytest.approx(25.0)

    def test_property_random(self):
        g = np.random.default_rng(0)
        for _ in range(10000):
            a, b = g.uniform(0, 10, size=2)
            m = int(g.integers(1, 7))
            lhs, rhs = refined_young(a, b, m)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    def test_m2_identity_random(self):
        g = np.random.default_rng(1)
        for _ in range(200):
            a, b = g.uniform(0, 50, size=2)
            lhs, rhs = refined_young(a, b, 2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_rejects_bad_input(self):
        with pytest.raises(OutOfRangeError):
            refined_young(-1, 0, 1)
        with pytest.raises(OutOfRangeError):
            refined_young(1, 1, 0)


class TestMain1:
    def test_scalar_tight(self):
        out = bound_main1(OffDiagPair(ONE, ONE), HALF, 1.0, 1)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.exponent == 1.0
        cert = omega(embed_offdiag(ONE, ONE), tol=1e-10)
        assert cert.lo == pytest.approx(1.0, abs=1e-10)

    def test_scalar_r3(self):
        out = bound_main1(OffDiagPair(ONE, ONE), HALF, 3.0, 1)
        assert out.value == pytest.approx(4.0, abs=1e-12)

    def test_scaled_nilpotent_tight(self):
        x = [[0.0, 2.0], [0.0, 0.0]]
        out = bound_main1(OffDiagPair(x, x), HALF, 1.0, 1)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        cert = omega(embed_offdiag(x, x), tol=1e-9)
        assert cert.lo == pytest.approx(1.0, abs=1e-9)

    def test_specialization_identity(self):
        # alpha = 1/2, r = 1 collapses to the plain absolute-value formula
        g = np.random.default_rng(2)
        for _ in range(20):
            x = rand_complex(g, 2, 3)
            y = rand_complex(g, 3, 2)
            out = bound_main1(OffDiagPair(x, y), HALF, 1.0, 1)
            direct = 0.5 * math.sqrt(
                spectral_norm(abs_op(x) + abs_op(adjoint(y)))
            ) * math.sqrt(spectral_norm(abs_op(y) + abs_op(adjoint(x))))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)

    def test_y_equals_x_specialization(self):
        g = np.random.default_rng(3)
        for _ in range(10):
            x = rand_complex(g, 3)
            out = bound_main1(OffDiagPair(x, x), HALF, 1.0, 1)
            direct = 0.5 * spectral_norm(abs_op(x) + abs_op(adjoint(x)))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)

    def test_homogeneity_at_half(self):
        g = np.random.default_rng(4)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        r = 2.0
        base = bound_main1(OffDiagPair(x, y), HALF, r, 1).value
        scaled = bound_main1(OffDiagPair(3.0 * x, 3.0 * y), HALF, r, 1).value
        assert scaled == pytest.approx(3.0 ** r * base, rel=1e-9)

    def test_variant2_differs_generically(self):
        g = np.random.default_rng(5)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        pair = power_pair(0.25)
        v1 = bound_main1(OffDiagPair(x, y), pair, 1.0, 1).value
        v2 = bound_main1(OffDiagPair(x, y), pair, 1.0, 2).value
        assert v1 != pytest.approx(v2, rel=1e-12)

    def test_rank_one_closed_form(self):
        # X = s u v* and Y = t w z* make each group a P_p + b P_q, whose top
        # eigenvalue is ((a + b) + sqrt((a - b)^2 + 4ab |<p, q>|^2)) / 2; the
        # zero singular values of |X| feed f^2(t) = t^0.5, so any error in
        # them of order sqrt(u) ||X|| shows here at 1e-4 relative
        g = np.random.default_rng(23)

        def unit(n):
            v = rand_complex(g, n, 1)[:, 0]
            return v / np.linalg.norm(v)

        def top(a, b, p, q):
            c2 = abs(np.vdot(p, q)) ** 2
            return ((a + b) + math.sqrt((a - b) ** 2 + 4.0 * a * b * c2)) / 2.0

        pair = power_pair(0.25)
        for _ in range(200):
            s, t = 10.0 ** g.uniform(-1, 1, size=2)
            u, v, w, z = (unit(3) for _ in range(4))
            x, y = s * np.outer(u, v.conj()), t * np.outer(w, z.conj())
            n1 = top(s ** 0.5, t ** 1.5, v, w)
            n2 = top(t ** 0.5, s ** 1.5, z, u)
            out = bound_main1(OffDiagPair(x, y), pair, 1.0, 1)
            assert out.value == pytest.approx(0.5 * math.sqrt(n1 * n2), rel=1e-7)

    def test_rejects_bad_pair(self):
        # f * g = t**2 differs from t on the sample t = 2 drawn from the spectrum
        broken = FunctionPair(f=lambda t: np.asarray(t, float),
                              g=lambda t: np.asarray(t, float), tag="t*t")
        with pytest.raises(InvalidFunctionError):
            bound_main1(OffDiagPair([[2.0]], [[2.0]]), broken, 1.0, 1)

    def test_rejects_bad_r(self):
        with pytest.raises(OutOfRangeError):
            bound_main1(OffDiagPair(ONE, ONE), HALF, 0.5, 1)


class TestProductXY:
    def test_identity_side2(self):
        out = bound_product_xy(np.eye(2), np.eye(2), 0.5, 1.0)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.exponent == 0.5
        # contract: omega(XY)**(r/2) = 1 <= value
        assert omega(np.eye(2), tol=1e-10).lo ** 0.5 <= out.value + 1e-9

    def test_scalar_r2(self):
        out = bound_product_xy(ONE, ONE, 0.5, 2.0)
        assert out.value == pytest.approx(2.0, abs=1e-12)
        assert out.exponent == 1.0

    def test_contract_on_random(self):
        g = np.random.default_rng(6)
        for _ in range(10):
            x, y = rand_complex(g, 3), rand_complex(g, 3)
            out = bound_product_xy(x, y, 0.5, 2.0)
            cert = omega(x @ y, tol=1e-9)
            assert cert.lo ** out.exponent <= out.value + 1e-8 * max(1.0, out.value)


class TestSumNorm:
    def test_scalar_equality(self):
        out = bound_sum_norm(ONE, ONE, 1.0, "+")
        assert out.value == pytest.approx(2.0, abs=1e-12)
        assert spectral_norm(np.array(ONE) + adjoint(ONE)) == pytest.approx(2.0)

    def test_normal_scalar_equality(self):
        out = bound_sum_norm(ONE, ONE, 1.0, "+", normal_mode=True)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_normal_contract_random(self):
        g = np.random.default_rng(7)
        for _ in range(10):
            # unitarily diagonalized pairs are normal by construction
            q, r = np.linalg.qr(rand_complex(g, 3))
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            x = u @ np.diag(g.standard_normal(3) + 1j * g.standard_normal(3)) @ adjoint(u)
            y = u @ np.diag(g.standard_normal(3) + 1j * g.standard_normal(3)) @ adjoint(u)
            for sign, s in (("+", 1.0), ("-", -1.0)):
                out = bound_sum_norm(x, y, 1.5, sign, normal_mode=True)
                lhs = spectral_norm(x + s * y) ** 1.5
                assert lhs <= out.value + 1e-8 * max(1.0, out.value)

    def test_general_contract_random(self):
        g = np.random.default_rng(8)
        for _ in range(10):
            x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
            out = bound_sum_norm(x, y, 2.0, "-")
            lhs = spectral_norm(x - adjoint(y)) ** 2.0
            assert lhs <= out.value + 1e-8 * max(1.0, out.value)

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormalError):
            bound_sum_norm([[0, 1], [0, 0]], np.eye(2), 1.0, "+", normal_mode=True)


class TestMain11:
    def test_stated_constant_counterexample(self):
        out = bound_main11(OffDiagPair(ONE, ONE), HALF, 1.0, HP22, 1, "as_stated")
        assert out.value == pytest.approx(0.5, abs=1e-12)
        cert = omega(embed_offdiag(ONE, ONE), tol=1e-10)
        assert out.value < cert.lo ** out.exponent  # the documented violation

    def test_proved_constant_passes(self):
        out = bound_main11(OffDiagPair(ONE, ONE), HALF, 1.0, HP22, 1, "as_proved")
        assert out.value == pytest.approx(2.0, abs=1e-12)
        cert = omega(embed_offdiag(ONE, ONE), tol=1e-10)
        assert out.value >= cert.lo ** out.exponent

    def test_default_mode_is_proved(self):
        out = bound_main11(OffDiagPair(ONE, ONE), HALF, 1.0, HP22, 1)
        assert out.params["constant_mode"] == "as_proved"
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_y_equals_x_collapse(self):
        # Y = X, p = q = 2, proved constant: 2**(2r-3) ||(f^{2r}(|X|)+g^{2r}(|X*|))^2||
        g = np.random.default_rng(9)
        for k in range(20):
            x = rand_complex(g, 2 + k % 3)
            r = (1.0, 1.5, 2.0)[k % 3]
            pair = power_pair((0.25, 0.5, 0.8)[k % 3])
            out = bound_main11(OffDiagPair(x, x), pair, r, HP22, 1, "as_proved")
            fe, ge = pow_of_pair(pair, 2 * r)
            s = fn_of_abs(x, fe) + fn_of_abs(adjoint(x), ge)
            direct = 2.0 ** (2 * r - 3) * spectral_norm(
                fn_of_psd(s, lambda t: np.asarray(t) ** 2))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)

    def test_power_norm_identity_for_psd(self):
        # ||S^p|| = ||S||^p for PSD S checks the matrix-power route
        g = np.random.default_rng(10)
        x = rand_complex(g, 3)
        out = bound_main11(OffDiagPair(x, x), HALF, 1.0, HolderPair(4.0, 4 / 3), 1)
        n1 = out.terms["alpha_sq"] * 16.0       # ||S1^4||
        fe, ge = pow_of_pair(HALF, 2.0)
        s1 = fn_of_abs(x, fe) + fn_of_abs(adjoint(x), ge)
        assert n1 == pytest.approx(spectral_norm(s1) ** 4.0, rel=1e-9)

    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("mode", ["as_stated", "as_proved"])
    def test_matches_fn_of_psd_route(self, variant, mode):
        # reference: ||G**p|| through an explicit function of the PSD group
        g = np.random.default_rng(21)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        for alpha in (0.0, 0.5, 1.0):
            pair = power_pair(alpha)
            for hp in (HolderPair(1.25, 5.0), HP22, HolderPair(4.0, 4.0 / 3.0)):
                for r in (1.0, 1.5):
                    out = bound_main11(OffDiagPair(x, y), pair, r, hp, variant, mode)
                    fe, ge = pow_of_pair(pair, 2 * r)
                    f1, f2 = (fe, ge) if variant == 1 else (fe, fe)
                    f3, f4 = (fe, ge) if variant == 1 else (ge, ge)
                    first = fn_of_abs(x, f1) + fn_of_abs(adjoint(y), f2)
                    second = fn_of_abs(y, f3) + fn_of_abs(adjoint(x), f4)
                    a = spectral_norm(fn_of_psd(first, lambda t: np.asarray(t) ** hp.p))
                    b = spectral_norm(fn_of_psd(second, lambda t: np.asarray(t) ** hp.q))
                    const = 4.0 ** (r - 2.0) if mode == "as_stated" else 4.0 ** (r - 1.0)
                    direct = const * (a / hp.p ** 2 + b / hp.q ** 2)
                    assert out.value == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_eigensolves_match_young_split(self, monkeypatch):
        # both read the norms of the same two PSD groups: one SVD per block
        # gives |X|, |X*|, |Y| and |Y*|, and one SVD per group its norm
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        g = np.random.default_rng(22)
        pair = OffDiagPair(rand_complex(g, 2, 3), rand_complex(g, 3, 2))
        hp = HolderPair(4.0, 4.0 / 3.0)
        counts = []
        for bound in (bound_main11, bound_main11_young):
            calls.clear()
            bound(pair, HALF, 1.5, hp, 1)
            counts.append(list(calls))
        assert counts[0] == counts[1] == ["svd"] * 4


class TestMain11Young:
    def test_scalar_tight(self):
        out = bound_main11_young(OffDiagPair(ONE, ONE), HALF, 1.0, HP22, 1)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.exponent == 1.0

    def test_swap_symmetry(self):
        g = np.random.default_rng(11)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        hp = HolderPair(4.0, 4.0 / 3.0)
        hq = HolderPair(4.0 / 3.0, 4.0)
        a = bound_main11_young(OffDiagPair(x, y), HALF, 1.5, hp, 1)
        b = bound_main11_young(OffDiagPair(y, x), HALF, 1.5, hq, 1)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_contract_random(self):
        g = np.random.default_rng(12)
        for k in range(10):
            x, y = rand_complex(g, 2), rand_complex(g, 2)
            hp = HolderPair(1.25, 5.0)
            out = bound_main11_young(OffDiagPair(x, y), power_pair(0.75), 1.5, hp, 2)
            cert = omega(embed_offdiag(x, y), tol=1e-9)
            assert cert.lo ** out.exponent <= out.value + 1e-8 * max(1.0, out.value)


class TestMain3:
    def test_scalar_case(self):
        guaranteed, refined, zeta = bound_main3(OffDiagPair(ONE, ONE), HALF, 1.0, 1)
        assert guaranteed.value == pytest.approx(2.0, abs=1e-12)
        assert zeta.value <= 1e-10
        assert refined.value <= guaranteed.value
        # the matching split puts equal mass on both components
        x1, x2 = zeta.witness
        assert np.linalg.norm(x1) == pytest.approx(np.linalg.norm(x2), abs=1e-5)

    def test_y_equals_x_guaranteed_form(self):
        g = np.random.default_rng(13)
        for k in range(10):
            x = rand_complex(g, 2 + k % 2)
            r = (1.0, 2.0)[k % 2]
            guaranteed, _, _ = bound_main3(OffDiagPair(x, x), HALF, r, 1)
            fe, ge = pow_of_pair(HALF, 2 * r)
            a = fn_of_abs(x, fe) + fn_of_abs(adjoint(x), ge)
            assert guaranteed.value == pytest.approx(
                2.0 ** (r - 1.0) * spectral_norm(a), rel=1e-10)

    def test_zeta_estimate_recomputes(self):
        g = np.random.default_rng(14)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        _, _, zeta = bound_main3(OffDiagPair(x, y), power_pair(0.25), 1.5, 1)
        fe, ge = pow_of_pair(power_pair(0.25), 3.0)
        a = fn_of_abs(x, fe) + fn_of_abs(adjoint(y), ge)
        b = fn_of_abs(y, fe) + fn_of_abs(adjoint(x), ge)
        x1, x2 = zeta.witness
        assert zeta_value(a, b, x1, x2) == pytest.approx(
            zeta.value, abs=1e-10 * max(1.0, zeta.value))
        assert abs(np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2 - 1.0) <= 1e-10

    def test_zeta_theta_scan_oracle(self):
        # independent oracle: extremal eigenvectors of A, B with the matching
        # angle drive the gap to zero, so the infimum estimate must be tiny
        g = np.random.default_rng(15)
        for _ in range(10):
            x, y = rand_complex(g, 3, 2), rand_complex(g, 2, 3)
            guaranteed, refined, zeta = bound_main3(OffDiagPair(x, y), HALF, 1.0, 1)
            fe, ge = pow_of_pair(HALF, 2.0)
            a = fn_of_abs(x, fe) + fn_of_abs(adjoint(y), ge)
            b = fn_of_abs(y, fe) + fn_of_abs(adjoint(x), ge)
            wa, va = np.linalg.eigh(a)
            wb, vb = np.linalg.eigh(b)
            # for eigenvectors u, v the gap vanishes at tan(theta) = sqrt(b/a)
            scan = math.inf
            for i in (0, a.shape[0] - 1):
                for j in (0, b.shape[0] - 1):
                    th = math.atan2(math.sqrt(max(wb[j], 0.0)),
                                    math.sqrt(max(wa[i], 0.0)))
                    scan = min(scan, zeta_value(a, b,
                                                math.cos(th) * vb[:, j],
                                                math.sin(th) * va[:, i]))
            assert scan <= 1e-10
            assert zeta.value <= 1e-6
            assert refined.value <= guaranteed.value

    def test_closed_form_zeta_vanishes(self):
        # the gap is zero at the closed-form witness up to rounding of order
        # u^2 (||A|| + ||B||), u the unit roundoff
        for a_mat, b_mat in zeta_pairs():
            zeta = _estimate_zeta(a_mat, b_mat)
            scale = np.linalg.norm(a_mat, 2) + np.linalg.norm(b_mat, 2)
            assert 0.0 <= zeta.value <= 1e-30 * max(1e-300, scale)
            x1, x2 = zeta.witness
            assert x1.shape == (b_mat.shape[0],) and x2.shape == (a_mat.shape[0],)
            assert np.linalg.norm(x1) ** 2 + np.linalg.norm(x2) ** 2 == pytest.approx(
                1.0, abs=1e-12)
            assert zeta.value == zeta_value(a_mat, b_mat, x1, x2)

    def test_guaranteed_contract(self):
        g = np.random.default_rng(16)
        for _ in range(10):
            x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
            guaranteed, _, _ = bound_main3(OffDiagPair(x, y), power_pair(0.75), 2.0, 2)
            cert = omega(embed_offdiag(x, y), tol=1e-9)
            assert cert.lo ** 2.0 <= guaranteed.value + 1e-8 * max(1.0, guaranteed.value)


class TestMain4:
    def test_scalar_identity_tight(self):
        item = (ONE, ONE, ONE, ONE, ONE, ONE)
        out = bound_main4([item], HALF, 1.0, 1)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert out.exponent == 1.0

    def test_additivity(self):
        item = (ONE, ONE, ONE, ONE, ONE, ONE)
        out = bound_main4([item] * 4, HALF, 1.0, 1)
        assert out.value == pytest.approx(4.0, abs=1e-12)

    def test_half_contraction_scaling(self):
        half_eye = [[0.5]]
        item = (half_eye, half_eye, half_eye, half_eye, ONE, ONE)
        out = bound_main4([item], HALF, 1.0, 1)
        # D* M D = M/4 inside both norms, so the product of square roots is 1/4
        assert out.value == pytest.approx(0.25, abs=1e-12)

    def test_rejects_non_contraction(self):
        item = ([[2.0]], ONE, ONE, ONE, ONE, ONE)
        with pytest.raises(NotContractionError):
            bound_main4([item], HALF, 1.0, 1)

    def test_identity_contractions_reduce_to_offdiag_sum(self):
        g = np.random.default_rng(17)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        eye_m, eye_n = np.eye(2), np.eye(3)
        item = (eye_m, eye_n, eye_m, eye_n, x, y)
        out = bound_main4([item], power_pair(0.25), 2.0, 1)
        fe, ge = pow_of_pair(power_pair(0.25), 4.0)
        t1 = spectral_norm(fn_of_abs(x, fe) + fn_of_abs(adjoint(y), ge))
        t2 = spectral_norm(fn_of_abs(y, fe) + fn_of_abs(adjoint(x), ge))
        direct = 2.0 ** 0.0 * math.sqrt(t1) * math.sqrt(t2)
        assert out.value == pytest.approx(direct, rel=1e-12)


class TestTh1:
    def test_diagonal_blocks(self):
        out = bound_th1([([[2.0]], [[0.0]], [[0.0]], [[5.0]])], 1.0, omega_tol=1e-10)
        assert out.value == pytest.approx(5.0, abs=1e-8)

    def test_offdiagonal_blocks_tight(self):
        out = bound_th1([([[0.0]], [[1.0]], [[1.0]], [[0.0]])], 1.0)
        assert out.value == pytest.approx(1.0, abs=1e-12)
        cert = omega([[0, 1], [1, 0]], tol=1e-10)
        assert cert.lo == pytest.approx(1.0, abs=1e-10)

    def test_first_row_blocks(self):
        out = bound_th1([([[1.0]], [[1.0]], [[0.0]], [[0.0]])], 1.0, omega_tol=1e-10)
        expected = 0.5 * (1.0 + math.sqrt(2.0))
        assert out.value == pytest.approx(expected, abs=1e-8)
        cert = omega([[1, 1], [0, 0]], tol=1e-10)
        assert cert.lo <= out.value + 1e-8
        # the collapsed formula is exactly attained on the first-row block
        assert cert.lo == pytest.approx(expected, abs=1e-9)

    def test_specializations_collapse(self):
        g = np.random.default_rng(18)
        a, d = rand_complex(g, 2), rand_complex(g, 3)
        b, c = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        z22, z23, z32, z33 = (np.zeros(s) for s in ((2, 2), (2, 3), (3, 2), (3, 3)))
        tol = 1e-10

        def radius(op, block):
            # th1 certifies at tol relative to the block operator's norm
            return omega(op, tol * spectral_norm(embed_block(*block))).hi

        nb, nc = spectral_norm(b), spectral_norm(c)
        b_sq = rand_complex(g, 2)
        nb_sq = spectral_norm(b_sq)
        for p in (1.0, 2.0):
            # repeated-block special case: A = D, B = C (square blocks)
            block = (a, b_sq, b_sq, a)
            got = bound_th1([block], p, tol).value
            assert got == pytest.approx((radius(a, block) + nb_sq) ** p, rel=1e-12)
            # diagonal special case
            block = (a, z23, z32, d)
            got = bound_th1([block], p, tol).value
            wa, wd = radius(a, block), radius(d, block)
            assert got == pytest.approx(max(wa ** p, wd ** p), rel=1e-12)
            # first-row special case
            block = (a, b, z32, z33)
            got = bound_th1([block], p, tol).value
            wa = radius(a, block)
            expect = 2.0 ** (-p) * (wa + math.sqrt(wa ** 2 + nb ** 2)) ** p
            assert got == pytest.approx(expect, rel=1e-12)
            # off-diagonal special case
            got = bound_th1([(z22, b, c, z33)], p, tol).value
            assert got == pytest.approx(2.0 ** (-p) * (nb + nc) ** p, rel=1e-12)

    def test_multi_block_sum(self):
        blocks = [([[1.0]], [[0.0]], [[0.0]], [[1.0]])] * 3
        out = bound_th1(blocks, 2.0, omega_tol=1e-10)
        assert out.value == pytest.approx(3.0, abs=1e-7)

    @pytest.mark.parametrize("k,p", [(1, 1.0), (2, 3.0), (4, 2.0)])
    def test_block_radii_equal_single_calls(self, k, p):
        # A_1, D_1, A_2, ... are certified in one lockstep call, whatever
        # their sides, at tol times the largest block operator's norm; each
        # term equals the one made from a lone omega per block, to the bit
        g = np.random.default_rng(19 + k)
        blocks = [(rand_complex(g, m), rand_complex(g, m, n), rand_complex(g, n, m),
                   rand_complex(g, n)) for m, n in ((3, 2), (1, 4), (2, 2), (4, 1))[:k]]
        out = bound_th1(blocks, p, 1e-7)
        tol = 1e-7 * max(spectral_norm(embed_block(*blk)) for blk in blocks)
        total = 0.0
        for i, (a, b, c, d) in enumerate(blocks):
            wa, wd = omega(a, tol).hi, omega(d, tol).hi
            term = (wa + wd + math.sqrt((wa - wd) ** 2
                                        + (spectral_norm(b) + spectral_norm(c)) ** 2)) ** p
            assert out.terms[f"item_{i}"] == term
            total += term
        assert out.value == 2.0 ** (-p) * total

    def test_first_failing_block_radius_is_raised(self, monkeypatch):
        # with 16 angles only the initial grid fits: a zero A_1 certifies,
        # so D_1 is the first radius to run out of budget
        def short(mats, tols, norms):
            return omega_many(mats, tols, max_evals=16, norms=norms)

        monkeypatch.setattr(numrad.bounds, "omega_many", short)
        g = np.random.default_rng(23)
        d1, a2 = rand_complex(g, 2), rand_complex(g, 2)
        blocks = [(np.zeros((2, 2)), np.eye(2), np.eye(2), d1),
                  (a2, np.eye(2), np.eye(2), rand_complex(g, 2))]
        with pytest.raises(ToleranceUnreachableError) as info:
            bound_th1(blocks, 1.0, 1e-8)
        with pytest.raises(ToleranceUnreachableError) as first:
            omega(d1, 1e-8, max_evals=16)
        assert str(info.value) == str(first.value)


def settle_steps():
    """Pending bound values of several kinds and shapes, as a block states them."""
    g = np.random.default_rng(50)
    steps = []
    for m, n in ((1, 1), (2, 3), (3, 2), (2, 2), (3, 3)):
        x, y = rand_complex(g, m, n), rand_complex(g, n, m)
        steps += [bound_main1(OffDiagPair(x, y), HALF, 1.5, 1, pending=True),
                  bound_main11(OffDiagPair(x, y), power_pair(0.25), 2.0, HP22, 2, pending=True),
                  bound_sum_norm(x, y, 1.5, pending=True)]
        if m == n:
            u = np.linalg.qr(rand_complex(g, m))[0]
            normal = (u * rand_complex(g, 1, m)) @ u.conj().T
            steps += [bound_product_xy(x, y, 0.75, 2.0, pending=True),
                      bound_sum_norm(normal, normal.T, 2.0, normal_mode=True, pending=True),
                      is_normal(x, pending=True)]
    items = [tuple(c / max(1.0, spectral_norm(c)) for c in (rand_complex(g, 2), rand_complex(g, 3),
                                                          rand_complex(g, 2), rand_complex(g, 3)))
             + (rand_complex(g, 2, 3), rand_complex(g, 3, 2)) for _ in range(2)]
    steps.append(bound_main4(items, HALF, 2.0, 1, pending=True))
    return steps


def chained(ops):
    """The step of the radii of `ops` at tol 1e-4, then their norms, then
    one ascent of them, then their radii at tol 1e-9; it settles into
    (loose radii, the ascent's values and iterations, tight radii)."""
    def radii(tol):
        return [(op, tol, spectral_norm(op)) for op in ops]

    def ascend(loose, norms):
        req = ascent_request(ops, 2.0, 2, stream=RngStream(7), max_iter=30, norms=norms)
        return Pending(lambda ends: Pending(
            lambda tight: (loose, ends[0].f.tolist(), ends[0].steps, tight), radii=radii(1e-9)),
            ascents=[req])

    return Pending(lambda loose: Pending(partial(ascend, loose), norms=ops), radii=radii(1e-4))


class TestSettle:
    """`settle` solves the decompositions of many pendings in rounds, one
    stacked call per (kind, shape) and round, and each pending gets what it
    gets settled alone, to the bit; the public bound_* functions settle
    theirs alone."""

    def test_batch_equals_batches_of_one(self, monkeypatch):
        together, spent = settle(settle_steps())
        alone = [settle([step])[0][0] for step in settle_steps()]
        assert together == alone
        monkeypatch.setattr(numrad.bounds, "SETTLE_STEPS", 5)
        assert settle(settle_steps())[0] == alone
        assert all(isinstance(out, (BoundOutcome, bool)) for out in together)
        assert all(t > 0.0 for t in spent)

    def test_bound_functions_settle_alone(self):
        g = np.random.default_rng(51)
        x, y = rand_complex(g, 2, 3), rand_complex(g, 3, 2)
        step = bound_main1(OffDiagPair(x, y), HALF, 1.5, 2, pending=True)
        assert isinstance(step, Pending)
        assert settle([step])[0] == [bound_main1(OffDiagPair(x, y), HALF, 1.5, 2)]

    def test_one_stacked_call_per_kind_and_shape_and_round(self, monkeypatch):
        # main1 of X m-by-n: its round 1 takes the polar pairs of X and Y,
        # round 2 composes the four terms (two of side n, two of side m),
        # round 3 takes the group norms (one of side n, one of side m)
        calls = []
        for kind, name in (("polar", "polar_eigens"), ("compose", "recompose_many"),
                           ("norm", "spectral_norms")):
            real = getattr(numrad.bounds, name)

            def recording(stack, *rest, _kind=kind, _real=real):
                calls.append((_kind, np.shape(stack)))
                return _real(stack, *rest)

            monkeypatch.setattr(numrad.bounds, name, recording)
        g = np.random.default_rng(52)
        shapes = [(1, 1), (2, 3), (3, 2), (2, 2), (2, 3), (1, 1)]
        steps = [bound_main1(OffDiagPair(rand_complex(g, m, n), rand_complex(g, n, m)),
                             HALF, 1.0, 1, pending=True) for m, n in shapes]
        settle(steps)
        assert [kind for kind, _ in calls] == ["polar"] * 4 + ["compose"] * 3 + ["norm"] * 3
        assert sorted(shape[1:] for kind, shape in calls if kind == "polar") == [
            (1, 1), (2, 2), (2, 3), (3, 2)]
        assert sum(shape[0] for kind, shape in calls if kind == "polar") == 2 * len(steps)
        for kind, per_step in (("compose", 4), ("norm", 2)):
            sides = [shape[1] for k, shape in calls if k == kind]
            assert sorted(sides) == [1, 2, 3]
            assert sum(shape[0] for k, shape in calls if k == kind) == per_step * len(steps)

    def test_charges_add_up_to_the_clock(self, monkeypatch):
        # with a clock that ticks once per reading, the steps are charged
        # exactly the span from the first reading to the last
        clock = [0.0]

        def tick():
            clock[0] += 1.0
            return clock[0]

        steps = settle_steps()
        monkeypatch.setattr(numrad.bounds, "perf_counter", tick)
        _, spent = settle(steps)
        assert clock[0] > 1.0 and sum(spent) == pytest.approx(clock[0] - 1.0, rel=1e-12)
        assert all(t > 0.0 for t in spent)

    def test_failed_request_fails_its_pending_alone(self):
        # a NaN entry's lone SVD raises and an infinite one's gives NaN; the
        # pending gets the first failure in request order, and the others
        # of its stacks keep the lone results
        g = np.random.default_rng(53)
        good = [rand_complex(g, 2) for _ in range(3)]
        with_nan, with_inf = good[0].copy(), good[1].copy()
        with_nan[0, 1], with_inf[1, 0] = np.nan, np.inf
        steps = [Pending(list, norms=good[:2]), Pending(list, norms=[good[2], with_inf, with_nan]),
                 Pending(list, norms=[with_inf], polars=[good[0]]), Pending(list, polars=[with_nan])]
        out, _ = settle(steps)
        assert out[0] == [spectral_norm(m) for m in good[:2]]
        with pytest.raises(np.linalg.LinAlgError) as lone:
            spectral_norm(with_nan)
        assert type(out[1]) is np.linalg.LinAlgError and str(out[1]) == str(lone.value)
        assert np.isnan(out[2][0])
        assert all(np.array_equal(a, b) for a, b in zip(
            (*out[2][1][0], *out[2][1][1]), (*polar_eigen(good[0])[0], *polar_eigen(good[0])[1])))
        assert isinstance(out[3], ValueError) and "finite" in str(out[3])

    def test_a_raising_stack_falls_back_to_lone_calls(self, monkeypatch):
        def raising(stack):
            raise np.linalg.LinAlgError("SVD did not converge")

        g = np.random.default_rng(54)
        mats = [rand_complex(g, 3) for _ in range(4)]
        monkeypatch.setattr(numrad.bounds, "spectral_norms", raising)
        (out,), _ = settle([Pending(list, norms=mats)])
        assert out == [spectral_norm(m) for m in mats]

    def test_finish_errors(self):
        def failing(results):
            raise OutOfRangeError("failed finish")

        def broken(results):
            raise ZeroDivisionError("a bug, not a finding")

        eye = np.eye(2)
        out, _ = settle([Pending(failing, norms=[eye]), Pending(list, norms=[eye]), 7])
        assert isinstance(out[0], OutOfRangeError) and out[1:] == [[1.0], 7]
        with pytest.raises(ZeroDivisionError):
            settle([Pending(broken, norms=[eye])])

    def test_chained_stages_batch_across_steps(self, monkeypatch):
        # each step's finishes chain radii, norms, an ascent and radii at a
        # tighter tol; each pass makes one batched call over every step, and
        # each step settles to what it settles to alone, to the bit
        g = np.random.default_rng(55)
        groups = [[rand_complex(g, side) for _ in range(2)] for side in (2, 3, 2)]
        alone = [settle([chained(ops)])[0][0] for ops in groups]
        calls = []
        for name in ("omega_many", "ascend_many", "spectral_norms"):
            real = getattr(numrad.bounds, name)

            def recording(requests, *rest, _name=name, _real=real, **kwargs):
                calls.append((_name, len(requests)))
                return _real(requests, *rest, **kwargs)

            monkeypatch.setattr(numrad.bounds, name, recording)
        together, spent = settle([chained(ops) for ops in groups])
        assert together == alone and all(t > 0.0 for t in spent)
        assert all(a.tol == 1e-4 and b.tol == 1e-9
                   for loose, _, _, tight in together for a, b in zip(loose, tight))
        assert calls == [("omega_many", 6), ("spectral_norms", 4), ("spectral_norms", 2),
                         ("ascend_many", 3), ("omega_many", 6)]
        # the decomposition rounds go SETTLE_STEPS steps at a time, the
        # radii and ascents of every step in one call still
        calls.clear()
        monkeypatch.setattr(numrad.bounds, "SETTLE_STEPS", 1)
        assert settle([chained(ops) for ops in groups])[0] == alone
        assert calls == [("omega_many", 6), ("spectral_norms", 2), ("spectral_norms", 2),
                         ("spectral_norms", 2), ("ascend_many", 3), ("omega_many", 6)]

    def test_mixed_pending_takes_every_result_in_order(self):
        # a pending may name decompositions, radii and ascents at once; its
        # finish takes their results in field order
        eye = np.eye(2)
        req = ascent_request([eye, 2.0 * eye], 2.0, 2, max_iter=5)
        (out,), _ = settle([Pending(list, norms=[3.0 * eye], radii=[(eye, 1e-8, 1.0)],
                                    ascents=[req])])
        assert out[:2] == [3.0, omega(eye, 1e-8)] and out[2].norms == (1.0, 2.0)

    def test_further_pendings_run_in_later_rounds(self):
        eye = np.eye(2)
        step = Pending(lambda n: Pending(lambda m: (n, m), norms=[3.0 * eye]), norms=[2.0 * eye])
        out, _ = settle([step, Pending(list, radii=[(eye, 1e-8, 1.0)])])
        assert out[0] == ([2.0], [3.0])
        # settle also certifies the radii a pending names
        assert out[1] == [omega(eye, 1e-8)]
