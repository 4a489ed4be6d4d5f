import numpy as np
import pytest

from numrad.errors import (
    DimensionMismatchError,
    InvalidFunctionError,
    NegativeSpectrumError,
    NotHermitianError,
    NotSquareError,
)
from numrad.linalg import (
    Block2x2,
    OffDiagPair,
    adjoint,
    as_matrix,
    embed_block,
    embed_offdiag,
    polar_eigen,
    polar_eigens,
    recompose,
    recompose_many,
    spectral_norm,
    spectral_norms,
    spectrum_values,
)
from reference import abs_op, fn_of_abs, fn_of_psd, herm_eig

U = 2.0 ** -53


def rand_complex(g, m, n):
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)


def rand_unitary(g, n):
    q, r = np.linalg.qr(rand_complex(g, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 0]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError):
            as_matrix([[complex(0, np.inf)]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    @pytest.mark.parametrize("entries", ({"a": 1}, [[None]], [["1"]], [[1.0, {}]]))
    def test_rejects_entries_that_are_not_numbers(self, entries):
        with pytest.raises(ValueError, match="must be numbers"):
            as_matrix(entries)


class TestAdjoint:
    def test_real_shift(self):
        assert np.array_equal(adjoint([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))

    def test_scalar_conjugation(self):
        assert adjoint([[1j]])[0, 0] == -1j

    def test_involution(self):
        g = np.random.default_rng(0)
        m = rand_complex(g, 3, 5)
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_norm_isometry(self):
        g = np.random.default_rng(1)
        for _ in range(10):
            m = rand_complex(g, 4, 3)
            assert spectral_norm(adjoint(m)) == pytest.approx(
                spectral_norm(m), rel=1e-10)


class TestHermEig:
    def test_diagonal(self):
        w, v = herm_eig(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])
        # eigenvectors are permuted identity columns up to phase
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        w, _ = herm_eig([[0, 1], [1, 0]])
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        g = np.random.default_rng(2)
        for n in (2, 5, 8):
            z = rand_complex(g, n, n)
            h = (z + adjoint(z)) / 2
            w, v = herm_eig(h)
            recon = (v * w) @ adjoint(v)
            assert spectral_norm(h - recon) <= 1e-10 * max(1.0, spectral_norm(h))
            gram = adjoint(v) @ v
            assert spectral_norm(gram - np.eye(n)) <= 1e-10 * n

    def test_values_sorted(self):
        g = np.random.default_rng(3)
        z = rand_complex(g, 6, 6)
        w, _ = herm_eig((z + adjoint(z)) / 2)
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_eig([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            herm_eig(np.zeros((2, 3)))


class TestAbsOp:
    def test_nilpotent(self):
        assert np.allclose(abs_op([[0, 1], [0, 0]]), np.diag([0.0, 1.0]))

    def test_unitary_gives_identity(self):
        g = np.random.default_rng(4)
        u = rand_unitary(g, 4)
        assert np.allclose(abs_op(u), np.eye(4), atol=1e-12)

    def test_normal_diagonal(self):
        assert np.allclose(abs_op(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]))

    def test_left_unitary_invariance(self):
        g = np.random.default_rng(5)
        for _ in range(5):
            m = rand_complex(g, 4, 4)
            u = rand_unitary(g, 4)
            diff = spectral_norm(abs_op(u @ m) - abs_op(m))
            assert diff <= 1e-9 * spectral_norm(m)

    def test_rectangular_side(self):
        g = np.random.default_rng(6)
        m = rand_complex(g, 2, 5)
        assert abs_op(m).shape == (5, 5)


class TestFnOfPsd:
    def test_sqrt(self):
        out = fn_of_psd(np.diag([0.0, 4.0]), np.sqrt)
        assert np.allclose(out, np.diag([0.0, 2.0]))

    def test_identity_function(self):
        g = np.random.default_rng(7)
        z = rand_complex(g, 4, 4)
        h = adjoint(z) @ z
        assert np.allclose(fn_of_psd(h, lambda t: t), h, atol=1e-12)

    def test_square_matches_product(self):
        g = np.random.default_rng(8)
        z = rand_complex(g, 5, 5)
        h = adjoint(z) @ z
        # independent route: plain matrix product
        assert np.allclose(fn_of_psd(h, lambda t: t ** 2), h @ h, atol=1e-10)

    def test_composition(self):
        g = np.random.default_rng(9)
        z = rand_complex(g, 4, 4)
        h = adjoint(z) @ z
        lhs = fn_of_psd(h, lambda t: (t ** 0.5) ** 3)
        rhs = fn_of_psd(fn_of_psd(h, lambda t: t ** 0.5), lambda t: t ** 3)
        scale = max(1.0, spectral_norm(lhs))
        assert spectral_norm(lhs - rhs) <= 1e-8 * scale

    def test_rejects_negative_function(self):
        with pytest.raises(InvalidFunctionError):
            fn_of_psd(np.diag([1.0, 2.0]), lambda t: t - 1.5)

    def test_rejects_indefinite_input(self):
        with pytest.raises(NegativeSpectrumError):
            fn_of_psd(np.diag([1.0, -1.0]), np.sqrt)

    def test_fn_of_abs_matches_two_step(self):
        g = np.random.default_rng(10)
        m = rand_complex(g, 3, 4)
        fused = fn_of_abs(m, lambda t: t ** 1.5)
        stepwise = fn_of_psd(abs_op(m), lambda t: t ** 1.5)
        assert spectral_norm(fused - stepwise) <= 1e-9 * max(1.0, spectral_norm(fused))


class TestFnOfSpectrum:
    """`spectrum_values` is the one way a function is applied to a
    spectrum; the matrix V diag(phi(s)) V* is then a composition."""

    def test_stacked_route_is_fn_of_abs(self):
        # phi(|M|) through polar_eigens, spectrum_values and recompose_many,
        # as the bound evaluators take it, is the lone route to the bit
        g = np.random.default_rng(11)
        ms = np.stack([rand_complex(g, 4, 3) for _ in range(5)])
        phi = lambda t: t ** 0.75
        halves = [abs_half for abs_half, _ in polar_eigens(ms)]
        out = recompose_many(np.stack([spectrum_values(phi, s) for s, _ in halves]),
                             np.stack([v for _, v in halves]))
        for m, got in zip(ms, out):
            assert np.array_equal(got, fn_of_abs(m, phi))

    def test_rejects_negative_or_nonfinite_output(self):
        with pytest.raises(InvalidFunctionError):
            spectrum_values(lambda t: t - 1.5, np.array([1.0, 2.0]))
        with pytest.raises(InvalidFunctionError):
            spectrum_values(lambda t: np.full_like(t, np.inf), np.array([1.0, 2.0]))

    def test_rejects_output_of_another_shape(self):
        # phi sees the array of values once; a scalar result is not retried per value
        with pytest.raises(InvalidFunctionError):
            spectrum_values(lambda t: 1.0, np.array([1.0, 2.0]))


def _psd_route(w, monkeypatch):
    u = rand_unitary(np.random.default_rng(14), len(w))
    seen = []
    fn_of_psd((u * w) @ adjoint(u), lambda t: seen.append(t) or t)
    return seen[0]


@pytest.mark.parametrize("route", (_psd_route,), ids=("fn_of_psd",))
class TestPsdClamp:
    """fn_of_psd's clamp rule: eigenvalues down to -CLAMP_TOL (1e-12) times
    the top one are rounding noise and become 0. polar_eigen needs no clamp,
    since singular values are nonnegative by construction."""

    top = 4.0

    def test_rounding_noise_clamped_to_zero(self, route, monkeypatch):
        w = route(np.array([-1e-13 * self.top, 1.0, self.top]), monkeypatch)
        assert w[0] == 0.0
        assert w[-1] == pytest.approx(self.top, rel=1e-12)

    def test_negative_beyond_noise_raises(self, route, monkeypatch):
        with pytest.raises(NegativeSpectrumError):
            route(np.array([-1e-11 * self.top, 1.0, self.top]), monkeypatch)


class TestPolarEigen:
    """One SVD M = U S V* gives |M| = V S V* and |M*| = U S U*, and its zero
    singular values stay within 32 n u ||M|| of zero; a Gram eigensolve of
    M*M leaves them at up to sqrt(u) ||M||."""

    def test_rank_one_zero_singular_values(self):
        g = np.random.default_rng(31)
        for _ in range(50):
            x = rand_complex(g, 3, 1) @ rand_complex(g, 1, 3)
            s = np.sort(polar_eigen(x)[0][0])
            assert s[:2].max() <= 32 * 3 * U * spectral_norm(x)

    def test_abs_of_wide_block_has_zero_singular_value(self):
        # |X| of a 2x3 X is 3x3 of rank 2
        g = np.random.default_rng(32)
        for _ in range(50):
            x = rand_complex(g, 2, 3)
            s = np.sort(polar_eigen(x)[0][0])
            assert s.shape == (3,)
            assert s[0] <= 32 * 3 * U * spectral_norm(x)

    @pytest.mark.parametrize("shape", ((1, 1), (2, 3), (3, 2), (4, 4)))
    def test_adjoint_half_is_abs_of_adjoint(self, shape):
        g = np.random.default_rng(33)
        m, n = shape
        for x in (rand_complex(g, m, n), rand_complex(g, m, 1) @ rand_complex(g, 1, n)):
            (s, v), (t, u) = polar_eigen(x)
            assert s.shape == (n,) and t.shape == (m,)
            diff = spectral_norm(recompose(t, u) - abs_op(adjoint(x)))
            assert diff <= 32 * max(m, n) * U * spectral_norm(x)


class TestSpectralNorm:
    def test_nilpotent(self):
        assert spectral_norm([[0, 2], [0, 0]]) == pytest.approx(2.0, abs=1e-12)

    def test_unitary(self):
        g = np.random.default_rng(11)
        assert spectral_norm(rand_unitary(g, 5)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_exact(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_homogeneity(self):
        g = np.random.default_rng(12)
        m = rand_complex(g, 4, 4)
        c = 2.5 - 0.5j
        assert spectral_norm(c * m) == pytest.approx(
            abs(c) * spectral_norm(m), rel=1e-12)


class TestEmbeddings:
    def test_scalar_offdiag(self):
        t = embed_offdiag([[1.0]], [[1.0]])
        assert np.array_equal(t, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_block_diagonal(self):
        t = embed_block([[2.0]], [[0.0]], [[0.0]], [[5.0]])
        assert np.array_equal(t, np.diag([2.0, 5.0]).astype(complex))

    def test_offdiag_agrees_with_block(self):
        g = np.random.default_rng(14)
        x = rand_complex(g, 2, 3)
        t1 = embed_offdiag(x, adjoint(x))
        t2 = embed_block(np.zeros((2, 2)), x, adjoint(x), np.zeros((3, 3)))
        assert np.array_equal(t1, t2)

    def test_offdiag_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            OffDiagPair(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_block_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            Block2x2(np.zeros((2, 2)), np.zeros((3, 2)),
                     np.zeros((3, 2)), np.zeros((3, 3)))


# The shapes stage 1 decomposes: blocks of sides 1-8, (2, 3) and (3, 2),
# and sides up to 16 of the off-diagonal embeddings whose norms an omega
# side takes.
STACK_SHAPES = [(n, n) for n in range(1, 9)] + [(2, 3), (3, 2), (10, 10), (12, 12), (16, 16)]


def stack_members(g, shape, count=9):
    """A zero member first, then a rank-one one, random ones and, at even
    square sides, an off-diagonal embedding."""
    m, n = shape
    mats = [np.zeros((m, n), dtype=complex), rand_complex(g, m, 1) @ rand_complex(g, 1, n)]
    mats += [rand_complex(g, m, n) for _ in range(count)]
    if m == n and m % 2 == 0:
        a = max(1, m // 2 - 1)
        mats.append(embed_offdiag(rand_complex(g, a, m - a), rand_complex(g, m - a, a)))
    return np.stack(mats)


def batches(g, count):
    """Index arrays of the whole stack, reversed, shuffled, and two
    shuffled sub-batches."""
    perm = g.permutation(count)
    return [np.arange(count), np.arange(count)[::-1], perm, perm[:count // 2], perm[-3:]]


def same_polar(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip((*a[0], *a[1]), (*b[0], *b[1])))


@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
class TestStackedHelpers:
    """spectral_norms, polar_eigens and recompose_many give each member of a
    stack what spectral_norm, polar_eigen and recompose give it alone, to
    the bit, in any order and any sub-batch."""

    def test_norms(self, shape):
        g = np.random.default_rng(40)
        mats = stack_members(g, shape)
        lone = [spectral_norm(m) for m in mats]
        assert lone[0] == 0.0
        for index in batches(g, len(mats)):
            got = spectral_norms(mats[index])
            assert got.tolist() == [lone[k] for k in index]
            assert all(type(v) is float for v in got.tolist())

    def test_polars(self, shape):
        g = np.random.default_rng(41)
        mats = stack_members(g, shape)
        lone = [polar_eigen(m) for m in mats]
        for index in batches(g, len(mats)):
            for k, got in zip(index, polar_eigens(mats[index])):
                assert same_polar(got, lone[k])

    def test_compositions(self, shape):
        # both halves of each polar pair, at a power of the singular values,
        # as the bound evaluators compose them
        g = np.random.default_rng(42)
        for half in (0, 1):
            pairs = [polar[half] for polar in polar_eigens(stack_members(g, shape))]
            values = np.stack([s ** 1.3 for s, _ in pairs])
            vectors = np.stack([v for _, v in pairs])
            lone = [recompose(s, v) for s, v in zip(values, vectors)]
            for index in batches(g, len(pairs)):
                for k, got in zip(index, recompose_many(values[index], vectors[index])):
                    assert np.array_equal(got, lone[k])

    @pytest.mark.parametrize("bad", (np.inf, np.nan, complex(1.0, -np.inf)), ids=repr)
    def test_non_finite_member(self, shape, bad):
        # a lone SVD of a NaN entry raises, and numpy raises for a whole
        # stack that holds one; the member comes back NaN instead and its
        # batch-mates keep their bits
        g = np.random.default_rng(43)
        mats = stack_members(g, shape)
        mats[1, 0, -1] = bad
        norms = spectral_norms(mats)
        polars = polar_eigens(mats)
        assert np.isnan(norms[1])
        assert all(np.isnan(a).all() for a in (*polars[1][0], *polars[1][1]))
        for k in (0, *range(2, len(mats))):
            assert norms[k] == spectral_norm(mats[k])
            assert same_polar(polars[k], polar_eigen(mats[k]))
        values = np.abs(g.standard_normal((len(mats), shape[1])))
        values[1, 0] = abs(bad)
        vectors = np.stack([v for (_, v), _ in polars])
        with np.errstate(invalid="ignore"):
            out = recompose_many(values, vectors)
        for k in (0, *range(2, len(mats))):
            assert np.array_equal(out[k], recompose(values[k], vectors[k]))
