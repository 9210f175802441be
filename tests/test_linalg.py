import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uorolab.errors import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    ShapeError,
    SingularMatrixError,
)
from uorolab.linalg import (
    frob_inner,
    frob_norm,
    psd_frac_power,
    sqrt_ratio_or_one,
    sym_eig,
    trace,
)

from helpers import sqrt_ratio_or_one_oracle


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2


def random_psd(rng, n, floor=0.0):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        np.testing.assert_allclose(eig.values, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(
            eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12
        )

    def test_diagonal_sorted_descending(self):
        eig = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eig.values, [4.0, 1.0], atol=1e-14)
        # columns are +/- unit vectors up to permutation
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        m = random_symmetric(rng, 8)
        eig = sym_eig(m)
        assert frob_norm(eig.reconstruct() - m) <= 1e-10 * frob_norm(m)
        assert frob_norm(eig.vectors.T @ eig.vectors - np.eye(8)) <= 1e-10

    def test_matches_reference_eigensolver(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 20, 60):
            m = random_symmetric(rng, n, scale=3.0)
            ours = sym_eig(m).values
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(ours, ref, atol=1e-9 * max(1, frob_norm(m)))

    def test_shift_moves_spectrum(self):
        rng = np.random.default_rng(13)
        m = random_symmetric(rng, 6)
        c = 2.5
        base = sym_eig(m).values
        shifted = sym_eig(m + c * np.eye(6)).values
        np.testing.assert_allclose(shifted, base + c, atol=1e-10)

    def test_repeated_eigenvalues(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        spectrum = np.array([3.0, 3.0, 3.0, 1.0, 1.0, -2.0, -2.0])
        m = (q * spectrum) @ q.T
        eig = sym_eig(m)
        assert np.all(np.diff(eig.values) <= 0.0)
        np.testing.assert_allclose(eig.values, spectrum, atol=1e-12)
        assert frob_norm(eig.reconstruct() - m) <= 1e-10 * frob_norm(m)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((2, 3)))
        bad = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(NotSymmetricError):
            sym_eig(bad)


class TestPsdFracPower:
    def test_identity_any_power(self):
        np.testing.assert_allclose(psd_frac_power(np.eye(3), -0.25), np.eye(3), atol=1e-12)

    def test_scalar_fourth_roots(self):
        out = psd_frac_power(np.diag([1.0, 16.0]), -0.25)
        np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-12)

    def test_square_back(self):
        rng = np.random.default_rng(19)
        m = random_psd(rng, 6)
        root = psd_frac_power(m, 0.5)
        np.testing.assert_allclose(root @ root, m, atol=1e-9 * frob_norm(m))

    def test_power_one_is_identity_map(self):
        rng = np.random.default_rng(23)
        m = random_psd(rng, 5)
        np.testing.assert_allclose(psd_frac_power(m, 1.0), m, atol=1e-10 * frob_norm(m))

    def test_inverse_powers_cancel(self):
        rng = np.random.default_rng(29)
        m = random_psd(rng, 5, floor=0.5)
        prod = psd_frac_power(m, 0.3) @ psd_frac_power(m, -0.3)
        np.testing.assert_allclose(prod, np.eye(5), atol=1e-9)

    def test_inverse_fourth_root_at_digits_size(self):
        rng = np.random.default_rng(41)
        m = random_psd(rng, 200, floor=1.0)
        p = psd_frac_power(m, -0.25)
        residual = np.linalg.matrix_power(p, 4) @ m - np.eye(200)
        assert frob_norm(residual) <= 1e-9 * np.sqrt(200)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_frac_power(np.diag([1.0, -0.5]), 0.5)

    def test_rejects_negative_power_of_singular(self):
        with pytest.raises(SingularMatrixError):
            psd_frac_power(np.diag([1.0, 0.0]), -0.25)

    def test_clamps_roundoff_negatives(self):
        m = np.diag([1.0, -1e-14])
        out = psd_frac_power(m, 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-7)


class TestFrobeniusAndTrace:
    def test_rank_one_norm_identity(self):
        x = np.array([3.0, 0.0])
        y = np.array([0.0, 4.0])
        assert frob_norm(np.outer(x, y)) == pytest.approx(12.0)

    def test_trace_identity(self):
        assert trace(np.eye(5)) == 5.0

    def test_inner_equals_trace_of_product(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        # elementwise-sum oracle
        expected = sum(a[i, j] * b[i, j] for i in range(3) for j in range(3))
        assert frob_inner(a, b) == pytest.approx(expected, rel=1e-12)
        assert frob_inner(a, b) == pytest.approx(trace(a.T @ b), rel=1e-12)

    def test_inner_of_self_is_norm_squared(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((4, 2))
        assert frob_inner(a, a) == pytest.approx(frob_norm(a) ** 2, rel=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            frob_inner(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            trace(np.zeros((2, 3)))


# 0, signed zeros, negatives, infinities, nan, subnormals and the float range
EDGE_VALUES = [0.0, -0.0, -1.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2e-308, 1.7e308, 1e-300, 1e300]
ratio_operands = st.one_of(st.sampled_from(EDGE_VALUES),
                           st.floats(allow_nan=True, allow_infinity=True))


# a good pair whose ratio leaves the float range warns in both forms
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestSqrtRatioOrOne:
    @settings(max_examples=300, deadline=None)
    @given(ratio_operands, ratio_operands)
    def test_scalars_match_the_masked_form(self, num, den):
        value = sqrt_ratio_or_one(num, den)
        assert type(value) is float
        assert value == sqrt_ratio_or_one_oracle(num, den)
        assert sqrt_ratio_or_one(np.float64(num), np.asarray(den)) == value

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ratio_operands, ratio_operands), min_size=1,
                    max_size=12))
    def test_arrays_match_the_masked_form(self, pairs):
        num, den = np.array(pairs).T
        np.testing.assert_array_equal(sqrt_ratio_or_one(num, den),
                                      sqrt_ratio_or_one_oracle(num, den))
        # a 0-d operand broadcasts against rows
        np.testing.assert_array_equal(sqrt_ratio_or_one(num[0], den),
                                      sqrt_ratio_or_one_oracle(num[0], den))
