"""Exact scalar and matrix arithmetic over the ring extended by sqrt 2."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from foursplit.exact import (
    INV_SQRT2,
    ExactMatrix,
    ExactScalar,
    beam_splitter_matrix,
    magnitude_mask,
    negation_matrix,
    permutation_matrix,
    ring_matmul,
    swap_matrix,
)

small_ints = st.integers(min_value=-40, max_value=40)
small_exps = st.integers(min_value=0, max_value=6)
scalars = st.builds(ExactScalar, small_ints, small_ints, small_exps)
#: Parts that are mostly zero or +-2**j, so that magnitude matches are common.
parts = st.one_of(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 4, -4, 8, -8]), small_ints)


def square_rows(n):
    return st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)


square_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(square_rows(n), square_rows(n))
)


def reference_matmul(x, y):
    """Entrywise product in ExactScalar arithmetic, the independent reference."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ExactScalar.zero()
            for k in range(n):
                acc = acc + x[i][k] * y[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class TestExactScalar:
    def test_normalization_strips_even_numerators(self):
        assert ExactScalar(2, 1, 2) == ExactScalar(1, 1, 1)
        assert ExactScalar(4, 0, 4) == ExactScalar(1, 0, 0)

    def test_zero_normalizes_to_canonical_form(self):
        z = ExactScalar(0, 0, 5)
        assert (z.a, z.b, z.m) == (0, 0, 0)
        assert z.is_zero()

    def test_half_representation(self):
        half = ExactScalar(1, 0, 2)
        assert float(half) == pytest.approx(0.5, abs=1e-15)

    def test_inv_sqrt2_squares_to_half(self):
        r = ExactScalar.inv_sqrt2()
        assert r * r == ExactScalar(1, 0, 2)

    def test_arithmetic_examples(self):
        r = ExactScalar.inv_sqrt2()
        assert r + r == ExactScalar(0, 1, 0)  # sqrt 2
        assert ExactScalar.one() - ExactScalar.one() == ExactScalar.zero()
        assert ExactScalar(1, 1, 0) * ExactScalar(1, -1, 0) == ExactScalar(-1, 0, 0)

    def test_int_multiplication(self):
        assert ExactScalar(1, 0, 2) * 2 == ExactScalar.one()

    def test_immutable(self):
        s = ExactScalar.one()
        with pytest.raises(AttributeError):
            s.a = 2

    @given(scalars, scalars)
    def test_addition_matches_floats(self, x, y):
        assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)

    @given(scalars, scalars)
    def test_multiplication_matches_floats(self, x, y):
        assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-7)

    def test_text_literals(self):
        assert ExactScalar(3, -2, 5).text() == "(3-2√2)/√2^5"
        assert ExactScalar(-7, 1, 0).text() == "(-7+1√2)/√2^0"
        assert INV_SQRT2.text() == str(INV_SQRT2) == "(1+0√2)/√2^1"

    @given(scalars, scalars, scalars)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(scalars)
    def test_negation_cancels(self, x):
        assert x + (-x) == ExactScalar.zero()

    def test_abs_is_exact_below_float_resolution(self):
        # (1 - sqrt2)**23 < 0, but its float evaluates to exactly 0.0
        x = ExactScalar(318281039, -225058681, 0)
        assert float(x) == 0.0
        assert abs(x) == -x
        assert abs(-x) == -x

    @given(scalars)
    def test_abs_matches_float_sign(self, x):
        assert abs(x) in (x, -x)
        assert float(abs(x)) == pytest.approx(abs(float(x)), abs=1e-9)


class TestExactMatrix:
    def test_identity_is_orthogonal(self):
        assert ExactMatrix.identity(4).is_orthogonal()

    def test_from_ints_denominator(self):
        m = ExactMatrix.from_ints([[1, -1], [1, 1]], denom_exp=1)
        assert m.is_orthogonal()
        assert np.allclose(m.to_float(), np.array([[1, -1], [1, 1]]) / math.sqrt(2))
        with pytest.raises(ValueError, match="square"):
            ExactMatrix.from_ints([[1, 2, 3]])

    def test_matmul_matches_float_product(self):
        a = beam_splitter_matrix(3, 1, 2)
        b = beam_splitter_matrix(3, 2, 3)
        assert np.allclose((a @ b).to_float(), a.to_float() @ b.to_float(), atol=1e-14)

    def test_transpose_is_inverse_for_orthogonal(self):
        m = beam_splitter_matrix(4, 2, 4)
        assert m @ m.transpose() == ExactMatrix.identity(4)

    def test_getitem_zero_based(self):
        m = beam_splitter_matrix(2, 1, 2)
        assert m[0, 1] == -ExactScalar.inv_sqrt2()

    def test_equality_and_hash(self):
        a = beam_splitter_matrix(4, 1, 3)
        b = beam_splitter_matrix(4, 1, 3)
        assert a == b
        assert hash(a) == hash(b)

    @given(square_pairs)
    def test_kernel_matmul_matches_entrywise_reference(self, pair):
        x, y = pair
        assert (ExactMatrix(x) @ ExactMatrix(y)).rows == reference_matmul(x, y)

    @given(square_pairs)
    def test_kernel_transpose_and_equality_match_entries(self, pair):
        x, y = pair
        mx, my = ExactMatrix(x), ExactMatrix(y)
        assert mx.rows == tuple(map(tuple, x))
        assert mx.transpose().rows == tuple(zip(*x))
        assert (mx == my) == (x == y)
        assert mx == ExactMatrix([list(r) for r in x])
        assert hash(mx) == hash(ExactMatrix([list(r) for r in x]))

    @given(
        st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_one_matrix_at_different_exponents_is_equal(self, ints, m, k):
        # x / sqrt2**m written again with numerators scaled by 2**k at m + 2k
        lifted = [[v << k for v in r] for r in ints]
        a = ExactMatrix.from_ints(ints, m)
        b = ExactMatrix.from_ints(lifted, m + 2 * k)
        assert a == b
        assert hash(a) == hash(b)
        assert (a.m, a.A.tolist(), a.B.tolist()) == (b.m, b.A.tolist(), b.B.tolist())

    def test_overflow_raises_instead_of_wrapping(self):
        with pytest.raises(OverflowError):
            ExactMatrix.from_ints([[2**63]])
        with pytest.raises(OverflowError):
            ExactMatrix([[ExactScalar(2**70)]])
        big = ExactMatrix.from_ints([[2**31, 2**31], [2**31, 2**31]])
        with pytest.raises(OverflowError):
            big @ big  # entries 2 * 2**62 = 2**63
        stack = np.full((3, 2, 2), 2**31, dtype=np.int64)
        with pytest.raises(OverflowError):
            ring_matmul(stack, 0 * stack, stack, 0 * stack)

    def test_doubled_signs(self):
        signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        half = ExactMatrix.from_ints([[2 * v for v in r] for r in signs], 4)
        assert np.array_equal(half.doubled_signs(), signs)
        assert ExactMatrix.from_ints(signs).doubled_signs() is None
        assert beam_splitter_matrix(4, 1, 2).doubled_signs() is None

    @given(
        st.sampled_from([(4, 4), (3, 3), (5, 4, 4), (2, 3, 4, 4)]).flatmap(
            lambda shape: st.tuples(*[hnp.arrays(np.int64, shape, elements=parts)] * 2)
        ),
        small_exps,
        st.integers(min_value=0, max_value=4),
    )
    def test_magnitude_mask_matches_entry_view(self, ab, m, k):
        a, b = ab
        target = ExactScalar(1, 0, k)
        entries = zip(a.ravel().tolist(), b.ravel().tolist())
        reference = [abs(ExactScalar(x, y, m)) == target for x, y in entries]
        mask = magnitude_mask(a, b, m, k)
        assert mask.shape == a.shape
        assert mask.ravel().tolist() == reference

    def test_magnitude_mask_examples(self):
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        half = ExactMatrix.from_ints(2 * signs, 4)  # canonical at m = 2
        assert magnitude_mask(half.A, half.B, half.m, 2).all()
        assert not magnitude_mask(half.A, half.B, half.m, 1).any()
        bs = beam_splitter_matrix(3, 1, 3)  # 1/sqrt2 on modes 1, 3; 1 on mode 2
        assert magnitude_mask(bs.A, bs.B, bs.m, 1).tolist() == [[1, 0, 1], [0, 0, 0], [1, 0, 1]]
        assert magnitude_mask(bs.A, bs.B, bs.m, 0).tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_text_rows_literal(self):
        zero, one, isq, neg = "(0+0√2)/√2^0", "(1+0√2)/√2^0", "(1+0√2)/√2^1", "(-1+0√2)/√2^1"
        assert beam_splitter_matrix(3, 3, 1).text_rows() == [
            [isq, zero, isq],
            [zero, one, zero],
            [neg, zero, isq],
        ]


class TestConstructors:
    def test_beam_splitter_block(self):
        m = beam_splitter_matrix(2, 1, 2)
        expect = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)
        assert np.allclose(m.to_float(), expect)

    def test_beam_splitter_reverse_direction_is_transpose(self):
        assert beam_splitter_matrix(4, 3, 1) == beam_splitter_matrix(4, 1, 3).transpose()

    def test_beam_splitter_rejects_equal_modes(self):
        with pytest.raises(ValueError):
            beam_splitter_matrix(4, 2, 2)

    def test_permutation_matrix_relabels_rows(self):
        p = permutation_matrix(3, (2, 3, 1))
        v = np.array([10.0, 20.0, 30.0])
        assert np.allclose(p.to_float() @ v, [20.0, 30.0, 10.0])

    def test_swap_is_self_inverse(self):
        s = swap_matrix(4, 2, 3)
        assert s @ s == ExactMatrix.identity(4)

    def test_negation_matrix(self):
        n = negation_matrix(3, 2)
        assert np.allclose(n.to_float(), np.diag([1.0, -1.0, 1.0]))
