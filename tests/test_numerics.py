import numpy as np
import pytest
from hypothesis import given, strategies as st

from psearch.errors import (
    DimensionMismatch,
    EmptyInput,
    NonFiniteFunction,
    ZeroVector,
)
from psearch.numerics import (
    check_gradient,
    l2_normalize,
    make_rng,
    softmax,
)

finite_vecs = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=32
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestL2Normalize:
    def test_pythagorean(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_identity_case(self):
        assert np.allclose(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            l2_normalize([0.0, 0.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            l2_normalize([])

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 1.0], [3.0, -np.inf]])
    def test_non_finite_rejected(self, v):
        # a NaN norm passes the zero-norm test, and v / inf is not a unit vector
        with pytest.raises(NonFiniteFunction):
            l2_normalize(v)

    @given(finite_vecs)
    def test_unit_norm_and_idempotent(self, v):
        u = l2_normalize(v)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-9
        assert np.allclose(l2_normalize(u), u, atol=1e-9)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_derived_value(self):
        # independently recomputed at 50 digits
        out = softmax([1.0, -1.0])
        assert out[0] == pytest.approx(0.8807970779778824, abs=1e-15)
        assert out[1] == pytest.approx(0.1192029220221176, abs=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            softmax([])

    def test_rows_match_vectors(self):
        scores = make_rng(3).normal(size=(5, 7)) * 20
        rows = softmax(scores)
        for row, s in zip(rows, scores):
            assert np.array_equal(row, softmax(s))

    def test_minus_inf_masks_an_entry(self):
        out = softmax([[0.0, -np.inf, 0.0], [1.0, 1.0, -np.inf]])
        assert out.tolist() == [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]

    @pytest.mark.parametrize("scores", [[np.nan, 0.0], [np.inf, 0.0],
                                        [[0.0, 1.0], [-np.inf, -np.inf]],
                                        [[np.nan, -np.inf]], [[0.0, 1.0], [1.0, np.nan]]])
    def test_non_finite_rejected(self, scores):
        with pytest.raises(NonFiniteFunction):
            softmax(scores)

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=16),
           st.floats(-100, 100))
    def test_shift_invariance_and_normalization(self, scores, c):
        p = softmax(scores)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
        # entries far below the maximum may underflow to exactly 0
        assert np.all(p >= 0) and np.all(p < 1 + 1e-12)
        assert np.allclose(softmax(np.array(scores) + c), p, atol=1e-12)


class TestCheckGradient:
    def test_quadratic(self):
        err = check_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]),
                             np.array([2.0, 4.0]), h=1e-5)
        assert err < 1e-8

    def test_sign_flip_detected(self):
        err = check_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]),
                             np.array([-2.0, -4.0]), h=1e-5)
        assert err == pytest.approx(2.0, rel=1e-3)

    def test_non_finite(self):
        with pytest.raises(NonFiniteFunction):
            check_gradient(lambda x: float("nan"), np.array([1.0]),
                           np.array([0.0]), h=1e-5)

    @pytest.mark.parametrize("grad", [[2.0, 4.0, 9.0], [[2.0], [4.0]]])
    def test_shape_mismatch(self, grad):
        # the loop reads grad.flat over x's size: a longer or reshaped gradient
        # would be compared on its leading entries and could pass
        with pytest.raises(DimensionMismatch):
            check_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]),
                           np.array(grad), h=1e-5)

    @pytest.mark.parametrize("h", [1e-8, 1e-3])
    def test_step_outside_range(self, h):
        # outside [1e-7, 1e-4] rounding or truncation error swamps the difference
        with pytest.raises(ValueError, match="outside"):
            check_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]),
                           np.array([2.0, 4.0]), h=h)


def test_rng_reproducible():
    a = make_rng(42).normal(size=100)
    b = make_rng(42).normal(size=100)
    assert np.array_equal(a, b)
