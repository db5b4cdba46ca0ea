"""Unit + property tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import (
    bit_reverse,
    bits_of,
    from_bits,
    hamming_distance,
    hamming_weight,
    hamming_weight_array,
    mask,
    popcount_u8,
)


class TestMask:
    def test_zero(self):
        assert mask(0) == 0

    def test_small(self):
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(25) == 0x1FFFFFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestHammingWeight:
    def test_known_values(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(1) == 1
        assert hamming_weight(0xFF) == 8
        assert hamming_weight(0b1010101) == 4

    def test_wide_value(self):
        assert hamming_weight((1 << 106) - 1) == 106

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hamming_weight(-1)

    @given(st.integers(min_value=0, max_value=1 << 128))
    def test_matches_bin_count(self, v):
        assert hamming_weight(v) == bin(v).count("1")

    @given(st.integers(min_value=0, max_value=1 << 64), st.integers(min_value=0, max_value=64))
    def test_shift_invariance(self, v, k):
        """The property behind multiplication false positives."""
        assert hamming_weight(v << k) == hamming_weight(v)


class TestHammingDistance:
    def test_self_distance_zero(self):
        assert hamming_distance(12345, 12345) == 0

    def test_complement(self):
        assert hamming_distance(0, 0xFF) == 8

    @given(st.integers(min_value=0, max_value=1 << 64), st.integers(min_value=0, max_value=1 << 64))
    def test_symmetry(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(
        st.integers(min_value=0, max_value=1 << 64),
        st.integers(min_value=0, max_value=1 << 64),
        st.integers(min_value=0, max_value=1 << 64),
    )
    def test_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestHammingWeightArray:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 1 << 62, size=1000).astype(np.uint64)
        hw = hamming_weight_array(vals)
        for v, h in zip(vals, hw):
            assert h == hamming_weight(int(v))

    def test_width_masking(self):
        vals = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert hamming_weight_array(vals, width=8)[0] == 8
        assert hamming_weight_array(vals, width=64)[0] == 64

    def test_2d_shape_preserved(self):
        vals = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert hamming_weight_array(vals).shape == (3, 4)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            hamming_weight_array(np.array([1], dtype=np.uint64), width=0)
        with pytest.raises(ValueError):
            hamming_weight_array(np.array([1], dtype=np.uint64), width=65)

    def test_top_bit(self):
        vals = np.array([1 << 63], dtype=np.uint64)
        assert hamming_weight_array(vals)[0] == 1


class TestPopcountFallback:
    """numpy < 2 has no ``bitwise_count``; the byte-table path must agree."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(7)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            info = np.iinfo(dtype)
            vals = rng.integers(0, info.max, size=(37, 11), dtype=dtype, endpoint=True)
            vals[0, 0], vals[0, 1] = 0, info.max
            yield vals
            yield vals[::3, 1::2]  # non-contiguous view
        yield np.arange(-5, 5, dtype=np.int64)  # signed: counted as uint64 words

    def test_fallback_matches_hardware_path(self, monkeypatch):
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy < 2: the fallback is the only path")
        inputs = list(self._inputs())
        hw_u8 = [popcount_u8(v) for v in inputs]
        hw_i64 = [hamming_weight_array(v) for v in inputs]
        hw_w8 = [hamming_weight_array(v, width=8) for v in inputs]
        monkeypatch.delattr(np, "bitwise_count")
        for v, u8, i64, w8 in zip(inputs, hw_u8, hw_i64, hw_w8):
            got = popcount_u8(v)
            assert got.dtype == np.uint8 and got.shape == v.shape
            np.testing.assert_array_equal(got, u8)
            out = np.empty(v.shape, dtype=np.uint8)
            assert popcount_u8(v, out=out) is out
            np.testing.assert_array_equal(out, u8)
            assert hamming_weight_array(v).dtype == np.int64
            np.testing.assert_array_equal(hamming_weight_array(v), i64)
            np.testing.assert_array_equal(hamming_weight_array(v, width=8), w8)

    def test_matches_scalar_weight(self):
        vals = np.array([0, 1, 0xFF, 0xFFFFFFFF, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        got = popcount_u8(vals)
        assert got.dtype == np.uint8
        assert got.tolist() == [hamming_weight(int(v)) for v in vals]


class TestBitLists:
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip(self, v):
        assert from_bits(bits_of(v, 32)) == v

    def test_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            from_bits([0, 2, 1])

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_bit_reverse_involution(self, v):
        assert bit_reverse(bit_reverse(v, 16), 16) == v

    def test_bit_reverse_known(self):
        assert bit_reverse(0b0001, 4) == 0b1000
        assert bit_reverse(0b1101, 4) == 0b1011
