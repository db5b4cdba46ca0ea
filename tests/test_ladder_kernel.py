"""Equivalence of the ladder's hot-path kernels with plain reference forms.

The hypothesis builders compute masked products in uint32 and popcount
straight to uint8; the Pearson moments cast to float64 one block of
guess columns at a time and sum integer hypotheses exactly. Each test here
pins one of those shortcuts against the obvious uint64 / full-float64
formulation, and the ladder test checks that the shortcuts leave every
stage's candidates and survivors unchanged on seeded captures.
"""

import numpy as np
import pytest

import repro.attack.cpa as cpa_mod
import repro.attack.hypotheses as hyp_mod
import repro.attack.ladder as ladder_mod
import repro.utils.stats as stats_mod
from repro.attack.hypotheses import hyp_product, hyp_s_hi, hyp_s_lo, known_limbs
from repro.attack.ladder import LOW_LIMB_STEPS, ladder_limb
from repro.falcon import FalconParams, keygen
from repro.fpr.trace import LOW_BITS
from repro.leakage import CaptureCampaign, DeviceModel
from repro.utils.stats import batched_pearson, streaming_pearson


def ref_hw(values) -> np.ndarray:
    """HW of each value as a uint64 word, by the SWAR bit-counting identity."""
    x = np.array(values, dtype=np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def ref_hyp_product(known, guesses, mask_bits):
    """The uint64 form: HW((k * g) & m) over the full (D, G) matrix."""
    k, g = np.asarray(known, dtype=np.uint64), np.asarray(guesses, dtype=np.uint64)
    prod = k[:, None] * g[None, :]
    if mask_bits is not None:
        prod &= np.uint64((1 << mask_bits) - 1)
    return ref_hw(prod).astype(np.int8)


def ref_pearson(hyps, traces):
    """Raw-moment Pearson over a full float64 cast of the hypotheses."""
    h = np.asarray(hyps, dtype=np.float64)
    t = np.asarray(traces, dtype=np.float64)
    d = h.shape[0]
    cov = h.T @ t - np.outer(h.sum(axis=0), t.sum(axis=0)) / d
    var_h = np.maximum(np.einsum("dg,dg->g", h, h) - h.sum(axis=0) ** 2 / d, 0.0)
    var_t = np.maximum(np.einsum("dt,dt->t", t, t) - t.sum(axis=0) ** 2 / d, 0.0)
    denom = np.sqrt(np.outer(var_h, var_t))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(corr, -1.0, 1.0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink both block sizes so small inputs span several blocks."""
    monkeypatch.setattr(hyp_mod, "_BLOCK_CELLS", 100)
    monkeypatch.setattr(stats_mod, "_BLOCK_BYTES", 8 * 203 * 7)  # 7 columns at D=203
    monkeypatch.setattr(stats_mod, "_BLOCK_ALIGN", 7)


class TestHypothesisKernel:
    @pytest.mark.parametrize("mask_bits", [1, 5, 25, 27, 32, 33, None])
    def test_product_matches_uint64_reference(self, small_blocks, mask_bits):
        rng = np.random.default_rng(mask_bits or 64)
        y = rng.integers(0, 1 << 63, size=41, dtype=np.uint64)
        y_lo, y_hi = known_limbs(y)
        # guesses wider than 32 bits exercise the uint32 wrap of the operands
        guesses = np.concatenate([
            rng.integers(0, 1 << 27, size=20, dtype=np.uint64),
            rng.integers(0, 1 << 63, size=9, dtype=np.uint64),
        ])
        for known in (y_lo, y_hi):
            got = hyp_product(known, guesses, mask_bits=mask_bits)
            assert got.dtype == np.uint8 and got.shape == (41, 29)
            np.testing.assert_array_equal(got, ref_hyp_product(known, guesses, mask_bits))

    def test_two_known_builders_match_reference(self, small_blocks):
        rng = np.random.default_rng(3)
        y_lo, y_hi = known_limbs(rng.integers(0, 1 << 63, size=23, dtype=np.uint64))
        d_low = int(rng.integers(0, 1 << LOW_BITS))
        cands = rng.integers(0, 1 << 27, size=13, dtype=np.uint64)
        b, a, c = y_lo[:, None], y_hi[:, None], cands[None, :]
        s_lo = ((c * b) >> np.uint64(LOW_BITS)) + c * a
        np.testing.assert_array_equal(hyp_s_lo(y_lo, y_hi, cands), ref_hw(s_lo))
        d = np.uint64(d_low)
        s_mid = ((d * b) >> np.uint64(LOW_BITS)) + d * a + c * b
        s_hi = (s_mid >> np.uint64(LOW_BITS)) + c * a
        np.testing.assert_array_equal(hyp_s_hi(y_lo, y_hi, d_low, cands), ref_hw(s_hi))


class TestScoreKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocked_moments_match_full_float64(self, small_blocks, seed):
        rng = np.random.default_rng(seed)
        d, g = 203, 50  # neither a multiple of the 7-column block
        hyps = rng.integers(0, 26, size=(d, g)).astype(np.uint8)
        hyps[:, 3] = 7  # a constant column correlates to exactly 0
        traces = hyps[:, [5, 11]] * np.array([1.0, -0.5]) + rng.normal(0, 4, size=(d, 2))
        ref = ref_pearson(hyps, traces)
        np.testing.assert_allclose(batched_pearson(hyps, traces), ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            streaming_pearson(hyps, traces, chunk_rows=64), ref, rtol=0, atol=1e-12
        )
        assert batched_pearson(hyps, traces)[3].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_integer_sums_are_exact_for_large_counts(self, dtype):
        """70k rows of full-scale values: sums past 2**32 stay exact."""
        top = int(np.iinfo(dtype).max)
        hyps = np.full((70_000, 2), top, dtype=dtype)
        hyps[::2, 1] = 0
        sums = stats_mod._raw_moments(hyps, np.ones((70_000, 1)))
        assert sums[0].tolist() == [top * 70_000, top * 35_000]
        assert sums[1].tolist() == [top**2 * 70_000, top**2 * 35_000]


def _capture(seed: bytes, n_traces: int = 600, target: int = 0):
    sk, _ = keygen(FalconParams.get(8), seed=seed)
    camp = CaptureCampaign(sk=sk, n_traces=n_traces, device=DeviceModel(noise_sigma=5.0), seed=3)
    return camp.capture(target)


@pytest.fixture(scope="module", params=[b"kernel-a", b"kernel-b"])
def capture(request):
    return _capture(request.param)


class TestLadderEquivalence:
    def test_stages_match_reference_kernels(self, capture, monkeypatch):
        got = ladder_limb(capture, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        monkeypatch.setattr(
            ladder_mod, "hyp_product",
            lambda k, g, mask_bits=None: ref_hyp_product(k, g, mask_bits),
        )
        monkeypatch.setattr(cpa_mod, "batched_pearson", ref_pearson)
        want = ladder_limb(capture, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        assert len(got.stages) == len(want.stages)
        for g_st, w_st in zip(got.stages, want.stages):
            assert g_st.covered_bits == w_st.covered_bits
            np.testing.assert_array_equal(g_st.candidates, w_st.candidates)
            np.testing.assert_array_equal(g_st.survivors, w_st.survivors)
            np.testing.assert_allclose(g_st.scores, w_st.scores, rtol=0, atol=1e-12)
        assert set(got.candidates.tolist()) == set(want.candidates.tolist())


class TestLadderResultOrder:
    def test_best_is_true_limb_and_scores_align(self):
        """``best`` is the final stage's top candidate, not the smallest value.

        The extend phase only pins a limb down to its shift-alias class,
        whose odd member ranks first; this capture's true low limb is odd.
        """
        ts = _capture(b"ladder-order", n_traces=2000, target=4)
        sig = (ts.true_secret & ((1 << 52) - 1)) | (1 << 52)
        assert sig & 1
        res = ladder_limb(ts, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        final = res.stages[-1]
        lookup = dict(zip(final.candidates.tolist(), final.scores.tolist()))
        assert res.scores.tolist() == [lookup[int(c)] for c in res.candidates]
        assert np.all(np.diff(res.scores) <= 0)
        assert res.best == sig & ((1 << LOW_BITS) - 1)
