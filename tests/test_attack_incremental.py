"""Tests for incremental CPA: correlation folded in batch by batch.

The attack's distinguisher streams traces through
:class:`repro.utils.stats.PearsonAccumulator`; these cases pin that the
streamed correlation equals the one-shot :func:`batched_pearson` for any
batching, and that its count, threshold and shape checks hold.
"""

import numpy as np
import pytest

from repro.utils.stats import PearsonAccumulator, batched_pearson, fisher_z_threshold


class TestIncrementalCpa:
    def test_matches_batched(self):
        rng = np.random.default_rng(0)
        hyps = rng.integers(0, 50, (500, 7)).astype(np.float64)
        traces = rng.standard_normal((500, 3))
        acc = PearsonAccumulator()
        for lo in range(0, 500, 130):
            acc.update(hyps[lo : lo + 130], traces[lo : lo + 130])
        np.testing.assert_allclose(
            acc.correlation(), batched_pearson(hyps, traces), atol=1e-12
        )

    def test_single_row_batches(self):
        rng = np.random.default_rng(1)
        hyps = rng.integers(0, 9, (40, 2)).astype(np.float64)
        traces = rng.standard_normal((40, 1))
        acc = PearsonAccumulator()
        for d in range(40):
            acc.update(hyps[d : d + 1], traces[d : d + 1])
        np.testing.assert_allclose(
            acc.correlation(), batched_pearson(hyps, traces), atol=1e-12
        )

    def test_count_and_threshold(self):
        acc = PearsonAccumulator()
        acc.update(np.arange(100.0).reshape(-1, 1), np.arange(100.0).reshape(-1, 1))
        assert acc.count == 100
        assert acc.threshold() == fisher_z_threshold(100)
        assert 0 < acc.threshold() < 1
        assert acc.correlation()[0, 0] == pytest.approx(1.0)

    def test_validation(self):
        acc = PearsonAccumulator()
        with pytest.raises(ValueError):
            acc.correlation()  # nothing folded in yet
        with pytest.raises(ValueError):
            acc.update(np.zeros((3, 2)), np.zeros((4, 2)))  # row counts differ
        acc.update(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            acc.update(np.zeros((3, 1)), np.zeros((3, 2)))  # guess count changed

    def test_degenerate_columns_zero(self):
        acc = PearsonAccumulator()
        acc.update(np.ones((50, 1)), np.random.default_rng(2).standard_normal((50, 1)))
        assert acc.correlation()[0, 0] == 0.0
