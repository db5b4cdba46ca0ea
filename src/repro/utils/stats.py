"""Statistics shared by the CPA distinguisher and the analysis layer.

The paper's distinguisher is the classic Pearson-correlation CPA of Brier
et al. with a Hamming-weight leakage estimate, judged against a 99.99%
confidence interval. The interval is the standard Fisher-z bound for the
null hypothesis "true correlation is zero": with D traces, an observed
sample correlation r is significant at level alpha when
``|r| > tanh(z_alpha / sqrt(D - 3))``.

Correlation is computed from the five raw-moment sums (sum h, sum h^2,
sum t, sum t^2, sum h*t), which makes it streamable: a
:class:`PearsonAccumulator` folds (D, G)/(D, T) batches in as they
arrive and can emit the correlation matrix at any point. Both
:func:`batched_pearson` (one-shot) and :func:`streaming_pearson`
(chunked, O(chunk) working memory) take their sums from the same
:func:`_raw_moments` and finalize through the same code path, so their
results agree to float64 summation-order differences.

Hypothesis matrices are small integers (uint8 Hamming weights). The
float64 cast that sum h, sum h^2 and the cross term need happens one
cache-sized block of guess columns at a time, so no (D, G) float64 copy
of the hypotheses is ever made; the integer sums stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "pearson_corr",
    "batched_pearson",
    "streaming_pearson",
    "PearsonAccumulator",
    "fisher_z_threshold",
    "normal_quantile",
    "OnlineMoments",
]


def normal_quantile(p: float) -> float:
    """Quantile (inverse CDF) of the standard normal distribution.

    Uses Acklam's rational approximation (relative error < 1.15e-9),
    which keeps the core library free of a SciPy dependency.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        return num / den
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        return -num / den
    q = p - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    return num / den


def fisher_z_threshold(n_traces: int, confidence: float = 0.9999) -> float:
    """Correlation magnitude needed for significance at ``confidence``.

    This is the dashed-line bound drawn in the paper's Figure 4: under the
    null (no leakage), atanh(r) is approximately normal with standard
    deviation 1/sqrt(D - 3).

    With three or fewer traces the Fisher-z variance is undefined; the
    bound saturates at the largest float strictly below 1.0 rather than
    1.0 itself, so that a mathematically perfect correlation (clipped to
    exactly 1.0 by the distinguisher) still registers as significant
    under the strict ``>`` comparison used by
    :meth:`repro.attack.cpa.CpaResult.significant_guesses`.
    """
    if n_traces <= 3:
        return math.nextafter(1.0, 0.0)
    z = normal_quantile(confidence)
    return math.tanh(z / math.sqrt(n_traces - 3))


def pearson_corr(x: NDArray[Any], y: NDArray[Any]) -> float:
    """Pearson correlation between two 1-D arrays (0.0 when degenerate)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    return float(xc @ yc) / denom


def _finalize_pearson(
    count: int,
    sum_h: FloatArray,
    sum_h2: FloatArray,
    sum_t: FloatArray,
    sum_t2: FloatArray,
    sum_ht: FloatArray,
) -> FloatArray:
    """(G, T) correlation from the five raw-moment sums.

    Shared by the one-shot and streaming paths so both produce identical
    finalization arithmetic; columns with zero variance on either side
    yield 0.0 rather than NaN.
    """
    cov = sum_ht - np.outer(sum_h, sum_t) / count
    var_h = np.maximum(sum_h2 - sum_h * sum_h / count, 0.0)
    var_t = np.maximum(sum_t2 - sum_t * sum_t / count, 0.0)
    denom = np.sqrt(np.outer(var_h, var_t))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(corr, -1.0, 1.0).astype(np.float64)


def _validate_pair(hyps: NDArray[Any], traces: NDArray[Any]) -> None:
    if hyps.ndim != 2 or traces.ndim != 2 or hyps.shape[0] != traces.shape[0]:
        raise ValueError(
            f"expected (D,G) and (D,T) with matching D, got {hyps.shape} and {traces.shape}"
        )


#: Bytes of float64 hypothesis columns cast per block: small enough to
#: stay in L2 between the sum-of-squares pass and the cross-term GEMV.
_BLOCK_BYTES = 1 << 21
#: Block widths are whole multiples of this many columns. BLAS GEMV
#: kernels take the columns in small fixed groups; block edges on group
#: edges keep every column's summation order, so the cross terms match
#: one full-width product bit for bit (checked with OpenBLAS on x86-64).
_BLOCK_ALIGN = 64


def _raw_moments(
    hyps: NDArray[Any], traces: NDArray[Any]
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """(sum h, sum h^2, sum t, sum t^2, sum h*t) of one (D, G)/(D, T) batch.

    The float64 cast is made per block of guess columns and feeds sum h,
    sum h^2 and the (G, T) cross term; for integer hypotheses the first
    two are exact while they stay below 2**53.
    """
    t = np.asarray(traces, dtype=np.float64)
    d, g = hyps.shape
    sum_h = np.empty(g)
    sum_h2 = np.empty(g)
    sum_ht = np.empty((g, t.shape[1]))
    cols = _BLOCK_BYTES // (8 * max(d, 1)) // _BLOCK_ALIGN * _BLOCK_ALIGN or _BLOCK_ALIGN
    for lo in range(0, g, cols):
        hb = hyps[:, lo : lo + cols].astype(np.float64)
        sum_h[lo : lo + cols] = hb.sum(axis=0)
        sum_h2[lo : lo + cols] = np.einsum("dg,dg->g", hb, hb)
        sum_ht[lo : lo + cols] = hb.T @ t
    return sum_h, sum_h2, t.sum(axis=0), np.einsum("dt,dt->t", t, t), sum_ht


def batched_pearson(hyps: NDArray[Any], traces: NDArray[Any]) -> FloatArray:
    """Correlation of every hypothesis column with every trace sample.

    Parameters
    ----------
    hyps:
        (D, G) array: leakage estimate per trace for each of G guesses.
    traces:
        (D, T) array: measured traces, T samples each.

    Returns
    -------
    (G, T) array of Pearson correlations; columns with zero variance on
    either side produce 0.0 rather than NaN.
    """
    hyps = np.asarray(hyps)
    traces = np.asarray(traces)
    _validate_pair(hyps, traces)
    return _finalize_pearson(hyps.shape[0], *_raw_moments(hyps, traces))


@dataclass
class PearsonAccumulator:
    """Streaming raw-moment sums for a (G, T) Pearson correlation matrix.

    Shapes are fixed by the first :meth:`update`; subsequent batches must
    match. Independent accumulators over disjoint trace partitions can be
    :meth:`merge`\\ d — the sums are additive — which is what makes the
    distinguisher trivially parallel over acquisition shards.
    """

    count: int = 0
    #: (sum h, sum h^2, sum t, sum t^2, sum h*t), as :func:`_raw_moments`
    _sums: tuple[FloatArray, ...] | None = field(default=None, repr=False)

    @property
    def n_guesses(self) -> int | None:
        return None if self._sums is None else int(self._sums[0].shape[0])

    @property
    def n_samples(self) -> int | None:
        return None if self._sums is None else int(self._sums[2].shape[0])

    def _add(self, count: int, sums: tuple[FloatArray, ...]) -> None:
        if self._sums is None:
            self._sums = tuple(s.copy() for s in sums)
        else:
            for acc, s in zip(self._sums, sums):
                acc += s
        self.count += count

    def update(self, hyps: NDArray[Any], traces: NDArray[Any]) -> "PearsonAccumulator":
        """Fold in one (D, G)/(D, T) batch of rows; returns self."""
        h = np.atleast_2d(np.asarray(hyps))
        t = np.atleast_2d(np.asarray(traces))
        _validate_pair(h, t)
        if self._sums is not None and (h.shape[1], t.shape[1]) != (self.n_guesses, self.n_samples):
            raise ValueError(
                f"batch shapes {h.shape}/{t.shape} do not match accumulator "
                f"({self.n_guesses} guesses, {self.n_samples} samples)"
            )
        if h.shape[0] > 0:
            self._add(h.shape[0], _raw_moments(h, t))
        return self

    def merge(self, other: "PearsonAccumulator") -> "PearsonAccumulator":
        """Add another accumulator's sums into this one; returns self."""
        if other.count == 0 or other._sums is None:
            return self
        if self._sums is not None and (other.n_guesses, other.n_samples) != (
            self.n_guesses, self.n_samples
        ):
            raise ValueError("cannot merge accumulators of different shapes")
        self._add(other.count, other._sums)
        return self

    def correlation(self) -> FloatArray:
        """The (G, T) Pearson correlation of everything folded so far."""
        if self.count < 2 or self._sums is None:
            raise ValueError("need at least two traces")
        return _finalize_pearson(self.count, *self._sums)

    def threshold(self, confidence: float = 0.9999) -> float:
        """Fisher-z bound for the traces accumulated so far."""
        return fisher_z_threshold(self.count, confidence)


def streaming_pearson(
    hyps: NDArray[Any], traces: NDArray[Any], chunk_rows: int = 4096
) -> FloatArray:
    """Chunked equivalent of :func:`batched_pearson`.

    Processes ``chunk_rows`` traces at a time through a
    :class:`PearsonAccumulator`, so the float64 working set is one
    ``chunk_rows``-row slice of the traces plus one column block of
    :func:`_raw_moments`, whatever D is.
    Results agree with the one-shot path to float64 summation-order
    error (far below 1e-9 in practice).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    hyps = np.asarray(hyps)
    traces = np.asarray(traces)
    _validate_pair(hyps, traces)
    acc = PearsonAccumulator()
    for lo in range(0, hyps.shape[0], chunk_rows):
        acc.update(hyps[lo : lo + chunk_rows], traces[lo : lo + chunk_rows])
    return acc.correlation()


@dataclass
class OnlineMoments:
    """Streaming per-sample mean/variance of trace batches.

    Batches are folded in with Chan et al.'s parallel-variance update:
    each (D, T) batch is reduced with one vectorized pass (no per-row
    Python loop) and combined with the running moments exactly.
    """

    count: int = 0
    _mean: FloatArray | None = field(default=None, repr=False)
    _m2: FloatArray | None = field(default=None, repr=False)

    def update(self, batch: NDArray[Any]) -> None:
        """Fold a (D, T) batch of rows into the accumulator."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        n_b = batch.shape[0]
        if n_b == 0:
            return
        mean_b = batch.mean(axis=0)
        m2_b = np.einsum("dt,dt->t", batch - mean_b, batch - mean_b)
        if self._mean is None:
            self.count = n_b
            self._mean = mean_b
            self._m2 = m2_b
            return
        assert self._m2 is not None
        n_a = self.count
        total = n_a + n_b
        delta = mean_b - self._mean
        self._mean = self._mean + delta * (n_b / total)
        self._m2 = self._m2 + m2_b + delta * delta * (n_a * n_b / total)
        self.count = total

    @property
    def mean(self) -> FloatArray:
        if self._mean is None:
            raise ValueError("no data accumulated")
        return self._mean

    @property
    def variance(self) -> FloatArray:
        """Sample variance (ddof=1)."""
        if self._m2 is None or self.count < 2:
            raise ValueError("need at least two rows for a variance")
        return self._m2 / (self.count - 1)
