"""Vectorized synthesis of EM traces for FALCON's float multiplication.

Computes, for D (secret, known) operand pairs at once, the same
architectural intermediates as :func:`repro.fpr.trace.fpr_mul_trace`
(property-tested equal), maps them through the device model, and returns
oscilloscope-style trace matrices.

The step values are computed by :func:`mul_step_values`: the whole
softfloat pipeline — limb splits, schoolbook partial products, running
sums, sticky collection, round-to-nearest-even with the carry-out
renormalization, the ``EXP_REBIAS`` exponent add as a 32-bit
two's-complement word, sign XOR and the packed result — as uint64/int64
array ops over the full operand block. No host-FPU shortcut anywhere:
rounding, underflow flush-to-zero and overflow saturate-to-infinity are
the same exact integer arithmetic as :func:`repro.fpr.emu.fpr_mul`.
The per-value :func:`repro.fpr.trace.fpr_mul_trace` stays the reference
it is tested against column by column (tests/test_leakage_backend.py).
:func:`mul_step_values` serves the capture side (and the profiled attacks' training labels,
the masked-share capture and the complex-multiply model); the attack's
hypothesis builders in :mod:`repro.attack.hypotheses` do not route
through it — they predict each intermediate directly for every key
guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import EXP_REBIAS, LOW_BITS, MUL_STEP_LABELS
from repro.leakage.device import DeviceModel

__all__ = ["mul_step_values", "trace_layout", "TraceLayout", "synthesize_mul_traces"]


_U = np.uint64
_MASK25 = _U((1 << LOW_BITS) - 1)
_MANT_MASK = _U((1 << 52) - 1)
_IMPLICIT = _U(1 << 52)
_EXP_MASK = _U(0x7FF)
_N_STEPS = len(MUL_STEP_LABELS)


def _broadcast_operands(
    x: NDArray[Any] | int, y: NDArray[Any]
) -> tuple[
    NDArray[np.uint64], NDArray[np.uint64], NDArray[np.uint64], NDArray[np.uint64]
]:
    """Operand handling: uint64 views, scalar x broadcast over y.

    Returns ``(x_arr, y_arr, ex, ey)`` — the biased exponent fields are
    validated here anyway, so callers reuse them instead of re-masking.
    """
    y_arr = np.asarray(y, dtype=np.uint64)
    x_arr = np.broadcast_to(np.asarray(x, dtype=np.uint64), y_arr.shape)
    ex = (x_arr >> _U(52)) & _EXP_MASK
    ey = (y_arr >> _U(52)) & _EXP_MASK
    if (
        bool(np.any(ex == 0))
        or bool(np.any(ey == 0))
        or bool(np.any(ex == _EXP_MASK))
        or bool(np.any(ey == _EXP_MASK))
    ):
        raise ValueError("operands must be nonzero normal doubles")
    return x_arr, y_arr, ex, ey


def mul_step_values(
    x: NDArray[Any] | int, y: NDArray[Any]
) -> NDArray[np.uint64]:  # sast: declassify(reason=leakage model of fpr multiply intermediates; consumes the secret operand by design)
    """(D, S) uint64 matrix of intermediates for x*y, one row per pair.

    ``x`` (secret) and ``y`` (known) are fpr bit patterns; ``x`` may be a
    scalar, broadcast against ``y``. Columns follow MUL_STEP_LABELS.
    Inputs must be nonzero normals (the capture layer filters zeros).
    Row ``d`` equals ``fpr_mul_trace(x[d], y[d]).values`` bit for bit.
    """
    x_arr, y_arr, ex, ey = _broadcast_operands(x, y)
    mx = np.bitwise_and(x_arr, _MANT_MASK)
    mx |= _IMPLICIT
    my = np.bitwise_and(y_arr, _MANT_MASK)
    my |= _IMPLICIT

    # The step matrix is built as (steps, D) so each column of the
    # returned transpose is a contiguous row here: the limb/product
    # pipeline writes straight into those rows (ufunc ``out=``),
    # which at campaign-sized blocks is markedly faster than
    # assembling temporaries and np.stack-ing them at the end.
    out = np.empty((_N_STEPS, y_arr.shape[0]), dtype=np.uint64)
    (x_lo, x_hi, y_lo, y_hi, p_ll, p_lh, s_lo, p_hl, s_mid, p_hh,
     s_hi, sticky, mant_out, exp_sum, exp_biased, exp_out, sign_out,
     result) = out

    # Limb split and schoolbook accumulation, as in fpr.c: every
    # intermediate fits uint64 (the widest is the 56-bit p_hh).
    np.bitwise_and(mx, _MASK25, out=x_lo)
    np.right_shift(mx, _U(LOW_BITS), out=x_hi)
    np.bitwise_and(my, _MASK25, out=y_lo)
    np.right_shift(my, _U(LOW_BITS), out=y_hi)

    np.multiply(x_lo, y_lo, out=p_ll)
    np.multiply(x_lo, y_hi, out=p_lh)
    np.right_shift(p_ll, _U(LOW_BITS), out=s_lo)
    s_lo += p_lh
    np.multiply(x_hi, y_lo, out=p_hl)
    np.add(s_lo, p_hl, out=s_mid)
    np.multiply(x_hi, y_hi, out=p_hh)
    np.right_shift(s_mid, _U(LOW_BITS), out=s_hi)
    s_hi += p_hh
    np.bitwise_and(s_mid, _MASK25, out=sticky)
    np.left_shift(sticky, _U(LOW_BITS), out=sticky)
    sticky |= p_ll & _MASK25

    # Round-to-nearest-even on the exact 105/106-bit product
    # zz = (s_hi << 50) | sticky, without ever materializing it:
    # the 53 kept bits come from s_hi, the dropped bits are the
    # bottom of s_hi plus the whole sticky word. ``wide`` is 1 when
    # the product carried into bit 105 (s_hi >= 2^55), which drops
    # one extra bit — emu._round_pack's ``drop`` is 52 + wide.
    wide = s_hi >> _U(55)
    shift = wide + _U(2)
    keep = s_hi >> shift
    rem = s_hi & ((_U(1) << shift) - _U(1))
    np.left_shift(rem, _U(50), out=rem)
    rem |= sticky
    half = _U(1) << (_U(51) + wide)
    round_up = (rem > half) | ((rem == half) & ((keep & _U(1)) == _U(1)))
    keep += round_up
    # An all-ones significand rounds up to 2^53: renormalize (one
    # more dropped bit cannot change the rounding, it is zero).
    carry = keep >> _U(53)
    keep >>= carry

    # Result exponent in signed arithmetic: underflow flushes to
    # signed zero, overflow saturates to the infinity pattern —
    # fpr.c semantics, NOT the host FPU's (which would produce
    # subnormals on underflow).
    np.add(ex, ey, out=exp_sum)
    biased = (exp_sum + wide + carry).astype(np.int64) - np.int64(1023)
    overflow = biased >= np.int64(2047)
    underflow = biased <= np.int64(0)
    exp_out[:] = np.where(
        overflow, np.int64(2047), np.where(underflow, np.int64(0), biased)
    )
    np.bitwise_and(keep, _MANT_MASK, out=mant_out)
    mant_out[overflow | underflow] = _U(0)

    np.bitwise_xor(x_arr >> _U(63), y_arr >> _U(63), out=sign_out)
    np.left_shift(sign_out, _U(63), out=result)
    result |= exp_out << _U(52)
    result |= mant_out
    # fpr.c holds the re-biased sum in a signed 32-bit register; its
    # (usually negative) two's-complement pattern is what leaks.
    # uint64 wraparound then a 32-bit mask IS two's complement.
    np.subtract(exp_sum, _U(EXP_REBIAS), out=exp_biased)
    exp_biased &= _U(0xFFFFFFFF)

    return out.T


@dataclass(frozen=True)
class TraceLayout:
    """Mapping from step labels to sample index ranges in a trace."""

    samples_per_step: int
    labels: tuple[str, ...] = MUL_STEP_LABELS

    @property
    def n_samples(self) -> int:
        return len(self.labels) * self.samples_per_step

    def slice_of(self, label: str) -> slice:
        i = self.labels.index(label)
        return slice(i * self.samples_per_step, (i + 1) * self.samples_per_step)

    def sample_of(self, label: str) -> int:
        """First sample index covering ``label``."""
        return self.labels.index(label) * self.samples_per_step


def trace_layout(device: DeviceModel) -> TraceLayout:
    return TraceLayout(samples_per_step=device.samples_per_step)


def synthesize_mul_traces(
    x: NDArray[Any] | int,
    y: NDArray[Any],
    device: DeviceModel,
    rng: np.random.Generator | None = None,
) -> tuple[NDArray[np.float32], NDArray[np.uint64]]:
    """Traces (D, T) plus the underlying step values (D, S) for x*y."""
    if rng is None:
        rng = device.rng()
    values = mul_step_values(x, y)
    traces = device.emit(values, rng)
    return traces, values
