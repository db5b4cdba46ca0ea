"""Vectorized leakage predictions for key guesses.

Every function returns a (D, G) uint8 Hamming-weight hypothesis matrix:
the predicted HW of one architectural intermediate of the instrumented
multiply (:mod:`repro.fpr.trace`), for each of D traces (rows, known
operand varies) and G guesses (columns, secret candidate varies).

The intermediate is computed in row blocks of about ``_BLOCK_CELLS``
cells, each popcounted straight into its rows of the output, so no
(D, G) word matrix is ever materialized. Masked products of at most 32
bits are computed in uint32: the low 32 bits of a product depend only
on the low 32 bits of its operands, so the narrower word is exact and
halves the memory traffic of the ladder's hot path.
"""

from __future__ import annotations

import numpy as np

from repro.fpr.trace import LOW_BITS
from repro.utils.bits import mask, popcount_u8

__all__ = [
    "known_limbs",
    "known_exponent",
    "known_sign",
    "hyp_product",
    "hyp_s_lo",
    "hyp_s_mid",
    "hyp_s_hi",
    "hyp_exp_sum",
    "hyp_exp_biased",
    "hyp_exp_out",
    "hyp_sign",
]

_U = np.uint64
_MASK25 = _U((1 << LOW_BITS) - 1)
_MANT_MASK = _U((1 << 52) - 1)
_IMPLICIT = _U(1 << 52)
#: Cells of intermediate per row block: 1 MiB of uint64 words, which
#: stays in L2 while it is popcounted.
_BLOCK_CELLS = 1 << 17


def known_limbs(y_patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, A): low-25 and high-28 significand limbs of the known operand."""
    y = np.asarray(y_patterns, dtype=np.uint64)
    my = (y & _MANT_MASK) | _IMPLICIT
    return my & _MASK25, my >> _U(LOW_BITS)


def known_exponent(y_patterns: np.ndarray) -> np.ndarray:
    y = np.asarray(y_patterns, dtype=np.uint64)
    return (y >> _U(52)) & _U(0x7FF)


def known_sign(y_patterns: np.ndarray) -> np.ndarray:
    y = np.asarray(y_patterns, dtype=np.uint64)
    return y >> _U(63)


def _hw_outer(fn, guesses: np.ndarray, *knowns: np.ndarray, dtype=_U) -> np.ndarray:
    """uint8 (D, G) matrix of HW(fn(*knowns[:, None], guesses[None, :])).

    Operands are taken as uint64 words, then wrapped to ``dtype``.
    """
    words = [np.asarray(a, dtype=_U).astype(dtype, copy=False) for a in (guesses, *knowns)]
    guesses, knowns = words[0], words[1:]
    d, g = knowns[0].shape[0], guesses.shape[0]
    out = np.empty((d, g), dtype=np.uint8)
    rows = max(1, _BLOCK_CELLS // max(g, 1))
    for lo in range(0, d, rows):
        block = fn(*(k[lo : lo + rows, None] for k in knowns), guesses[None, :])
        popcount_u8(block, out=out[lo : lo + rows])
    return out


def _hw_outer_pair(fn, guesses: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """:func:`_hw_outer` for the schoolbook sums, which need both known limbs.

    A name of its own, so that the benchmark's planted-slowdown test
    (``perfbench/tests``) can slow these builders by patching it.
    """
    return _hw_outer(fn, guesses, k1, k2)


def hyp_product(known_limb: np.ndarray, guesses: np.ndarray, mask_bits: int | None = None) -> np.ndarray:
    """HW of (guess * known_limb), optionally masked to the low bits.

    The extend phase of the attack: hypotheses on the partial products
    p_ll = D*B, p_lh = D*A (low secret limb) or p_hl = C*B, p_hh = C*A
    (high secret limb). ``mask_bits`` restricts the prediction to the low
    bits, which depend only on the guessed low bits of the secret limb —
    this is what makes the LSB-to-MSB ladder sound.
    """
    if mask_bits is None:
        return _hw_outer(lambda k, g: k * g, guesses, known_limb)
    dtype = np.uint32 if mask_bits <= 32 else _U
    m = dtype(mask(mask_bits))

    def masked_product(k, g):
        prod = k * g
        prod &= m
        return prod

    return _hw_outer(masked_product, guesses, known_limb, dtype=dtype)


def hyp_s_lo(y_lo: np.ndarray, y_hi: np.ndarray, d_candidates: np.ndarray) -> np.ndarray:
    """HW of s_lo = (D*B >> 25) + D*A — the prune target for the low limb."""
    return _hw_outer_pair(
        lambda b, a, d: ((d * b) >> _U(LOW_BITS)) + d * a, d_candidates, y_lo, y_hi
    )


def hyp_s_mid(
    y_lo: np.ndarray, y_hi: np.ndarray, d_low: int, c_candidates: np.ndarray
) -> np.ndarray:
    """HW of s_mid = s_lo + C*B, with the low limb D already recovered."""
    d = _U(d_low)
    return _hw_outer_pair(
        lambda b, a, c: ((d * b) >> _U(LOW_BITS)) + d * a + c * b, c_candidates, y_lo, y_hi
    )


def hyp_s_hi(
    y_lo: np.ndarray, y_hi: np.ndarray, d_low: int, c_candidates: np.ndarray
) -> np.ndarray:
    """HW of s_hi = (s_mid >> 25) + C*A (the full product's top bits)."""
    d = _U(d_low)

    def fn(b, a, c):
        s_mid = ((d * b) >> _U(LOW_BITS)) + d * a + c * b
        return (s_mid >> _U(LOW_BITS)) + c * a

    return _hw_outer_pair(fn, c_candidates, y_lo, y_hi)


def hyp_exp_sum(y_patterns: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """HW of the raw biased exponent sum E_x + E_y for guessed E_x."""
    ey = known_exponent(y_patterns)
    return _hw_outer(lambda k, g: k + g, guesses, ey)


def hyp_exp_biased(y_patterns: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """HW of the 32-bit two's-complement word (E_x + E_y - 2100).

    The rebias pushes the sum into the negative range, where increments
    flip long carry chains; unlike the raw sum, the resulting HW-vs-E_y
    profiles of two guesses are generally not offset by a constant, so
    this intermediate disambiguates the tie classes of ``hyp_exp_sum``.
    """
    from repro.fpr.trace import EXP_REBIAS

    ey = known_exponent(y_patterns)
    rebias = _U(EXP_REBIAS)
    m32 = _U(0xFFFFFFFF)
    return _hw_outer(lambda k, g: (k + g - rebias) & m32, guesses, ey)


def hyp_exp_out(y_patterns: np.ndarray, guesses: np.ndarray, significand: int) -> np.ndarray:  # sast: declassify(reason=hypothesis engine enumerates candidate intermediates; operates on attacker guesses, not victim control flow)
    """HW of the result's biased exponent for guessed E_x.

    With the 53-bit significand already recovered, the full product —
    and hence its normalization/rounding carry — is exactly predictable:
    the hypothesis builds x = (E_x_guess, significand), multiplies by the
    known operand in IEEE-754, and reads off the exponent field.
    """
    if not 1 << 52 <= significand < 1 << 53:
        raise ValueError(f"significand out of range: {significand:#x}")
    mant = _U(significand) & _MANT_MASK
    x_patterns = (np.asarray(guesses, dtype=_U) << _U(52)) | mant

    def exp_field(y, x):
        # Extreme wrong guesses overflow to inf — a legal (useless)
        # hypothesis for those columns, so silence the FP warning.
        with np.errstate(over="ignore", under="ignore"):
            prod = y.view(np.float64) * x.view(np.float64)
        return (prod.view(_U) >> _U(52)) & _U(0x7FF)

    return _hw_outer(exp_field, x_patterns, y_patterns)


def hyp_sign(y_patterns: np.ndarray) -> np.ndarray:
    """(D, 2) hypothesis for the result sign: guess s_x in {0, 1}."""
    sy = known_sign(y_patterns)
    return _hw_outer(lambda k, g: k ^ g, np.array([0, 1]), sy)
