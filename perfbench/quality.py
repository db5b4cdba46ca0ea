"""Ground-truth attack-quality counts for the fpr-mul key-recovery attack.

Computed from outside the attack: the true secret doubles come from the
victim key the benchmark generated (FFT(f) in capture order), and the
attack's returned diagnostics (ladder stages, prune and exponent scores,
sign scores) are ranked against them. Everything here is a pure function
of the seeded run, so a given seed repeats every count exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

_MANT = (1 << 52) - 1
_LOW_BITS = 25
_HIGH_BITS = 27  # the high limb's MSB is the implicit 1, never guessed


def true_patterns(sk: Any) -> list[int]:
    """The victim's secret doubles as u64 patterns, in target order."""
    from repro.leakage.capture import fft_to_doubles

    doubles = np.ascontiguousarray(fft_to_doubles(sk.f_fft), dtype=np.float64)
    return [int(p) for p in doubles.view(np.uint64)]


def _margin(scores: np.ndarray, values: np.ndarray, true_value: int) -> float | None:
    """True candidate's score minus the best other one (None if absent)."""
    hit = np.flatnonzero(values == np.uint64(true_value))
    if hit.size == 0:
        return None
    others = np.delete(scores, hit)
    if others.size == 0:
        return None
    return float(scores[hit[0]] - others.max())


def _stage_ranks(ladder: Any, limb: int) -> tuple[list[int | None], int]:
    """True prefix's 1-based rank at every ladder stage, and beam losses.

    A rank is ``None`` once the true prefix is no longer a candidate; a
    beam loss is a stage whose survivors no longer contain it.
    """
    ranks: list[int | None] = []
    losses = 0
    for st in ladder.stages:
        prefix = np.uint64(limb & ((1 << st.covered_bits) - 1))
        hit = np.flatnonzero(st.candidates == prefix)
        if hit.size == 0:
            ranks.append(None)
        else:
            ranks.append(1 + int(np.count_nonzero(st.scores > st.scores[hit[0]])))
        if not np.any(st.survivors == prefix):
            losses += 1
    return ranks, losses


def coefficient_quality(rec: Any, true_pattern: int, secret_ok: bool) -> dict[str, Any]:
    """One coefficient: DEMA-exact or repaired, ranks and margins."""
    sig = (true_pattern & _MANT) | (1 << 52)
    low, high = sig & ((1 << _LOW_BITS) - 1), (sig >> _LOW_BITS) & ((1 << _HIGH_BITS) - 1)
    low_ranks, low_losses = _stage_ranks(rec.mantissa.low.ladder, low)
    high_ranks, high_losses = _stage_ranks(rec.mantissa.high.ladder, high)
    true_sign = true_pattern >> 63
    sign_scores = np.zeros(2)
    for r in rec.sign.results:
        sign_scores += r.scores[np.argsort(r.guesses)]
    true_exp = (true_pattern >> 52) & 0x7FF
    exact = rec.pattern == true_pattern
    return {
        "target": rec.target_index,
        "dema_exact": exact,
        "repaired": (not exact) and secret_ok,
        "exponent_offset": int(rec.exponent.biased_exponent) - true_exp,
        "ladder_ranks_low": low_ranks,
        "ladder_ranks_high": high_ranks,
        "beam_losses": low_losses + high_losses,
        "sign_margin": float(sign_scores[true_sign] - sign_scores[1 - true_sign]),
        "exponent_margin": _margin(rec.exponent.combined_scores, rec.exponent.guesses, true_exp),
        "mantissa_margin": _margin(
            rec.mantissa.high.prune_scores, rec.mantissa.high.candidates,
            (sig >> _LOW_BITS),
        ),
    }


def summarize(per_coeff: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer quality metrics over every attacked coefficient."""
    ranks = [
        r for q in per_coeff
        for r in q["ladder_ranks_low"] + q["ladder_ranks_high"] if r is not None
    ]

    def low(key: str) -> float:
        vals = [q[key] for q in per_coeff if q[key] is not None]
        return float(min(vals)) if vals else 0.0

    return {
        "attack.ladder.true_rank_max": float(max(ranks, default=0)),
        "attack.ladder.beam_losses": float(sum(q["beam_losses"] for q in per_coeff)),
        "attack.quality.repaired": float(sum(q["repaired"] for q in per_coeff)),
        "attack.quality.sign_margin_min": low("sign_margin"),
        "attack.quality.exponent_margin_min": low("exponent_margin"),
        "attack.quality.mantissa_margin_min": low("mantissa_margin"),
    }
