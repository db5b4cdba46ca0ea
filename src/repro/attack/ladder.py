"""LSB-to-MSB candidate ladder over a secret mantissa limb.

The paper enumerates all 2^25 (low limb) and 2^27 (high limb) guesses on
a workstation. The ladder reaches the same candidates with laptop-sized
work by exploiting a carry property of multiplication: the low m bits of
``secret * known`` depend only on the low m bits of the secret. Guesses
are therefore extended ``window`` bits at a time, scored by CPA with
HW((guess * known) mod 2^m) hypotheses against the partial-product
samples, and only the ``beam`` best survivors are carried forward.

This is itself an extend-and-prune in the template-attack sense; the
paper's *novel* extend-and-prune (multiplication -> addition re-ranking,
:mod:`repro.attack.extend_prune`) is applied after the ladder to kill
the shift-aliased false positives that survive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.hypotheses import hyp_product, known_limbs
from repro.leakage.traceset import TraceSet

__all__ = ["LadderStage", "LadderResult", "ladder_limb"]

#: (step label, which known limb multiplies the secret limb there)
LOW_LIMB_STEPS = (("p_ll", "lo"), ("p_lh", "hi"))
HIGH_LIMB_STEPS = (("p_hl", "lo"), ("p_hh", "hi"))


@dataclass
class LadderStage:
    """Diagnostics for one extension stage."""

    covered_bits: int
    candidates: np.ndarray       # (C,) candidate limb values (low covered_bits)
    scores: np.ndarray           # (C,) combined CPA scores
    survivors: np.ndarray        # (<=beam,) best candidates carried forward


@dataclass
class LadderResult:
    """Final candidates (best-first) plus per-stage diagnostics."""

    candidates: np.ndarray
    scores: np.ndarray
    stages: list[LadderStage]

    @property
    def best(self) -> int:
        return int(self.candidates[0])


def _segment_knowns(traceset: TraceSet, use_both: bool):
    segs = traceset.segments if use_both else traceset.segments[:1]
    out = []
    for seg in segs:
        y_lo, y_hi = known_limbs(seg.known_y)
        out.append((seg, {"lo": y_lo, "hi": y_hi}))
    return out


def _score_candidates(
    traceset: TraceSet,
    steps: tuple[tuple[str, str], ...],
    candidates: np.ndarray,
    mask_bits: int | None,
    use_both: bool,
    chunk_rows: int | None = None,
    distinguisher=None,
) -> np.ndarray:
    """Summed distinguisher scores over segments and extend steps.

    Extend-phase hypotheses predict *masked* partial products (only the
    low ``mask_bits`` of the intermediate), so they are scored with
    ``exact=False`` — profiled distinguishers fall back to correlation
    here, because a masked prediction cannot be aligned with full-value
    HW classes.
    """
    from repro.attack.distinguisher import CpaDistinguisher

    dist = distinguisher or CpaDistinguisher(chunk_rows=chunk_rows)
    layout = traceset.layout
    total = np.zeros(len(candidates), dtype=np.float64)
    for seg, knowns in _segment_knowns(traceset, use_both):
        for label, which in steps:
            hyp = hyp_product(knowns[which], candidates, mask_bits=mask_bits)
            window = seg.traces[:, layout.slice_of(label)]
            res = dist.score(hyp, window, candidates, label=label, exact=False)
            total += res.scores
    return total


def ladder_limb(  # sast: declassify(reason=extend-and-prune ladder ranks attacker hypotheses; timing of this code is not part of the threat model)
    traceset: TraceSet,
    steps: tuple[tuple[str, str], ...],
    total_bits: int,
    window: int = 5,
    beam: int = 32,
    keep: int = 32,
    use_both_segments: bool = True,
    chunk_rows: int | None = None,
    distinguisher=None,
) -> LadderResult:
    """Recover candidates for one secret limb of ``total_bits`` bits."""
    if total_bits < 1:
        raise ValueError(f"total_bits must be >= 1, got {total_bits}")
    survivors = np.array([0], dtype=np.uint64)
    stages: list[LadderStage] = []
    covered = 0
    while covered < total_bits:
        step_bits = min(window, total_bits - covered)
        ext = np.arange(1 << step_bits, dtype=np.uint64) << np.uint64(covered)
        cands = np.unique((survivors[:, None] | ext[None, :]).ravel())
        covered += step_bits
        scores = _score_candidates(
            traceset, steps, cands, covered, use_both_segments,
            chunk_rows=chunk_rows, distinguisher=distinguisher,
        )
        order = np.argsort(-scores, kind="stable")
        n_keep = keep if covered >= total_bits else beam
        kept = cands[order[:n_keep]]
        # A secret limb whose low bits are zero produces a constant (all
        # zero) masked-product hypothesis at the early stages — zero
        # correlation by construction, not evidence against it. The
        # zero-extension of every previous survivor is therefore
        # unfalsified at this stage and must stay alive until the first
        # nonzero secret bit gives it a real score.
        kept = np.unique(np.concatenate([kept, survivors]))
        stage = LadderStage(
            covered_bits=covered,
            candidates=cands,
            scores=scores,
            survivors=kept,
        )
        stages.append(stage)
        survivors = stage.survivors
    # Every survivor is a final-stage candidate (the zero extension), and
    # the candidates are sorted, so each one's final score is a lookup.
    final = stages[-1]
    survivor_scores = final.scores[np.searchsorted(final.candidates, survivors)]
    order = np.argsort(-survivor_scores, kind="stable")
    return LadderResult(
        candidates=survivors[order], scores=survivor_scores[order], stages=stages
    )
