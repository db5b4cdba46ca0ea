"""Benchmark-side span recorder and the per-layer shims of the traced run.

Nothing under ``src/`` is instrumented for the benchmark: the traced run
replaces each layer's public function *at the name its caller binds*
(``repro.attack.ladder.hyp_product``, not
``repro.attack.hypotheses.hyp_product``) with a wrapper that records a
span, then restores every binding afterwards. A span is a name, a start,
an end, the span that caused it and the run id; spans stay in memory and
are written out once, when the run ends. Work counts (cells, rows,
bytes) are derived from argument and return shapes, after the span's end
timestamp, so counting never inflates the layer's own time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder", "SHIMS", "installed", "layer_metrics", "PER_LAYER"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store for one traced run (single-threaded)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []   # shim bindings the program no longer has
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run=self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        s = self.spans[idx]
        s.end = time.perf_counter()
        self._stack.pop()
        return s

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, fn: Callable[..., Any], name: str, counter: Callable[..., dict] | None):
        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                s = self._close(idx)
            if counter is not None:
                s.counts.update(counter(args, kwargs, result))
            return result

        return shim

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": s.run, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": rows}, fh)


# -- work counters (args, kwargs, result) -> counts ------------------------


def _matrix_counts(_args, _kwargs, out) -> dict:
    return {"cells": float(out.shape[0] * out.shape[1]), "bytes_out": float(out.nbytes)}


def _score_counts(args, kwargs, _res) -> dict:
    hyp = args[1] if len(args) > 1 else kwargs["hyp"]
    return {"cells": float(hyp.shape[0] * hyp.shape[1]), "rows": float(hyp.shape[0])}


def _ladder_counts(_args, _kwargs, res) -> dict:
    cands = sum(len(st.candidates) for st in res.stages)
    surv = sum(len(st.survivors) for st in res.stages)
    return {"candidates": float(cands), "survivors": float(surv)}


def _prune_counts(args, kwargs, _res) -> dict:
    cands = args[1] if len(args) > 1 else kwargs["candidates"]
    return {"candidates": float(len(cands))}


def _rows_counts(_args, _kwargs, ts) -> dict:
    rows = sum(seg.n_traces for seg in ts.segments)
    nbytes = sum(seg.traces.nbytes + seg.known_y.nbytes for seg in ts.segments)
    return {"rows": float(rows), "bytes": float(nbytes)}


def _store_dir_bytes(_args, _kwargs, store) -> dict:
    total = 0
    for dirpath, _dirs, files in os.walk(store.path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return {"bytes": float(total)}


def _modules_count(_args, _kwargs, project) -> dict:
    return {"modules": float(len(project.modules))}


#: (module, class or None, attribute, span name, counter). Each row is one
#: binding a caller looks up at call time.
SHIMS: tuple[tuple[str, str | None, str, str, Callable[..., dict] | None], ...] = (
    # repro.attack
    ("repro.attack.ladder", None, "hyp_product", "attack.hypotheses", _matrix_counts),
    ("repro.attack.extend_prune", None, "hyp_s_lo", "attack.hypotheses", _matrix_counts),
    ("repro.attack.extend_prune", None, "hyp_s_mid", "attack.hypotheses", _matrix_counts),
    ("repro.attack.extend_prune", None, "hyp_s_hi", "attack.hypotheses", _matrix_counts),
    ("repro.attack.sign_exp", None, "hyp_exp_sum", "attack.hypotheses", _matrix_counts),
    ("repro.attack.sign_exp", None, "hyp_exp_biased", "attack.hypotheses", _matrix_counts),
    ("repro.attack.sign_exp", None, "hyp_exp_out", "attack.hypotheses", _matrix_counts),
    ("repro.attack.sign_exp", None, "hyp_sign", "attack.hypotheses", _matrix_counts),
    ("repro.attack.distinguisher", "CpaDistinguisher", "score", "attack.distinguisher", _score_counts),
    ("repro.attack.extend_prune", None, "ladder_limb", "attack.ladder", _ladder_counts),
    ("repro.attack.extend_prune", None, "prune_candidates", "attack.extend_prune.prune", _prune_counts),
    ("repro.attack.extend_prune", None, "refine_limb", "attack.extend_prune.refine", None),
    ("repro.attack.coefficient", None, "recover_exponent", "attack.sign_exp.exponent", None),
    ("repro.attack.coefficient", None, "recover_sign", "attack.sign_exp.sign", None),
    ("repro.attack.key_recovery", None, "recover_coefficients", "attack.key_recovery.overhead", None),
    ("repro.attack.key_recovery", None, "rebuild_signing_key", "attack.key_recovery.rebuild", None),
    ("repro.attack.key_recovery", None, "repair_exponents", "attack.key_recovery.repair", None),
    ("repro.attack.session", "AttackSession", "record", "attack.session.record", None),
    # repro.leakage
    ("repro.leakage.capture", "CaptureCampaign", "capture", "leakage.capture", _rows_counts),
    ("repro.leakage.capture", "CaptureCampaign", "materialize", "leakage.store.write", _store_dir_bytes),
    ("repro.leakage.store", "CampaignStore", "capture", "leakage.store.read", _rows_counts),
    # repro.targets
    ("repro.targets.samplerz", None, "traced_signing", "targets.samplerz.signing", None),
    ("repro.targets.samplerz", "SamplerZTarget", "recover", "targets.samplerz.recover", None),
    ("repro.targets.traced", "TracedContractTarget", "n_targets", "targets.traced.settrace", None),
    ("repro.targets.traced", "TracedContractTarget", "capture_traceset", "targets.traced.capture", None),
    ("repro.targets.traced", "TracedContractTarget", "recover", "targets.traced.recover", None),
    # repro.falcon
    ("repro.falcon.keygen", None, "keygen", "falcon.keygen", None),
    ("repro.falcon.keygen", None, "ntru_solve", "falcon.ntru_solve", None),
    ("repro.attack.key_recovery", None, "ntru_solve", "falcon.ntru_solve", None),
    ("repro.falcon.sign", None, "sign", "falcon.sign", None),
    ("repro.attack.key_recovery", None, "sign", "falcon.sign", None),
    ("repro.falcon.verify", None, "verify", "falcon.verify", None),
    ("repro.attack.pipeline", None, "verify", "falcon.verify", None),
    # repro.obs
    ("repro.obs.journal", "RunJournal", "emit", "obs.journal.emit", None),
    # repro.sast
    ("repro.sast.project", None, "load_project", "sast.project.load", _modules_count),
    ("repro.sast.cli", None, "run_taint", "sast.taint", None),
    ("repro.sast.cli", None, "run_determinism", "sast.determinism", None),
    ("repro.sast.cli", None, "run_concurrency", "sast.concurrency", None),
    ("repro.sast.contract", None, "load_contract", "sast.contract.load", None),
    ("repro.sast.contract", None, "verify_contract", "sast.contract.verify", None),
    ("repro.sast.exploit", None, "rank_entries", "sast.exploit.rank", None),
)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every binding in :data:`SHIMS` for the duration of the block.

    A binding the program no longer has is listed in ``recorder.missing``
    (its layer then reads 0) instead of failing the run.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for mod_name, cls_name, attr, name, counter in SHIMS:
            try:
                owner: Any = importlib.import_module(mod_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                recorder.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, counter))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

#: (metric name, unit), in report order. Layers a workload never enters
#: report 0: the traced run measured no calls there.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("attack.hypotheses.calls", "count"),
    ("attack.hypotheses.busy_s", "s"),
    ("attack.hypotheses.cells", "count"),
    ("attack.hypotheses.cells_per_s", "1/s"),
    ("attack.hypotheses.bytes_out", "B"),
    ("attack.distinguisher.calls", "count"),
    ("attack.distinguisher.busy_s", "s"),
    ("attack.distinguisher.cells", "count"),
    ("attack.distinguisher.cells_per_s", "1/s"),
    ("attack.distinguisher.rows", "count"),
    ("attack.ladder.self_s", "s"),
    ("attack.ladder.candidates", "count"),
    ("attack.ladder.survivor_ratio", "frac"),
    ("attack.ladder.true_rank_max", "count"),
    ("attack.ladder.beam_losses", "count"),
    ("attack.extend_prune.prune_s", "s"),
    ("attack.extend_prune.refine_s", "s"),
    ("attack.extend_prune.prune_candidates", "count"),
    ("attack.extend_prune.refine_rounds", "count"),
    ("attack.sign_exp.exponent_s", "s"),
    ("attack.sign_exp.sign_s", "s"),
    ("attack.key_recovery.rebuild_s", "s"),
    ("attack.key_recovery.repair_calls", "count"),
    ("attack.key_recovery.repair_s", "s"),
    ("attack.key_recovery.overhead_s", "s"),
    ("attack.key_recovery.target_p50_s", "s"),
    ("attack.key_recovery.target_p99_s", "s"),
    ("attack.quality.exact_frac", "frac"),
    ("attack.quality.dema_exact", "count"),
    ("attack.quality.repaired", "count"),
    ("attack.quality.sign_margin_min", "score"),
    ("attack.quality.exponent_margin_min", "score"),
    ("attack.quality.mantissa_margin_min", "score"),
    ("attack.session.checkpoints", "count"),
    ("attack.session.record_s", "s"),
    ("falcon.keygen_s", "s"),
    ("falcon.ntru_solve_s", "s"),
    ("falcon.sign_s", "s"),
    ("falcon.verify_s", "s"),
    ("leakage.capture.calls", "count"),
    ("leakage.capture.busy_s", "s"),
    ("leakage.capture.rows", "count"),
    ("leakage.capture.rows_per_s", "1/s"),
    ("leakage.store.write_s", "s"),
    ("leakage.store.bytes_written", "B"),
    ("leakage.store.write_mb_per_s", "MB/s"),
    ("leakage.store.read_s", "s"),
    ("leakage.store.bytes_read", "B"),
    ("leakage.store.read_mb_per_s", "MB/s"),
    ("obs.journal.events", "count"),
    ("obs.journal.emit_s", "s"),
    ("obs.journal.bytes", "B"),
    ("targets.samplerz.signing_s", "s"),
    ("targets.samplerz.recover_calls", "count"),
    ("targets.samplerz.recover_s", "s"),
    ("targets.traced.capture_s", "s"),
    ("targets.traced.hits", "count"),
    ("targets.traced.recover_s", "s"),
    ("sast.gate_s", "s"),
    ("sast.project.load_s", "s"),
    ("sast.project.modules", "count"),
    ("sast.taint.run_s", "s"),
    ("sast.determinism.run_s", "s"),
    ("sast.concurrency.run_s", "s"),
    ("sast.contract.load_s", "s"),
    ("sast.contract.verify_s", "s"),
    ("sast.exploit.rank_s", "s"),
    ("sast.cache.cold_s", "s"),
    ("sast.cache.warm_noop_s", "s"),
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("env.calib_cells_per_s", "1/s"),
)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(recorder: SpanRecorder, roots: tuple[str, ...]) -> dict[str, float]:
    """Per-layer self times and work counts from one traced run.

    ``roots`` names the benchmark-side spans whose self time is the
    unattributed remainder (time inside the measured phase that no
    layer span covers).
    """
    selfs = recorder.self_times()
    agg: dict[str, dict[str, float]] = {}
    refine_rounds = 0
    prune_outside_refine = 0.0
    for i, s in enumerate(recorder.spans):
        a = agg.setdefault(s.name, {"calls": 0.0, "busy": 0.0, "self": 0.0})
        a["calls"] += 1
        a["busy"] += s.duration
        a["self"] += selfs[i]
        for k, v in s.counts.items():
            a[k] = a.get(k, 0.0) + v
        if s.name == "attack.extend_prune.prune":
            if s.parent is not None and recorder.spans[s.parent].name == "attack.extend_prune.refine":
                refine_rounds += 1
            else:
                prune_outside_refine += s.duration

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    for layer in ("hypotheses", "distinguisher"):
        n = f"attack.{layer}"
        m[f"{n}.calls"] = get(n, "calls")
        m[f"{n}.busy_s"] = get(n, "busy")
        m[f"{n}.cells"] = get(n, "cells")
        m[f"{n}.cells_per_s"] = _rate(get(n, "cells"), get(n, "busy"))
    m["attack.hypotheses.bytes_out"] = get("attack.hypotheses", "bytes_out")
    m["attack.distinguisher.rows"] = get("attack.distinguisher", "rows")
    m["attack.ladder.self_s"] = get("attack.ladder", "self")
    m["attack.ladder.candidates"] = get("attack.ladder", "candidates")
    m["attack.ladder.survivor_ratio"] = _rate(
        get("attack.ladder", "survivors"), get("attack.ladder", "candidates"))
    # Composite phases report inclusive time (their hypothesis and
    # distinguisher calls included); a prune nested in a refine round
    # counts toward refine_s only.
    m["attack.extend_prune.prune_s"] = prune_outside_refine
    m["attack.extend_prune.refine_s"] = get("attack.extend_prune.refine", "busy")
    m["attack.extend_prune.prune_candidates"] = get("attack.extend_prune.prune", "candidates")
    m["attack.extend_prune.refine_rounds"] = float(refine_rounds)
    m["attack.sign_exp.exponent_s"] = get("attack.sign_exp.exponent", "busy")
    m["attack.sign_exp.sign_s"] = get("attack.sign_exp.sign", "busy")
    m["attack.key_recovery.rebuild_s"] = get("attack.key_recovery.rebuild", "busy")
    m["attack.key_recovery.repair_calls"] = get("attack.key_recovery.repair", "calls")
    m["attack.key_recovery.repair_s"] = get("attack.key_recovery.repair", "busy")
    m["attack.key_recovery.overhead_s"] = get("attack.key_recovery.overhead", "self")
    m["attack.session.checkpoints"] = get("attack.session.record", "calls")
    m["attack.session.record_s"] = get("attack.session.record", "busy")
    for fn in ("keygen", "ntru_solve", "sign", "verify"):
        m[f"falcon.{fn}_s"] = get(f"falcon.{fn}", "busy")
    # Capture and store writes exclude what they call (the surface's
    # victim signing, the captures a materialize runs).
    m["leakage.capture.calls"] = get("leakage.capture", "calls")
    m["leakage.capture.busy_s"] = get("leakage.capture", "self")
    m["leakage.capture.rows"] = get("leakage.capture", "rows")
    m["leakage.capture.rows_per_s"] = _rate(get("leakage.capture", "rows"), get("leakage.capture", "self"))
    for kind in ("write", "read"):
        n = f"leakage.store.{kind}"
        m[f"leakage.store.{kind}_s"] = get(n, "self")
        m[f"leakage.store.bytes_{'written' if kind == 'write' else 'read'}"] = get(n, "bytes")
        m[f"leakage.store.{kind}_mb_per_s"] = _rate(get(n, "bytes") / 1e6, get(n, "self"))
    m["obs.journal.events"] = get("obs.journal.emit", "calls")
    m["obs.journal.emit_s"] = get("obs.journal.emit", "self")
    m["targets.samplerz.signing_s"] = get("targets.samplerz.signing", "busy")
    m["targets.samplerz.recover_calls"] = get("targets.samplerz.recover", "calls")
    m["targets.samplerz.recover_s"] = get("targets.samplerz.recover", "busy")
    # the settrace replay runs once per surface, when the engine first
    # asks for the target count; each hit is then one captured target
    m["targets.traced.capture_s"] = (
        get("targets.traced.settrace", "busy") + get("targets.traced.capture", "busy"))
    m["targets.traced.hits"] = get("targets.traced.capture", "calls")
    m["targets.traced.recover_s"] = get("targets.traced.recover", "busy")
    m["sast.gate_s"] = get("gate", "busy")
    m["sast.project.load_s"] = get("sast.project.load", "self")
    m["sast.project.modules"] = get("sast.project.load", "modules")
    for p in ("taint", "determinism", "concurrency"):
        m[f"sast.{p}.run_s"] = get(f"sast.{p}", "self")
    m["sast.contract.load_s"] = get("sast.contract.load", "self")
    m["sast.contract.verify_s"] = get("sast.contract.verify", "self")
    m["sast.exploit.rank_s"] = get("sast.exploit.rank", "self")
    # the cold cache call's own work: file digests and persisting results
    m["sast.cache.cold_s"] = get("sast.cache.cold", "self")
    m["sast.cache.warm_noop_s"] = get("sast.cache.warm_noop", "self")
    root_self = sum(get(r, "self") for r in roots)
    root_total = sum(get(r, "busy") for r in roots)
    m["trace.unattributed_s"] = root_self
    m["trace.unattributed_frac"] = _rate(root_self, root_total)
    return m
