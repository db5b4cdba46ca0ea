"""Self-tests of the benchmark, on reduced-size workloads.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import env, tracing, workloads
from perfbench import run as bench

ROOT = bench.ROOT
SEED = 3


def _reduced(name: str, **overrides):
    wl = workloads.make(name, ROOT)
    wl.setup_reps = 2
    sizes = {
        "fprmul-n8": {"n_traces": 300, "noise_sigma": 2.0},
        "samplerz-n512": {"n": 16, "attack_rounds": 2},
        "sast-triage": {"top": 2, "attack_rounds": 2, "n_traces": 128},
    }[name]
    for key, value in {**sizes, **overrides}.items():
        setattr(wl, key, value)
    return wl


def _run(tmp_path, wl, trace: bool):
    """One benchmark run; returns (printed result, run record, spans or None)."""
    out = tmp_path / "out"
    result = bench.run(wl, SEED, 0.0, trace, str(tmp_path / "work"), str(out))
    run_id = f"{wl.name}-seed{SEED}-trace{int(trace)}"
    record = json.loads((out / f"{run_id}.json").read_text())
    spans_path = out / f"{run_id}.spans.json"
    spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else None
    return result, record, spans


def _values(result) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced reduced run of every workload."""
    out = {}
    for name in workloads.NAMES:
        tmp = tmp_path_factory.mktemp(name)
        out[name] = {trace: _run(tmp, _reduced(name), trace) for trace in (False, True)}
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_run_emits_every_metric(runs, name):
    for trace, spec in ((False, bench.E2E), (True, tracing.PER_LAYER)):
        result, record, _ = runs[name][trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics", "env"}
        assert result["correct"] and result["failed"] == 0, record["errors"]
        assert [(m, v["unit"]) for m, v in result["metrics"].items()] == list(spec)
    e2e = _values(runs[name][False][0])
    for metric, _ in bench.E2E:
        assert e2e[metric] > 0, metric
    assert runs[name][False][0]["env"]["calib_cells_per_s"] > 0


def test_benchmark_json_declares_what_the_runs_emit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def _subtree(spans, root: int) -> list[int]:
    def under(i):
        while i is not None:
            if i == root:
                return True
            i = spans[i]["parent"]
        return False

    return [i for i in range(len(spans)) if under(i)]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_self_times_account_for_attack_s(runs, name):
    result, record, spans = runs[name][True]
    rec = tracing.SpanRecorder("check")
    rec.spans = [tracing.Span(s["name"], s["start"], s["end"], s["parent"]) for s in spans]
    selfs = rec.self_times()
    roots = [i for i, s in enumerate(spans) if s["name"] in ("attack", "gate")]
    total = sum(rec.spans[i].duration for i in roots)
    inside = [i for r in roots for i in _subtree(spans, r)]
    assert sum(selfs[i] for i in inside) == pytest.approx(total, rel=1e-9)
    measured = sum(record["units"][-1]["attack_s"])
    assert total == pytest.approx(measured, rel=0.05, abs=0.02)
    assert _values(result)["trace.unattributed_frac"] < 0.1


def test_layer_shares_follow_the_workload_design(runs):
    def attack_s(name):
        return sum(runs[name][True][1]["units"][-1]["attack_s"])

    ladder = ("attack.hypotheses.busy_s", "attack.distinguisher.busy_s", "attack.ladder.self_s")
    fpr = _values(runs["fprmul-n8"][True][0])
    assert sum(fpr[k] for k in ladder) > 0.5 * attack_s("fprmul-n8")
    for other in ("samplerz-n512", "sast-triage"):
        assert all(_values(runs[other][True][0])[k] == 0.0 for k in ladder), other
    # the farm-job layers run on fprmul-n8: one shard and checkpoint per coefficient
    assert fpr["attack.session.checkpoints"] == 8 and fpr["leakage.store.bytes_written"] > 0
    assert fpr["obs.journal.events"] > 0 and fpr["obs.journal.bytes"] > 0
    sz = _values(runs["samplerz-n512"][True][0])
    per_target = ("leakage.capture.busy_s", "targets.samplerz.recover_s",
                  "attack.key_recovery.overhead_s")
    assert sum(sz[k] for k in per_target) > 0.5 * attack_s("samplerz-n512")
    assert sz["targets.samplerz.recover_calls"] == sz["leakage.capture.calls"] == 2 * 32
    sast = _values(runs["sast-triage"][True][0])
    assert sast["sast.project.modules"] > 0 and sast["targets.traced.hits"] > 0
    assert sast["sast.gate_s"] > sast["sast.taint.run_s"] > 0


def test_quality_counts_repeat_for_a_seed(runs):
    untraced = runs["fprmul-n8"][False][1]["units"][0]["quality"]
    traced = runs["fprmul-n8"][True][1]["units"][-1]["quality"]
    assert untraced == traced and len(untraced) == 8
    for q in untraced:
        ranks = q["ladder_ranks_low"] + q["ladder_ranks_high"]
        assert all(r is None or r >= 1 for r in ranks)
        if q["dema_exact"]:
            assert q["exponent_offset"] == 0 and q["sign_margin"] >= 0


def _doubled(fn):
    def slow(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return slow


def test_planted_hypothesis_slowdown_moves_only_the_ladder_workload(tmp_path, monkeypatch):
    """A 2x slower hypothesis builder shows in the layer and in fprmul-n8's
    attack_s, and never reaches samplerz-n512 (which builds no hypotheses)."""
    hyp = importlib.import_module("repro.attack.hypotheses")

    def measure(tag):
        """Per-layer metrics and the untraced unit's attack_s of both workloads."""
        out = {}
        for name in ("fprmul-n8", "samplerz-n512"):
            result, record, _ = _run(tmp_path / f"{name}-{tag}", _reduced(name, setup_reps=1), True)
            out[name] = (_values(result), sum(record["units"][0]["attack_s"]))
        return out

    base = measure("base")
    monkeypatch.setattr(hyp, "_hw_outer", _doubled(hyp._hw_outer))
    monkeypatch.setattr(hyp, "_hw_outer_pair", _doubled(hyp._hw_outer_pair))
    slow = measure("slow")
    (base_fpr, base_attack), (slow_fpr, slow_attack) = base["fprmul-n8"], slow["fprmul-n8"]
    grown = slow_fpr["attack.hypotheses.busy_s"] - base_fpr["attack.hypotheses.busy_s"]
    assert slow_fpr["attack.hypotheses.busy_s"] > 1.6 * base_fpr["attack.hypotheses.busy_s"]
    assert slow_attack > base_attack + 0.5 * grown
    (base_sz, base_sz_attack), (slow_sz, slow_sz_attack) = base["samplerz-n512"], slow["samplerz-n512"]
    assert base_sz["attack.hypotheses.calls"] == slow_sz["attack.hypotheses.calls"] == 0
    assert slow_sz_attack < 2 * base_sz_attack + 0.5


class _Flaky:
    """A workload whose every other unit raises."""

    name, setup_reps, ops, host_kernels, warmup_rounds = "flaky", 1, 1, (), 0

    def __init__(self):
        self.calls = 0

    def setup(self, inputs, rep=0):
        return {}

    def unit(self, state, work, rec, clock):
        self.calls += 1
        if self.calls % 2:
            raise RuntimeError("planted failure")
        return workloads.UnitResult(attack_s=[0.01], target_s=[0.01], n_targets=1, n_exact=1,
                                    secret_ok=True)


def test_failures_are_counted_not_fatal(tmp_path):
    wl = _Flaky()
    result = bench.run(wl, 1, 0.05, False, str(tmp_path / "w"), str(tmp_path / "o"))
    assert wl.calls >= 2
    assert result["attempted"] == wl.calls
    assert result["failed"] == (wl.calls + 1) // 2
    assert not result["correct"]


def test_inputs_are_derived_from_the_seed():
    a, b = workloads.derive_inputs("fprmul-n8", 1), workloads.derive_inputs("fprmul-n8", 2)
    assert a == workloads.derive_inputs("fprmul-n8", 1)
    assert a.key_seed != b.key_seed and a.capture_seed != b.capture_seed and a.message != b.message
    assert a.key_seed_of(0) == a.key_seed != a.key_seed_of(1)
    # the timed set-up keys are the same for every seed, distinct per repetition
    assert a.key_seed_of(1) == b.key_seed_of(1) != a.key_seed_of(2)


def test_host_clock_takes_sampling_out_and_scales_by_host_speed():
    clock = env.HostClock(env.PYTHON)
    with clock.block() as blk:
        clock.sample()
    assert len(clock.samples) == 3 and clock.spent > 0
    assert 0 <= blk.seconds < clock.spent
    assert blk.factor > 0 and blk.ref_seconds == blk.seconds / blk.factor
    # a host twice as slow on every kernel doubles the factor
    nominal = tuple(env.HostClock.NOMINAL[k] for k in env.PYTHON)
    fast, slow = env.HostClock(env.PYTHON), env.HostClock(env.PYTHON)
    fast.samples = [nominal]
    slow.samples = [tuple(2 * t for t in nominal), tuple(2 * t for t in nominal)]
    assert fast.factor() == pytest.approx(1.0) and slow.factor() == pytest.approx(2.0)
    assert slow.factor(first=1) == pytest.approx(2.0)
    # a traced surface's hook sees no kernel frame and is back afterwards
    events = []

    def tracer(frame, event, arg):
        events.append(frame.f_code.co_name)

    sys.settrace(tracer)
    try:
        clock.sample()
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(None)
    assert events == ["sample"]
    # the interval timer samples inside a long block and is gone afterwards
    timed = env.HostClock(env.PYTHON)
    handler = signal.getsignal(signal.SIGALRM)
    with timed.block() as blk:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(timed.samples) >= 4 and signal.getsignal(signal.SIGALRM) is handler
    assert 0.4 < blk.seconds < 0.5   # the in-block samples are taken out
    off = env.HostClock()
    with off.block() as blk:
        off.sample()
    assert off.samples == [] and blk.factor == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fprmul-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_binding_the_program_dropped_is_reported_not_fatal(monkeypatch):
    gone = ("repro.attack.ladder", None, "no_such_function", "attack.hypotheses", None)
    monkeypatch.setattr(tracing, "SHIMS", tracing.SHIMS + (gone,))
    ladder = importlib.import_module("repro.attack.ladder")
    original = ladder.hyp_product
    rec = tracing.SpanRecorder("check")
    with tracing.installed(rec):
        assert ladder.hyp_product is not original
    assert rec.missing == ["repro.attack.ladder.no_such_function"]
    assert ladder.hyp_product is original
