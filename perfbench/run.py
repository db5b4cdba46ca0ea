#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fprmul-n8 --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and the sast workload reads ``leakage-contract.json``. The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/README.md``).
The line before it is the environment record. Untraced times are in
reference seconds: wall time divided by the host's speed factor, sampled
around and inside each measured block (``perfbench.env.HostClock``).
Every run also leaves a
full record (per-unit results, attack-quality counts, spans when traced)
under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: end-to-end metrics (``--trace 0``) and their units
E2E: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("attack_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("secret_ok", "frac"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of the process less the host clock's buffers.

    The reference kernels' buffers are allocated and touched before the
    measured work starts and stay resident, so they add exactly their
    size to the peak.
    """
    from perfbench.env import reference_bytes

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (kib * 1024 - reference_bytes()) / 2**20


def end_to_end(setup_s: float, units: list[Any], warmup_rounds: int) -> dict[str, float]:
    """``warmup_rounds``: the run's first rounds, checked but not timed."""
    rounds = [t / f for u in units for t, f in zip(u.attack_s, u.attack_factor)]
    return {
        "setup_s": setup_s,
        "attack_ref_s": _median(rounds[warmup_rounds:]),
        "peak_rss_mb": peak_rss_mb(),
        "secret_ok": sum(u.secret_ok for u in units) / len(units) if units else 0.0,
    }


def unit_metrics(unit: Any) -> dict[str, float]:
    """Per-layer figures read off the traced unit's own output."""
    return {
        "attack.quality.exact_frac": unit.n_exact / unit.n_targets if unit.n_targets else 0.0,
        "attack.quality.dema_exact": float(unit.n_exact),
        "attack.key_recovery.target_p50_s": _median(unit.target_s),
        "attack.key_recovery.target_p99_s": (  # linear interpolation, as numpy's default
            statistics.quantiles(unit.target_s, n=100, method="inclusive")[98]
            if len(unit.target_s) > 1 else 0.0),
        **unit.layer_metrics,
    }


def run(wl: Any, seed: int, seconds: float, trace: bool, work_root: str,
        out_dir: str) -> dict[str, Any]:
    """Set up, measure for ``seconds`` (at least one unit) and check.

    A failed check or an exception is one failed operation; it never
    stops the run. ``trace`` runs one untraced unit, then one traced
    set-up and unit, and reports per-layer metrics instead; the host
    clock is off then, so per-layer times are plain wall seconds.

    The victim (set-up repetition 0) is set up first, untimed; the
    ``setup_reps`` timed repetitions that follow set up a fixed key set.
    Set-up times are in reference seconds on every workload.
    """
    from perfbench import env, tracing, workloads

    inputs = workloads.derive_inputs(wl.name, seed)
    run_id = f"{wl.name}-seed{seed}-trace{int(trace)}"
    env_record = env.record()
    speeds = [env.calibrate()]
    # set-up is keygen, interpreter-bound big-integer arithmetic
    setup_clock = env.HostClock(() if trace else env.PYTHON)
    clock = env.HostClock(() if trace else wl.host_kernels)
    units: list[Any] = []
    counts = {"attempted": 0, "failed": 0}
    errors: list[str] = []

    def attempt(fn: Any, ops: int = 1) -> Any:
        try:
            return fn()
        except Exception:
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            counts["attempted"] += ops
            counts["failed"] += ops
            return None

    def one_unit(state: Any, rec: Any) -> Any:
        work = os.path.join(work_root, f"{run_id}-{len(units)}")
        u = attempt(lambda: wl.unit(state, work, rec, clock), ops=wl.ops)
        if u is not None:
            counts["attempted"] += wl.ops
            counts["failed"] += min(len(u.failures), wl.ops)
            errors.extend(u.failures)
            units.append(u)
        return u

    setup_times: list[float] = []
    state = attempt(lambda: wl.setup(inputs, 0))
    timed_reps = wl.setup_reps if state is not None and not trace else 0
    with setup_clock.block() as setup_block:
        for rep in range(1, 1 + timed_reps):
            t0, spent0 = time.perf_counter(), setup_clock.spent
            ok = attempt(lambda: wl.setup(inputs, rep)) is not None
            setup_times.append(time.perf_counter() - t0 - (setup_clock.spent - spent0))
            if not ok:
                break
            setup_clock.sample()   # n=8 keygens are shorter than the timer's interval

    metrics: dict[str, float] = {}
    recorder = None
    if state is not None and not trace:
        start = time.perf_counter()
        while True:
            one_unit(state, None)
            if time.perf_counter() - start >= seconds:
                break
        metrics = end_to_end(_median(setup_times) / setup_block.factor, units, wl.warmup_rounds)
    elif state is not None:
        base = one_unit(state, None)
        recorder = tracing.SpanRecorder(run_id)
        with tracing.installed(recorder):
            with recorder.span("setup"):
                traced_state = attempt(lambda: wl.setup(inputs))
            cpu0, wall0 = time.process_time(), time.perf_counter()
            traced = one_unit(traced_state, recorder) if traced_state is not None else None
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        metrics = tracing.layer_metrics(recorder, roots=("attack", "gate"))
        if traced is not None:
            metrics.update(unit_metrics(traced))
            if base is not None and base.attack_s:
                metrics["trace.overhead_frac"] = sum(traced.attack_s) / sum(base.attack_s) - 1.0
        metrics["process.cpu_s"] = cpu
        metrics["process.cpu_per_wall"] = cpu / wall if wall > 0 else 0.0

    speeds.append(env.calibrate())
    if trace:
        metrics["env.calib_cells_per_s"] = statistics.median(speeds)
    spec = tracing.PER_LAYER if trace else E2E
    result = {
        "correct": counts["attempted"] > 0 and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in spec
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{run_id}.json"), "w") as fh:
        json.dump({
            "workload": wl.name, "seed": seed, "trace": trace,
            "inputs": {"key_seed": inputs.key_seed.hex(), "capture_seed": inputs.capture_seed,
                       "message": inputs.message.decode()},
            "env": env_record, "setup_times": setup_times, "setup_factor": setup_block.factor,
            "calib_cells_per_s": speeds, "host_samples": setup_clock.samples + clock.samples,
            "units": [asdict(u) for u in units], "errors": errors, "result": result,
        }, fh, indent=1)
    if recorder is not None:
        recorder.write(os.path.join(out_dir, f"{run_id}.spans.json"))
    result["env"] = {**env_record, "calib_cells_per_s": statistics.median(speeds),
                     "host_factor": setup_clock.factor()}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.env import THREAD_VARS

    # One attack at a time: cap BLAS/OpenMP threads before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_CONTRACT"] = os.path.join(ROOT, "leakage-contract.json")
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, "perfbench", "_work")
    try:
        result = run(workloads.make(args.workload, ROOT), args.seed, args.seconds,
                     bool(args.trace), work_root, os.path.join(ROOT, "perfbench", "_out"))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("env " + json.dumps(result.pop("env"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
