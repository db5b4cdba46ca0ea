"""The worker body: lease, attack, heartbeat, checkpoint, complete.

A farm worker is an ordinary OS process running :func:`worker_loop`
against a farm directory. It owns no special state — everything a job
needs is regenerated from the :class:`~repro.farm.spec.CampaignSpec`
(the victim key from its seed, the corpus from the capture config), and
everything a job produces lands in the job's own store/session/journal
under the farm root. Kill a worker at any instant and nothing is lost:
finished coefficients are already checkpointed by
:class:`~repro.attack.session.AttackSession`, the lease expires, the
queue re-queues the job, and the successor replays the checkpoints and
attacks only what is missing — the final report is bit-identical to an
uninterrupted run (the determinism contract the whole reproduction is
built on).

Cancellation is cooperative at coefficient granularity: the worker
checks the job's cancel marker from the attack's progress callback and
raises :class:`~repro.farm.queue.JobCancelled` between coefficients,
so a canceled job's evidence stays resumable too.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Optional

from repro.attack.key_recovery import ProgressEvent
from repro.attack.pipeline import FullAttackReport, full_attack
from repro.falcon.keygen import keygen
from repro.falcon.params import FalconParams
from repro.farm.queue import FarmError, FarmQueue, JobCancelled
from repro.farm.spec import CampaignSpec, Job
from repro.leakage.device import DeviceModel
from repro.obs import metrics
from repro.obs.journal import RunJournal

__all__ = [
    "execute_job",
    "result_payload",
    "run_campaign",
    "worker_loop",
]

#: Fraction of the lease TTL between heartbeats (3 beats per TTL keeps
#: one dropped beat from costing the lease).
_HEARTBEAT_FRACTION = 1.0 / 3.0


def run_campaign(
    spec: CampaignSpec,
    store_dir: Optional[str] = None,
    session_dir: Optional[str] = None,
    journal: Optional[RunJournal] = None,
    progress_callback: Optional[Callable[[ProgressEvent], None]] = None,
    n_workers: Optional[int] = None,
) -> FullAttackReport:
    """One campaign spec -> one :func:`~repro.attack.pipeline.full_attack`.

    This is the *entire* mapping from a farm job to the attack engine —
    the farm adds scheduling, not a second attack path — and it is the
    same function the smoke test calls directly (no queue, no session)
    to produce the reference reports that farm results must match
    bit-identically.
    """
    params = FalconParams.get(spec.n)
    sk, pk = keygen(params, seed=spec.key_seed.encode())
    device = DeviceModel(noise_sigma=spec.noise_sigma, seed=spec.device_seed)
    return full_attack(
        sk,
        pk,
        n_traces=spec.capture.n_traces,
        device=device,
        config=spec.attack,
        message=spec.message.encode(),
        mode=spec.capture.mode,
        seed=spec.capture.seed,
        target=spec.capture.target,
        progress_callback=progress_callback,
        n_workers=n_workers,
        store=store_dir if spec.use_store else None,
        session=session_dir,
        journal=journal,
    )


def result_payload(report: FullAttackReport) -> dict[str, Any]:
    """The durable result record: outcome + the bit-identity fingerprint.

    ``fingerprint`` is the recovered secret itself — the per-call
    sampler outputs for value surfaces, otherwise the recovered fpr
    patterns per coefficient — so two runs of the same spec can be
    compared for bit-identity from their job records alone.
    """
    result = report.key_recovery
    fingerprint = result.recovered_values or [
        c.pattern for c in result.coefficients
    ]
    telemetry = report.telemetry
    return {
        "succeeded": bool(report.succeeded),
        "key_correct": bool(report.key_correct),
        "forgery_verifies": bool(report.forgery_verifies),
        "n_correct_coefficients": int(report.n_correct_coefficients),
        "n_coefficients": int(report.n_coefficients),
        "target": report.target,
        "failure": report.failure,
        "fingerprint": [int(v) for v in fingerprint],
        "elapsed_seconds": float(report.elapsed_seconds),
        "checkpoints_written": 0 if telemetry is None else telemetry.checkpoints_written,
        "checkpoints_restored": 0 if telemetry is None else telemetry.checkpoints_restored,
    }


def execute_job(
    queue: FarmQueue,
    job: Job,
    worker_id: str,
    lease_ttl: float,
    throttle_s: float = 0.0,
    job_workers: Optional[int] = None,
) -> dict[str, Any]:
    """Run one leased job to completion; returns the result payload.

    The attack's progress callback doubles as the worker's liveness
    loop: after every finished coefficient it heartbeats the lease
    (when a third of the TTL has passed) and checks the cancel marker,
    raising :class:`JobCancelled` to stop at the next coefficient
    boundary. ``throttle_s`` inserts a sleep per progress event —
    production leaves it 0; failure-injection tests use it to hold a
    job open long enough to kill the worker mid-lease.

    A lost lease (:class:`FarmError` from the heartbeat) aborts the
    job body immediately: a successor already owns it, and finishing
    anyway would double-write the job record.
    """
    last_beat = queue.clock()
    beat_every = max(lease_ttl * _HEARTBEAT_FRACTION, 0.05)

    def _pulse(event: ProgressEvent) -> None:
        nonlocal last_beat
        if throttle_s > 0.0:
            time.sleep(throttle_s)
        if queue.cancel_requested(job.job_id):
            raise JobCancelled(job.job_id)
        now = queue.clock()
        if now - last_beat >= beat_every:
            queue.heartbeat(job.job_id, worker_id, lease_ttl)
            last_beat = now
        if event.stage == "coefficient":
            queue.journal(
                "progress",
                job=job.job_id,
                worker=worker_id,
                completed=event.completed,
                total=event.total,
            )

    with RunJournal(str(queue.job_journal_path(job.job_id))) as journal:
        report = run_campaign(
            job.spec,
            store_dir=str(queue.store_dir(job.job_id)),
            session_dir=str(queue.session_dir(job.job_id)),
            journal=journal,
            progress_callback=_pulse,
            n_workers=job_workers,
        )
    return result_payload(report)


def worker_loop(
    root: str,
    worker_id: str,
    lease_ttl: float = 30.0,
    poll_s: float = 0.2,
    drain: bool = False,
    max_jobs: Optional[int] = None,
    throttle_s: float = 0.0,
    job_workers: Optional[int] = None,
) -> int:
    """Claim-and-run loop for one worker process; returns jobs finished.

    ``drain=True`` exits when the queue has nothing claimable (the batch
    mode the smoke test and ``farm worker --drain`` use); otherwise the
    worker polls forever. ``max_jobs`` bounds how many jobs this worker
    will take (failure-injection tests use 1). Back-pressure is honored
    on claim: when the farm's ``max_concurrent`` leases are already out,
    the worker backs off instead of piling on.
    """
    queue = FarmQueue(root)
    finished = 0
    while max_jobs is None or finished < max_jobs:
        limits = queue.read_limits()
        max_concurrent = limits.get("max_concurrent")
        job = queue.claim(
            worker_id,
            lease_ttl,
            max_concurrent=None if max_concurrent is None else int(max_concurrent),
        )
        if job is None:
            if drain:
                break
            time.sleep(poll_s)
            continue
        try:
            payload = execute_job(
                queue, job, worker_id, lease_ttl,
                throttle_s=throttle_s, job_workers=job_workers,
            )
        except JobCancelled:
            queue.mark_canceled(job.job_id, worker_id)
            finished += 1
        except FarmError:
            # The lease changed hands (we stalled past the TTL and were
            # re-queued). The successor owns the job now — walk away.
            metrics.inc("farm.jobs_abandoned", 1)
        except Exception as exc:
            queue.fail(
                job.job_id,
                worker_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=8)}",
            )
            finished += 1
        else:
            queue.complete(job.job_id, worker_id, payload)
            finished += 1
    return finished
