"""Job specifications and durable job records.

A :class:`CampaignSpec` is everything needed to reproduce one attack
campaign from nothing: the victim key is regenerated from its seed, the
capture corpus from the :class:`~repro.leakage.capture.CaptureConfig`,
and the attack from the :class:`~repro.attack.config.AttackConfig` —
the same determinism contract the rest of the reproduction is built on
(bit-identical results for identical specs, regardless of which worker
runs them or how often they are interrupted).

A :class:`Job` wraps one spec with its queue state. Both round-trip
through JSON exactly (tuples included, via the store layer's
``meta_to_jsonable`` convention), because the queue persists them with
:mod:`repro.utils.io` atomic writes and a restarted farm must read back
precisely what was submitted.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.attack.config import AttackConfig
from repro.leakage.capture import CaptureConfig

__all__ = [
    "CampaignSpec",
    "Job",
    "JobState",
    "JOB_FORMAT",
    "JOB_VERSION",
]

JOB_FORMAT = "falcon-down-farm-job"
JOB_VERSION = 1


class JobState(str, enum.Enum):
    """Lifecycle of one campaign job.

    ``PENDING -> RUNNING -> DONE | FAILED | CANCELED``; ``FAILED`` and
    ``CANCELED`` return to ``PENDING`` via resume, and an expired lease
    moves ``RUNNING`` back to ``PENDING`` (the successor resumes from
    the session checkpoints, so no finished coefficient is re-attacked).
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELED = "canceled"


@dataclass(frozen=True)
class CampaignSpec:
    """One reproducible attack campaign: who, what, and how.

    ``key_seed`` regenerates the victim key pair (``keygen(params,
    seed=key_seed.encode())``) inside whichever worker runs the job;
    no key material is ever queued. ``capture`` and ``attack`` are the
    existing config objects verbatim — the farm adds scheduling, not a
    parallel configuration language. ``use_store`` materializes the
    campaign into a per-job :class:`~repro.leakage.store.CampaignStore`
    under the farm root (capture once, resume from disk); the store is
    what the quota/eviction policy manages. ``noise_sigma`` configures
    the simulated acquisition device.
    """

    key_seed: str
    n: int = 8
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    noise_sigma: float = 10.0
    device_seed: int = 2021
    use_store: bool = True
    message: str = "farm forgery probe"

    @property
    def target(self) -> str:
        """The leakage surface this campaign attacks."""
        return self.capture.target

    @property
    def distinguisher(self) -> str:
        """The statistical engine every recovery step scores with."""
        return self.attack.distinguisher

    def to_jsonable(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        # JSON has no tuples; AttackConfig.exponent_guesses restores on load.
        out["attack"]["exponent_guesses"] = list(self.attack.exponent_guesses)
        return out

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "CampaignSpec":
        data = dict(obj)
        cap = dict(data.pop("capture", {}))
        # Jobs queued before the capture engine was fixed carry a
        # "backend" name; every value produced the same traces.
        cap.pop("backend", None)
        atk = dict(data.pop("attack", {}))
        if "exponent_guesses" in atk:
            atk["exponent_guesses"] = tuple(atk["exponent_guesses"])
        return cls(capture=CaptureConfig(**cap), attack=AttackConfig(**atk), **data)

    def digest(self) -> str:
        """Content fingerprint (stable across processes and restarts)."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:10]


@dataclass
class Job:
    """One spec plus its queue state — the unit the farm schedules."""

    job_id: str
    spec: CampaignSpec
    state: JobState = JobState.PENDING
    #: How many times a worker has started (or restarted) this job.
    attempts: int = 0
    #: Wall-clock submit time (operator display only, never a result).
    submitted_at: float = 0.0
    #: Final result payload written by the completing worker (the
    #: per-target fingerprint, success flags, telemetry counters).
    result: dict[str, Any] | None = None
    #: Why the job failed, if it did.
    error: str | None = None
    #: Monotonic completion sequence (assigned at DONE; drives the
    #: oldest-completed store eviction order).
    done_seq: int | None = None
    #: Whether the job's campaign store was evicted by the quota sweep.
    store_evicted: bool = False

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "format": JOB_FORMAT,
            "version": JOB_VERSION,
            "job_id": self.job_id,
            "spec": self.spec.to_jsonable(),
            "state": self.state.value,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "result": self.result,
            "error": self.error,
            "done_seq": self.done_seq,
            "store_evicted": self.store_evicted,
        }

    @classmethod
    def from_jsonable(cls, obj: dict[str, Any]) -> "Job":
        if obj.get("format") != JOB_FORMAT:
            raise ValueError(f"not a {JOB_FORMAT} record")
        return cls(
            job_id=str(obj["job_id"]),
            spec=CampaignSpec.from_jsonable(obj["spec"]),
            state=JobState(obj["state"]),
            attempts=int(obj.get("attempts", 0)),
            submitted_at=float(obj.get("submitted_at", 0.0)),
            result=obj.get("result"),
            error=obj.get("error"),
            done_seq=obj.get("done_seq"),
            store_evicted=bool(obj.get("store_evicted", False)),
        )

    def encode(self) -> str:
        return json.dumps(self.to_jsonable(), indent=1, sort_keys=True)

    @classmethod
    def decode(cls, text: str) -> "Job":
        return cls.from_jsonable(json.loads(text))
