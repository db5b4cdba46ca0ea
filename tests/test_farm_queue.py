"""Farm queue durability: leases, expiry, cancellation, torn files."""

import json
import os

import pytest

from repro.attack.config import AttackConfig
from repro.farm.control import format_status, tail_events
from repro.farm.queue import FarmError, FarmQueue
from repro.farm.spec import CampaignSpec, Job, JobState
from repro.leakage.capture import CaptureConfig


class FakeClock:
    """Deterministic time for lease-deadline tests."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    return FarmQueue(tmp_path / "farm", clock=clock)


def spec(key_seed="k", **kw):
    return CampaignSpec(key_seed=key_seed, n=8, **kw)


class TestSpecRoundTrip:
    def test_spec_survives_json_exactly(self):
        s = spec(
            capture=CaptureConfig(n_traces=123, seed=7, target="samplerz"),
            attack=AttackConfig(distinguisher="cpa", n_workers=3),
            noise_sigma=1.5,
            use_store=False,
        )
        assert CampaignSpec.from_jsonable(s.to_jsonable()) == s
        # tuples (exponent_guesses) must come back as tuples
        back = CampaignSpec.from_jsonable(json.loads(json.dumps(s.to_jsonable())))
        assert back == s

    def test_digest_is_content_addressed(self):
        assert spec("a").digest() == spec("a").digest()
        assert spec("a").digest() != spec("b").digest()

    def test_job_record_round_trips(self):
        job = Job(job_id="000001-abc", spec=spec(), state=JobState.FAILED,
                  attempts=2, error="boom", done_seq=None)
        assert Job.decode(job.encode()).__dict__ == job.__dict__

    def test_legacy_capture_backend_key_dropped(self):
        """Jobs queued while the capture engine was selectable carry a
        ``capture.backend`` name; they decode to the same spec as one
        without it (every engine produced the same traces)."""
        record = """{
          "format": "falcon-down-farm-job", "version": 1,
          "job_id": "000007-legacy", "state": "pending",
          "spec": {"key_seed": "k", "n": 8,
                   "capture": {"n_traces": 500, "mode": "direct", "seed": 11,
                               "backend": "python-ref", "target": "fpr-mul"}}
        }"""
        legacy = Job.decode(record)
        current = Job.decode(record.replace('"backend": "python-ref", ', ""))
        assert legacy.spec.capture == current.spec.capture == CaptureConfig(
            n_traces=500, mode="direct", seed=11, target="fpr-mul"
        )
        assert legacy.spec == current.spec

    def test_foreign_record_rejected(self):
        with pytest.raises(ValueError):
            Job.decode(json.dumps({"format": "something-else"}))


class TestSubmit:
    def test_ids_sort_in_submission_order(self, queue):
        ids = [queue.submit(spec(f"k{i}")).job_id for i in range(3)]
        assert ids == sorted(ids)
        assert [j.job_id for j in queue.jobs()] == ids

    def test_duplicate_id_refused(self, queue):
        job = queue.submit(spec())
        with pytest.raises(FarmError, match="already exists"):
            queue.submit(spec(), job_id=job.job_id)

    def test_queue_survives_restart(self, tmp_path, clock):
        q1 = FarmQueue(tmp_path / "farm", clock=clock)
        job = q1.submit(spec("persist"))
        q2 = FarmQueue(tmp_path / "farm", clock=clock)
        assert q2.get(job.job_id).spec == job.spec
        assert q2.get(job.job_id).state is JobState.PENDING


class TestLeasing:
    def test_claim_is_fifo_and_exclusive(self, queue):
        a = queue.submit(spec("a"))
        queue.submit(spec("b"))
        leased = queue.claim("w1", lease_ttl=10.0)
        assert leased.job_id == a.job_id
        assert leased.state is JobState.RUNNING
        assert leased.attempts == 1
        # the same job cannot be claimed again while leased
        other = queue.claim("w2", lease_ttl=10.0)
        assert other.job_id != a.job_id

    def test_claim_honors_max_concurrent(self, queue):
        queue.submit(spec("a"))
        queue.submit(spec("b"))
        assert queue.claim("w1", 10.0, max_concurrent=1) is not None
        assert queue.claim("w2", 10.0, max_concurrent=1) is None  # back-pressure
        assert queue.claim("w2", 10.0, max_concurrent=2) is not None

    def test_heartbeat_extends_deadline(self, queue, clock):
        job = queue.submit(spec())
        queue.claim("w1", lease_ttl=10.0)
        clock.advance(8.0)
        queue.heartbeat(job.job_id, "w1", lease_ttl=10.0)
        clock.advance(8.0)  # 16s after claim, but 8s after the beat
        assert queue.requeue_expired() == []
        assert queue.get(job.job_id).state is JobState.RUNNING

    def test_expired_lease_requeues(self, queue, clock):
        job = queue.submit(spec())
        queue.claim("w1", lease_ttl=10.0)
        clock.advance(10.5)
        assert queue.requeue_expired() == [job.job_id]
        again = queue.get(job.job_id)
        assert again.state is JobState.PENDING
        # the successor claims it and the attempt counter reflects history
        successor = queue.claim("w2", lease_ttl=10.0)
        assert successor.job_id == job.job_id
        assert successor.attempts == 2

    def test_heartbeat_after_requeue_refused(self, queue, clock):
        job = queue.submit(spec())
        queue.claim("w1", lease_ttl=10.0)
        clock.advance(11.0)
        queue.requeue_expired()
        queue.claim("w2", lease_ttl=10.0)
        with pytest.raises(FarmError, match="no longer held"):
            queue.heartbeat(job.job_id, "w1", lease_ttl=10.0)

    def test_torn_lease_treated_as_unowned(self, queue, clock):
        job = queue.submit(spec())
        queue.claim("w1", lease_ttl=10.0)
        queue.lease_path(job.job_id).write_bytes(b'{"worker": "w1", "dead')
        assert queue.requeue_expired() == [job.job_id]
        assert queue.get(job.job_id).state is JobState.PENDING

    def test_running_without_lease_is_orphan(self, queue):
        job = queue.submit(spec())
        queue.claim("w1", lease_ttl=10.0)
        os.unlink(queue.lease_path(job.job_id))  # crash between unlink+rewrite
        assert queue.requeue_expired() == [job.job_id]
        assert queue.get(job.job_id).state is JobState.PENDING


class TestLifecycle:
    def test_complete_assigns_done_seq(self, queue):
        a = queue.submit(spec("a"))
        b = queue.submit(spec("b"))
        for job in (a, b):
            queue.claim("w1", 10.0)
            queue.complete(job.job_id, "w1", {"succeeded": True})
        assert queue.get(a.job_id).done_seq == 1
        assert queue.get(b.job_id).done_seq == 2
        assert not queue.lease_path(a.job_id).exists()

    def test_fail_records_error(self, queue):
        job = queue.submit(spec())
        queue.claim("w1", 10.0)
        queue.fail(job.job_id, "w1", "ValueError: boom")
        failed = queue.get(job.job_id)
        assert failed.state is JobState.FAILED
        assert "boom" in failed.error

    def test_cancel_pending_is_immediate(self, queue):
        job = queue.submit(spec())
        queue.cancel(job.job_id)
        assert queue.get(job.job_id).state is JobState.CANCELED
        assert queue.claim("w1", 10.0) is None

    def test_cancel_running_is_cooperative(self, queue):
        job = queue.submit(spec())
        queue.claim("w1", 10.0)
        queue.cancel(job.job_id)
        assert queue.get(job.job_id).state is JobState.RUNNING  # until the worker acks
        assert queue.cancel_requested(job.job_id)
        queue.mark_canceled(job.job_id, "w1")
        assert queue.get(job.job_id).state is JobState.CANCELED

    def test_resume_clears_cancel_and_requeues(self, queue):
        job = queue.submit(spec())
        queue.cancel(job.job_id)
        resumed = queue.resume(job.job_id)
        assert resumed.state is JobState.PENDING
        assert not queue.cancel_requested(job.job_id)
        assert queue.claim("w1", 10.0).job_id == job.job_id

    def test_resume_refuses_wrong_states(self, queue):
        job = queue.submit(spec())
        with pytest.raises(FarmError, match="only canceled/failed"):
            queue.resume(job.job_id)
        queue.claim("w1", 10.0)
        queue.complete(job.job_id, "w1", {"succeeded": True})
        with pytest.raises(FarmError):
            queue.resume(job.job_id)


class TestTornQueueFiles:
    def test_torn_job_file_is_quarantined_not_fatal(self, queue):
        ok = queue.submit(spec("ok"))
        torn = queue.submit(spec("torn"))
        # a torn write (no atomic rename) truncates mid-JSON
        queue.job_path(torn.job_id).write_text('{"format": "falcon-down-farm-job", "spe')
        jobs = queue.jobs()
        assert [j.job_id for j in jobs] == [ok.job_id]
        assert queue.quarantined() == [torn.job_id]
        # status still renders and reports the quarantine
        status = queue.status()
        assert status["quarantined"] == [torn.job_id]
        assert "quarantined" in format_status(status)

    def test_restart_with_torn_file_serves_remaining_jobs(self, tmp_path, clock):
        q1 = FarmQueue(tmp_path / "farm", clock=clock)
        ok = q1.submit(spec("ok"))
        torn = q1.submit(spec("torn"))
        q1.job_path(torn.job_id).write_bytes(b"\x00\x00garbage")
        q2 = FarmQueue(tmp_path / "farm", clock=clock)
        assert q2.claim("w1", 10.0).job_id == ok.job_id
        with pytest.raises(FarmError, match="no readable job"):
            q2.get(torn.job_id)


class TestJournalTail:
    def test_events_stream_with_independent_offsets(self, queue):
        queue.submit(spec("a"))
        path = str(queue.journal_path)
        events_a, off_a = tail_events(path)
        assert [e["event"] for e in events_a] == ["submitted"]
        queue.submit(spec("b"))
        # subscriber A continues from its offset; a fresh subscriber B
        # replays from the start — both see a consistent stream
        more_a, _ = tail_events(path, off_a)
        assert [e["event"] for e in more_a] == ["submitted"]
        events_b, _ = tail_events(path)
        assert len(events_b) == 2

    def test_torn_tail_line_not_consumed(self, queue):
        queue.submit(spec("a"))
        path = str(queue.journal_path)
        _, offset = tail_events(path)
        with open(path, "ab") as fh:  # a writer caught mid-append
            fh.write(b'{"event": "half')
        events, new_offset = tail_events(path, offset)
        assert events == []
        assert new_offset == offset  # will re-read once the line completes
        with open(path, "ab") as fh:
            fh.write(b'written"}\n')
        events, _ = tail_events(path, new_offset)
        assert [e["event"] for e in events] == ["halfwritten"]


class TestStatus:
    def test_status_reflects_queue_lease_quota_state(self, queue, clock):
        a = queue.submit(spec("a"))
        queue.submit(spec("b"))
        queue.claim("w1", lease_ttl=20.0)
        queue.write_limits({"max_concurrent": 2, "max_store_bytes": 1000})
        status = queue.status()
        assert status["counts"] == {
            "pending": 1, "running": 1, "done": 0, "failed": 0, "canceled": 0,
        }
        assert status["leases"][a.job_id]["worker"] == "w1"
        assert status["leases"][a.job_id]["expires_in_s"] == pytest.approx(20.0)
        assert status["limits"]["max_concurrent"] == 2
        assert status["store_bytes"] == 0
        rendered = format_status(status)
        assert "pending=1" in rendered and "running=1" in rendered
