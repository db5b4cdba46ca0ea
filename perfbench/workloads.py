"""The benchmark's three workloads, each a closed loop of one attack at a time.

Every workload derives its inputs (key seed, capture seed, message) from
the workload seed, sets the victim up, then runs *units*: complete,
checked attacks. The program only ever receives the derived inputs.
Each attack round runs in a :meth:`HostClock.block`, which yields its
wall time and the host's speed factor over it.

Program functions are looked up on their modules at call time
(:func:`_call`), so the traced run's shims see the benchmark's own calls
exactly like the program's internal ones. When traced, the timed phases
open the benchmark-side ``attack`` (and ``gate``) root spans.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

from perfbench import quality
from perfbench.env import PYTHON, Block, HostClock
from perfbench.tracing import SpanRecorder

_U64 = (1 << 64) - 1


def _call(module: str, attr: str, *args: Any, **kwargs: Any) -> Any:
    return getattr(importlib.import_module(module), attr)(*args, **kwargs)


def _span(rec: SpanRecorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


@contextmanager
def _timed(rec: SpanRecorder | None, name: str, clock: HostClock) -> Iterator[Block]:
    """A clock block around the body, inside its root span when traced."""
    with clock.block() as blk, _span(rec, name):
        yield blk


def _derive(base: bytes, rep: int) -> bytes:
    return hashlib.sha256(base + rep.to_bytes(2, "little")).digest()


@dataclass(frozen=True)
class Inputs:
    """What the program receives: all derived from the workload seed."""

    key_seed: bytes
    capture_seed: int
    message: bytes
    setup_seed: bytes

    def key_seed_of(self, rep: int) -> bytes:
        """Key seed of set-up repetition ``rep``; rep 0 is the attacked victim.

        The timed repetitions (1 and up) set up distinct keys that are the
        same for every workload seed, so ``setup_s`` is keygen of one fixed
        key set: neither one key's rejection luck nor the seed moves it.
        """
        return self.key_seed if rep == 0 else _derive(self.setup_seed, rep)[:16]

    def capture_seed_of(self, rnd: int) -> int:
        """Capture seed of attack round ``rnd``; round 0 uses ``capture_seed``."""
        if rnd == 0:
            return self.capture_seed
        return int.from_bytes(_derive(self.capture_seed.to_bytes(4, "little"), rnd)[:4], "little")


def derive_inputs(workload: str, seed: int) -> Inputs:
    h = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return Inputs(
        key_seed=h[:16],
        capture_seed=int.from_bytes(h[16:20], "little"),
        message=b"perfbench message " + h[20:28].hex().encode(),
        setup_seed=hashlib.sha256(f"perfbench/{workload}/setup".encode()).digest(),
    )


@dataclass
class UnitResult:
    """One checked unit; round times are wall seconds less host sampling.

    Each entry of ``failures`` is one failed operation, out of the
    workload's ``ops`` per unit. Every round time has the host factor of
    its round alongside it; per-target times are the program's own.
    """

    attack_s: list[float] = field(default_factory=list)   # one per attack round
    attack_factor: list[float] = field(default_factory=list)
    target_s: list[float] = field(default_factory=list)
    n_targets: int = 0
    n_exact: int = 0
    failures: list[str] = field(default_factory=list)
    secret_ok: bool = False
    quality: list[dict[str, Any]] = field(default_factory=list)   # per target or round
    layer_metrics: dict[str, float] = field(default_factory=dict)  # traced-run extras

    def add_round(self, blk: Block, target_s: list[float]) -> None:
        self.attack_s.append(blk.seconds)
        self.attack_factor.append(blk.factor)
        self.target_s += target_s


def _victim(n: int, inputs: Inputs, rep: int) -> tuple[Any, Any]:
    """Victim key pair plus one genuine signing, checked under its own pk."""
    params = importlib.import_module("repro.falcon.params").FalconParams.get(n)
    sk, pk = _call("repro.falcon.keygen", "keygen", params, seed=inputs.key_seed_of(rep))
    sig = _call("repro.falcon.sign", "sign", sk, inputs.message, seed=b"perfbench-setup")
    if not _call("repro.falcon.verify", "verify", pk, inputs.message, sig):
        raise RuntimeError("victim key pair does not verify its own signature")
    return sk, pk


def _journal_problems(journal_path: str, n_targets: int) -> list[str]:
    """The journal holds one progress event per target and a ``run_end``."""
    from repro.obs.journal import read_journal

    events = read_journal(journal_path)
    progress = sum(e["event"] == "progress" and e.get("stage") == "coefficient" for e in events)
    if progress != n_targets or not events or events[-1].get("event") != "run_end":
        return [f"journal incomplete: {progress} of {n_targets} progress events"]
    return []


class FprMulN8:
    """The paper's attack: FALCON-8, fpr-mul surface, CPA extend-and-prune,
    run as a farm job would: through a disk store, a checkpointing session
    and a JSONL journal.

    2000 signings per coefficient at noise sigma 5 carry the same
    correlation significance (rho * sqrt(D)) as 6000 at the default
    sigma 10, at a third of the ladder work, so one attack fits a run of
    the benchmark's time budget.
    """

    name = "fprmul-n8"
    n = 8
    n_traces = 2000
    noise_sigma = 5.0
    setup_reps = 45
    ops = 1
    # The ladder is uint64 multiply+popcount, in and out of cache. Over
    # fourteen attacks in two sets, scaling by these two kernels cut the
    # spread of attack times from 0.06-0.07 to 0.02-0.03; the
    # interpreter and small-array kernels tracked it worse in one set.
    host_kernels = ("cells", "large_arrays")
    warmup_rounds = 0   # one 15 s attack per run: a warm-up would double the run

    def setup(self, inputs: Inputs, rep: int = 0) -> dict[str, Any]:
        sk, pk = _victim(self.n, inputs, rep)
        return {"inputs": inputs, "sk": sk, "pk": pk}

    def unit(self, state: dict[str, Any], work: str, rec: SpanRecorder | None,
             clock: HostClock) -> UnitResult:
        from repro.attack import AttackConfig
        from repro.attack.session import AttackSession
        from repro.leakage import DeviceModel
        from repro.obs.journal import RunJournal

        inputs, sk, pk = state["inputs"], state["sk"], state["pk"]
        out = UnitResult()
        journal_path, session = os.path.join(work, "journal.jsonl"), os.path.join(work, "session")
        os.makedirs(work, exist_ok=True)
        try:
            with _timed(rec, "attack", clock) as ph:
                with RunJournal(journal_path) as journal:
                    report = _call(
                        "repro.attack.pipeline", "full_attack", sk, pk,
                        n_traces=self.n_traces, device=DeviceModel(noise_sigma=self.noise_sigma),
                        config=AttackConfig(), message=inputs.message, seed=inputs.capture_seed,
                        store=os.path.join(work, "store"), session=session, journal=journal,
                    )
            result = report.key_recovery
            ok = self._check(result, sk, pk, inputs.message)
            if not ok:
                out.failures.append(f"key not recovered: {report.failure or 'forgery rejected'}")
            out.failures += _journal_problems(journal_path, self.n)
            if sorted(AttackSession(session).completed()) != list(range(self.n)):
                out.failures.append("session checkpoints do not cover every coefficient")
            out.layer_metrics["obs.journal.bytes"] = float(os.path.getsize(journal_path))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out.add_round(ph, [r.elapsed_seconds for r in report.records])
        out.n_targets = len(report.records)
        out.n_exact = sum(bool(c.correct) for c in result.coefficients)
        out.secret_ok = ok
        truth = quality.true_patterns(sk)
        out.quality = [
            quality.coefficient_quality(c, truth[c.target_index], ok)
            for c in result.coefficients
        ]
        out.layer_metrics.update(quality.summarize(out.quality))
        return out

    @staticmethod
    def _check(result: Any, sk: Any, pk: Any, message: bytes) -> bool:
        """Recovered f and g are the victim's, and a forgery verifies under pk."""
        if result.recovered_sk is None or result.f != sk.f or result.g != sk.g:
            return False
        sig = _call("repro.attack.key_recovery", "forge", result, message, seed=b"perfbench-forgery")
        return bool(_call("repro.falcon.verify", "verify", pk, message, sig))


class SamplerZN512:
    """FALCON-512 samplerz surface: every sampler call of one signing,
    captured live and recovered in memory, one fresh capture per round.

    2000 replays per call at noise sigma 5 have the margin of 8000 at the
    default sigma 10; the equivalent of 4000 still missed one call of
    1024 in one round of about a hundred.
    """

    name = "samplerz-n512"
    n = 512
    n_traces = 2000
    noise_sigma = 5.0
    attack_rounds = 4
    # the first round of a run took 5 to 20% longer than the rest
    warmup_rounds = 1
    setup_reps = 2
    host_kernels = PYTHON

    @property
    def ops(self) -> int:
        """Checked operations per unit: one transcript per round."""
        return self.attack_rounds

    def setup(self, inputs: Inputs, rep: int = 0) -> dict[str, Any]:
        sk, pk = _victim(self.n, inputs, rep)
        return {"inputs": inputs, "sk": sk, "pk": pk}

    def unit(self, state: dict[str, Any], work: str, rec: SpanRecorder | None,
             clock: HostClock) -> UnitResult:
        from repro.leakage import DeviceModel
        # The benchmark's own binding of the victim model (never shimmed):
        # ground truth is every sampler output z of the seeded signing.
        from repro.targets.samplerz import traced_signing as victim_signing

        inputs, sk, pk = state["inputs"], state["sk"], state["pk"]
        out = UnitResult()
        for rnd in range(self.attack_rounds):
            seed = inputs.capture_seed_of(rnd)
            expected = [c.z & _U64 for c in victim_signing(sk, seed)]
            with _timed(rec, "attack", clock) as ph:
                report = _call(
                    "repro.attack.pipeline", "full_attack", sk, pk,
                    n_traces=self.n_traces, message=inputs.message, seed=seed,
                    device=DeviceModel(noise_sigma=self.noise_sigma), target="samplerz",
                )
            out.add_round(ph, [r.elapsed_seconds for r in report.records])
            recs = report.key_recovery.coefficients
            out.n_targets += len(recs)
            out.n_exact += sum(bool(c.correct) for c in recs)
            values = report.key_recovery.recovered_values or []
            if values != expected:
                wrong = sum(a != b for a, b in zip(values, expected)) + abs(len(values) - len(expected))
                out.failures.append(f"round {rnd}: {wrong} of {len(expected)} sampler outputs missed")
            out.quality.append({
                "round": rnd, "targets": len(recs), "exact": sum(bool(c.correct) for c in recs),
                "margin_min": min((c.margin for c in recs), default=0.0),
            })
        out.secret_ok = not out.failures
        return out


class SastTriage:
    """The developer gate plus triage, as one pipeline per round: cold
    contract verify, ranking, then attacks on the top entries through
    their ``contract:<id>`` surfaces.

    A ``contract:`` surface captures by replaying the oracle workload,
    whose keygen takes 3 to 42 rejection rounds depending on the campaign
    seed; with a seed-derived replay a round took 0.45 to 12.9 s. The
    replay seed is therefore fixed, and the workload seed drives the
    device noise of each round instead. ``verify --oracle`` is not run: it
    currently fails on CT005 (dead declassify at falcon/samplerz.py:186).
    """

    name = "sast-triage"
    n = 8
    n_traces = 2048
    noise_sigma = 2.0
    top = 8
    attack_rounds = 3
    warmup_rounds = 1   # as on samplerz-n512: the first round was 5% slower
    replay_seed = 5
    setup_reps = 45
    host_kernels = PYTHON

    def __init__(self, src_root: str, contract_path: str) -> None:
        self.src_root = src_root
        self.contract_path = contract_path

    @property
    def ops(self) -> int:
        """Checked operations per unit: each round's gate and attacked entries."""
        return (1 + self.top) * self.attack_rounds

    def setup(self, inputs: Inputs, rep: int = 0) -> dict[str, Any]:
        sk, pk = _victim(self.n, inputs, rep)
        return {"inputs": inputs, "sk": sk, "pk": pk}

    def unit(self, state: dict[str, Any], work: str, rec: SpanRecorder | None,
             clock: HostClock) -> UnitResult:
        inputs, sk, pk = state["inputs"], state["sk"], state["pk"]
        out = UnitResult()
        for rnd in range(self.attack_rounds):
            # the gate and the triage each get the host factor of their own time:
            # the host can change state between them
            with clock.block() as gate:
                contract = self._gate(os.path.join(work, f"round{rnd}"), rec, out)
            with clock.block() as triage:
                results = self._triage(contract, sk, pk, inputs.capture_seed_of(rnd), rec, out)
            seconds = gate.seconds + triage.seconds
            out.attack_s.append(seconds)
            out.attack_factor.append(seconds / (gate.ref_seconds + triage.ref_seconds))
            self._check(results, rnd, out)
        out.secret_ok = not out.failures
        return out

    def _gate(self, work: str, rec: SpanRecorder | None, out: UnitResult) -> Any:
        """Cold ``repro-sast verify`` through a fresh cache, then the warm no-op."""
        from repro.sast.cache import contract_digest, run_with_cache

        os.makedirs(work, exist_ok=True)
        cache = os.path.join(work, "sast-cache.json")
        try:
            with _span(rec, "gate"):
                project = _call("repro.sast.project", "load_project", self.src_root, package="repro")
                digest = contract_digest(self.contract_path)
                with _span(rec, "sast.cache.cold"):
                    findings, _ = run_with_cache(project, cache, contract_digest=digest)
                contract = _call("repro.sast.contract", "load_contract", self.contract_path)
                violations = _call(
                    "repro.sast.contract", "verify_contract", findings, contract,
                    project.root, contract_path=self.contract_path,
                )
                warm_project = _call("repro.sast.project", "load_project", self.src_root, package="repro")
                with _span(rec, "sast.cache.warm_noop"):
                    warm, stats = run_with_cache(warm_project, cache, contract_digest=digest)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if violations:
            out.failures.append(f"contract violated: {len(violations)} findings")
        elif not stats.fast_path or warm != findings:
            out.failures.append("warm cache did not replay the cold findings")
        return contract

    def _triage(self, contract: Any, sk: Any, pk: Any, noise_seed: int,
                rec: SpanRecorder | None, out: UnitResult) -> list[tuple[Any, Any]]:
        """Rank, then attack the top computable entries' operand streams."""
        from repro.attack import AttackConfig
        from repro.leakage import CaptureCampaign, DeviceModel

        results = []
        with _span(rec, "attack"):
            ranked = _call("repro.sast.exploit", "rank_entries", contract)
            entries = [e for e in ranked if e.exploitability.hypothesis_computable][: self.top]
            for entry in entries:
                campaign = CaptureCampaign(
                    sk=sk, n_traces=self.n_traces, seed=self.replay_seed,
                    device=DeviceModel(noise_sigma=self.noise_sigma, seed=noise_seed),
                    target=f"contract:{entry.exploitability.entry_id}",
                )
                try:
                    results.append((entry, _call(
                        "repro.attack.key_recovery", "recover_full_key", campaign, pk,
                        config=AttackConfig())))
                except Exception as exc:  # one entry's failure is one failed op
                    out.failures.append(f"{entry.exploitability.entry_id}: {exc!r}")
        if len(entries) < self.top:
            out.failures.append(f"only {len(entries)} computable entries to attack")
        return results

    @staticmethod
    def _check(results: list[tuple[Any, Any]], rnd: int, out: UnitResult) -> None:
        """Every attacked entry's operand stream is exact."""
        for entry, res in results:
            recs = res.coefficients
            out.target_s += [r.elapsed_seconds for r in res.records]
            out.n_targets += len(recs)
            out.n_exact += sum(bool(c.correct) for c in recs)
            if not recs or not all(c.correct for c in recs) or len(res.recovered_values) != len(recs):
                out.failures.append(f"{entry.exploitability.entry_id}: operand stream not exact")
            out.quality.append({
                "round": rnd, "entry": entry.exploitability.entry_id, "targets": len(recs),
                "exact": sum(bool(c.correct) for c in recs),
                "margin_min": min((c.margin for c in recs), default=0.0),
            })


def make(name: str, root: str) -> Any:
    if name == FprMulN8.name:
        return FprMulN8()
    if name == SamplerZN512.name:
        return SamplerZN512()
    if name == SastTriage.name:
        return SastTriage(
            os.path.join(root, "src", "repro"), os.path.join(root, "leakage-contract.json")
        )
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


NAMES = (FprMulN8.name, SamplerZN512.name, SastTriage.name)
