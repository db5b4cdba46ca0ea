"""The shared line-watch primitive behind the oracle and ``contract:<id>`` surfaces.

:func:`repro.sast.oracle.watch_lines` is the one place the package
installs a line tracer. These tests pin what both callers rely on:
a host's tracer (debugger, coverage) is restored afterwards, and a
second capture in the same process sees exactly the hits of the first
(on 3.12+ this is what ``sys.monitoring.restart_events`` guarantees
for locations disabled during the earlier run).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.falcon import FalconParams, keygen
from repro.leakage import CaptureCampaign, DeviceModel
from repro.sast.contract import load_contract
from repro.sast.oracle import watch_lines
from repro.targets import get_target

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CONTRACT = os.path.join(_REPO_ROOT, "leakage-contract.json")


def _sentinel(frame, event, arg):
    return None


class _HostTracer:
    """Install the sentinel for the duration of a block, whatever ran before."""

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(_sentinel)
        return self

    def __exit__(self, *exc):
        self.seen = sys.gettrace()
        sys.settrace(self.previous)
        return False


def _double(x):
    y = x * 2
    return y


_WATCHED = _double.__code__.co_firstlineno + 2      # the `return y` line


@pytest.fixture(scope="module")
def surface_name():
    contract = load_contract(_CONTRACT)
    for entry in contract.entries:
        if entry.path == "math/ntt.py" and "u - v" in entry.line_text:
            return f"contract:{entry.exploitability.entry_id}"
    raise AssertionError("shipped contract lost its NTT butterfly entry")


@pytest.fixture(scope="module")
def victim_sk():
    sk, _ = keygen(FalconParams.get(8), seed=b"line-watch")
    return sk


@pytest.fixture(autouse=True)
def _contract_env(monkeypatch):
    monkeypatch.setenv("REPRO_CONTRACT", _CONTRACT)


def _captured_hits(sk, surface_name):
    campaign = CaptureCampaign(
        sk=sk, device=DeviceModel(), n_traces=8, seed=7, target=surface_name,
    )
    surface = get_target(surface_name)
    assert surface.n_targets(campaign) > 0
    return campaign._surface_cache[f"traced:{surface.entry_id}"]


def test_watch_lines_restores_host_tracer_when_workload_raises():
    def boom():
        _double(1)
        raise RuntimeError("workload failed")

    with _HostTracer() as host:
        with pytest.raises(RuntimeError):
            watch_lines({__file__: {_WATCHED}}, lambda *a: None, boom)
    assert host.seen is _sentinel


def test_contract_surface_capture_keeps_host_tracer(victim_sk, surface_name):
    with _HostTracer() as host:
        _captured_hits(victim_sk, surface_name)
    assert host.seen is _sentinel, "capturing a contract surface clobbered the host tracer"


def test_contract_surface_capture_repeats_identically(victim_sk, surface_name):
    first = _captured_hits(victim_sk, surface_name)
    second = _captured_hits(victim_sk, surface_name)
    assert first and second == first
