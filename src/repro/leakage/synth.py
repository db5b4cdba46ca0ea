"""Vectorized synthesis of EM traces for FALCON's float multiplication.

Computes, for D (secret, known) operand pairs at once, the same
architectural intermediates as :func:`repro.fpr.trace.fpr_mul_trace`
(property-tested equal), maps them through the device model, and returns
oscilloscope-style trace matrices.

The step-value computation itself is pluggable — see
:mod:`repro.leakage.backend` for the ``python-ref`` (per-value
softfloat) and ``numpy-batch`` (vectorized, bit-exact, orders of
magnitude faster) implementations. :func:`mul_step_values` dispatches
to the batch backend by default. It serves the capture side (and the
profiled attacks' training labels, the masked-share capture and the
complex-multiply model); the attack's hypothesis builders in
:mod:`repro.attack.hypotheses` do not route through it — they predict
each intermediate directly for every key guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import MUL_STEP_LABELS
from repro.leakage.backend import CaptureBackend, DEFAULT_BACKEND, get_backend
from repro.leakage.device import DeviceModel

__all__ = ["mul_step_values", "trace_layout", "TraceLayout", "synthesize_mul_traces"]


def mul_step_values(
    x: NDArray[Any] | int,
    y: NDArray[Any],
    backend: str | CaptureBackend = DEFAULT_BACKEND,
) -> NDArray[np.uint64]:  # sast: declassify(reason=leakage model of fpr multiply intermediates; consumes the secret operand by design)
    """(D, S) uint64 matrix of intermediates for x*y, one row per pair.

    ``x`` (secret) and ``y`` (known) are fpr bit patterns; ``x`` may be a
    scalar, broadcast against ``y``. Columns follow MUL_STEP_LABELS.
    Inputs must be nonzero normals (the capture layer filters zeros).
    ``backend`` selects the implementation (bit-exact either way).
    """
    return get_backend(backend).step_values(x, y)


@dataclass(frozen=True)
class TraceLayout:
    """Mapping from step labels to sample index ranges in a trace."""

    samples_per_step: int
    labels: tuple[str, ...] = MUL_STEP_LABELS

    @property
    def n_samples(self) -> int:
        return len(self.labels) * self.samples_per_step

    def slice_of(self, label: str) -> slice:
        i = self.labels.index(label)
        return slice(i * self.samples_per_step, (i + 1) * self.samples_per_step)

    def sample_of(self, label: str) -> int:
        """First sample index covering ``label``."""
        return self.labels.index(label) * self.samples_per_step


def trace_layout(device: DeviceModel) -> TraceLayout:
    return TraceLayout(samples_per_step=device.samples_per_step)


def synthesize_mul_traces(
    x: NDArray[Any] | int,
    y: NDArray[Any],
    device: DeviceModel,
    rng: np.random.Generator | None = None,
    backend: str | CaptureBackend = DEFAULT_BACKEND,
) -> tuple[NDArray[np.float32], NDArray[np.uint64]]:
    """Traces (D, T) plus the underlying step values (D, S) for x*y."""
    if rng is None:
        rng = device.rng()
    values = mul_step_values(x, y, backend=backend)
    traces = device.emit(values, rng)
    return traces, values
