"""Shared fixtures/helpers for the serving-layer test modules.

The gateway tier's single contract — per-session event sequences
bit-exact with a standalone inline-mode ``StreamingNode`` — is asserted
the same way everywhere, so the comparison helpers live here, next to
the chaos suites' shared schedule ingredients (synthetic records,
random chunking, worker SIGKILL).
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.dsp.streaming import StreamingNode
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig


def pytest_generate_tests(metafunc):
    """Parametrize ``chaos_seed`` arguments, overridable via env.

    A chaos test declares its default seed set with
    ``@pytest.mark.chaos_seeds(0, 1, 2)`` and takes a ``chaos_seed``
    argument.  ``REPRO_CHAOS_SEED`` (a comma-separated list of ints)
    overrides every default set, so a CI failure seed can be replayed
    locally with ``REPRO_CHAOS_SEED=<seed> pytest tests/serving/...``
    without editing the suite.
    """
    if "chaos_seed" not in metafunc.fixturenames:
        return
    marker = metafunc.definition.get_closest_marker("chaos_seeds")
    seeds = list(marker.args) if marker is not None else [0]
    override = os.environ.get("REPRO_CHAOS_SEED")
    if override:
        seeds = [int(part) for part in override.split(",")]
    metafunc.parametrize("chaos_seed", seeds)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "chaos_seeds(*seeds): default seed set for a chaos test"
    )


def _assert_events_equal(expected, actual) -> None:
    """Event sequences identical: peaks, labels, flags, payloads, fiducials."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert (a.peak, a.label, a.flagged, a.tx_bytes) == (
            b.peak, b.label, b.flagged, b.tx_bytes
        )
        if a.fiducials is None:
            assert b.fiducials is None
        else:
            np.testing.assert_array_equal(
                a.fiducials.as_array(), b.fiducials.as_array()
            )


def _standalone_events(classifier, record_or_signal, fs, n_leads, upto=None):
    """Reference: one inline-mode node fed the (prefix of the) stream."""
    signal = getattr(record_or_signal, "signal", record_or_signal)
    if upto is not None:
        signal = signal[:upto]
    node = StreamingNode(classifier, fs, n_leads=n_leads)
    return node.push(signal) + node.flush()


@pytest.fixture(scope="session")
def assert_events_equal():
    return _assert_events_equal


@pytest.fixture(scope="session")
def standalone_events():
    return _standalone_events


def _synth_records(seeds, duration, prefix):
    """One single-lead N/V/L record per seed, named ``<prefix>-<seed>``."""
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=1), seed=s).synthesize(
            duration, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name=f"{prefix}-{s}"
        )
        for s in seeds
    ]


def _chunk_queue(record, rng, min_len):
    """Split a record into random ``min_len``..700-sample ingest chunks."""
    chunks, i = [], 0
    while i < record.n_samples:
        n = int(rng.integers(min_len, 700))
        chunks.append(record.signal[i : i + n])
        i += n
    return chunks


def _sigkill(gateway, index) -> bool:
    """SIGKILL one process worker of a pool; ``False`` if already dead."""
    proc = gateway._procs[index]
    if not proc.is_alive():  # already dead from an earlier kill
        return False
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(5.0)
    return True


@pytest.fixture(scope="session")
def synth_records():
    return _synth_records


@pytest.fixture(scope="session")
def chunk_queue():
    return _chunk_queue


@pytest.fixture(scope="session")
def sigkill():
    return _sigkill
