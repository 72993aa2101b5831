"""The benchmark's three workloads: fleet, tier and offered open-loop rate.

Every workload replays a fleet generated here from the run's seed; the
program under test sees only chunks.  The ground-truth beat annotations
of the synthesizer stay on the benchmark side, for the detection and
recall metrics.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ecg.synth import RecordSynthesizer, RhythmConfig, SynthesisConfig
from repro.serving import (
    GatewayClient,
    StreamGateway,
    SupervisedGateway,
    default_pipeline,
    open_journal,
    spawn_host,
    synthesize_fleet,
)

import procstat

FS = 360.0

#: ``repro serve`` batching defaults, shared by every tier.
SERVE_DEFAULTS = {"max_batch": 64, "max_latency_ticks": 8}


@dataclass(frozen=True)
class Fleet:
    """Streams to replay plus the synthesizer's ground truth per session."""

    streams: dict[str, np.ndarray]
    truth_peaks: dict[str, np.ndarray]
    truth_symbols: dict[str, list[str]]
    nominal_eps: float  # fleet beat rate when replayed in real time

    @property
    def signal_s(self) -> float:
        """Seconds of ECG in one replay of the whole fleet."""
        return sum(x.shape[0] for x in self.streams.values()) / FS


def loadgen_fleet(n_sessions: int, duration_s: float, seed: int) -> Fleet:
    """``synthesize_fleet`` (morphology, noise and rate skew rotated
    across sessions), with each session's annotations kept.

    The annotations are captured from the synthesizer calls
    ``synthesize_fleet`` makes, so they belong to exactly the records
    it returns.
    """
    records = []
    original = RecordSynthesizer.synthesize

    def capture(self, *args, **kwargs):
        record = original(self, *args, **kwargs)
        records.append(record)
        return record

    RecordSynthesizer.synthesize = capture
    try:
        streams, nominal_eps = synthesize_fleet(n_sessions, duration_s, fs=FS, seed=seed)
    finally:
        RecordSynthesizer.synthesize = original
    if len(records) != len(streams):
        raise RuntimeError("synthesize_fleet made an unexpected number of records")
    return Fleet(
        streams=streams,
        truth_peaks={sid: r.annotation.samples for sid, r in zip(streams, records)},
        truth_symbols={sid: list(r.annotation.symbols) for sid, r in zip(streams, records)},
        nominal_eps=nominal_eps,
    )


def arrhythmia_fleet(n_sessions: int, duration_s: float, seed: int) -> Fleet:
    """Three-lead, ~120 bpm sessions with a heavy abnormal-beat mix."""
    mean_rr = 0.5
    config = SynthesisConfig(fs=FS, n_leads=3, rhythm=RhythmConfig(mean_rr=mean_rr))
    mix = {"N": 0.55, "V": 0.35, "L": 0.10}
    streams, peaks, symbols = {}, {}, {}
    for i in range(n_sessions):
        sid = f"arr-{i}"
        record = RecordSynthesizer(config, seed=seed + i).synthesize(
            duration_s, class_mix=mix, name=sid
        )
        streams[sid] = np.asarray(record.signal, dtype=float)
        peaks[sid] = record.annotation.samples
        symbols[sid] = list(record.annotation.symbols)
    return Fleet(streams, peaks, symbols, nominal_eps=n_sessions / mean_rr)


class InProcessTier:
    """One ``StreamGateway`` inside the benchmark process."""

    def __init__(self, classifier, gateway_kwargs: dict, run_dir: str):
        self.target = StreamGateway(classifier, FS, **gateway_kwargs)
        self.children: list[int] = []
        self.serving_pids = [os.getpid()]

    def stats(self) -> dict:
        return self.target.stats()

    def close(self) -> None:
        pass


class SocketTier:
    """A pipelined ``GatewayClient`` talking over loopback to one
    ``spawn_host`` process that fronts a coalescing ``StreamGateway``."""

    def __init__(self, classifier, gateway_kwargs: dict, run_dir: str):
        self.host = spawn_host(classifier, FS, gateway_kwargs=gateway_kwargs)
        try:
            self.target = GatewayClient(self.host.host, self.host.port, window=8).connect()
        except BaseException:
            self.host.stop()
            raise
        self.children = [self.host.process.pid]
        self.serving_pids = list(self.children)

    def stats(self) -> dict:
        return self.target.stats()

    def close(self) -> None:
        self.target.close()
        self.host.stop()


class SupervisedTier:
    """``SupervisedGateway`` over two process workers, a file journal and
    the default analytics pipeline."""

    def __init__(self, classifier, gateway_kwargs: dict, run_dir: str):
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=run_dir)
        self.journal = open_journal(self.journal_dir, "file")
        self.target = SupervisedGateway(
            classifier,
            FS,
            journal=self.journal,
            workers=2,
            worker_mode="process",
            **gateway_kwargs,
        )
        self.children = procstat.descendants(os.getpid())
        self.serving_pids = [os.getpid(), *self.children]

    def stats(self) -> dict:
        return self.target.stats()

    def close(self) -> None:
        self.target.shutdown()
        self.journal.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sessions: int
    duration_s: float
    chunk: int  # samples per ingest call
    #: Offered speed-up over real time in the open-loop phase: about
    #: half the closed-loop capacity measured at the seed commit.
    open_speedup: float
    fleet: Callable[[int, float, int], Fleet]
    start_tier: Callable[..., object]
    #: ``StreamGateway`` / node configuration every serving gateway of
    #: the tier runs with.
    gateway_kwargs: dict

    @property
    def n_leads(self) -> int:
        return self.gateway_kwargs.get("n_leads", 1)

    def describe_tier(self) -> str:
        """One line: the tier and its gateway configuration."""
        config = ", ".join(
            f"{k}={getattr(v, '__name__', v)}" for k, v in self.gateway_kwargs.items()
        )
        summary = " ".join(self.start_tier.__doc__.split())
        return f"{self.start_tier.__name__}: {summary} ({config})"

    def build_fleet(self, seed: int) -> Fleet:
        # Seeds a thousand apart never share a synthesizer stream.
        return self.fleet(self.n_sessions, self.duration_s, 1000 * seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fleet-250ms",
            why=(
                "ROADMAP baseline shape, mostly per-sample DSP: 16 mixed sessions x 75 s, "
                "1 lead, 250 ms chunks, in-process StreamGateway; open loop at 25x real time"
            ),
            n_sessions=16,
            duration_s=75.0,
            chunk=90,
            open_speedup=25.0,
            fleet=loadgen_fleet,
            start_tier=InProcessTier,
            gateway_kwargs=dict(SERVE_DEFAULTS),
        ),
        Workload(
            name="wire-25ms",
            why=(
                "wire, event loop and per-ingest bookkeeping: same fleet as 9-sample "
                "chunks via GatewayClient(window=8) to a coalescing spawn_host; open loop at 8x"
            ),
            n_sessions=16,
            duration_s=75.0,
            chunk=9,
            open_speedup=8.0,
            fleet=loadgen_fleet,
            start_tier=SocketTier,
            # Input coalescing as ``repro serve --listen`` and the socket
            # throughput benchmark configure it for tiny wire chunks.
            gateway_kwargs=dict(SERVE_DEFAULTS, coalesce=int(0.5 * FS)),
        ),
        Workload(
            name="arrhythmia-3lead",
            why=(
                "gated 3-lead delineation, journal writes, pipe IPC, analytics: 8 sessions "
                "at 120 bpm, N/V/L 55/35/10, 1 s chunks, SupervisedGateway 2 workers; "
                "open loop at 45x"
            ),
            n_sessions=8,
            duration_s=150.0,
            chunk=360,
            open_speedup=45.0,
            fleet=arrhythmia_fleet,
            start_tier=SupervisedTier,
            gateway_kwargs=dict(SERVE_DEFAULTS, n_leads=3, analytics=default_pipeline),
        ),
    )
}
