"""Load generation, the standalone-node reference and output checks.

Two replay loops send a fleet through a tier's ``open_session`` /
``ingest`` / ``close_session`` surface, round-robin over sessions:

* :func:`closed_pass` sends as fast as the tier accepts (one producer,
  no pacing) and times the whole pass;
* :func:`open_pass` sends each chunk at a fixed due time and stamps
  every verdict's latency from the due time of the chunk holding the
  beat's R peak, so a stall that delays later sends shows in their
  latencies; it also records how late each send left.

Every pass opens fresh sessions, so passes can repeat the same fleet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dsp import StreamingNode

import procstat
from hostspeed import HostSpeed
from workloads import FS, Fleet

#: Detection match window around an annotated R peak (the customary
#: 150 ms of beat-detection scoring).
MATCH_TOLERANCE_S = 0.15

ABNORMAL_SYMBOLS = ("V", "L")

#: Open-loop sessions start spread over this much stream time: one
#: peak-detector analysis window.
STAGGER_S = 10.0


def event_key(event) -> tuple:
    """Everything an event carries, fiducials included, for bit-exact
    comparison across tiers and transports."""
    fiducials = None if event.fiducials is None else tuple(event.fiducials.as_array().tolist())
    return (event.peak, event.label, event.flagged, event.tx_bytes, fiducials)


def reference_events(fleet: Fleet, classifier, n_leads: int) -> dict[str, list]:
    """Each session through its own standalone ``StreamingNode``.

    The node's events do not depend on how the stream is chunked, so the
    reference pushes one-second blocks whatever the workload's chunk.
    """
    out = {}
    block = int(FS)
    for sid, x in fleet.streams.items():
        node = StreamingNode(classifier, FS, n_leads=n_leads)
        events = []
        for i in range(0, x.shape[0], block):
            events.extend(node.push(x[i : i + block]))
        events.extend(node.flush())
        out[sid] = [event_key(e) for e in events]
    return out


@dataclass
class PassResult:
    events: dict[str, list] = field(default_factory=dict)  # by fleet session id
    n_chunks: int = 0
    n_failed: int = 0
    wall_s: float = 0.0  # closed loop: without the interleaved host-speed probes
    cpu_s: float = 0.0
    #: Host slowdown measured by probes interleaved with the pass, and the
    #: time they took (closed loop; see :mod:`hostspeed`).
    slowdown: float = 1.0
    probe_s: float = 0.0
    #: Stream time from each beat's R peak to the point of the stream
    #: its event came back at, in seconds (closed loop).
    stream_delay_s: list[float] = field(default_factory=list)
    #: Due time of a beat's chunk to its event's return, in seconds
    #: (open loop).
    latency_s: list[float] = field(default_factory=list)
    #: How late each send left against its due time (open loop).
    late_s: list[float] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return sum(len(seq) for seq in self.events.values())

    @property
    def scaled_events_per_s(self) -> float:
        """Events per second at the reference host speed."""
        return self.n_events / self.wall_s * self.slowdown

    @property
    def scaled_cpu_s(self) -> float:
        """CPU seconds at the reference host speed."""
        return self.cpu_s / self.slowdown

    def mismatches(self, reference: dict[str, list]) -> list[str]:
        return [
            sid
            for sid, expected in reference.items()
            if [event_key(e) for e in self.events.get(sid, [])] != expected
        ]


def _cpu_now(children: list[int]) -> float:
    return time.process_time() + sum(procstat.cpu_seconds(pid) for pid in children)


def _open_all(target, fleet: Fleet, tag: str, result: PassResult) -> dict[str, str]:
    names = {f"{sid}@{tag}": sid for sid in fleet.streams}
    for name, sid in names.items():
        target.open_session(name)
        result.events[sid] = []
    return names


def _ingest(target, name: str, chunk: np.ndarray, result: PassResult) -> list:
    result.n_chunks += 1
    try:
        return target.ingest(name, chunk)
    except Exception:  # a raised chunk is a failed operation, counted
        result.n_failed += 1
        return []


def _close(target, name: str, result: PassResult) -> list:
    try:
        return target.close_session(name)
    except Exception:
        result.n_failed += 1
        return []


def closed_pass(tier, fleet: Fleet, chunk: int, tag: str, rss: procstat.RssProbe) -> PassResult:
    """Replay the whole fleet once as fast as the tier accepts it.

    Host-speed probes run between rounds; their time is taken out of the
    pass's wall and CPU time.
    """
    target = tier.target
    result = PassResult()
    # A tier with serving processes of its own runs on every vCPU.
    speed = HostSpeed(every_cpu=bool(tier.children))
    speed.probe()
    before = speed.probe_s
    cpu0 = _cpu_now(tier.children)
    start = time.perf_counter()
    names = _open_all(target, fleet, tag, result)
    offset = 0
    longest = max(x.shape[0] for x in fleet.streams.values())
    while offset < longest:
        for name, sid in names.items():
            x = fleet.streams[sid]
            if offset >= x.shape[0]:
                continue
            events = _ingest(target, name, x[offset : offset + chunk], result)
            position = min(offset + chunk, x.shape[0])
            result.stream_delay_s.extend((position - e.peak) / FS for e in events)
            result.events[sid].extend(events)
        offset += chunk
        rss.maybe_sample()
        speed.maybe_probe()
    for name, sid in names.items():
        events = _close(target, name, result)
        result.stream_delay_s.extend((fleet.streams[sid].shape[0] - e.peak) / FS for e in events)
        result.events[sid].extend(events)
    result.probe_s = speed.probe_s - before
    result.wall_s = time.perf_counter() - start - result.probe_s
    result.cpu_s = _cpu_now(tier.children) - cpu0 - result.probe_s
    speed.probe()
    result.slowdown = speed.slowdown
    rss.sample()
    return result


def open_pass(
    tier, fleet: Fleet, chunk: int, speedup: float, tag: str, rss: procstat.RssProbe
) -> PassResult:
    """Replay the fleet on a fixed schedule at ``speedup`` x real time.

    Sessions start :data:`STAGGER_S` of stream apart in total, as
    independent devices would, instead of all hitting the detector's
    window boundaries in the same round; each closes right after its
    last chunk.  Session ``k`` (of ``n``) sends its chunk ``j`` at
    ``t0 + (start_k + j + k / n) * chunk / fs / speedup``.
    """
    target = tier.target
    result = PassResult()
    names = _open_all(target, fleet, tag, result)
    interval = chunk / FS / speedup
    n = len(names)
    stagger = STAGGER_S * FS / chunk
    plan = [
        (name, sid, round(k * stagger / n), -(-fleet.streams[sid].shape[0] // chunk), k / n)
        for k, (name, sid) in enumerate(names.items())
    ]
    due_of: dict[str, list[float]] = {name: [] for name in names}

    def note(name: str, events: list, now: float) -> None:
        dues = due_of[name]
        for e in events:
            result.latency_s.append(now - dues[min(e.peak // chunk, len(dues) - 1)])
        result.events[names[name]].extend(events)

    t0 = time.perf_counter() + 0.005
    start = time.perf_counter()
    for r in range(max(first + count for _, _, first, count, _ in plan)):
        for name, sid, first, count, phase in plan:
            j = r - first
            if not 0 <= j < count:
                continue
            due = t0 + (r + phase) * interval
            ahead = due - time.perf_counter()
            if ahead > 0:
                time.sleep(ahead)
            now = time.perf_counter()
            result.late_s.append(now - due)
            due_of[name].append(due)
            x = fleet.streams[sid]
            events = _ingest(target, name, x[j * chunk : (j + 1) * chunk], result)
            note(name, events, time.perf_counter())
            if j == count - 1:
                note(name, _close(target, name, result), time.perf_counter())
        rss.maybe_sample()
    result.wall_s = time.perf_counter() - start
    rss.sample()
    return result


def detection_quality(fleet: Fleet, events: dict[str, list]) -> dict[str, float]:
    """Emitted beats scored against the synthesizer's annotations.

    Each annotated beat matches at most one emitted beat within
    :data:`MATCH_TOLERANCE_S` (nearest first, in stream order).
    """
    tolerance = int(round(MATCH_TOLERANCE_S * FS))
    tp = fn = fp = 0
    abnormal = abnormal_flagged = 0
    n_events = n_flagged = 0
    for sid, truth in fleet.truth_peaks.items():
        seq = events[sid]
        peaks = np.asarray([e.peak for e in seq], dtype=np.int64)
        flagged = np.asarray([e.flagged for e in seq], dtype=bool)
        n_events += peaks.size
        n_flagged += int(flagged.sum())
        used = np.zeros(peaks.size, dtype=bool)
        for peak, symbol in zip(truth, fleet.truth_symbols[sid]):
            lo, hi = np.searchsorted(peaks, [peak - tolerance, peak + tolerance + 1])
            candidates = [j for j in range(lo, hi) if not used[j]]
            match = min(candidates, key=lambda j: abs(peaks[j] - peak), default=None)
            if symbol in ABNORMAL_SYMBOLS:
                abnormal += 1
            if match is None:
                fn += 1
                continue
            used[match] = True
            tp += 1
            if symbol in ABNORMAL_SYMBOLS and flagged[match]:
                abnormal_flagged += 1
        fp += int((~used).sum())
    return {
        "detect_se": tp / max(1, tp + fn),
        "detect_ppv": tp / max(1, tp + fp),
        "abnormal_recall": abnormal_flagged / max(1, abnormal),
        "flagged_frac": n_flagged / max(1, n_events),
    }
