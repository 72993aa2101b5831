"""The two kinds of run: end to end (tracing off) and traced by layer."""

from __future__ import annotations

import os
import pickle
import select
import statistics
import subprocess
import sys
import time

import numpy as np

import procstat
from hostspeed import PROBE_EVERY_S, HostSpeed
from replay import closed_pass, detection_quality, open_pass, reference_events
from spans import LAYERS, LayerTotals, SpanRecorder
from workloads import FS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh-process set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 60.0
#: Closed-loop passes per traced run (fixed, so span counts repeat).
TRACED_PASSES = 3
#: Share of ``--seconds`` given to closed-loop passes, and their
#: fewest number; the open loop runs until it has enough verdicts.
CLOSED_SHARE = 0.75
MIN_CLOSED_PASSES = 5
#: Fewest open-loop verdicts per run: at least ten lie beyond the p99.
MIN_LATENCIES = 1100
#: No new pass starts after this many seconds of a run.
HARD_STOP_S = 140.0


def fresh_setup_s(workload, run_dir: str) -> float:
    """Seconds from launching a fresh process until its tier could take
    the first chunk: interpreter start, imports, the classifier build
    and the tier start, as a restarted server pays them.  Scaled to the
    reference host speed by probes made while the child sets up."""
    # The child may run on any vCPU, and this process waits meanwhile.
    speed = HostSpeed(every_cpu=True)
    speed.probe()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name, run_dir],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        # Probe the host while the child works, at the replay loops' 1% duty.
        while not select.select([child.stdout], [], [], PROBE_EVERY_S)[0]:
            if time.perf_counter() - start > SETUP_TIMEOUT_S:
                child.kill()
                break
            speed.probe()
        ready = child.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
    finally:
        child.stdin.close()  # tells the child to stop its tier and exit
        code = child.wait(timeout=60)
    if not ready or code != 0:
        raise RuntimeError(f"set-up child failed (exit code {code})")
    speed.probe()
    return elapsed / speed.slowdown


def build_classifier():
    """The shared classifier, built the way ``repro serve`` builds it."""
    from repro.experiments.table3 import Table3Config, build_embedded_classifier

    classifier, _ = build_embedded_classifier(Table3Config(seed=7))
    return classifier


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _check(passes, reference) -> list[str]:
    bad = []
    for i, result in enumerate(passes):
        bad.extend(f"pass {i}: {sid}" for sid in result.mismatches(reference))
    return bad


def run_end_to_end(workload, seed: int, seconds: float, run_dir: str, started: float):
    setup_s = [fresh_setup_s(workload, run_dir) for _ in range(SETUPS)]
    fleet = workload.build_fleet(seed)
    classifier = build_classifier()
    tier = workload.start_tier(classifier, workload.gateway_kwargs, run_dir)
    try:
        reference = reference_events(fleet, classifier, workload.n_leads)
        rss = procstat.RssProbe(tier.serving_pids)
        warm = closed_pass(tier, fleet, workload.chunk, "warm", rss)

        closed = []
        phase = time.perf_counter()
        while len(closed) < MIN_CLOSED_PASSES or (
            time.perf_counter() - phase < CLOSED_SHARE * seconds
            and time.perf_counter() - started < HARD_STOP_S
        ):
            closed.append(closed_pass(tier, fleet, workload.chunk, f"c{len(closed)}", rss))
        opened = []
        while not opened or (
            sum(len(p.latency_s) for p in opened) < MIN_LATENCIES
            and time.perf_counter() - started < HARD_STOP_S
        ):
            tag = f"o{len(opened)}"
            opened.append(open_pass(tier, fleet, workload.chunk, workload.open_speedup, tag, rss))
    finally:
        tier.close()

    passes = [warm, *closed, *opened]
    bad = _check(passes, reference)
    latency_ms = [1e3 * v for p in opened for v in p.latency_s]
    p99 = _percentile(latency_ms, 99)
    beyond_p99 = sum(v > p99 for v in latency_ms)
    measured = [*closed, *opened]
    attempted = sum(p.n_chunks for p in measured)
    failed = sum(p.n_failed for p in measured)
    quality = detection_quality(fleet, warm.events)
    signal_h = fleet.signal_s / 3600.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        # Scaled to the reference host speed: see "Steadiness" in README.md.
        "events_per_s": (statistics.median(p.scaled_events_per_s for p in closed), "1/s"),
        "cpu_s_per_signal_h": (statistics.median(p.scaled_cpu_s / signal_h for p in closed), "s/h"),
        "verdict_p50_ms": (_percentile(latency_ms, 50), "ms"),
        "verdict_p99_ms": (p99, "ms"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (rss.peak_bytes / 2**20, "MiB"),
        "detect_se": (quality["detect_se"], "frac"),
        "detect_ppv": (quality["detect_ppv"], "frac"),
        "abnormal_recall": (quality["abnormal_recall"], "frac"),
        "flagged_frac": (quality["flagged_frac"], "frac"),
    }
    late_ms = [1e3 * v for p in opened for v in p.late_s]
    notes = [
        f"tier: {workload.describe_tier()}",
        f"fleet: {len(fleet.streams)} sessions x {workload.duration_s:g} s, "
        f"{workload.n_leads} lead(s), {workload.chunk}-sample chunks, seed {seed}",
        f"setup: {len(setup_s)} set-ups, " + ", ".join(f"{v:.3f}" for v in setup_s) + " s",
        f"closed loop: {len(closed)} passes, {sum(p.n_events for p in closed)} events in "
        f"{sum(p.wall_s for p in closed):.2f} s; unscaled median "
        f"{statistics.median(p.n_events / p.wall_s for p in closed):.1f} events/s, "
        f"host slowdown median {statistics.median(p.slowdown for p in closed):.3f}",
        f"open loop: {len(opened)} passes at {workload.open_speedup:g}x real time "
        f"({workload.open_speedup * fleet.nominal_eps:.0f} ev/s offered), "
        f"{len(latency_ms)} verdicts, {beyond_p99} beyond p99, "
        f"generator late p50 {_percentile(late_ms, 50):.3f} ms / "
        f"p99 {_percentile(late_ms, 99):.3f} ms",
        f"chunks: {attempted} offered, {failed} failed",
    ]
    if beyond_p99 < 10:
        bad.append(f"only {beyond_p99} verdicts beyond p99")
    return metrics, notes, bad, sum(p.n_chunks for p in passes), sum(p.n_failed for p in passes)


def state_bytes(workload, classifier, fleet) -> int:
    """Median pickled ``SessionExport`` of a session halfway through its
    stream, in the workload's gateway configuration."""
    from repro.serving import StreamGateway

    gateway = StreamGateway(classifier, FS, **workload.gateway_kwargs)
    sizes = []
    for sid in list(fleet.streams)[:4]:
        x = fleet.streams[sid]
        gateway.open_session(sid)
        for i in range(0, x.shape[0] // 2, workload.chunk):
            gateway.ingest(sid, x[i : i + workload.chunk])
        sizes.append(len(pickle.dumps(gateway.export_session(sid))))
    return int(statistics.median(sizes))


def run_traced(workload, seed: int, seconds: float, run_dir: str, started: float):
    fleet = workload.build_fleet(seed)
    classifier = build_classifier()
    reference = reference_events(fleet, classifier, workload.n_leads)
    node_state = state_bytes(workload, classifier, fleet)

    # Untraced: the wall-time baseline of the tracing overhead, and the
    # load generator's lateness at the fixed open-loop rate.
    tier = workload.start_tier(classifier, workload.gateway_kwargs, run_dir)
    try:
        rss = procstat.RssProbe([])
        passes = [closed_pass(tier, fleet, workload.chunk, "warm", rss)]
        untraced = []
        phase = time.perf_counter()
        while len(untraced) < TRACED_PASSES or (
            time.perf_counter() - phase < seconds / 2
            and time.perf_counter() - started < HARD_STOP_S
        ):
            untraced.append(closed_pass(tier, fleet, workload.chunk, f"u{len(untraced)}", rss))
        opened = open_pass(tier, fleet, workload.chunk, workload.open_speedup, "o", rss)
    finally:
        tier.close()
    passes += [*untraced, opened]

    spool = os.path.join(run_dir, "spans")
    recorder = SpanRecorder(spool)
    recorder.install()
    try:
        tier = workload.start_tier(classifier, workload.gateway_kwargs, run_dir)
        try:
            children = list(tier.children)
            cpu0 = {pid: procstat.cpu_seconds(pid) for pid in [os.getpid(), *children]}
            start_ns = time.perf_counter_ns()
            traced = [
                closed_pass(tier, fleet, workload.chunk, f"t{i}", rss)
                for i in range(TRACED_PASSES)
            ]
            end_ns = time.perf_counter_ns()
            cpu1 = {pid: procstat.cpu_seconds(pid) for pid in cpu0}
            stats = tier.stats()
        finally:
            tier.close()
    finally:
        recorder.uninstall()
    passes += traced

    # Work not inside any span: each process's CPU time over the window
    # minus the CPU time of its top-level spans (and, in this process,
    # of the host-speed probes).
    parent = recorder.spans(start_ns, end_ns)
    procs = {os.getpid(): parent, **recorder.load_spool(start_ns, end_ns)}
    totals = LayerTotals()
    unattributed = -sum(p.probe_s for p in traced)
    unmeasured = [pid for pid in children if pid not in procs]
    for pid, proc in procs.items():
        totals.add(proc)
        unattributed += cpu1[pid] - cpu0[pid] - proc.top_level_cpu_s()
    unattributed = max(0.0, unattributed)
    parent_only = LayerTotals()
    parent_only.add(parent)

    metrics = layer_metrics(totals, parent_only, unattributed, stats, traced, untraced, opened)
    metrics["node.state_bytes"] = (node_state, "B")
    notes = layer_table(totals, unattributed)
    notes.append(
        f"traced: {TRACED_PASSES} closed passes, {len(children)} child process(es), "
        f"spans from {len(children) - len(unmeasured)}"
    )
    bad = _check(passes, reference)
    if unmeasured:
        bad.append(f"no spans came back from child processes {unmeasured}")
    return metrics, notes, bad, sum(p.n_chunks for p in passes), sum(p.n_failed for p in passes)


def layer_metrics(totals, parent_only, unattributed, stats, traced, untraced, opened) -> dict:
    t = totals
    filter_fns = ("dsp.filter:push", "dsp.filter:flush")
    detect_fns = ("dsp.detect:push", "dsp.detect:flush")
    delineate_fns = tuple(f"dsp.delineate:{f}" for f in ("push", "add_beat", "add_beats", "flush"))
    filter_samples = t.work("dsp.filter:push")
    delineated = t.work(*delineate_fns)
    classified = t.work("classify:predict")
    per_worker = [w["n_classified"] for w in stats["per_worker"]]
    delays = [v for p in traced for v in p.stream_delay_s]
    total_cpu = sum(t.layer_self_cpu_s.values()) + unattributed
    share = {layer: v / total_cpu for layer, v in t.layer_self_cpu_s.items()}
    metrics = {
        "dsp.filter.busy_s": (t.busy(*filter_fns), "s"),
        "dsp.filter.calls": (t.calls(*filter_fns), "count"),
        "dsp.filter.ns_per_sample": (
            1e9 * t.busy("dsp.filter:push") / max(1, filter_samples),
            "ns",
        ),
        "dsp.detect.busy_s": (t.busy(*detect_fns), "s"),
        "dsp.detect.calls": (t.calls(*detect_fns), "count"),
        "dsp.delineate.busy_s": (t.busy(*delineate_fns), "s"),
        "dsp.delineate.beats": (delineated, "count"),
        "dsp.delineate.beats_per_call": (
            delineated / max(1, t.calls_with_work(*delineate_fns)),
            "beats",
        ),
        "node.push.self_s": (t.self_time("node:push"), "s"),
        "node.push.calls": (t.calls("node:push"), "count"),
        "node.push.work_frac": (t.node_pushes_with_front_end / max(1, t.node_pushes), "frac"),
        "node.verdict_delay_stream_s.p50": (_percentile(delays, 50), "s"),
        "node.verdict_delay_stream_s.p99": (_percentile(delays, 99), "s"),
        "classify.busy_s": (t.busy("classify:predict"), "s"),
        "classify.beats": (classified, "count"),
        "classify.beats_per_call": (classified / max(1, t.calls("classify:predict")), "beats"),
        "gateway.ingest.self_s": (t.self_time("gateway:ingest"), "s"),
        "gateway.ingest.calls": (t.calls("gateway:ingest"), "count"),
        "gateway.flush.self_s": (t.self_time("gateway:flush_batch"), "s"),
        "gateway.flush.calls": (t.calls("gateway:flush_batch"), "count"),
        "analytics.busy_s": (t.busy("analytics:update", "analytics:finalize"), "s"),
        "analytics.beats": (t.work("analytics:update"), "count"),
        "journal.append.busy_s": (t.busy("journal:log_chunk"), "s"),
        "journal.append.calls": (t.calls("journal:log_chunk"), "count"),
        "journal.append.bytes": (t.work("journal:append_chunk"), "B"),
        "journal.snapshot.busy_s": (t.busy("journal:snapshot"), "s"),
        "journal.snapshot.calls": (t.calls("journal:snapshot"), "count"),
        "journal.snapshot.bytes": (t.work("journal:put_snapshot"), "B"),
        "sharded.ingest.busy_s": (t.busy("sharded:ingest"), "s"),
        "sharded.ipc.bytes": (t.work("sharded:ingest"), "B"),
        "sharded.worker_skew": (max(per_worker) / max(1e-9, statistics.mean(per_worker)), "ratio"),
        "net.client.ingest.busy_s": (parent_only.busy("net:ingest"), "s"),
        "net.frames_sent": (parent_only.calls("net:pack_frame"), "count"),
        "net.bytes_sent": (parent_only.work("net:pack_frame"), "B"),
        "loadgen.late_p99_ms": (_percentile([1e3 * v for v in opened.late_s], 99), "ms"),
        "unattributed.self_s": (unattributed, "s"),
        "trace.overhead_frac": (
            statistics.median(p.wall_s / p.slowdown for p in traced)
            / statistics.median(p.wall_s / p.slowdown for p in untraced)
            - 1.0,
            "frac",
        ),
        # Per-layer seconds are as measured; divide by this to compare
        # runs made while the host ran at different speeds.
        "host.slowdown": (statistics.median(p.slowdown for p in traced), "ratio"),
        "dsp.filter_detect.share": (share["dsp.filter"] + share["dsp.detect"], "frac"),
        "dsp.delineate.share": (share["dsp.delineate"], "frac"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (t.layer_self_s[layer], "s")
        metrics[f"{layer}.self_cpu_s"] = (t.layer_self_cpu_s[layer], "s")
    return metrics


def layer_table(totals, unattributed) -> list[str]:
    """Self time per layer, summed over every process; the share is of
    all CPU time the processes spent in the traced window."""
    cpu = dict(totals.layer_self_cpu_s, unattributed=unattributed)
    total = sum(cpu.values())
    lines = [f"{'layer':<14}{'self cpu s':>11}{'share':>8}{'self s':>9}{'wait s':>9}{'busy s':>9}"]
    for layer, value in sorted(cpu.items(), key=lambda kv: -kv[1]):
        wall = totals.layer_self_s.get(layer, value)
        busy = totals.layer_busy_s.get(layer, value)
        lines.append(
            f"{layer:<14}{value:>11.4f}{value / total:>8.1%}"
            f"{wall:>9.4f}{wall - value:>9.4f}{busy:>9.4f}"
        )
    lines.append(f"{'total':<14}{total:>11.4f}")
    return lines
