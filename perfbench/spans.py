"""Spans around the public calls into each layer, recorded from outside.

:class:`SpanRecorder` replaces the public functions listed in
:data:`LAYERS` with wrappers that record spans (name, start, end, CPU
time, parent, work) in memory.  Nothing in ``src/`` changes.  Wrappers
are installed before a tier starts, so forked socket hosts and pool
workers inherit them.  Each child writes its spans to a spool file when
it exits (a clean multiprocessing exit, or the ``SIGTERM`` that stops a
host), and :meth:`SpanRecorder.load_spool` brings them back.  Each
process records on one thread (the benchmark's replay loop, a worker's
request loop, a host's event loop), so a plain stack gives every span
its parent.
"""

from __future__ import annotations

import multiprocessing.util
import os
import pickle
import signal
import time
from array import array

import numpy as np

from repro.dsp import BlockFilter, StreamingDelineator, StreamingNode, StreamingPeakDetector
from repro.fixedpoint.convert import EmbeddedClassifier
from repro.serving import (
    AnalyticsPipeline,
    FileJournalStore,
    GatewayClient,
    SessionJournal,
    ShardedGateway,
    StreamGateway,
    SupervisedGateway,
)
from repro.serving.net import protocol


def _n_in(args, result) -> int:
    return len(args[1])


def _n_out(args, result) -> int:
    return len(result)


def _blob_bytes(args, result) -> int:
    return len(args[2])


def _chunk_bytes(args, result) -> int:
    return np.asarray(args[2], dtype=float).nbytes


#: layer -> (owner, function name, work counter or None).  The work
#: counter turns a call's arguments and result into the layer's unit of
#: work: samples for the front end, beats for delineation, classifier
#: and analytics, bytes for the journal, the pipes and the wire.
LAYERS = {
    "dsp.filter": [
        (BlockFilter, "push", _n_in),
        (BlockFilter, "flush", _n_out),
    ],
    "dsp.detect": [
        (StreamingPeakDetector, "push", _n_in),
        (StreamingPeakDetector, "flush", None),
    ],
    # Delineation runs when a scheduled beat's right context is
    # complete, which can be inside any of these four calls.
    "dsp.delineate": [
        (StreamingDelineator, "push", _n_out),
        (StreamingDelineator, "add_beat", _n_out),
        (StreamingDelineator, "add_beats", _n_out),
        (StreamingDelineator, "flush", _n_out),
    ],
    "classify": [(EmbeddedClassifier, "predict", _n_in)],
    "node": [
        (StreamingNode, "push", None),
        (StreamingNode, "deliver", None),
        (StreamingNode, "finish_input", None),
        (StreamingNode, "finalize", None),
    ],
    "analytics": [
        (AnalyticsPipeline, "update", _n_in),
        (AnalyticsPipeline, "finalize", None),
    ],
    "gateway": [
        (StreamGateway, "open_session", None),
        (StreamGateway, "ingest", None),
        (StreamGateway, "flush_batch", None),
        (StreamGateway, "close_session", None),
        (StreamGateway, "export_session", None),
    ],
    "journal": [
        (SessionJournal, "open", None),
        (SessionJournal, "log_chunk", None),
        (SessionJournal, "snapshot", None),
        (SessionJournal, "delivered", None),
        (SessionJournal, "wants_snapshot", None),
        (SessionJournal, "forget", None),
        (FileJournalStore, "begin", None),
        (FileJournalStore, "append_chunk", _blob_bytes),
        (FileJournalStore, "put_snapshot", _blob_bytes),
        (FileJournalStore, "add_delivered", None),
        (FileJournalStore, "chunk_count", None),
        (FileJournalStore, "forget", None),
    ],
    "sharded": [
        (ShardedGateway, "open_session", None),
        (ShardedGateway, "ingest", _chunk_bytes),
        (ShardedGateway, "close_session", None),
    ],
    "supervisor": [
        (SupervisedGateway, "open_session", None),
        (SupervisedGateway, "ingest", None),
        (SupervisedGateway, "close_session", None),
    ],
    "net": [
        (GatewayClient, "open_session", None),
        (GatewayClient, "ingest", None),
        (GatewayClient, "poll", None),
        (GatewayClient, "close_session", None),
        (protocol, "pack_frame", _n_out),
    ],
}


class SpanRecorder:
    """Collects spans in memory; owns the wrappers it installs.

    ``install`` patches every function in :data:`LAYERS`; ``uninstall``
    restores the originals.  A span is one row of the :data:`COLUMNS`
    arrays: the function's index in :attr:`names` (``"layer:function"``),
    its wall start and end from ``perf_counter_ns`` (the monotonic clock,
    shared by every process on the host), the CPU time its thread spent
    inside it, the row of the span that called it (-1 at top level) and
    its work count.  Columns of plain integers keep a traced run of a few
    hundred thousand calls within tens of megabytes.
    """

    COLUMNS = ("name", "start", "end", "cpu", "parent", "work")

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.columns = {column: array("q") for column in self.COLUMNS}
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for owner, attr, work in targets:
                original = getattr(owner, attr)
                self.names.append(f"{layer}:{attr}")
                setattr(owner, attr, self._wrap(original, len(self.names) - 1, work))
                self._originals.append((owner, attr, original))
        os.makedirs(self.spool_dir, exist_ok=True)
        multiprocessing.util.register_after_fork(self, SpanRecorder._start_child)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name_id: int, work):
        recorder = self
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def traced(*args, **kwargs):
            c = recorder.columns
            stack = recorder._stack
            row = len(c["start"])
            c["name"].append(name_id)
            c["parent"].append(stack[-1] if stack else -1)
            c["end"].append(0)
            c["cpu"].append(0)
            c["work"].append(0)
            stack.append(row)
            cpu0 = cpu()
            c["start"].append(wall())
            try:
                result = original(*args, **kwargs)
            finally:
                c["end"][row] = wall()
                c["cpu"][row] = cpu() - cpu0
                stack.pop()
            if work is not None:
                c["work"][row] = work(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def spans(self, start_ns: int, end_ns: int) -> "ProcessSpans":
        return ProcessSpans(self.names, self.columns, start_ns, end_ns)

    # -- forked children ---------------------------------------------------

    def _start_child(self) -> None:
        """Runs in every multiprocessing child right after the fork."""
        if not self._originals:
            return
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)
        signal.signal(signal.SIGTERM, self._dump_and_exit)

    def _dump_and_exit(self, signum, frame) -> None:
        self.dump()
        os._exit(0)

    def dump(self) -> None:
        """Write this process's spans to its spool file."""
        path = os.path.join(self.spool_dir, f"{os.getpid()}.pkl")
        with open(path + ".tmp", "wb") as handle:
            pickle.dump(self.columns, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(path + ".tmp", path)

    def load_spool(self, start_ns: int, end_ns: int) -> dict[int, "ProcessSpans"]:
        """Spans the child processes wrote, keyed by pid."""
        out = {}
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.endswith(".pkl"):
                with open(os.path.join(self.spool_dir, entry), "rb") as handle:
                    columns = pickle.load(handle)
                out[int(entry[:-4])] = ProcessSpans(self.names, columns, start_ns, end_ns)
        return out


class ProcessSpans:
    """One process's finished spans inside a time window.

    A span whose caller lies outside the window counts as top level.
    Self time is a span's time minus the time of the spans it called,
    on the wall clock (``self_wall``) and in CPU (``self_cpu``); their
    difference is time the caller spent waiting inside that layer.
    """

    def __init__(self, names: list[str], columns: dict, start_ns: int, end_ns: int):
        c = {k: np.frombuffer(v, dtype=np.int64) for k, v in columns.items()}
        keep = (c["end"] > 0) & (c["start"] >= start_ns) & (c["end"] <= end_ns)
        rows = np.flatnonzero(keep)
        remap = np.full(keep.size + 1, -1, dtype=np.int64)  # remap[-1] stays -1
        remap[rows] = np.arange(rows.size)
        self.names = names
        self.name = c["name"][rows]
        self.wall = c["end"][rows] - c["start"][rows]
        self.cpu = c["cpu"][rows]
        self.parent = remap[c["parent"][rows]]
        self.work = c["work"][rows]
        called = self.parent >= 0
        child_wall = np.zeros(rows.size, dtype=np.int64)
        child_cpu = np.zeros(rows.size, dtype=np.int64)
        np.add.at(child_wall, self.parent[called], self.wall[called])
        np.add.at(child_cpu, self.parent[called], self.cpu[called])
        self.self_wall = self.wall - child_wall
        self.self_cpu = self.cpu - child_cpu
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        layer_of_name = np.asarray([layer_index[n.split(":", 1)[0]] for n in names])
        self.layer = layer_of_name[self.name]
        # Outermost span of its layer: no caller up the chain belongs to
        # the same layer, so its time is not already counted.
        self.outermost = np.ones(rows.size, dtype=bool)
        ancestor = self.parent.copy()
        while (ancestor >= 0).any():
            up = ancestor >= 0
            self.outermost[up] &= self.layer[ancestor[up]] != self.layer[up]
            ancestor[up] = self.parent[ancestor[up]]

    def top_level_cpu_s(self) -> float:
        """CPU seconds inside top-level spans."""
        return self.cpu[self.parent < 0].sum() / 1e9


class LayerTotals:
    """Per-layer and per-function sums over the spans of several processes."""

    def __init__(self):
        zero = dict.fromkeys(LAYERS, 0.0)
        self.layer_self_s = dict(zero)
        self.layer_self_cpu_s = dict(zero)
        self.layer_busy_s = dict(zero)
        self.fn: dict[str, dict[str, float]] = {}
        self.node_pushes = 0
        self.node_pushes_with_front_end = 0

    def add(self, proc: ProcessSpans) -> None:
        for i, layer in enumerate(LAYERS):
            mine = proc.layer == i
            self.layer_self_s[layer] += proc.self_wall[mine].sum() / 1e9
            self.layer_self_cpu_s[layer] += proc.self_cpu[mine].sum() / 1e9
            self.layer_busy_s[layer] += proc.wall[mine & proc.outermost].sum() / 1e9
        for name_id, name in enumerate(proc.names):
            mine = proc.name == name_id
            if not mine.any():
                continue
            fn = self.fn.setdefault(
                name, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0, "with_work": 0}
            )
            fn["calls"] += int(mine.sum())
            fn["busy"] += proc.wall[mine].sum() / 1e9
            fn["self"] += proc.self_wall[mine].sum() / 1e9
            fn["work"] += int(proc.work[mine].sum())
            fn["with_work"] += int((proc.work[mine] > 0).sum())
        pushes = proc.name == proc.names.index("node:push")
        filtered = proc.name == proc.names.index("dsp.filter:push")
        callers = proc.parent[filtered]
        self.node_pushes += int(pushes.sum())
        self.node_pushes_with_front_end += int(np.isin(np.flatnonzero(pushes), callers).sum())

    def _sum(self, key: str, names) -> float:
        return sum(self.fn.get(name, {}).get(key, 0) for name in names)

    def calls(self, *names: str) -> int:
        return int(self._sum("calls", names))

    def work(self, *names: str) -> int:
        return int(self._sum("work", names))

    def busy(self, *names: str) -> float:
        return float(self._sum("busy", names))

    def self_time(self, *names: str) -> float:
        return float(self._sum("self", names))

    def calls_with_work(self, *names: str) -> int:
        return int(self._sum("with_work", names))
