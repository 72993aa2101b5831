"""Streaming (block-wise) processing — truly incremental, front to back.

The batch functions in :mod:`repro.dsp.morphological` and
:mod:`repro.dsp.peak_detection` consume whole records; a WBSN consumes
an ADC stream and must process it in small blocks with bounded memory.
This module provides that engine:

* :class:`BlockFilter` — a cascade of :class:`~repro.dsp.kernels.StreamingExtremum`
  stages (erosion/dilation for baseline removal, opening/closing for
  denoising) plus a delay line for the baseline subtraction.  Every
  stage carries the last ``m - 1`` samples it saw across ``push``
  calls and runs the batch sliding-extremum kernel over ``[carry |
  block]`` — amortized O(block + m) work per push, instead of
  re-filtering a ``context + block`` buffer on every call.  The
  cascade seeds each stage with its first input (matching the batch
  operators' left edge replication) and ``flush`` replicates each
  stage's last input (matching the right edge), which makes the
  streamed output **bit-exact** with ``filter_lead(whole_record)`` from
  the very first sample.
* :class:`StreamingPeakDetector` — wavelet peak detection over the
  filtered stream.  A :class:`~repro.dsp.wavelet.StreamingWavelet`
  carries the FIR state of the à-trous filters (each sample is
  filtered once; the per-window transform recomputation of the old
  scheduler is gone) and per-scale running energy sums carry the
  detection thresholds across windows.  Only the cheap pairing /
  refractory / search-back logic runs per analysis window, on the
  buffered coefficients.

  Both are **multi-row**: one push of a sequence of 1-D rows (leads,
  sessions — any lengths, any stream positions) advances every row in
  one vectorized pass per stage and filter, bit-exact with pushing
  each row alone; a 1-D block is the one-row case.

* :class:`StreamingNode` — the whole gated node of Figure 6 as one
  incremental engine: a :class:`BlockFilter` over all leads, the
  :class:`StreamingPeakDetector`, per-beat classification, and the
  gated :class:`~repro.dsp.delineation.StreamingDelineator` for beats
  flagged abnormal.  It emits one :class:`StreamBeatEvent` per beat
  (label, fiducials, tx payload) incrementally, in beat order, and is
  bit-exact with the batch pipeline over the completed record.  Two
  serving hooks separate concerns further: a *deferred-classify* mode
  splits the per-sample front end from classification (pending beats
  go to an outbox via :meth:`StreamingNode.take_pending`, labels come
  back via :meth:`StreamingNode.deliver` — how
  :class:`repro.serving.gateway.StreamGateway` multiplexes many live
  sessions into one batched classifier pass), and
  :meth:`StreamingNode.snapshot` / :meth:`StreamingNode.restore`
  capture the full session state (filters, wavelet, thresholds,
  delineator buffers, pending beats) as a picklable
  :class:`NodeSnapshot` so live sessions can migrate between shards.
* :func:`push_nodes` — many nodes' pushes as one batched front-end
  pass (one stacked filter push over every lead of every node, one
  stacked detector push), the gateway's per-round DSP step.  A node
  stashes sub-second pushes whose samples cannot change what it emits
  yet, so such a pass carries about one 1 s block per node instead of
  one per chunk.

The filter/detector classes record no op counts: the counters model
the embedded firmware's *batch-equivalent* arithmetic, which is
unchanged (see :mod:`repro.dsp.morphological`).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.delineation import (
    BeatFiducials,
    DelineationConfig,
    StreamingDelineator,
)
from repro.dsp.kernels import (
    StreamingExtremum,
    TailBuffer,
    as_rows,
    from_rows,
    row_lengths,
    shift_rows,
    take_rows,
)
from repro.dsp.morphological import structuring_element_length
from repro.dsp.peak_detection import PeakDetectorConfig, detect_peaks_from_wavelet
from repro.dsp.wavelet import StreamingWavelet

#: Window durations (seconds) of the filter_lead chain, shared with
#: :mod:`repro.dsp.morphological`'s defaults.
OPENING_WINDOW_S = 0.2
CLOSING_WINDOW_S = 0.3
DENOISE_WINDOW_S = 0.014


def filter_context_samples(fs: float) -> int:
    """One-sided context (= exact latency) of the filtering chain.

    The baseline-removal opening/closing use structuring elements of
    0.2 s and 0.3 s; a cascade of erosion+dilation with element length
    ``m`` looks ``m - 1`` samples in each direction, so two cascaded
    stages need the sum of their supports, and the denoising stage
    adds its short element.  Equals
    :attr:`BlockFilter.delay_samples`: output ``i`` is final once
    input ``i + context`` has arrived.
    """
    opening = structuring_element_length(OPENING_WINDOW_S, fs)
    closing = structuring_element_length(CLOSING_WINDOW_S, fs)
    denoise = structuring_element_length(DENOISE_WINDOW_S, fs)
    return (opening - 1) + (closing - 1) + (denoise - 1)


class BlockFilter:
    """Incremental morphological filtering, bit-exact with the batch path.

    Parameters
    ----------
    fs:
        Sampling frequency in Hz.

    Notes
    -----
    ``push(block)`` returns the filtered samples that became *final*
    with this block (their two-sided context is complete); ``flush()``
    returns the tail, computed with the same edge replication the batch
    path applies at the record end, and resets the filter for a fresh
    stream.  Concatenating every return value reproduces
    ``filter_lead(whole_record)`` exactly — including the first
    ``context`` samples, because each streaming stage seeds itself with
    its first input value, which is precisely the batch operators'
    left edge padding.

    Each stage carries only the last ``m - 1`` samples it saw and runs
    the batch :func:`~repro.dsp.kernels.sliding_extremum` over
    ``[carry | block]``, so the amortized work per push is O(block +
    m), independent of the retained context.

    The filter is multi-row: a sequence of 1-D rows of any lengths
    (each at its own stream position) advances every row through the
    whole morphology cascade in one vectorized pass per stage and returns
    a list of per-row outputs — how :class:`StreamingNode` filters all
    its leads at once and how a gateway filters many sessions at once.
    A 1-D block is the one-row case and returns a 1-D array.  The row count is fixed
    by the first push; every row's state lives in one ``(rows, ·)``
    array, so filters are cheap to stack and split.
    """

    def __init__(self, fs: float):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        self.fs = fs
        self.context = filter_context_samples(fs)
        self._opening_length = m1 = structuring_element_length(OPENING_WINDOW_S, fs)
        self._closing_length = m2 = structuring_element_length(CLOSING_WINDOW_S, fs)
        self._denoise_length = m3 = structuring_element_length(DENOISE_WINDOW_S, fs)
        # remove_baseline: closing(opening(x, m1), m2), then x - baseline;
        # suppress_noise: (opening(y, m3) + closing(y, m3)) / 2.  The
        # opening's dilation and the closing's dilation are adjacent, and
        # a dilation of a dilation is one dilation over the union window
        # (m1 + m2 - 1 samples, edges included), so the baseline takes
        # three stages.  The stages hold only their configuration; the
        # carries live in self._state.
        self._stages = [
            StreamingExtremum(m1, maximum=False),
            StreamingExtremum(m1 + m2 - 1, maximum=True),
            StreamingExtremum(m2, maximum=False),
            StreamingExtremum(m3, maximum=False),
            StreamingExtremum(m3, maximum=True),
            StreamingExtremum(m3, maximum=True),
            StreamingExtremum(m3, maximum=False),
        ]
        # Delay line for the baseline subtraction: the raw samples the
        # baseline cascade has not answered yet.
        self._raw_lag = sum(stage.right for stage in self._stages[:3])
        widths = [self._raw_lag] + [stage.length - 1 for stage in self._stages]
        bounds = np.cumsum([0] + widths).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._width = bounds[-1]
        self._full = np.asarray(widths)  # counts once every carry is full
        self._state: np.ndarray | None = None  # (rows, width) carries
        self._count: np.ndarray | None = None  # (rows, 8) real samples in each
        self._single = True

    @property
    def delay_samples(self) -> int:
        """Exact output latency: output ``i`` is emitted once input
        ``i + delay_samples`` has been pushed (each stage of the
        cascade withholds its one-sided lookahead)."""
        return sum(stage.right for stage in self._stages[:5])

    def push(self, block) -> np.ndarray | list[np.ndarray]:
        """Feed a block; return newly finalized filtered samples."""
        values, lengths, single = as_rows(block)
        self._ensure_rows(values.shape[0])
        self._single = single
        # Past every row's stream start, each stage is one kernel call
        # with no per-row bookkeeping.
        steady = bool((self._count == self._full).all())
        baseline = values, lengths
        for i in range(3):
            baseline = self._stage(i, *baseline, steady=steady)
        debased = self._debase(values, lengths, *baseline, steady=steady)
        out, lengths = self._denoise(*debased, steady=steady)
        return from_rows(out, lengths, self._single)

    def flush(self) -> np.ndarray | list[np.ndarray]:
        """Finalize the tail (edge-replicated, like the batch path).

        Resets the filter afterwards: a subsequent ``push`` starts a
        fresh stream.
        """
        if self._state is None:
            return np.empty(0) if self._single else []
        rows = self._state.shape[0]
        empty, none = np.empty((rows, 0)), np.zeros(rows, dtype=np.int64)
        baseline = empty, none
        for i in range(3):
            baseline = self._stage(i, *baseline, final=True)
        out, lengths = self._denoise(*self._debase(empty, none, *baseline), final=True)
        self._state[...] = 0.0
        self._count[...] = 0
        return from_rows(out, lengths, self._single)

    def _ensure_rows(self, rows: int) -> None:
        if self._state is None:
            self._state = np.zeros((rows, self._width))
            self._count = np.zeros((rows, len(self._slices)), dtype=np.int64)
            self._single = rows == 1
        elif self._state.shape[0] != rows:
            raise ValueError(f"row count changed mid-stream ({self._state.shape[0]} -> {rows})")

    def _stage(self, i: int, values, lengths, *, steady: bool = False, final: bool = False):
        """Run cascade stage ``i`` on its slice of the row state."""
        stage = self._stages[i]
        carry = self._state[:, self._slices[i + 1]]
        if steady:
            return stage._advance(carry, values, lengths), lengths
        count = self._count[:, i + 1]
        if final:
            return stage._flush_step(carry, count, values, lengths)
        return stage._step(carry, count, values, lengths)

    def _debase(self, values, lengths, baseline, baseline_lengths, *, steady: bool = False):
        """Pair finalized baseline samples with the delayed raw signal."""
        lag = self._raw_lag
        raw, count = self._state[:, self._slices[0]], self._count[:, 0]
        before = count.copy()
        ext = shift_rows(raw, values, lengths)
        width = baseline.shape[1]
        if steady:
            return ext[:, :width] - baseline, baseline_lengths
        np.minimum(count + (values.shape[1] if lengths is None else lengths), lag, out=count)
        start = lag - before  # position of each row's oldest pending sample
        pending = ext[:, :width] if not start.any() else take_rows(ext, start, width)
        return pending - baseline, baseline_lengths

    def _denoise(self, debased, lengths, *, steady: bool = False, final: bool = False):
        opened = closed = debased, lengths
        for i in (3, 4):
            opened = self._stage(i, *opened, steady=steady, final=final)
        for i in (5, 6):
            closed = self._stage(i, *closed, steady=steady, final=final)
        return (opened[0] + closed[0]) / 2.0, opened[1]

    @classmethod
    def _stack(cls, filters: list["BlockFilter"]) -> "BlockFilter":
        """One filter whose rows are the given filters' rows, in order
        (same sampling rate; write results back with :meth:`_unstack`)."""
        stacked = copy.copy(filters[0])
        stacked._state = np.concatenate([f._state for f in filters])
        stacked._count = np.concatenate([f._count for f in filters])
        return stacked

    def _unstack(self, filters: list["BlockFilter"]) -> None:
        """Copy this stacked filter's rows back into ``filters``."""
        lo = 0
        for f in filters:
            hi = lo + f._state.shape[0]
            f._state[...] = self._state[lo:hi]
            f._count[...] = self._count[lo:hi]
            lo = hi


class _DetectorRow:
    """One stream's detection state: buffered coefficient columns,
    decayed energy sums and confirmed peaks."""

    __slots__ = ("coeffs", "offset", "consumed", "sumsq", "count", "energy_pos", "peaks")

    def __init__(self, n_scales: int):
        self.coeffs = TailBuffer((n_scales,))
        self.offset = 0  # absolute index of coeffs[:, 0]
        self.consumed = 0  # absolute samples pushed so far
        # Exponentially decayed per-scale energy: keeps the adaptivity
        # the old per-window RMS thresholds had, without recomputing
        # any RMS over the buffer.
        self.sumsq = np.zeros(n_scales)
        self.count = 0.0
        self.energy_pos = 0  # absolute index energy is folded through
        self.peaks: list[int] = []

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class StreamingPeakDetector:
    """Incremental wavelet peak detection over the filtered stream.

    Parameters
    ----------
    fs:
        Sampling frequency.
    window_s:
        Analysis window length in seconds (detections are confirmed
        per window, matching how the embedded code schedules the
        pairing logic).
    overlap_s:
        Overlap between consecutive windows; must exceed one beat so no
        peak can fall entirely inside a window seam.
    config:
        Detector tunables.
    threshold_time_constant_s:
        Time constant of the exponentially decayed energy estimate the
        detection thresholds derive from.  The default (3 s, a few
        beats) recovers from large amplitude steps within a window or
        two, preserving the adaptivity the per-window RMS thresholds
        had on non-stationary streams.

    Notes
    -----
    The original scheduler re-ran the whole batch detector — including
    the four-scale à-trous transform — over every 10 s analysis
    window.  This detector is stateful end to end: the
    :class:`~repro.dsp.wavelet.StreamingWavelet` filters each sample
    exactly once (bit-exact with the batch transform), exponentially
    decayed per-scale energy sums carry the detection thresholds
    across windows, and only the pairing / refractory / search-back
    logic runs per window, on the buffered coefficient columns.

    Like :class:`BlockFilter` it is multi-row: a sequence of 1-D rows
    runs the wavelet filters of every row in one
    pass and returns one list of new peaks per row; a 1-D block is the
    one-row case and returns a list of peaks.

    ``flush`` analyzes the remaining tail and *resets the stream
    state*: the absolute sample origin of a subsequent ``push`` is
    preserved, so peak indices keep referring to the same global
    timeline (the original implementation left the origin stale).
    """

    def __init__(
        self,
        fs: float,
        window_s: float = 10.0,
        overlap_s: float = 1.5,
        config: PeakDetectorConfig | None = None,
        threshold_time_constant_s: float = 3.0,
    ):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if overlap_s <= 0 or window_s <= 2 * overlap_s:
            raise ValueError("need window_s > 2 * overlap_s > 0")
        if threshold_time_constant_s <= 0:
            raise ValueError("threshold time constant must be positive")
        self.fs = fs
        self.window = int(round(window_s * fs))
        self.overlap = int(round(overlap_s * fs))
        self.config = config or PeakDetectorConfig()
        self._wavelet = StreamingWavelet(n_scales=4)
        self._decay = float(np.exp(-1.0 / (threshold_time_constant_s * fs)))
        self._rows: list[_DetectorRow] = []
        self._single = True

    def _ensure_rows(self, rows: int) -> None:
        if not self._rows:
            self._rows = [_DetectorRow(self._wavelet.n_scales) for _ in range(rows)]
        elif len(self._rows) != rows:
            raise ValueError(f"row count changed mid-stream ({len(self._rows)} -> {rows})")
        self._wavelet._ensure_rows(rows)

    def _thresholds(self, row: _DetectorRow) -> np.ndarray:
        """Running per-scale thresholds from the carried energy sums."""
        if row.count <= 0.0:
            return np.zeros(row.sumsq.size)
        return self.config.threshold_factor * np.sqrt(row.sumsq / row.count)

    def _fold_energy(self, row: _DetectorRow, through: int) -> None:
        """Fold buffered coefficient energy into the decayed sums.

        ``through`` is an absolute sample index; energy is folded
        strictly causally (never past the window being analyzed) and
        at window-consumption points only, so detections are invariant
        to how the caller chunks the stream.
        """
        k = through - row.energy_pos
        if k <= 0:
            return
        columns = row.coeffs.view[:, row.energy_pos - row.offset : through - row.offset]
        weights = self._decay ** np.arange(k - 1, -1, -1)
        decayed = self._decay**k
        row.sumsq = row.sumsq * decayed + np.square(columns) @ weights
        row.count = row.count * decayed + float(weights.sum())
        row.energy_pos = through

    def push(self, filtered_block) -> list[int] | list[list[int]]:
        """Feed filtered samples; return newly confirmed peak indices."""
        values, lengths, single = as_rows(filtered_block)
        self._single = single
        self._ensure_rows(values.shape[0])
        columns, counts = self._wavelet._step(values, lengths)
        pushed = row_lengths(values, lengths).tolist()
        emitted = pushed if counts is None else counts.tolist()
        out = []
        for r, row in enumerate(self._rows):
            row.consumed += pushed[r]
            if emitted[r]:
                row.coeffs.append(columns[r, :, : emitted[r]])
            out.append(self._analyze(row))
        return out[0] if single else out

    def _analyze(self, row: _DetectorRow) -> list[int]:
        """Run every analysis window the row's buffer now covers."""
        new_peaks: list[int] = []
        while len(row.coeffs) >= self.window:
            segment = row.coeffs.view[:, : self.window]
            self._fold_energy(row, row.offset + self.window)
            detected = (
                detect_peaks_from_wavelet(segment, self._thresholds(row), self.fs, self.config)
                + row.offset
            )
            # Peaks inside the trailing overlap are re-examined by the
            # next window (they may lack right context here).
            confirm_before = row.offset + self.window - self.overlap
            for peak in detected:
                if peak < confirm_before:
                    new_peaks.append(int(peak))
            advance = self.window - self.overlap
            row.coeffs.drop(advance)
            row.offset += advance
        return self._merge(row, new_peaks)

    def flush(self) -> list[int] | list[list[int]]:
        """Analyze the remaining tail and return its confirmed peaks.

        Afterwards the detector is ready for more ``push`` calls: the
        wavelet state restarts (the stream was cut), but the absolute
        origin advances past all consumed samples so later peak indices
        stay on the global timeline, and confirmed peaks plus running
        thresholds are retained.
        """
        if not self._rows:
            return []
        columns, counts = self._wavelet._flush_step()
        out = []
        for r, row in enumerate(self._rows):
            if counts[r]:
                row.coeffs.append(columns[r, :, : counts[r]])
            peaks: list[int] = []
            if len(row.coeffs) >= int(0.5 * self.fs):
                self._fold_energy(row, row.offset + len(row.coeffs))
                detected = (
                    detect_peaks_from_wavelet(
                        row.coeffs.view, self._thresholds(row), self.fs, self.config
                    )
                    + row.offset
                )
                peaks = self._merge(row, (int(p) for p in detected))
            row.coeffs.clear()
            row.offset = row.energy_pos = row.consumed
            out.append(peaks)
        return out[0] if self._single else out

    def _merge(self, row: _DetectorRow, candidates) -> list[int]:
        """Deduplicate against already-confirmed peaks (refractory)."""
        refractory = int(round(self.config.refractory * self.fs))
        accepted: list[int] = []
        for peak in sorted(candidates):
            last = row.peaks[-1] if row.peaks else None
            if last is not None and peak - last < refractory:
                continue
            row.peaks.append(peak)
            accepted.append(peak)
        return accepted

    @property
    def peaks(self) -> np.ndarray | list[np.ndarray]:
        """All confirmed peaks so far (absolute sample indices), per
        row for a multi-row detector."""
        if self._single:
            return np.asarray(self._rows[0].peaks if self._rows else [], dtype=np.int64)
        return [np.asarray(row.peaks, dtype=np.int64) for row in self._rows]

    @classmethod
    def _stack(cls, detectors: list["StreamingPeakDetector"]) -> "StreamingPeakDetector":
        """One detector whose rows are the given detectors' rows (same
        configuration; write the wavelet state back with :meth:`_unstack`).
        The per-row detection state is shared, not copied."""
        stacked = copy.copy(detectors[0])
        wavelet = stacked._wavelet = copy.copy(detectors[0]._wavelet)
        wavelet._state = np.concatenate([d._wavelet._state for d in detectors])
        wavelet._consumed = np.concatenate([d._wavelet._consumed for d in detectors])
        stacked._rows = [row for d in detectors for row in d._rows]
        return stacked

    def _unstack(self, detectors: list["StreamingPeakDetector"]) -> None:
        """Copy this stacked detector's wavelet rows back into ``detectors``."""
        lo = 0
        for d in detectors:
            hi = lo + d._wavelet._state.shape[0]
            d._wavelet._state[...] = self._wavelet._state[lo:hi]
            d._wavelet._consumed[...] = self._wavelet._consumed[lo:hi]
            lo = hi


@dataclass(frozen=True, slots=True)
class StreamBeatEvent:
    """One beat, fully processed by the gated node.

    ``fiducials`` is populated only for beats the classifier flagged
    abnormal (the gated detailed analysis); ``tx_bytes`` is the radio
    payload the node queues for this beat — full-fiducial for flagged
    beats, peak-only otherwise.
    """

    peak: int
    label: int
    flagged: bool
    tx_bytes: int
    fiducials: BeatFiducials | None = None


class _PendingBeat:
    """Mutable per-beat state while a beat moves through the node.

    ``extracted`` marks beats whose decimated window has been handed
    out for deferred classification (it doubles as the classification
    handle the gateway passes back to :meth:`StreamingNode.deliver`);
    ``row`` holds that window until the label arrives, so a snapshot
    taken with labels in flight can re-issue it — the segment buffer
    may have trimmed past the beat by then.
    """

    __slots__ = ("peak", "label", "flagged", "classified", "dropped", "extracted", "row")

    def __init__(self, peak: int):
        self.peak = peak
        self.label = 0
        self.flagged = False
        self.classified = False
        self.dropped = False
        self.extracted = False
        self.row = None

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


@dataclass(frozen=True)
class NodeSnapshot:
    """Full, picklable state of a :class:`StreamingNode` session.

    Captures everything the node carries between pushes — filter
    cascades, wavelet FIR state, running detection thresholds,
    delineator buffers, the pending-beat queue and any beats awaiting
    deferred classification — but *not* the classifier, which belongs
    to the shard a session runs on.  Produced by
    :meth:`StreamingNode.snapshot`, consumed by
    :meth:`StreamingNode.restore`; serialize with :mod:`pickle` to
    migrate a live session between shards or hosts.
    """

    state: dict = field(repr=False)


class StreamingNode:
    """The whole gated node of Figure 6 as one incremental engine.

    Wires the per-lead :class:`BlockFilter` front ends, the
    :class:`StreamingPeakDetector`, per-beat classification and the
    gated :class:`~repro.dsp.delineation.StreamingDelineator` into a
    single push/flush interface that emits one
    :class:`StreamBeatEvent` per beat, in beat order, as soon as each
    beat's context is complete — with memory bounded by the detector's
    analysis window plus the delineation search span, independent of
    stream length.

    Over a completed stream the events are bit-exact with running the
    same stages at record scale: peaks match the streaming front end
    (:class:`BlockFilter` + :class:`StreamingPeakDetector`, the pair
    ``repro.serving.classify_streams`` runs) kept by segmentation,
    labels match one batched ``classifier.predict`` over the
    segmented, decimated beats, and fiducials of flagged beats match
    :func:`~repro.dsp.delineation.delineate_multilead` on the filtered
    leads with the previous kept peak as guard — the same gated
    schedule :class:`~repro.platform.node_sim.NodeSimulator` replays.
    Events are also invariant to how the stream is chunked.

    Parameters
    ----------
    classifier:
        Anything with ``predict(beats)`` — the float pipeline or the
        integer :class:`~repro.fixedpoint.convert.EmbeddedClassifier`.
    fs:
        Sampling frequency in Hz.
    n_leads:
        Leads per pushed block; all are filtered continuously and feed
        the gated delineation.
    lead:
        Lead driving detection and classification.
    decimation:
        Beat decimation factor before classification (paper: 4).
    window:
        Segmentation window (paper default 100 + 100).
    detector_config / delineation_config:
        Stage tunables.
    overhead_bytes:
        Link-layer overhead added to each queued payload.
    defer_classification:
        ``False`` (default): each beat is classified inline with a
        per-beat ``predict`` call as soon as its window is complete.
        ``True``: the node separates the per-sample front end from
        classification — ``push`` *extracts* pending beats (decimated
        windows) into an outbox instead of classifying them, a caller
        (typically :class:`repro.serving.gateway.StreamGateway`, which
        multiplexes the outboxes of many live sessions into one
        batched classifier pass) collects them via
        :meth:`take_pending` and later returns the labels through
        :meth:`deliver`.  Event content and order are identical in
        both modes; only the ``predict`` batching differs (exact for
        the integer classifier).
    coalesce:
        Input-coalescing threshold in samples (default 1 = no forced
        coalescing).  With ``coalesce > 1``, pushes smaller than the
        threshold are stashed and the front end runs once the stash
        reaches it — amortizing the per-call kernel overhead when
        callers stream tiny (per-ADC-block or per-frame) chunks.  The
        streaming stages are partition-invariant, so the event
        sequence is bit-identical to uncoalesced pushes; only *when*
        events are returned shifts (by at most ``coalesce`` samples,
        and never past :meth:`flush`).

        Independently of ``coalesce``, the node also stashes pushes
        while the stash is shorter than its 1 s internal chop and
        running it could not emit, extract or delineate anything: no
        beat is queued, the delineator has none pending and the
        detector is short of a full analysis window.  Between beat
        confirmations (one detector window per 8.5 s) that holds for
        most sub-second pushes, so the filter and wavelet run on about
        one block per second instead of one per push, and no event
        surfaces later than without the stash.  A node may therefore
        hold up to 1 s of samples unfiltered (``flush``,
        ``finish_input`` and :meth:`snapshot` include them).
    """

    def __init__(
        self,
        classifier,
        fs: float,
        n_leads: int = 1,
        lead: int = 0,
        decimation: int = 4,
        window=None,
        detector_config: PeakDetectorConfig | None = None,
        delineation_config: DelineationConfig | None = None,
        overhead_bytes: int = 2,
        defer_classification: bool = False,
        coalesce: int = 1,
    ):
        from repro.ecg.segmentation import BeatWindow
        from repro.platform.radio import FULL_FIDUCIAL_PAYLOAD, PEAK_ONLY_PAYLOAD

        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if n_leads < 1:
            raise ValueError("need at least one lead")
        if not 0 <= lead < n_leads:
            raise ValueError("classification lead outside the pushed leads")
        if decimation < 1:
            raise ValueError("decimation must be >= 1")
        if overhead_bytes < 0:
            raise ValueError("overhead must be non-negative")
        if coalesce < 1:
            raise ValueError("coalesce must be >= 1 sample")
        self.classifier = classifier
        self.fs = fs
        self.n_leads = n_leads
        self.lead = lead
        self.decimation = decimation
        self.window = window or BeatWindow()
        # One multi-row filter advances every lead per push; the row
        # counts are fixed up front so a node can join a batched pass
        # (push_nodes) before its first push.
        self._filter = BlockFilter(fs)
        self._filter._ensure_rows(n_leads)
        self._detector = StreamingPeakDetector(fs, config=detector_config)
        self._detector._ensure_rows(1)
        # Large caller blocks are chopped internally so every stage's
        # scheduling lag — and therefore the retained history — stays
        # bounded no matter how the caller chunks the stream.
        self._chop = max(1, int(round(fs)))
        keep = self._detector.window + self.window.length + 2 * self._chop
        self._delineator = StreamingDelineator(
            fs, config=delineation_config, lookback_s=(keep + self._chop) / fs
        )
        self._seg_keep = keep
        self._seg_buf = TailBuffer()
        self._seg_start = 0  # absolute index of the segment buffer's first sample
        self._count = 0  # filtered samples consumed so far
        self._origin = 0  # absolute index where the current stream began
        self._queue: deque[_PendingBeat] = deque()
        self._done: dict[int, BeatFiducials] = {}
        self._last_kept: int | None = None
        self._full_bytes = FULL_FIDUCIAL_PAYLOAD + overhead_bytes
        self._peak_bytes = PEAK_ONLY_PAYLOAD + overhead_bytes
        self.defer_classification = bool(defer_classification)
        self._outbox: list[tuple[_PendingBeat, np.ndarray]] = []
        self._coalesce = int(coalesce)
        self._stash: list[np.ndarray] = []
        self._stashed = 0

    @property
    def n_pending(self) -> int:
        """Beats detected but not yet emitted."""
        return len(self._queue)

    @property
    def n_awaiting_labels(self) -> int:
        """Deferred-mode beats extracted but not yet delivered."""
        return sum(
            1 for b in self._queue if b.extracted and not b.classified and not b.dropped
        )

    def snapshot(self) -> NodeSnapshot:
        """Capture the full session state (everything but the classifier).

        The snapshot is an independent deep copy: the live node can
        keep streaming after taking it.  Restore any number of times
        with :meth:`restore` — each restored node continues the stream
        exactly where the snapshot was taken, emitting bit-identical
        events to the uninterrupted original.
        """
        state = {k: v for k, v in self.__dict__.items() if k != "classifier"}
        return NodeSnapshot(state=copy.deepcopy(state))

    @classmethod
    def restore(cls, classifier, snapshot: NodeSnapshot) -> "StreamingNode":
        """Rebuild a session from a :meth:`snapshot`, attaching ``classifier``.

        The classifier is supplied by the restoring shard (it is not
        part of the snapshot); with the integer classifier any shard's
        copy yields identical labels, so a migrated session's events
        stay bit-exact.

        Classification handles do not cross the snapshot boundary:
        beats whose labels were still in flight when the snapshot was
        taken re-enter the restored node's outbox (each beat keeps its
        extracted window until its label arrives), so the restoring
        caller re-collects and classifies them — the original handles
        become irrelevant, and nothing is lost or double-labeled.
        """
        node = cls.__new__(cls)
        node.classifier = classifier
        node.__dict__.update(copy.deepcopy(snapshot.state))
        if node.defer_classification:
            node._outbox = [
                (beat, beat.row)
                for beat in node._queue
                if beat.extracted and not beat.classified and not beat.dropped
            ]
        return node

    def push(self, block: np.ndarray) -> list[StreamBeatEvent]:
        """Feed raw samples ``(n,)`` or ``(n, n_leads)``; return new events.

        The caller may reuse ``block``'s buffer once the call returns:
        samples the node keeps for later (see ``coalesce``) are copied.
        """
        block = self._admit(block)
        return [] if block is None else self._process(block)

    def _validate(self, block: np.ndarray) -> np.ndarray:
        """A pushed block as ``(n, n_leads)`` floats; raises on a
        malformed one."""
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[:, np.newaxis]
        if block.ndim != 2 or block.shape[1] != self.n_leads:
            raise ValueError(f"blocks must be (n,) or (n, {self.n_leads})")
        return block

    def _admit(self, block: np.ndarray) -> np.ndarray | None:
        """Validate a pushed block and add it to the stash: return the
        ``(n, n_leads)`` samples the front end should run now, or
        ``None`` while they wait in the stash.

        The stash holds samples the front end has not seen.  It stays
        put while it is below ``coalesce`` (input coalescing), or while
        it is shorter than one chop and running it could not change
        anything the node emits (:meth:`_quiet`).  The stages are
        partition-invariant, so deferral never changes which events
        surface; the quiet rule also keeps it from changing *when*.
        """
        block = self._validate(block)
        stashed = self._stashed + block.shape[0]
        if stashed < self._coalesce or (stashed < self._chop and self._quiet(stashed)):
            # Kept past this call, so copied: the caller may reuse its buffer.
            self._stash.append(block.copy())
            self._stashed = stashed
            return None
        if not self._stash:
            return block
        self._stash.append(block)
        return self._take_stash()

    def _quiet(self, stashed: int) -> bool:
        """Would running ``stashed`` more samples emit, extract or
        delineate nothing?  True while no queued beat waits for right
        context or a label, the delineator has no beat pending, and the
        detector's buffered coefficient columns plus the new samples
        stay below one analysis window (each push adds at most as many
        columns as samples, exactly as many in the steady state)."""
        return (
            not self._queue
            and not self._delineator._pending
            and len(self._detector._rows[0].coeffs) + stashed < self._detector.window
        )

    def _take_stash(self) -> np.ndarray:
        """Empty the stash into one ``(n, n_leads)`` block."""
        stash = self._stash
        block = stash[0] if len(stash) == 1 else np.concatenate(stash, axis=0)
        stash.clear()
        self._stashed = 0
        return block

    def _process(self, block: np.ndarray) -> list[StreamBeatEvent]:
        events: list[StreamBeatEvent] = []
        for i in range(0, block.shape[0], self._chop):
            chunk = block[i : i + self._chop]
            rows = chunk[:, 0] if self.n_leads == 1 else list(chunk.T)
            filtered = self._lead_columns(self._filter.push(rows))
            events.extend(self._advance(filtered, self._detect(filtered), final=False))
        return events

    def _lead_columns(self, rows) -> np.ndarray:
        """Filter output (one 1-D row, or a list of lead rows) as an
        ``(n, n_leads)`` block."""
        if isinstance(rows, np.ndarray):
            return rows[:, np.newaxis]
        return rows[0][:, np.newaxis] if len(rows) == 1 else np.column_stack(rows)

    def _detect(self, filtered: np.ndarray) -> list[int]:
        return self._detector.push(filtered[:, self.lead]) if filtered.shape[0] else []

    def flush(self) -> list[StreamBeatEvent]:
        """Finalize the stream; return the remaining events.

        Applies the record-end edge handling of the batch path (filter
        tail, detector tail window, clamped delineation segments) and
        resets the node for a fresh stream on the same timeline.

        In deferred-classify mode the stream end is a three-step
        handshake instead — :meth:`finish_input`, then classification
        of the outbox (:meth:`take_pending` / :meth:`deliver`), then
        :meth:`finalize` — because the remaining beats cannot be
        emitted until their labels come back.
        """
        if self.defer_classification:
            raise RuntimeError(
                "deferred-classify node: end the stream with finish_input(), "
                "deliver the remaining labels, then finalize() "
                "(StreamGateway.close_session drives this)"
            )
        events = self._drain_stash()
        tail = self._lead_columns(self._filter.flush())
        events += self._advance(tail, self._detect(tail), final=True)
        self._reset_stream()
        return events

    def _drain_stash(self) -> list[StreamBeatEvent]:
        """Process any samples still waiting in the stash."""
        return self._process(self._take_stash()) if self._stash else []

    def finish_input(self) -> list[StreamBeatEvent]:
        """Deferred mode, step 1 of the stream end: flush the front end.

        Runs the filter tails and the detector's tail window, and
        extracts every remaining classifiable beat into the outbox
        (beats whose window no longer fits are dropped, exactly as
        batch segmentation drops them at a record end).  Returns any
        events that were already fully resolved.  The delineator is
        *not* flushed yet — flagged beats among the outbox still need
        their labels first.
        """
        if not self.defer_classification:
            raise RuntimeError("finish_input() applies to deferred-classify nodes; use flush()")
        events = self._drain_stash()
        tail = self._lead_columns(self._filter.flush())
        return events + self._advance(tail, self._detect(tail), final=True)

    def finalize(self) -> list[StreamBeatEvent]:
        """Deferred mode, step 3 of the stream end: emit the tail events.

        Requires every extracted beat to have been :meth:`deliver`-ed.
        Flushes the delineator (stream-end clamped segments, like the
        batch path at a record edge), emits the remaining events and
        resets the node for a fresh stream on the same timeline.
        """
        if not self.defer_classification:
            raise RuntimeError("finalize() applies to deferred-classify nodes; use flush()")
        if self._outbox or self.n_awaiting_labels:
            raise RuntimeError(
                "beats still await classification; take_pending()/deliver() them first"
            )
        for peak, fiducials in self._delineator.flush():
            self._done[peak] = fiducials
        events = self._emit_ready()
        self._reset_stream()
        return events

    def take_pending(self) -> list[tuple[object, np.ndarray]]:
        """Drain the outbox: ``(handle, decimated_window)`` per beat.

        The handles are opaque; pass each back to :meth:`deliver` with
        its label.  Rows are 1-D decimated beat windows ready to be
        stacked into one batched ``predict`` call, in beat order.
        """
        out = self._outbox
        self._outbox = []
        return out

    def deliver(self, resolved) -> list[StreamBeatEvent]:
        """Apply classifier labels to extracted beats; return new events.

        Parameters
        ----------
        resolved:
            Iterable of ``(handle, label)`` pairs, in the order the
            handles came out of :meth:`take_pending`.  Partial
            deliveries are fine (labels may arrive across several
            batch flushes) as long as order is preserved.
        """
        from repro.core.defuzz import is_abnormal

        if not self.defer_classification:
            raise RuntimeError("deliver() applies to deferred-classify nodes")
        resolved = list(resolved)
        flagged = is_abnormal(
            np.asarray([label for _, label in resolved], dtype=np.int64)
        )
        scheduled: list[tuple[int, int | None]] = []
        for (beat, label), flag in zip(resolved, flagged):
            if not isinstance(beat, _PendingBeat) or not beat.extracted:
                raise ValueError("unknown classification handle")
            if beat.classified:
                raise ValueError(f"beat at {beat.peak} was already delivered")
            beat.label = int(label)
            beat.flagged = bool(flag)
            beat.classified = True
            beat.row = None  # window no longer needed once labeled
            previous = self._last_kept
            self._last_kept = beat.peak
            if beat.flagged:
                scheduled.append((beat.peak, previous))
        if scheduled:
            # One vectorized delineation pass for the whole delivery —
            # the pre-delivery hold floor keeps every scheduled beat's
            # left context buffered, so batching the adds is safe.
            for peak, fiducials in self._delineator.add_beats(scheduled):
                self._done[peak] = fiducials
        self._update_hold()
        return self._emit_ready()

    def _reset_stream(self) -> None:
        self._seg_buf.clear()
        self._origin = self._seg_start = self._count
        self._done.clear()
        self._last_kept = None
        self._stash.clear()
        self._stashed = 0

    def _advance(
        self, filtered: np.ndarray, new_peaks: list[int], final: bool
    ) -> list[StreamBeatEvent]:
        """Consume one filtered block and the peaks its detector push
        confirmed; return the events that became complete."""
        if filtered.shape[0]:
            for peak, fiducials in self._delineator.push(filtered):
                self._done[peak] = fiducials
            self._append_segment_buffer(filtered[:, self.lead])
            self._count += filtered.shape[0]
        if final:
            new_peaks = list(new_peaks) + self._detector.flush()
        for peak in new_peaks:
            self._queue.append(_PendingBeat(int(peak)))
        if self.defer_classification:
            self._extract_ready(final)
        else:
            self._classify_ready(final)
            if final:
                for peak, fiducials in self._delineator.flush():
                    self._done[peak] = fiducials
        return self._emit_ready()

    def _append_segment_buffer(self, filtered_lead: np.ndarray) -> None:
        self._seg_buf.append(filtered_lead)
        excess = len(self._seg_buf) - self._seg_keep
        if excess > 0:
            self._seg_buf.drop(excess)
            self._seg_start += excess

    def _window_ready(self, beat: _PendingBeat, final: bool) -> bool | None:
        """Shared eligibility logic: can this beat's window be cut now?

        Returns ``True`` when the full window is available, ``False``
        when the beat was dropped (window can never fit — the batch
        path's segmentation drops it too), ``None`` when the beat must
        keep waiting for right context (every later beat waits too).
        """
        if beat.peak + self.window.post > self._count:
            if final:
                beat.dropped = True
                return False
            return None
        if beat.peak < self._origin + self.window.pre:
            beat.dropped = True
            return False
        return True

    def _cut_window(self, beat: _PendingBeat) -> np.ndarray:
        from repro.ecg.resample import decimate_beats

        lo = beat.peak - self.window.pre - self._seg_start
        if lo < 0:
            raise RuntimeError("segmentation context discarded before use")
        segment = self._seg_buf.view[np.newaxis, lo : lo + self.window.length]
        decimated, _ = decimate_beats(segment, self.window, self.decimation)
        return decimated.copy()  # the buffer's storage is reused in place

    def _classify_ready(self, final: bool) -> None:
        from repro.core.defuzz import is_abnormal

        for beat in self._queue:
            if beat.classified or beat.dropped:
                continue
            ready = self._window_ready(beat, final)
            if ready is None:
                break  # later beats have larger peaks — also waiting
            if not ready:
                continue
            label = int(np.asarray(self.classifier.predict(self._cut_window(beat)))[0])
            beat.label = label
            beat.flagged = bool(is_abnormal(np.asarray([label]))[0])
            beat.classified = True
            previous = self._last_kept
            self._last_kept = beat.peak
            if beat.flagged:
                for peak, fiducials in self._delineator.add_beat(
                    beat.peak, previous_peak=previous
                ):
                    self._done[peak] = fiducials

    def _extract_ready(self, final: bool) -> None:
        """Deferred mode: move ready beats into the outbox, unlabeled.

        Windows are cut at exactly the points :meth:`_classify_ready`
        would classify them (same segment buffer content), so deferred
        and inline modes see identical decimated windows; only the
        ``predict`` call moves.  The delineator is told to keep the
        earliest unresolved beat's context alive until the labels
        arrive (a flagged verdict schedules delineation retroactively).
        """
        for beat in self._queue:
            if beat.classified or beat.dropped or beat.extracted:
                continue
            ready = self._window_ready(beat, final)
            if ready is None:
                break
            if not ready:
                continue
            beat.extracted = True
            beat.row = self._cut_window(beat)[0]
            self._outbox.append((beat, beat.row))
        self._update_hold()

    def _update_hold(self) -> None:
        """Point the delineator's retention floor at the earliest beat
        whose verdict is still unknown (it may yet be flagged)."""
        for beat in self._queue:
            if not beat.classified and not beat.dropped:
                self._delineator.hold(beat.peak)
                return
        self._delineator.hold(None)

    def _emit_ready(self) -> list[StreamBeatEvent]:
        events: list[StreamBeatEvent] = []
        while self._queue:
            beat = self._queue[0]
            if beat.dropped:
                self._queue.popleft()
                continue
            if not beat.classified:
                break
            fiducials = None
            if beat.flagged:
                if beat.peak not in self._done:
                    break  # delineation context still arriving
                fiducials = self._done.pop(beat.peak)
            events.append(
                StreamBeatEvent(
                    peak=beat.peak,
                    label=beat.label,
                    flagged=beat.flagged,
                    tx_bytes=self._full_bytes if beat.flagged else self._peak_bytes,
                    fiducials=fiducials,
                )
            )
            self._queue.popleft()
        return events


def push_nodes(nodes, blocks) -> list[list[StreamBeatEvent]]:
    """Push one block into each node, running their front ends together.

    Equivalent to ``[node.push(block) for node, block in zip(nodes,
    blocks)]`` — the same events, bit for bit, and the same input
    validation and stashing per node (a node whose stash stays quiet,
    see ``StreamingNode``'s ``coalesce``, sits the pass out) — but the
    per-sample front end of every node that runs goes through one
    batched pass: one multi-row :class:`BlockFilter` push over every
    lead of every node, then one multi-row
    :class:`StreamingPeakDetector` push over every node's detection
    lead, instead of one small kernel call per lead, stage and node.
    Each node then consumes its own rows (delineation, segmentation,
    beat scheduling) exactly as its own ``push`` would.

    The nodes must share a sampling rate and detector configuration
    (all sessions of one gateway do); blocks may differ in length and
    the nodes may be at any stream position.
    """
    events: list[list[StreamBeatEvent]] = [[] for _ in nodes]
    work = []
    for index, (node, block) in enumerate(zip(nodes, blocks)):
        block = node._admit(block)
        if block is not None:
            work.append((index, node, block))
    if not work:
        return events
    chop = work[0][1]._chop
    for lo in range(0, max(block.shape[0] for _, _, block in work), chop):
        live = [
            (index, node, block[lo : lo + chop])
            for index, node, block in work
            if block.shape[0] > lo
        ]
        if len(live) == 1:
            index, node, piece = live[0]
            events[index].extend(node._process(piece))
            continue
        filtered = _filter_nodes([(node, piece) for _, node, piece in live])
        peaks = _detect_nodes([node for _, node, _ in live], filtered)
        for (index, node, _), block, new_peaks in zip(live, filtered, peaks):
            events[index].extend(node._advance(block, new_peaks, final=False))
    return events


def _filter_nodes(items) -> list[np.ndarray]:
    """Every lead of every ``(node, block)`` through one stacked
    filter push; return each node's ``(n, n_leads)`` filtered block."""
    filters = [node._filter for node, _ in items]
    stacked = BlockFilter._stack(filters)
    rows = stacked.push([block[:, j] for node, block in items for j in range(node.n_leads)])
    stacked._unstack(filters)
    out, r = [], 0
    for node, _ in items:
        out.append(node._lead_columns(rows[r : r + node.n_leads]))
        r += node.n_leads
    return out


def _detect_nodes(nodes, filtered: list[np.ndarray]) -> list[list[int]]:
    """Every node's detection lead through one stacked detector push
    (nodes whose filter emitted nothing skip the detector, as in
    :meth:`StreamingNode.push`)."""
    peaks: list[list[int]] = [[] for _ in nodes]
    busy = [k for k, block in enumerate(filtered) if block.shape[0]]
    if len(busy) == 1:
        peaks[busy[0]] = nodes[busy[0]]._detect(filtered[busy[0]])
    elif busy:
        detectors = [nodes[k]._detector for k in busy]
        stacked = StreamingPeakDetector._stack(detectors)
        found = stacked.push([filtered[k][:, nodes[k].lead] for k in busy])
        stacked._unstack(detectors)
        for k, new_peaks in zip(busy, found):
            peaks[k] = new_peaks
    return peaks
