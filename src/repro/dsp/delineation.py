"""Single-, multi-lead and batched delineation of P / QRS / T fiducials.

This is the "detailed analysis" of Figure 6: for every heartbeat it
produces the nine fiducial points the paper transmits for abnormal
beats — onset, peak and end of the P wave, the QRS complex and the
T wave.  Wave boundaries are located as extrema of the multi-scale
morphological derivative (:mod:`repro.dsp.mmd`) inside physiological
search windows around the R peak; wave peaks are amplitude extrema in
the same windows.

The multi-lead variant executes the delineation "over the combination
of the three filtered leads": each lead is delineated independently and
the per-fiducial median across leads is reported, which rejects
lead-local noise without inter-lead arithmetic.

Three execution forms share one fiducial-location core
(:func:`_locate_fiducials`), so they are bit-exact with each other:

* :func:`delineate_beat` / :func:`delineate_multilead` — the reference
  per-beat path, mirroring the embedded firmware's beat buffer;
* :func:`delineate_beats` — the batched path: each MMD scale is
  computed once per lead over the union of the beats' segments (merged
  into runs) instead of three :func:`~repro.dsp.mmd.mmd_transform`
  calls per beat per lead, with the segment-edge samples recomputed
  per beat so every value matches the per-beat path exactly;
* :class:`StreamingDelineator` — the bounded-memory form: a sliding
  buffer of filtered samples trimmed to the P/T search span, so the
  gated detailed-analysis stage no longer needs whole-record context.

Op counters always report the *per-beat* work of the reference
embedded implementation (the same counts :func:`delineate_multilead`
records), regardless of which execution form produced the values —
exactly like the O(n) morphology kernels keep reporting the naive
sliding-window counts.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.dsp.kernels import TailBuffer
from repro.dsp.mmd import charge_mmd_ops, mmd_transform

#: Names of the nine fiducial points, in temporal order.
FIDUCIAL_NAMES = (
    "p_onset",
    "p_peak",
    "p_end",
    "qrs_onset",
    "r_peak",
    "qrs_end",
    "t_onset",
    "t_peak",
    "t_end",
)

#: One-sided margin (seconds) the beat segment extends past the search
#: windows, matching the embedded beat buffer.
SEGMENT_MARGIN_S = 0.05


@dataclass(frozen=True)
class DelineationConfig:
    """Search windows (seconds, relative to the R peak) and MMD scales."""

    p_search: tuple[float, float] = (-0.30, -0.08)
    qrs_onset_search: tuple[float, float] = (-0.14, -0.008)
    qrs_end_search: tuple[float, float] = (0.008, 0.16)
    t_search: tuple[float, float] = (0.14, 0.42)
    qrs_scale_s: float = 0.017
    p_scale_s: float = 0.028
    t_scale_s: float = 0.039

    def segment_offsets(self, fs: float) -> tuple[int, int]:
        """Segment bounds relative to the peak: ``[peak + lo, peak + hi)``.

        ``lo`` is negative; the segment covers every search window plus
        :data:`SEGMENT_MARGIN_S` on each side.
        """
        lo = int(round((self.p_search[0] - SEGMENT_MARGIN_S) * fs))
        hi = int(round((self.t_search[1] + SEGMENT_MARGIN_S) * fs)) + 1
        return lo, hi

    def mmd_scales(self, fs: float) -> tuple[int, int, int]:
        """QRS / P / T structuring-element half-widths in samples."""
        return (
            max(2, int(round(self.qrs_scale_s * fs))),
            max(2, int(round(self.p_scale_s * fs))),
            max(2, int(round(self.t_scale_s * fs))),
        )


@dataclass(frozen=True, slots=True)
class BeatFiducials:
    """Fiducial sample indices of one beat (record coordinates).

    A fiducial can be ``-1`` when the corresponding wave was not found
    in its search window (e.g. the absent P wave of a PVC).
    """

    p_onset: int
    p_peak: int
    p_end: int
    qrs_onset: int
    r_peak: int
    qrs_end: int
    t_onset: int
    t_peak: int
    t_end: int

    def as_array(self) -> np.ndarray:
        """All nine indices as an ``int64`` array in temporal order."""
        return np.array([getattr(self, name) for name in FIDUCIAL_NAMES], dtype=np.int64)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "BeatFiducials":
        """Inverse of :meth:`as_array`."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (len(FIDUCIAL_NAMES),):
            raise ValueError(f"expected {len(FIDUCIAL_NAMES)} fiducials")
        return cls(**{name: int(v) for name, v in zip(FIDUCIAL_NAMES, values)})

    @property
    def n_found(self) -> int:
        """Number of fiducials actually located (not ``-1``)."""
        return int(np.sum(self.as_array() >= 0))


def _window_indices(
    peak: int, search: tuple[float, float], fs: float, n: int
) -> tuple[int, int]:
    lo = max(0, peak + int(round(search[0] * fs)))
    hi = min(n, peak + int(round(search[1] * fs)) + 1)
    return lo, hi


def _find_wave(
    x: np.ndarray, lo: int, hi: int, reference: float, min_relative: float
) -> int:
    """Peak of the wave in ``[lo, hi)``, or ``-1`` if no wave is present.

    A wave exists when the largest detrended deflection exceeds
    ``min_relative`` of the R amplitude *and* peaks in the window
    interior: baseline steps put their largest detrended residual at a
    window edge, true waves peak inside.  The presence test and the
    peak location share one detrend pass.
    """
    if hi <= lo + 3:
        return -1
    segment = _detrend(x[lo:hi])
    deflection = np.abs(segment)
    peak = int(np.argmax(deflection))
    if deflection[peak] < min_relative * reference:
        return -1
    margin = max(1, segment.size // 10)
    if not margin <= peak < segment.size - margin:
        return -1
    return lo + peak


def _boundary_before(mmd: np.ndarray, lo: int, anchor: int) -> int:
    """Onset: the MMD maximum in ``[lo, anchor)`` (concave corner)."""
    if anchor <= lo:
        return -1
    return lo + int(np.argmax(mmd[lo:anchor]))


def _boundary_after(mmd: np.ndarray, anchor: int, hi: int) -> int:
    """End: the MMD maximum in ``(anchor, hi]``."""
    if hi <= anchor + 1:
        return -1
    return anchor + 1 + int(np.argmax(mmd[anchor + 1 : hi]))


def _detrend(segment: np.ndarray) -> np.ndarray:
    """Remove the line through the window's endpoint means.

    Morphological baseline filtering leaves piecewise-flat residuals
    (plateaus and ramps); detrending removes them so that only actual
    *bumps* — waves — survive the presence test.
    """
    if segment.size < 4:
        return segment - segment.mean()
    edge = max(2, segment.size // 10)
    start = float(segment[:edge].mean())
    stop = float(segment[-edge:].mean())
    trend = np.linspace(start, stop, segment.size)
    return segment - trend


#: Minimum gap (seconds) between the previous R peak and the start of
#: this beat's P search window: skips the previous beat's T wave.
PREVIOUS_BEAT_GUARD_S = 0.36


def _segment_bounds(peak: int, fs: float, config: DelineationConfig, n: int) -> tuple[int, int]:
    """Clamped record coordinates of the beat's analysis segment."""
    off_lo, off_hi = config.segment_offsets(fs)
    return max(0, peak + off_lo), min(n, peak + off_hi)


def _locate_fiducials(
    segment: np.ndarray,
    mmd_qrs: np.ndarray,
    mmd_p: np.ndarray,
    mmd_t: np.ndarray,
    local_peak: int,
    seg_lo: int,
    peak: int,
    fs: float,
    config: DelineationConfig,
    previous_peak: int | None,
    r_amplitude: float | None = None,
) -> BeatFiducials:
    """Locate the nine fiducials of one lead given the segment MMDs.

    This is the single fiducial-location core shared by the per-beat,
    batched and streaming paths; ``segment`` must equal the record
    slice ``x[seg_lo:seg_hi]``, the MMD arrays must match
    :func:`~repro.dsp.mmd.mmd_transform` of that segment exactly, and
    ``r_amplitude``, when precomputed (the batched path medians all
    segments of a lead in one pass), must equal the per-segment value
    below.
    """
    _, p_scale, t_scale = config.mmd_scales(fs)

    if r_amplitude is None:
        r_amplitude = float(abs(segment[local_peak] - np.median(segment)))

    qo_lo, qo_hi = _window_indices(local_peak, config.qrs_onset_search, fs, segment.size)
    qe_lo, qe_hi = _window_indices(local_peak, config.qrs_end_search, fs, segment.size)
    qrs_onset = _boundary_before(mmd_qrs, qo_lo, qo_hi)
    qrs_end = _boundary_after(mmd_qrs, qe_lo, qe_hi)

    p_lo, p_hi = _window_indices(local_peak, config.p_search, fs, segment.size)
    if previous_peak is not None:
        guard = int(previous_peak) + int(round(PREVIOUS_BEAT_GUARD_S * fs)) - seg_lo
        p_lo = max(p_lo, guard)
    p_peak = _find_wave(segment, p_lo, p_hi, r_amplitude, min_relative=0.08)
    if p_peak >= 0:
        p_onset = _boundary_before(mmd_p, max(0, p_lo - p_scale), p_peak)
        p_end = _boundary_after(mmd_p, p_peak, min(segment.size, p_hi + p_scale))
    else:
        p_onset = p_end = -1

    t_lo, t_hi = _window_indices(local_peak, config.t_search, fs, segment.size)
    t_peak = _find_wave(segment, t_lo, t_hi, r_amplitude, min_relative=0.05)
    if t_peak >= 0:
        t_onset = _boundary_before(mmd_t, max(0, t_lo - t_scale), t_peak)
        t_end = _boundary_after(mmd_t, t_peak, min(segment.size, t_hi + t_scale))
    else:
        t_onset = t_end = -1

    def to_record(idx: int) -> int:
        return idx + seg_lo if idx >= 0 else -1

    return BeatFiducials(
        p_onset=to_record(p_onset),
        p_peak=to_record(p_peak),
        p_end=to_record(p_end),
        qrs_onset=to_record(qrs_onset),
        r_peak=peak,
        qrs_end=to_record(qrs_end),
        t_onset=to_record(t_onset),
        t_peak=to_record(t_peak),
        t_end=to_record(t_end),
    )


def _combine_leads(per_lead: np.ndarray) -> np.ndarray:
    """Per-fiducial median across leads; ``-1`` unless a majority found it."""
    combined = np.empty(per_lead.shape[1], dtype=np.int64)
    for j in range(per_lead.shape[1]):
        found = per_lead[:, j][per_lead[:, j] >= 0]
        if found.size * 2 > per_lead.shape[0]:
            combined[j] = int(np.median(found))
        else:
            combined[j] = -1
    return combined


def delineate_beat(
    x: np.ndarray,
    peak: int,
    fs: float,
    config: DelineationConfig | None = None,
    counter=None,
    previous_peak: int | None = None,
) -> BeatFiducials:
    """Delineate one beat on one lead.

    Parameters
    ----------
    x:
        Filtered lead (full record coordinates).
    peak:
        R-peak sample index.
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    counter:
        Optional op-counter (the MMD work dominates and is recorded by
        the morphological primitives; window scans add comparisons).
    previous_peak:
        R peak of the preceding beat, when known.  The P search is then
        gated to start after the previous beat's T wave, which prevents
        a premature beat (short coupling interval) from mistaking its
        predecessor's T wave for a P wave.

    Returns
    -------
    BeatFiducials
        Nine fiducial indices; ``-1`` marks waves not found.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("delineate_beat expects a single lead")
    config = config or DelineationConfig()
    n = x.size
    peak = int(peak)
    if not 0 <= peak < n:
        raise ValueError("peak index outside the record")

    # Work on a local segment covering all search windows to bound the
    # per-beat cost (the embedded code does the same with a beat buffer).
    seg_lo, seg_hi = _segment_bounds(peak, fs, config, n)
    segment = x[seg_lo:seg_hi]

    qrs_scale, p_scale, t_scale = config.mmd_scales(fs)
    mmd_qrs = mmd_transform(segment, qrs_scale, counter)
    mmd_p = mmd_transform(segment, p_scale, counter)
    mmd_t = mmd_transform(segment, t_scale, counter)
    if counter is not None:
        counter.add("cmp", 4 * segment.size)

    return _locate_fiducials(
        segment, mmd_qrs, mmd_p, mmd_t, peak - seg_lo, seg_lo, peak, fs, config, previous_peak
    )


def delineate_multilead(
    leads: np.ndarray,
    peak: int,
    fs: float,
    config: DelineationConfig | None = None,
    counter=None,
    previous_peak: int | None = None,
) -> BeatFiducials:
    """Three-lead delineation: per-lead delineation + per-fiducial median.

    Parameters
    ----------
    leads:
        ``(n_samples, n_leads)`` filtered signal.
    peak:
        R-peak sample index.
    fs, config, counter:
        As in :func:`delineate_beat`.

    Returns
    -------
    BeatFiducials
        Median fiducials across leads; a fiducial is ``-1`` only when a
        majority of leads failed to locate it.
    """
    leads = np.asarray(leads, dtype=float)
    if leads.ndim != 2:
        raise ValueError("delineate_multilead expects (n_samples, n_leads)")
    per_lead = np.stack(
        [
            delineate_beat(
                leads[:, lead], peak, fs, config, counter, previous_peak
            ).as_array()
            for lead in range(leads.shape[1])
        ],
        axis=0,
    )
    if counter is not None:
        counter.add("cmp", per_lead.size * 2)
    return BeatFiducials.from_array(_combine_leads(per_lead))


# ----------------------------------------------------------------------
# Batched delineation
# ----------------------------------------------------------------------


def _charge_beat_ops(counter, segment_size: int, scales: tuple[int, ...], n_leads: int) -> None:
    """Charge the per-beat op counts of the reference per-beat path.

    The counters model the embedded firmware's beat-buffer work — the
    exact counts :func:`delineate_multilead` records — not the batched
    implementation's.  Per lead: the three MMD transforms (via the
    count-only :func:`~repro.dsp.mmd.charge_mmd_ops` mirror) and the
    window-scan comparisons; plus the lead-combination comparisons.
    """
    if counter is None:
        return
    n = int(segment_size)
    for _ in range(n_leads):
        for scale in scales:
            charge_mmd_ops(counter, n, scale)
    counter.add("cmp", n_leads * 4 * n)
    counter.add("cmp", n_leads * len(FIDUCIAL_NAMES) * 2)


def _merge_segments(bounds: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """Merge overlapping segments into runs; map each segment to its run."""
    order = sorted(range(len(bounds)), key=lambda i: bounds[i][0])
    runs: list[list[int]] = []
    run_of = [0] * len(bounds)
    for idx in order:
        lo, hi = bounds[idx]
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
        run_of[idx] = len(runs) - 1
    return [(lo, hi) for lo, hi in runs], run_of


def _segment_mmd(
    x: np.ndarray,
    lo: int,
    hi: int,
    scale: int,
    run_mmd: np.ndarray,
    run_lo: int,
) -> np.ndarray:
    """Segment-local MMD from a run-level MMD array, bit-exact.

    Away from the segment edges every MMD window lies inside the
    segment, so the run-level values are identical; within ``scale``
    samples of an edge the per-beat path sees the segment's own edge
    replication, which collapses to prefix/suffix extrema of the
    segment — recomputed here in O(scale).
    """
    L = hi - lo
    seg = x[lo:hi]
    if L <= 2 * scale:
        # Degenerate (boundary-clamped) segment: edges overlap.
        return mmd_transform(seg, scale)
    out = np.empty(L)
    out[scale : L - scale] = run_mmd[lo - run_lo + scale : lo - run_lo + L - scale]
    # Left edge: the padded window [i - scale, i + scale] degenerates
    # to seg[0 : i + scale + 1] under edge replication.
    pre = seg[: 2 * scale]
    pre_max = np.maximum.accumulate(pre)
    pre_min = np.minimum.accumulate(pre)
    left = np.arange(scale)
    out[:scale] = pre_max[left + scale] + pre_min[left + scale] - 2.0 * seg[:scale]
    # Right edge: the window degenerates to seg[i - scale :].
    suf = seg[L - 2 * scale :]
    suf_max = np.maximum.accumulate(suf[::-1])[::-1]
    suf_min = np.minimum.accumulate(suf[::-1])[::-1]
    out[L - scale :] = suf_max[:scale] + suf_min[:scale] - 2.0 * seg[L - scale :]
    return out


def _detrend_batch(block: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_detrend` of windows sharing one geometry.

    All rows have the same width, so the edge size — and therefore the
    endpoint means and the trend line — vectorize across beats with
    the exact arithmetic of the scalar path (`np.linspace` applies the
    same ``arange * step + start`` formula to array endpoints).
    """
    w = block.shape[1]
    if w < 4:
        return block - block.mean(axis=1, keepdims=True)
    edge = max(2, w // 10)
    start = block[:, :edge].mean(axis=1)
    stop = block[:, -edge:].mean(axis=1)
    trend = np.linspace(start, stop, w, axis=1)
    return block - trend


def _wave_scan_batch(
    segments: np.ndarray,
    lo: np.ndarray,
    hi: int,
    reference: np.ndarray,
    min_relative: float,
) -> np.ndarray:
    """Vectorized :func:`_find_wave` over beats with per-beat window starts.

    The window end is uniform (it depends only on the shared segment
    geometry) but the start varies — the P search is gated by each
    beat's previous peak.  Detrending is window-size dependent, so
    beats are grouped by start and each group scanned in one pass;
    ungated records collapse to a single group.
    """
    k = segments.shape[0]
    out = np.full(k, -1, dtype=np.int64)
    for start in np.unique(lo):
        if hi <= start + 3:
            continue
        rows = np.flatnonzero(lo == start)
        w = int(hi - start)
        deflection = np.abs(_detrend_batch(segments[rows, start:hi]))
        peak = np.argmax(deflection, axis=1)
        value = deflection[np.arange(rows.size), peak]
        margin = max(1, w // 10)
        found = (
            ~(value < min_relative * reference[rows])
            & (peak >= margin)
            & (peak < w - margin)
        )
        out[rows[found]] = start + peak[found]
    return out


def _masked_argmax(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-row ``lo[i] + argmax(rows[i, lo[i]:hi[i]])``; ``-1`` where empty.

    Masking out-of-window columns to ``-inf`` preserves the first-max
    tie-breaking of the sliced scalar argmax, so the result is
    bit-identical to :func:`_boundary_before` / :func:`_boundary_after`
    window by window.
    """
    lo, hi = np.broadcast_to(lo, rows.shape[:1]), np.broadcast_to(hi, rows.shape[:1])
    cols = np.arange(rows.shape[1])
    mask = (cols >= lo[:, None]) & (cols < hi[:, None])
    idx = np.argmax(np.where(mask, rows, -np.inf), axis=1)
    return np.where(hi > lo, idx, -1)


def _segment_mmd_batch(segments: np.ndarray, gathered: np.ndarray, scale: int) -> np.ndarray:
    """Edge fixups of :func:`_segment_mmd`, across all beats at once.

    ``gathered`` holds the run-level MMD values gathered at each
    beat's segment positions — correct everywhere except the first and
    last ``scale`` samples, where the per-beat path sees the segment's
    own edge replication.  Those collapse to prefix/suffix extrema of
    the segment, computed here with row-wise accumulates (comparisons
    and the same ``max + min - 2x`` arithmetic: bit-exact).
    """
    L = segments.shape[1]
    out = gathered
    pre = segments[:, : 2 * scale]
    pre_max = np.maximum.accumulate(pre, axis=1)
    pre_min = np.minimum.accumulate(pre, axis=1)
    out[:, :scale] = (
        pre_max[:, scale : 2 * scale]
        + pre_min[:, scale : 2 * scale]
        - 2.0 * segments[:, :scale]
    )
    suf = segments[:, L - 2 * scale :]
    suf_max = np.maximum.accumulate(suf[:, ::-1], axis=1)[:, ::-1]
    suf_min = np.minimum.accumulate(suf[:, ::-1], axis=1)[:, ::-1]
    out[:, L - scale :] = (
        suf_max[:, :scale] + suf_min[:, :scale] - 2.0 * segments[:, L - scale :]
    )
    return out


def _locate_fiducials_batch(
    segments: np.ndarray,
    mmd_qrs: np.ndarray,
    mmd_p: np.ndarray,
    mmd_t: np.ndarray,
    local_peak: int,
    seg_lo: np.ndarray,
    peaks: np.ndarray,
    fs: float,
    config: DelineationConfig,
    previous: np.ndarray,
    r_amps: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`_locate_fiducials` over one segment geometry.

    Every input row is a record-interior beat, so all nine search
    windows share their offsets relative to ``local_peak``; only the P
    search start (gated by ``previous``, ``-1`` = ungated) and the
    wave-dependent boundary anchors vary per beat.  Window scans
    become row-wise argmaxes (masked where the window varies) and the
    presence tests one detrend pass per window group — bit-exact with
    the scalar core, beat for beat.

    Returns the ``(k, 9)`` fiducials in record coordinates.
    """
    k, L = segments.shape
    _, p_scale, t_scale = config.mmd_scales(fs)

    qo_lo, qo_hi = _window_indices(local_peak, config.qrs_onset_search, fs, L)
    qe_lo, qe_hi = _window_indices(local_peak, config.qrs_end_search, fs, L)
    if qo_hi > qo_lo:
        qrs_onset = qo_lo + np.argmax(mmd_qrs[:, qo_lo:qo_hi], axis=1)
    else:
        qrs_onset = np.full(k, -1, dtype=np.int64)
    if qe_hi > qe_lo + 1:
        qrs_end = qe_lo + 1 + np.argmax(mmd_qrs[:, qe_lo + 1 : qe_hi], axis=1)
    else:
        qrs_end = np.full(k, -1, dtype=np.int64)

    p_lo, p_hi = _window_indices(local_peak, config.p_search, fs, L)
    guard = previous + int(round(PREVIOUS_BEAT_GUARD_S * fs)) - seg_lo
    p_lo_b = np.where(previous >= 0, np.maximum(p_lo, guard), p_lo).astype(np.int64)
    p_peak = _wave_scan_batch(segments, p_lo_b, p_hi, r_amps, min_relative=0.08)
    p_onset = np.full(k, -1, dtype=np.int64)
    p_end = np.full(k, -1, dtype=np.int64)
    rows = np.flatnonzero(p_peak >= 0)
    if rows.size:
        p_onset[rows] = _masked_argmax(
            mmd_p[rows], np.maximum(0, p_lo_b[rows] - p_scale), p_peak[rows]
        )
        p_end[rows] = _masked_argmax(
            mmd_p[rows], p_peak[rows] + 1, np.full(rows.size, min(L, p_hi + p_scale))
        )

    t_lo, t_hi = _window_indices(local_peak, config.t_search, fs, L)
    t_peak = _wave_scan_batch(
        segments, np.full(k, t_lo, dtype=np.int64), t_hi, r_amps, min_relative=0.05
    )
    t_onset = np.full(k, -1, dtype=np.int64)
    t_end = np.full(k, -1, dtype=np.int64)
    rows = np.flatnonzero(t_peak >= 0)
    if rows.size:
        t_onset[rows] = _masked_argmax(
            mmd_t[rows], np.full(rows.size, max(0, t_lo - t_scale)), t_peak[rows]
        )
        t_end[rows] = _masked_argmax(
            mmd_t[rows], t_peak[rows] + 1, np.full(rows.size, min(L, t_hi + t_scale))
        )

    local = np.stack(
        [p_onset, p_peak, p_end, qrs_onset, np.full(k, local_peak), qrs_end,
         t_onset, t_peak, t_end],
        axis=1,
    )
    out = np.where(local >= 0, local + seg_lo[:, None], -1)
    out[:, FIDUCIAL_NAMES.index("r_peak")] = peaks
    return out.astype(np.int64)


def _combine_leads_batch(per_lead: np.ndarray) -> np.ndarray:
    """:func:`_combine_leads` across all beats: ``(k, n_leads, 9) -> (k, 9)``."""
    import warnings

    n_leads = per_lead.shape[1]
    if n_leads == 1:
        # One lead: the median of a found value is itself and the
        # majority test is just "found" — absent fiducials are already
        # -1, so the lead's row passes through unchanged.
        return per_lead[:, 0].astype(np.int64, copy=True)
    found = per_lead >= 0
    counts = found.sum(axis=1)
    with warnings.catch_warnings():
        # All-NaN slices (no lead found the fiducial) are overridden
        # with -1 by the majority test below.
        warnings.simplefilter("ignore", RuntimeWarning)
        medians = np.nanmedian(np.where(found, per_lead.astype(float), np.nan), axis=1)
    return np.where(counts * 2 > n_leads, medians, -1.0).astype(np.int64)


def delineate_beats(
    leads: np.ndarray,
    peaks: np.ndarray,
    fs: float,
    config: DelineationConfig | None = None,
    counters=None,
    previous_peaks=None,
) -> list[BeatFiducials]:
    """Batched multi-lead delineation of many beats in one pass.

    Equivalent to calling :func:`delineate_multilead` once per peak —
    bit-exact in both the returned fiducials and the recorded op
    counts — but each MMD scale is computed once per lead over the
    union of the beats' segments (overlapping segments merged into
    runs) instead of once per beat per lead.  Only the ``O(scale)``
    segment-edge samples, where the per-beat path sees its own edge
    replication, are recomputed per beat.

    Parameters
    ----------
    leads:
        ``(n_samples, n_leads)`` filtered signal.
    peaks:
        R-peak sample indices of the beats to delineate (any order).
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    counters:
        Optional sequence of per-beat op-counters, aligned with
        ``peaks`` (entries may be ``None``).  Each receives the exact
        counts the per-beat path would record for that beat.
    previous_peaks:
        Optional sequence aligned with ``peaks``: the R peak preceding
        each beat (``None`` or negative when unknown), gating the P
        search as in :func:`delineate_beat`.

    Returns
    -------
    list[BeatFiducials]
        One entry per peak, in input order.
    """
    leads = np.asarray(leads, dtype=float)
    if leads.ndim != 2:
        raise ValueError("delineate_beats expects (n_samples, n_leads)")
    n, n_leads = leads.shape
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.ndim != 1:
        raise ValueError("peaks must be a 1-D index array")
    if peaks.size and not ((peaks >= 0) & (peaks < n)).all():
        raise ValueError("peak index outside the record")
    if counters is not None and len(counters) != peaks.size:
        raise ValueError("need one counter per peak")
    if previous_peaks is not None and len(previous_peaks) != peaks.size:
        raise ValueError("need one previous peak per peak")
    if not peaks.size:
        return []
    config = config or DelineationConfig()
    scales = config.mmd_scales(fs)

    bounds = [_segment_bounds(int(p), fs, config, n) for p in peaks]
    runs, run_of = _merge_segments(bounds)
    # Record-interior beats share one segment geometry (length L, peak
    # at -off_lo), so segments, R amplitudes, MMD edge fixups and
    # every window scan vectorize across beats; boundary-clamped beats
    # fall back to the scalar per-beat core.
    off_lo, off_hi = config.segment_offsets(fs)
    L = off_hi - off_lo
    unclamped = (peaks + off_lo >= 0) & (peaks + off_hi <= n)
    if L <= 2 * max(scales):
        unclamped = np.zeros(peaks.size, dtype=bool)  # degenerate geometry
    batch_idx = np.flatnonzero(unclamped)
    scalar_idx = np.flatnonzero(~unclamped)
    gather = peaks[unclamped, np.newaxis] + np.arange(off_lo, off_hi)[np.newaxis, :]

    previous: list[int | None] = []
    for b in range(peaks.size):
        prev = previous_peaks[b] if previous_peaks is not None else None
        previous.append(None if prev is None or int(prev) < 0 else int(prev))
    previous_arr = np.asarray(
        [-1 if previous[b] is None else previous[b] for b in batch_idx], dtype=np.int64
    )

    per_lead = np.empty((peaks.size, n_leads, len(FIDUCIAL_NAMES)), dtype=np.int64)
    for lead in range(n_leads):
        x = leads[:, lead]
        run_mmds: list[list[np.ndarray]] = []
        for run_lo, run_hi in runs:
            chunk = x[run_lo:run_hi]
            run_mmds.append([mmd_transform(chunk, scale) for scale in scales])
        if batch_idx.size:
            segments = x[gather]
            r_amps = np.abs(segments[:, -off_lo] - np.median(segments, axis=1))
            # Scatter the run-level MMDs onto the record timeline once,
            # so each beat's interior values become one row gather.
            full = np.empty(n)
            mmds = []
            for s, scale in enumerate(scales):
                for (run_lo, run_hi), values in zip(runs, run_mmds):
                    full[run_lo:run_hi] = values[s]
                mmds.append(_segment_mmd_batch(segments, full[gather], scale))
            per_lead[batch_idx, lead] = _locate_fiducials_batch(
                segments,
                *mmds,
                -off_lo,
                peaks[batch_idx] + off_lo,
                peaks[batch_idx],
                fs,
                config,
                previous_arr,
                r_amps,
            )
        for b in scalar_idx:
            lo, hi = bounds[b]
            run_lo = runs[run_of[b]][0]
            mmds = [
                _segment_mmd(x, lo, hi, scale, run_mmds[run_of[b]][s], run_lo)
                for s, scale in enumerate(scales)
            ]
            per_lead[b, lead] = _locate_fiducials(
                x[lo:hi],
                *mmds,
                int(peaks[b]) - lo,
                lo,
                int(peaks[b]),
                fs,
                config,
                previous[b],
            ).as_array()

    combined = _combine_leads_batch(per_lead)
    results = []
    for b in range(peaks.size):
        if counters is not None:
            _charge_beat_ops(counters[b], bounds[b][1] - bounds[b][0], scales, n_leads)
        results.append(BeatFiducials.from_array(combined[b]))
    return results


# ----------------------------------------------------------------------
# Streaming delineation
# ----------------------------------------------------------------------


def _delineate_segment_multilead(
    segment: np.ndarray,
    seg_lo: int,
    peak: int,
    fs: float,
    config: DelineationConfig,
    previous_peak: int | None,
    counter=None,
) -> BeatFiducials:
    """Multi-lead delineation of a pre-extracted ``(len, n_leads)`` segment.

    ``segment`` must equal the record slice the per-beat path would
    take (:func:`_segment_bounds`), which makes the result bit-exact
    with :func:`delineate_multilead` on the whole record.
    """
    scales = config.mmd_scales(fs)
    per_lead = np.empty((segment.shape[1], len(FIDUCIAL_NAMES)), dtype=np.int64)
    for lead in range(segment.shape[1]):
        seg = np.ascontiguousarray(segment[:, lead])
        mmds = [mmd_transform(seg, scale) for scale in scales]
        per_lead[lead] = _locate_fiducials(
            seg, *mmds, peak - seg_lo, seg_lo, peak, fs, config, previous_peak
        ).as_array()
    _charge_beat_ops(counter, segment.shape[0], scales, segment.shape[1])
    return BeatFiducials.from_array(_combine_leads(per_lead))


class StreamingDelineator:
    """Bounded-memory multi-lead delineation of a filtered stream.

    The batch delineators need whole-record context; a WBSN node's
    gated "detailed analysis" stage cannot afford that.  This class
    keeps a sliding buffer of filtered samples trimmed to the P/T
    search span (plus a caller-chosen ``lookback``), delineates each
    scheduled beat as soon as its right context has arrived, and is
    bit-exact with :func:`delineate_multilead` on the completed record.

    Parameters
    ----------
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    lookback_s:
        Extra history (seconds) retained behind the live edge so beats
        can be scheduled late — e.g. a peak detector that confirms
        peaks one analysis window after they occur.  Memory stays
        bounded by ``lookback + segment span + largest push block``,
        independent of stream length.

    Notes
    -----
    ``push`` feeds filtered samples of all leads; ``add_beat``
    schedules a beat (any time while its left context is still
    buffered); both return the ``(peak, BeatFiducials)`` pairs that
    became final.  ``flush`` finalizes pending beats with the
    stream-end clamping the batch path applies at the record edge and
    prepares the instance for a fresh stream on the same timeline.
    """

    def __init__(
        self,
        fs: float,
        config: DelineationConfig | None = None,
        lookback_s: float = 0.0,
    ):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if lookback_s < 0:
            raise ValueError("lookback must be non-negative")
        self.fs = fs
        self.config = config or DelineationConfig()
        off_lo, off_hi = self.config.segment_offsets(fs)
        self._left = -off_lo  # samples of left context a segment needs
        self._right = off_hi  # samples past the peak that finalize it
        self._lookback = int(round(lookback_s * fs))
        # Filtered samples, stored (n_leads, samples) with amortized
        # append/trim; ``_buffer`` is the (samples, n_leads) view.
        self._samples: TailBuffer | None = None
        self._origin = 0  # absolute index where the current stream began
        self._start = 0  # absolute index of buffer[0]
        self._end = 0  # absolute samples consumed
        self._pending: list[tuple[int, int | None, object]] = []
        self._hold: int | None = None

    @property
    def n_samples(self) -> int:
        """Absolute samples consumed so far."""
        return self._end

    @property
    def buffered_samples(self) -> int:
        """Current buffer occupancy (bounded, see class docs)."""
        return 0 if self._samples is None else len(self._samples)

    @property
    def _buffer(self) -> np.ndarray | None:
        """Buffered samples as ``(samples, n_leads)`` (a view)."""
        return None if self._samples is None else self._samples.view.T

    def push(self, block: np.ndarray) -> list[tuple[int, BeatFiducials]]:
        """Feed filtered samples; return beats that became final."""
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[:, np.newaxis]
        if block.ndim != 2:
            raise ValueError("blocks must be (n,) or (n, n_leads)")
        if self._samples is None:
            self._samples = TailBuffer((block.shape[1],))
        if block.shape[1] != self._samples.view.shape[0]:
            raise ValueError("lead count changed mid-stream")
        if block.shape[0]:
            self._samples.append(block.T)
            self._end += block.shape[0]
        out = self._finalize(final=False)
        self._trim()
        return out

    def add_beat(
        self, peak: int, previous_peak: int | None = None, counter=None
    ) -> list[tuple[int, BeatFiducials]]:
        """Schedule a beat for delineation; return beats that became final.

        ``peak`` must already have been pushed and its left context
        must still be buffered (raise the ``lookback`` otherwise).
        ``counter`` receives the beat's op counts at finalization.
        """
        peak = int(peak)
        if not self._origin <= peak < self._end:
            raise ValueError("peak index outside the current stream")
        if self._seg_lo(peak) < self._start:
            raise ValueError(
                "left context of this beat was already discarded; "
                "construct the delineator with a larger lookback_s"
            )
        insort(self._pending, (peak, previous_peak, counter), key=lambda item: item[0])
        out = self._finalize(final=False)
        self._trim()
        return out

    def add_beats(self, beats) -> list[tuple[int, BeatFiducials]]:
        """Schedule several beats at once; return beats that became final.

        ``beats`` is an iterable of ``(peak, previous_peak)`` or
        ``(peak, previous_peak, counter)`` items.  Equivalent to
        calling :meth:`add_beat` once per item — same validation, same
        results, same charged op counts — but beats finalized together
        are delineated in one vectorized pass (one MMD transform per
        merged segment run per lead instead of one per beat), which is
        what makes a batched gateway flush cheap when it schedules many
        flagged beats in one delivery.
        """
        items: list[tuple[int, int | None, object]] = []
        for item in beats:
            peak = int(item[0])
            previous_peak = item[1]
            counter = item[2] if len(item) > 2 else None
            if not self._origin <= peak < self._end:
                raise ValueError("peak index outside the current stream")
            if self._seg_lo(peak) < self._start:
                raise ValueError(
                    "left context of this beat was already discarded; "
                    "construct the delineator with a larger lookback_s"
                )
            items.append((peak, previous_peak, counter))
        for entry in items:
            insort(self._pending, entry, key=lambda item: item[0])
        out = self._finalize(final=False)
        self._trim()
        return out

    def hold(self, peak: int | None) -> None:
        """Retain the left context of ``peak`` until further notice.

        A caller that *may* schedule a beat later — e.g. a gateway
        session whose classifier verdict is still in flight — marks the
        earliest such peak here; the buffer is then never trimmed past
        that beat's segment start, whatever the configured lookback.
        ``hold(None)`` releases the floor.  Beats scheduled later via
        :meth:`add_beat` must have peaks at or after the held one.
        """
        self._hold = None if peak is None else int(peak)

    def flush(self) -> list[tuple[int, BeatFiducials]]:
        """Finalize pending beats at the stream end; reset for a new stream.

        The absolute sample origin is preserved: later pushes continue
        the same timeline, like the streaming peak detector.
        """
        out = self._finalize(final=True)
        if self._samples is not None:
            self._samples.clear()
        self._origin = self._start = self._end
        self._hold = None
        return out

    def _seg_lo(self, peak: int) -> int:
        """Segment start: the left search span, clamped at the stream
        origin exactly like the batch path clamps at the record start."""
        return max(self._origin, peak - self._left)

    def _finalize(self, final: bool) -> list[tuple[int, BeatFiducials]]:
        ready: list[tuple[int, int | None, object]] = []
        remaining: list[tuple[int, int | None, object]] = []
        for item in self._pending:
            if not final and item[0] + self._right > self._end:
                remaining.append(item)
            else:
                ready.append(item)
        self._pending = remaining
        if not ready:
            return []
        # Stream-interior beats share one segment geometry
        # (``_left + _right`` samples, peak at ``_left``), so — exactly
        # like the record-interior fast path of ``delineate_beats`` —
        # they vectorize; origin- or end-clamped beats take the scalar
        # per-segment core.
        seg_len = self._left + self._right
        scales = self.config.mmd_scales(self.fs)
        results: list[BeatFiducials | None] = [None] * len(ready)
        if seg_len > 2 * max(scales):
            batch_rows = [
                idx
                for idx, (peak, _, _) in enumerate(ready)
                if peak - self._left >= self._origin and peak + self._right <= self._end
            ]
            if len(batch_rows) > 1:
                fiducials = self._delineate_batch(
                    [ready[idx] for idx in batch_rows], seg_len, scales
                )
                for idx, fid in zip(batch_rows, fiducials):
                    results[idx] = fid
        for idx, (peak, previous_peak, counter) in enumerate(ready):
            if results[idx] is not None:
                continue
            seg_lo = self._seg_lo(peak)
            seg_hi = min(self._end, peak + self._right)
            segment = self._buffer[seg_lo - self._start : seg_hi - self._start]
            results[idx] = _delineate_segment_multilead(
                segment, seg_lo, peak, self.fs, self.config, previous_peak, counter
            )
        return [(item[0], results[idx]) for idx, item in enumerate(ready)]

    def _delineate_batch(
        self,
        items: list[tuple[int, int | None, object]],
        seg_len: int,
        scales: tuple[int, ...],
    ) -> list[BeatFiducials]:
        """Vectorized finalization of stream-interior beats.

        Mirrors the interior fast path of :func:`delineate_beats` on
        the sliding buffer: one MMD transform per merged segment run
        per lead, per-beat edge fixups, then the batched fiducial
        search — bit-exact with the scalar per-segment core, beat for
        beat, in both fiducials and charged op counts.
        """
        peaks = np.asarray([item[0] for item in items], dtype=np.int64)
        previous = np.asarray(
            [
                -1 if prev is None or int(prev) < 0 else int(prev)
                for _, prev, _ in items
            ],
            dtype=np.int64,
        )
        seg_lo = peaks - self._left  # absolute; interior => >= _start
        lo = seg_lo - self._start  # buffer coordinates
        gather = lo[:, np.newaxis] + np.arange(seg_len)[np.newaxis, :]
        runs, _ = _merge_segments([(int(i), int(i) + seg_len) for i in lo])
        n_leads = self._buffer.shape[1]
        full = np.empty(self._buffer.shape[0])
        per_lead = np.empty((peaks.size, n_leads, len(FIDUCIAL_NAMES)), dtype=np.int64)
        for lead in range(n_leads):
            x = np.ascontiguousarray(self._buffer[:, lead])
            segments = x[gather]
            r_amps = np.abs(segments[:, self._left] - np.median(segments, axis=1))
            mmds = []
            for scale in scales:
                for run_lo, run_hi in runs:
                    full[run_lo:run_hi] = mmd_transform(x[run_lo:run_hi], scale)
                mmds.append(_segment_mmd_batch(segments, full[gather], scale))
            per_lead[:, lead] = _locate_fiducials_batch(
                segments,
                *mmds,
                self._left,
                seg_lo,
                peaks,
                self.fs,
                self.config,
                previous,
                r_amps,
            )
        combined = _combine_leads_batch(per_lead)
        for _, _, counter in items:
            _charge_beat_ops(counter, seg_len, scales, n_leads)
        return [BeatFiducials.from_array(row) for row in combined]

    def _trim(self) -> None:
        if self._samples is None:
            return
        keep_from = self._end - (self._lookback + self._left + 1)
        if self._pending:
            keep_from = min(keep_from, self._seg_lo(self._pending[0][0]))
        if self._hold is not None:
            keep_from = min(keep_from, self._seg_lo(self._hold))
        keep_from = max(self._start, keep_from)
        if keep_from > self._start:
            self._samples.drop(keep_from - self._start)
            self._start = keep_from
