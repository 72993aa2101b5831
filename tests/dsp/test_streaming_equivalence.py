"""Streaming/batch bit-exact equivalence and op-count invariance.

The fast kernels (doubling sliding-extremum morphology, stateful
multi-row streaming cascades, carried-state wavelet filters) must
change *nothing* observable except wall-clock time:

* streamed outputs equal the batch outputs **bit for bit** — across
  block sizes {1, 7, 64, 1024} and sampling rates {90, 250, 360} Hz;
* the fast batch kernels equal the naive sliding-window reference;
* op counters keep reporting the naive embedded counts (window length
  ``m`` costs ``m - 1`` comparisons per sample), exactly as the seed
  implementation did — they model the reference C firmware, not the
  Python kernels.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp.kernels import StreamingExtremum, sliding_extremum
from repro.dsp.morphological import (
    closing,
    dilation,
    erosion,
    filter_lead,
    opening,
    suppress_noise,
)
from repro.dsp.streaming import BlockFilter, StreamingPeakDetector
from repro.dsp.wavelet import StreamingWavelet, dyadic_wavelet
from repro.platform.opcount import OpCounter

BLOCK_SIZES = [1, 7, 64, 1024]
SAMPLING_RATES = [90.0, 250.0, 360.0]


def _signal(fs: float, seconds: float = 6.0, seed: int = 5) -> np.ndarray:
    """Noisy multi-tone test signal (no ECG structure required)."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    return (
        np.sin(2 * np.pi * 1.1 * t)
        + 0.4 * np.sin(2 * np.pi * 17.0 * t)
        + 0.2 * rng.standard_normal(t.size)
    )


def _stream(pushable, x: np.ndarray, block: int) -> np.ndarray:
    parts = [pushable.push(x[i : i + block]) for i in range(0, x.size, block)]
    parts.append(pushable.flush())
    axis = 1 if parts[0].ndim == 2 else 0
    return np.concatenate(parts, axis=axis)


class TestFastKernelsMatchNaive:
    @pytest.mark.parametrize("length", [2, 3, 5, 16, 17, 31, 73, 109])
    def test_sliding_extremum_vs_window_view(self, rng, length):
        x = rng.standard_normal(500)
        ref_min = sliding_window_view(x, length).min(axis=1)
        ref_max = sliding_window_view(x, length).max(axis=1)
        np.testing.assert_array_equal(sliding_extremum(x, length), ref_min)
        np.testing.assert_array_equal(sliding_extremum(x, length, maximum=True), ref_max)

    @pytest.mark.parametrize("length", [1, 2, 5, 17, 73])
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_streaming_extremum_matches_erosion_dilation(self, rng, length, block):
        x = rng.standard_normal(700)
        np.testing.assert_array_equal(
            _stream(StreamingExtremum(length), x, block), erosion(x, length)
        )
        np.testing.assert_array_equal(
            _stream(StreamingExtremum(length, maximum=True), x, block),
            dilation(x, length),
        )


class TestBlockFilterBitExact:
    @pytest.mark.parametrize("fs", SAMPLING_RATES)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_streamed_equals_batch_everywhere(self, fs, block):
        """Bit-exact from sample 0 — no warm-up region at all."""
        x = _signal(fs)
        streamed = _stream(BlockFilter(fs), x, block)
        np.testing.assert_array_equal(streamed, filter_lead(x, fs))

    def test_reusable_after_flush(self):
        fs = 360.0
        x = _signal(fs)
        block_filter = BlockFilter(fs)
        first = _stream(block_filter, x, 128)
        second = _stream(block_filter, x, 128)  # same object, fresh stream
        np.testing.assert_array_equal(first, second)

    def test_short_stream_shorter_than_context(self):
        fs = 360.0
        x = _signal(fs)[:50]  # far below the ~187-sample context
        streamed = _stream(BlockFilter(fs), x, 7)
        np.testing.assert_array_equal(streamed, filter_lead(x, fs))


class TestStreamingWaveletBitExact:
    @pytest.mark.parametrize("fs", SAMPLING_RATES)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_streamed_equals_batch(self, fs, block):
        x = _signal(fs)
        streamed = _stream(StreamingWavelet(4), x, block)
        np.testing.assert_array_equal(streamed, dyadic_wavelet(x))

    def test_flush_resets_for_next_stream(self, rng):
        wavelet = StreamingWavelet(4)
        wavelet.push(rng.standard_normal(100))
        wavelet.flush()
        x = rng.standard_normal(300)
        np.testing.assert_array_equal(
            np.concatenate([wavelet.push(x), wavelet.flush()], axis=1),
            dyadic_wavelet(x),
        )


class TestOpCountInvariance:
    """The fast kernels must report the seed's naive embedded counts."""

    @pytest.mark.parametrize("length", [3, 5, 73, 109])
    def test_erosion_dilation_naive_counts(self, rng, length):
        x = rng.standard_normal(400)
        for operator in (erosion, dilation):
            counter = OpCounter()
            operator(x, length, counter)
            assert counter["cmp"] == x.size * (length - 1)
            assert counter["load"] == x.size * length
            assert counter["store"] == x.size

    @pytest.mark.parametrize("length", [5, 31])
    def test_opening_closing_two_passes(self, rng, length):
        x = rng.standard_normal(200)
        for operator in (opening, closing):
            counter = OpCounter()
            operator(x, length, counter)
            assert counter["cmp"] == 2 * x.size * (length - 1)

    @pytest.mark.parametrize("fs", SAMPLING_RATES)
    def test_filter_lead_total_matches_analytic(self, fs):
        """Chain total equals the sum of its stages' naive counts."""
        x = _signal(fs, seconds=3.0)
        counter = OpCounter()
        filter_lead(x, fs, counter=counter)
        m_open = max(3, int(round(0.2 * fs)) | 1)
        m_close = max(3, int(round(0.3 * fs)) | 1)
        m_noise = max(3, int(round(0.014 * fs)) | 1)
        expected_cmp = 2 * x.size * (
            (m_open - 1) + (m_close - 1) + 2 * (m_noise - 1)
        )
        assert counter["cmp"] == expected_cmp
        assert counter["sub"] == x.size  # baseline subtraction
        assert counter["shift"] == x.size  # divide-by-two in denoising


class TestStreamingDetectorFlush:
    def test_push_after_flush_keeps_absolute_origin(self):
        """Regression: flush used to leave the stream origin stale, so
        peaks from a later push were reported relative to the wrong
        sample index."""
        from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

        record = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=44).synthesize(40.0)
        x = filter_lead(record.lead(0), record.fs)
        half = x.size // 2

        detector = StreamingPeakDetector(record.fs)
        for i in range(0, half, 500):
            detector.push(x[i : min(i + 500, half)])
        detector.flush()
        first_segment = detector.peaks.copy()

        for i in range(half, x.size, 500):
            detector.push(x[i : i + 500])
        detector.flush()
        second_segment = detector.peaks[first_segment.size :]

        # Second-segment peaks must land in the second half of the
        # global timeline, not start over near zero.
        assert second_segment.size > 0
        assert np.all(second_segment >= half)
        assert np.all(np.diff(detector.peaks) > 0)

    def test_detections_invariant_to_chunking(self):
        """Regression: threshold energy must fold causally at window
        consumption points, so the peak sequence cannot depend on how
        the caller blocks the stream (one big push used to let future
        loud samples raise the thresholds of earlier quiet windows)."""
        from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

        record = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=12).synthesize(60.0)
        x = filter_lead(record.lead(0), record.fs)
        x[x.size // 2 :] *= 6.0  # quiet first half, loud second half

        def detect(block):
            detector = StreamingPeakDetector(record.fs)
            peaks: list[int] = []
            for i in range(0, x.size, block):
                peaks.extend(detector.push(x[i : i + block]))
            peaks.extend(detector.flush())
            return peaks

        whole = detect(x.size)
        assert detect(180) == whole
        assert detect(1234) == whole
        # Quiet-half beats must actually be detected.
        assert sum(1 for p in whole if p < x.size // 2) > 20

    def test_thresholds_adapt_to_amplitude_drop(self):
        """Regression: cumulative (undecayed) running thresholds went
        blind after a large amplitude drop; the decayed estimate must
        keep detecting in the quiet epoch."""
        from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

        record = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=77).synthesize(120.0)
        x = filter_lead(record.lead(0), record.fs)
        half = x.size // 2
        x[half:] *= 0.25  # electrode-degradation-style amplitude step

        detector = StreamingPeakDetector(record.fs)
        peaks: list[int] = []
        for i in range(0, x.size, 500):
            peaks.extend(detector.push(x[i : i + 500]))
        peaks.extend(detector.flush())

        annotated_quiet = sum(1 for a in record.annotation.samples if a >= half)
        detected_quiet = sum(1 for p in peaks if p >= half)
        assert detected_quiet > 0.6 * annotated_quiet

    def test_flush_discards_short_tail_but_advances_origin(self):
        fs = 360.0
        detector = StreamingPeakDetector(fs)
        detector.push(np.zeros(100))  # below the 0.5 s analysis floor
        assert detector.flush() == []
        x = filter_lead(_signal(fs, seconds=15.0), fs)
        detector.push(x)
        confirmed = detector.flush()
        # Everything reported after the reset sits past the discarded
        # 100-sample prefix.
        assert all(p >= 100 for p in confirmed)


def _row_schedule(n_rows: int, n_samples: int, block: int, seed: int):
    """Per push, each row's block length: rows start ``r`` pushes late
    (phase skew), blocks vary around ``block`` (ragged), and every
    third push gives the rows single samples."""
    rng = np.random.default_rng(seed)
    offsets = [0] * n_rows
    pushes = []
    step = 0
    while any(o < n_samples for o in offsets):
        sizes = []
        for r in range(n_rows):
            if step < r or offsets[r] >= n_samples:
                sizes.append(0)
                continue
            size = 1 if step % 3 == 2 else int(rng.integers(1, 2 * block + 1))
            size = min(size, n_samples - offsets[r])
            sizes.append(size)
            offsets[r] += size
        pushes.append(sizes)
        step += 1
    return pushes


def _stream_rows(make, signals, pushes):
    """Feed ragged multi-row pushes into one instance; return each row's
    concatenated outputs (flush included) and the matching 1-D runs."""
    rows = make()
    parts = [[] for _ in signals]
    singles = [make() for _ in signals]
    single_parts = [[] for _ in signals]
    offsets = [0] * len(signals)
    for sizes in pushes:
        blocks = []
        for r, size in enumerate(sizes):
            blocks.append(signals[r][offsets[r] : offsets[r] + size])
            if size:
                single_parts[r].append(singles[r].push(blocks[-1]))
            offsets[r] += size
        for r, out in enumerate(rows.push(blocks)):
            parts[r].append(out)
    for r, out in enumerate(rows.flush()):
        parts[r].append(out)
        single_parts[r].append(singles[r].flush())
    axis = -1
    return (
        [np.concatenate(p, axis=axis) for p in parts],
        [np.concatenate(p, axis=axis) for p in single_parts],
    )


class TestRowBatchedBitExact:
    """Multi-row pushes (several streams in one vectorized pass) equal
    each row's own 1-D run and the batch transform, bit for bit —
    through ragged, phase-skewed rows, single-sample pushes and every
    row's stream-start warm-up (short FIR histories, filling carries)."""

    @pytest.mark.parametrize("fs", SAMPLING_RATES)
    @pytest.mark.parametrize("block", [1, 7, 90])
    def test_block_filter_rows(self, fs, block):
        signals = [_signal(fs, seconds=3.0, seed=s) for s in (1, 2, 3, 4)]
        pushes = _row_schedule(len(signals), signals[0].size, block, seed=block)
        rows, singles = _stream_rows(lambda: BlockFilter(fs), signals, pushes)
        for x, row, single in zip(signals, rows, singles):
            np.testing.assert_array_equal(row, single)
            np.testing.assert_array_equal(row, filter_lead(x, fs))

    @pytest.mark.parametrize("fs", SAMPLING_RATES)
    @pytest.mark.parametrize("block", [1, 7, 90])
    def test_wavelet_rows(self, fs, block):
        signals = [_signal(fs, seconds=3.0, seed=s) for s in (5, 6, 7)]
        pushes = _row_schedule(len(signals), signals[0].size, block, seed=block)
        rows, singles = _stream_rows(lambda: StreamingWavelet(4), signals, pushes)
        for x, row, single in zip(signals, rows, singles):
            np.testing.assert_array_equal(row, single)
            np.testing.assert_array_equal(row, dyadic_wavelet(x))

    @pytest.mark.parametrize("length", [2, 5, 17, 73])
    def test_extremum_rows(self, rng, length):
        signals = [rng.standard_normal(400) for _ in range(3)]
        pushes = _row_schedule(len(signals), 400, 30, seed=length)
        rows, singles = _stream_rows(
            lambda: StreamingExtremum(length, maximum=True), signals, pushes
        )
        for x, row, single in zip(signals, rows, singles):
            np.testing.assert_array_equal(row, single)
            np.testing.assert_array_equal(row, dilation(x, length))

    def test_detector_rows_match_single_row_detectors(self):
        from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

        fs = 360.0
        signals = [
            filter_lead(RecordSynthesizer(SynthesisConfig(n_leads=1), seed=s).synthesize(25.0).lead(0), fs)
            for s in (31, 32, 33)
        ]
        pushes = _row_schedule(len(signals), signals[0].size, 90, seed=9)
        detector = StreamingPeakDetector(fs)
        found = [[] for _ in signals]
        offsets = [0] * len(signals)
        for sizes in pushes:
            blocks = [x[o : o + n] for x, o, n in zip(signals, offsets, sizes)]
            offsets = [o + n for o, n in zip(offsets, sizes)]
            for r, peaks in enumerate(detector.push(blocks)):
                found[r].extend(peaks)
        for r, peaks in enumerate(detector.flush()):
            found[r].extend(peaks)
        for x, peaks in zip(signals, found):
            single = StreamingPeakDetector(fs)
            expected = single.push(x) + single.flush()
            assert peaks == expected and len(peaks) > 10
