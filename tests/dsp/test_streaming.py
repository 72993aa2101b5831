"""Tests for block-wise streaming front-end processing."""

import numpy as np
import pytest

from repro.dsp.morphological import filter_lead
from repro.dsp.peak_detection import detect_peaks
from repro.dsp.streaming import (
    BlockFilter,
    StreamingPeakDetector,
    filter_context_samples,
)
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig


@pytest.fixture(scope="module")
def record():
    synth = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=88)
    return synth.synthesize(40.0, name="stream")


class TestBlockFilter:
    @pytest.mark.parametrize("block_size", [64, 360, 1000, 7777])
    def test_matches_batch_after_warmup(self, record, block_size):
        x = record.lead(0)
        batch = filter_lead(x, record.fs)
        streamer = BlockFilter(record.fs)
        pieces = [
            streamer.push(x[i : i + block_size]) for i in range(0, x.size, block_size)
        ]
        pieces.append(streamer.flush())
        streamed = np.concatenate(pieces)
        assert streamed.size == x.size
        warmup = streamer.context
        np.testing.assert_allclose(streamed[warmup:], batch[warmup:], atol=1e-12)

    def test_output_sample_count_conserved(self, record):
        x = record.lead(0)[:5000]
        streamer = BlockFilter(record.fs)
        total = sum(streamer.push(x[i : i + 100]).size for i in range(0, 5000, 100))
        total += streamer.flush().size
        assert total == 5000

    def test_latency_bounded(self, record):
        streamer = BlockFilter(record.fs)
        assert streamer.delay_samples == filter_context_samples(record.fs)
        # At 360 Hz the context stays under a second of signal.
        assert streamer.delay_samples < record.fs

    def test_delay_samples_is_exact(self, record):
        """Output i must appear exactly when input i + delay arrives."""
        x = record.lead(0)
        streamer = BlockFilter(record.fs)
        delay = streamer.delay_samples
        emitted = 0
        first_emit_at = None
        for i in range(delay + 5):
            out = streamer.push(x[i : i + 1])
            if out.size and first_emit_at is None:
                first_emit_at = i
            emitted += out.size
        assert first_emit_at == delay
        assert emitted == 5

    def test_tiny_blocks(self, record):
        x = record.lead(0)[:2000]
        batch = filter_lead(x, record.fs)
        streamer = BlockFilter(record.fs)
        pieces = [streamer.push(x[i : i + 7]) for i in range(0, 2000, 7)]
        pieces.append(streamer.flush())
        streamed = np.concatenate(pieces)
        warmup = streamer.context
        np.testing.assert_allclose(streamed[warmup:], batch[warmup:], atol=1e-12)

    def test_flush_idempotent(self, record):
        streamer = BlockFilter(record.fs)
        streamer.push(record.lead(0)[:1000])
        first = streamer.flush()
        assert first.size > 0
        assert streamer.flush().size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockFilter(0.0)
        streamer = BlockFilter(360.0)
        with pytest.raises(ValueError):
            streamer.push(np.zeros((2, 2)))


class TestStreamingPeakDetector:
    def test_finds_the_batch_peaks(self, record):
        x = filter_lead(record.lead(0), record.fs)
        batch_peaks = detect_peaks(x, record.fs)
        detector = StreamingPeakDetector(record.fs)
        streamed: list[int] = []
        for i in range(0, x.size, 500):
            streamed.extend(detector.push(x[i : i + 500]))
        streamed.extend(detector.flush())
        streamed = np.asarray(streamed)
        # Every batch peak has a streaming peak nearby (thresholds are
        # per-window in the streaming path, so indices can shift a bit).
        missed = sum(
            1 for p in batch_peaks if np.min(np.abs(streamed - p)) > 15
        )
        assert missed <= max(1, int(0.05 * batch_peaks.size))

    def test_no_duplicate_or_unsorted_peaks(self, record):
        x = filter_lead(record.lead(0), record.fs)
        detector = StreamingPeakDetector(record.fs)
        for i in range(0, x.size, 720):
            detector.push(x[i : i + 720])
        detector.flush()
        peaks = detector.peaks
        assert np.all(np.diff(peaks) > 0)

    def test_refractory_across_blocks(self, record):
        x = filter_lead(record.lead(0), record.fs)
        detector = StreamingPeakDetector(record.fs)
        for i in range(0, x.size, 123):
            detector.push(x[i : i + 123])
        detector.flush()
        refractory = int(detector.config.refractory * record.fs)
        assert np.all(np.diff(detector.peaks) >= refractory)

    def test_few_false_positives(self, record):
        x = filter_lead(record.lead(0), record.fs)
        detector = StreamingPeakDetector(record.fs)
        for i in range(0, x.size, 500):
            detector.push(x[i : i + 500])
        detector.flush()
        ann = record.annotation.samples
        false_pos = sum(
            1 for p in detector.peaks if np.min(np.abs(ann - int(p))) > 18
        )
        assert false_pos <= max(1, int(0.08 * len(ann)))

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingPeakDetector(0.0)
        with pytest.raises(ValueError):
            StreamingPeakDetector(360.0, window_s=2.0, overlap_s=1.5)
        detector = StreamingPeakDetector(360.0)
        with pytest.raises(ValueError):
            detector.push(np.zeros((2, 2)))


class TestTailBuffer:
    """The amortized stream buffer behind the node's segment buffer,
    the detector's coefficient columns and the delineator's samples."""

    def test_matches_concatenate_and_slice(self):
        from repro.dsp.kernels import TailBuffer

        rng = np.random.default_rng(4)
        buffer, reference = TailBuffer((2,)), np.empty((2, 0))
        for _ in range(2000):
            block = rng.standard_normal((2, int(rng.integers(0, 120))))
            buffer.append(block)
            reference = np.concatenate([reference, block], axis=1)
            keep = int(rng.integers(300, 600))
            if reference.shape[1] > keep:
                buffer.drop(reference.shape[1] - keep)
                reference = reference[:, -keep:]
            np.testing.assert_array_equal(buffer.view, reference)
        assert buffer._data.shape[1] <= 2 * (600 + 120)  # bounded, not grown per push

    def test_pickles_only_the_live_region(self):
        import copy
        import pickle

        from repro.dsp.kernels import TailBuffer

        buffer = TailBuffer()
        for i in range(100):
            buffer.append(np.full(50, float(i)))
            buffer.drop(max(0, len(buffer) - 120))
        for clone in (pickle.loads(pickle.dumps(buffer)), copy.deepcopy(buffer)):
            np.testing.assert_array_equal(clone.view, buffer.view)
            assert clone._data.shape == (120,)
