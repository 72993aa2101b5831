"""À-trous dyadic wavelet transform with quadratic-spline filters.

The peak detector of Rincon et al. (itself derived from the classic
Mallat / Martinez delineator) decomposes the ECG into four dyadic
scales with the quadratic-spline wavelet, whose digital filters are

* low-pass  ``h = (1/8) [1, 3, 3, 1]``
* high-pass ``g = 2 [1, -1]``

The transform is undecimated ("algorithme à trous"): at scale *j* the
filters are upsampled by inserting ``2^(j-1) - 1`` zeros between taps.
With this wavelet, each scale of the transform is proportional to a
smoothed derivative of the input, so QRS complexes appear as
maximum–minimum pairs whose zero crossing marks the R peak.

Each scale's group delay is compensated so that the zero crossing of a
symmetric peak is aligned with the peak sample itself, which keeps the
detector phase-accurate across scales.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.kernels import as_rows, from_rows, shift_rows, take_rows

#: Quadratic-spline analysis filters.
LOWPASS = np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
HIGHPASS = np.array([2.0, -2.0])


def _upsample(filter_taps: np.ndarray, factor: int) -> np.ndarray:
    """Insert ``factor - 1`` zeros between filter taps (à trous)."""
    if factor == 1:
        return filter_taps
    upsampled = np.zeros((filter_taps.size - 1) * factor + 1)
    upsampled[::factor] = filter_taps
    return upsampled


def _filter_same(x: np.ndarray, taps: np.ndarray, counter=None) -> np.ndarray:
    """Convolve and trim to the input length (delay kept, trimmed later)."""
    if counter is not None:
        nonzero = int(np.count_nonzero(taps))
        # A WBSN implementation skips the inserted zeros, and the
        # quadratic-spline taps are power-of-two multiples, so each tap
        # costs one shift-accumulate.
        counter.add("mul", x.size * nonzero)
        counter.add("add", x.size * (nonzero - 1))
        counter.add("load", x.size * nonzero)
        counter.add("store", x.size)
    return np.convolve(x, taps, mode="full")[: x.size]


def scale_delay(scale: int) -> int:
    """Group delay (samples) of the cascade producing wavelet scale ``scale``.

    With the quadratic-spline pair the delay of scale *j* (1-based) is
    ``2^(j-1) + 2^(j-1) - 1 + sum of lowpass delays``; expanding the
    cascade gives the familiar values 1, 3, 7, 15 for scales 1-4 (up to
    the half-sample intrinsic offset of the odd-length equivalent
    filter, absorbed into the integer compensation used here).
    """
    if scale < 1:
        raise ValueError("scale index must be >= 1")
    return (1 << scale) - 1


def dyadic_wavelet(
    x: np.ndarray, n_scales: int = 4, counter=None, compensate_delay: bool = True
) -> np.ndarray:
    """Compute the à-trous dyadic wavelet transform.

    Parameters
    ----------
    x:
        1-D input signal.
    n_scales:
        Number of dyadic scales (the detector uses 4).
    counter:
        Optional op-counter recording the embedded filtering work.
    compensate_delay:
        Shift each scale left by its group delay so wavelet features
        align with the input samples (detectors rely on this).

    Returns
    -------
    np.ndarray
        Array of shape ``(n_scales, len(x))``; row ``j-1`` holds
        :math:`W_{2^j} x`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("dyadic_wavelet expects a 1-D signal")
    if n_scales < 1:
        raise ValueError("n_scales must be >= 1")
    scales = np.empty((n_scales, x.size))
    approximation = x
    for j in range(1, n_scales + 1):
        factor = 1 << (j - 1)
        g = _upsample(HIGHPASS, factor)
        h = _upsample(LOWPASS, factor)
        detail = _filter_same(approximation, g, counter)
        if compensate_delay:
            delay = scale_delay(j)
            detail = np.concatenate([detail[delay:], np.repeat(detail[-1], delay)])
        scales[j - 1] = detail
        approximation = _filter_same(approximation, h, counter)
    return scales




class _StreamingFIR:
    """Causal FIR filter over carried per-row history (exact blockwise convolve).

    Feeding a stream through :meth:`step` block by block reproduces
    ``np.convolve(whole_stream, taps, mode="full")[:n]`` bit for bit.
    The caller owns the history: a ``(rows, len(taps) - 1)``
    right-aligned carry of each row's last *real* samples (never zero
    padding) plus its valid count, so every emitted output is produced
    by a dot product over exactly the same operands — and, crucially
    for pairwise summation, the same operand count — as the batch
    convolution.

    All rows whose history is full run as **one** ``np.convolve`` over
    the raveled ``[history | block]`` rows: each output a row keeps is
    a full-length dot over that row's own samples, exactly what the
    per-row convolution computes, while the outputs that straddle two
    rows are discarded.  Rows still inside their stream's first
    ``len(taps) - 1`` samples (shorter history, so the batch
    convolution's boundary dots have fewer operands) are computed one
    by one.
    """

    def __init__(self, taps: np.ndarray):
        self.taps = np.asarray(taps, dtype=float)

    def step(
        self,
        hist: np.ndarray,
        count: np.ndarray,
        values: np.ndarray,
        lengths: np.ndarray | None,
    ) -> np.ndarray:
        """Filter one multi-row block; return ``(rows, width)`` outputs.

        ``hist`` is updated in place; ``count`` is each row's number of
        real history samples before this block (``None``: all full).
        """
        taps = self.taps
        c = taps.size - 1
        ext = shift_rows(hist, values, lengths)
        rows, span = ext.shape
        out = np.convolve(ext.ravel(), taps)[: rows * span].reshape(rows, span)[:, c:]
        if count is not None and (count < c).any():
            width = values.shape[1]
            for r in np.flatnonzero(count < c).tolist():
                k = int(count[r])
                n = width if lengths is None else int(lengths[r])
                combined = ext[r, c - k : c + n]
                if combined.size < taps.size:
                    # np.convolve swaps its arguments when the signal
                    # is the shorter one, which reverses the summation
                    # order of the boundary dot products.  Right-padding
                    # with zeros keeps the batch argument order without
                    # touching the emitted outputs.
                    combined = np.concatenate([combined, np.zeros(taps.size - combined.size)])
                out[r, :n] = np.convolve(combined, taps)[k : k + n]
        return out


class StreamingWavelet:
    """Stateful à-trous transform emitting delay-compensated columns.

    The batch :func:`dyadic_wavelet` recomputes every filter over the
    whole record; this class carries the FIR state of the filters
    across ``push`` calls so each input sample is filtered exactly
    once, no matter how the stream is blocked (the deepest scale's
    low-pass output feeds nothing, so it is never computed).

    ``push(block)`` returns an ``(n_scales, k)`` array of the aligned
    coefficient columns that became complete across *all* scales (the
    deepest scale's group delay, ``2**n_scales - 1`` samples, bounds
    the lag); ``flush()`` emits the remaining columns using the same
    trailing replication the batch transform applies.  Concatenating
    all outputs is **bit-exact** with ``dyadic_wavelet(whole_stream)``
    — the tests assert equality for arbitrary block partitions.

    Like :class:`~repro.dsp.kernels.StreamingExtremum`, a sequence of
    1-D rows (of any lengths) advances that many independent
    streams in one pass (one convolution per filter for all rows) and
    returns a list of per-row ``(n_scales, k)`` arrays.
    """

    def __init__(self, n_scales: int = 4):
        if n_scales < 1:
            raise ValueError("n_scales must be >= 1")
        self.n_scales = n_scales
        factors = [1 << (j - 1) for j in range(1, n_scales + 1)]
        self._highpass = [_StreamingFIR(_upsample(HIGHPASS, f)) for f in factors]
        self._lowpass = [_StreamingFIR(_upsample(LOWPASS, f)) for f in factors[:-1]]
        self._delays = [scale_delay(j) for j in range(1, n_scales + 1)]
        lag = self._delays[-1]
        # One state row per stream: every filter's history, then per
        # scale the newest uncompensated detail samples still owed to
        # an aligned column (lag + 1 - delay of them; the extra one
        # keeps the last value for the flush-time replication).
        widths = [fir.taps.size - 1 for fir in self._highpass + self._lowpass]
        widths += [lag + 1 - delay for delay in self._delays]
        bounds = np.cumsum([0] + widths).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._width = bounds[-1]
        self._settle = max(widths[: 2 * n_scales - 1] + [lag])
        self._state: np.ndarray | None = None
        self._consumed: np.ndarray | None = None  # samples pushed per row
        self._single = True

    def push(self, block) -> np.ndarray | list[np.ndarray]:
        """Filter a block; return newly completed aligned columns."""
        values, lengths, single = as_rows(block)
        self._single = single
        self._ensure_rows(values.shape[0])
        columns, counts = self._step(values, lengths)
        return from_rows(columns, counts, self._single)

    def flush(self) -> np.ndarray | list[np.ndarray]:
        """Emit the trailing columns (batch-style end replication) and
        reset every row for a fresh stream."""
        if self._state is None:
            return np.empty((self.n_scales, 0)) if self._single else []
        columns, counts = self._flush_step()
        return from_rows(columns, counts, self._single)

    def reset(self) -> None:
        """Forget all filter state (ready for a fresh stream)."""
        if self._state is not None:
            self._state[...] = 0.0
            self._consumed[...] = 0

    def _ensure_rows(self, rows: int) -> None:
        if self._state is None:
            self._state = np.zeros((rows, self._width))
            self._consumed = np.zeros(rows, dtype=np.int64)
        elif self._state.shape[0] != rows:
            raise ValueError(f"row count changed mid-stream ({self._state.shape[0]} -> {rows})")

    def _step(
        self, values: np.ndarray, lengths: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Advance every row; return ``((rows, n_scales, width), counts)``."""
        width = values.shape[1]
        n_scales = self.n_scales
        if width == 0:
            return np.empty((values.shape[0], n_scales, 0)), lengths
        state, slices = self._state, self._slices
        before = self._consumed.copy()
        # Past every row's stream start, all histories are full and
        # each pushed sample completes one aligned column.
        steady = before.min() >= self._settle
        fir_slices = slices[: 2 * n_scales - 1]
        detail_slices = slices[2 * n_scales - 1 :]
        approximation = values
        extended = []
        for j in range(n_scales):
            hist = state[:, fir_slices[j]]
            count = None if steady else np.minimum(before, hist.shape[1])
            detail = self._highpass[j].step(hist, count, approximation, lengths)
            extended.append(shift_rows(state[:, detail_slices[j]], detail, lengths))
            if j < n_scales - 1:
                hist = state[:, fir_slices[n_scales + j]]
                count = None if steady else np.minimum(before, hist.shape[1])
                approximation = self._lowpass[j].step(hist, count, approximation, lengths)
        self._consumed += width if lengths is None else lengths
        columns = np.empty((values.shape[0], n_scales, width))
        if steady:
            for j, ext in enumerate(extended):
                columns[:, j] = ext[:, 1 : 1 + width]
            return columns, lengths
        # Aligned column i of scale j is detail_j[i + delay_j]; the
        # deepest scale limits how far all rows are complete.  In each
        # extended detail row the first column still owed sits at
        # position ``lag + 1 - (consumed - emitted)`` for every scale.
        lag = self._delays[-1]
        emitted = np.maximum(before - lag, 0)
        first = emitted - before + lag + 1
        counts = np.maximum(self._consumed - lag, 0) - emitted
        for j, ext in enumerate(extended):
            columns[:, j] = take_rows(ext, first, width)
        return columns, counts

    def _flush_step(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit every row's remaining columns; reset the rows."""
        lag = self._delays[-1]
        consumed = self._consumed
        emitted = np.maximum(consumed - lag, 0)
        counts = consumed - emitted
        width = int(counts.max())
        first = emitted - consumed + lag + 1
        columns = np.empty((consumed.size, self.n_scales, width))
        for j, sl in enumerate(self._slices[2 * self.n_scales - 1 :]):
            carry = self._state[:, sl]
            # Past the stream end: replicate the last detail value,
            # exactly like the batch delay compensation.
            columns[:, j] = take_rows(carry, first, width)
        self.reset()
        return columns, counts
