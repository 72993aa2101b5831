"""Sliding-extremum kernels (batch and streaming forms).

The morphological operators in :mod:`repro.dsp.morphological` are
sliding minima/maxima over flat structuring elements of m = 5..109
samples.  A naive implementation performs ``m - 1`` comparisons per
output sample.  :func:`sliding_extremum` shares partial extrema
between overlapping windows by *doubling*:

1. one elementwise pass turns windows of ``k`` samples into windows of
   ``2k`` (``w2k[i] = op(wk[i], wk[i + k])``), so ``floor(log2 m)``
   passes give windows of the largest power of two ``p <= m``;
2. a window of ``m`` samples is the union of two overlapping windows of
   ``p``, so one more pass finishes it: ``op(wp[i], wp[i + m - p])``.

That is O(n log m) comparisons, but every pass is a single vectorized
NumPy call.  The O(n) van Herk–Gil-Werman recurrence needs two
sequential running-extremum scans (``ufunc.accumulate``), which NumPy
does not vectorize: on 21,600 samples at m = 73 the doubling kernel is
about 9x faster, and on the 100-300-sample blocks of the streaming
stages about 1.2-1.7x.  Min and max round nothing, so every algorithm
is bit-exact with the naive window.  The kernel works row-wise on 2-D
``(rows, samples)`` input too.

:class:`StreamingExtremum` is the incremental form.  It carries the
last ``m - 1`` input samples of every row across ``push`` calls and
runs :func:`sliding_extremum` over ``[carry | block]``, so one kernel
serves both forms, and one call advances any number of independent
rows (leads, sessions) at once.  Edge handling replicates the batch
operators' edge-replicated centered window: the first sample is
virtually replicated ``length // 2`` times before the stream and
``flush`` replicates the last sample, which makes a cascade of
streaming stages *bit-exact* with the batch cascade from the very
first output sample.

Multi-row streaming state uses one convention throughout
:mod:`repro.dsp`: a block is a ``(rows, width)`` array plus per-row
valid lengths (``None`` when every row fills the width), and a carry
is a ``(rows, c)`` array whose newest samples sit at the right edge
(see :func:`shift_rows`).  :func:`as_rows` / :func:`from_rows` convert
the public push arguments — a 1-D block (one row) or a sequence of
1-D rows of any lengths — to and from that form.

Neither form is what the op counters model: the counters keep charging
the naive ``m - 1`` comparisons per sample of the reference embedded C
implementation (see :mod:`repro.dsp.morphological`).
"""

from __future__ import annotations

import numpy as np


def sliding_extremum(values: np.ndarray, length: int, maximum: bool = False) -> np.ndarray:
    """Extremum of every window of ``length`` consecutive samples.

    Parameters
    ----------
    values:
        1-D array, or 2-D ``(rows, samples)`` array processed row by
        row (already padded by the caller if edge handling is
        desired).
    length:
        Window length ``m >= 1``; every row must hold at least one
        full window.
    maximum:
        ``False`` for sliding minimum, ``True`` for sliding maximum.

    Returns
    -------
    np.ndarray
        ``samples - length + 1`` outputs per row;
        ``out[..., i] == op(values[..., i : i + length])``.
    """
    values = np.asarray(values)
    m = int(length)
    if m < 1:
        raise ValueError("window length must be >= 1")
    n = values.shape[-1]
    if n < m:
        raise ValueError("need at least one full window of samples")
    if m == 1:
        return values.copy()
    return _extremum(values, m, np.maximum if maximum else np.minimum)


def _extremum(values: np.ndarray, m: int, op) -> np.ndarray:
    """:func:`sliding_extremum` without argument checks (``m >= 2``)."""
    # Invariant: out[..., i] is the extremum of values[..., i : i + span].
    out, span = values, 1
    while 2 * span <= m:
        out = op(out[..., :-span], out[..., span:])
        span *= 2
    if span < m:
        # Two overlapping windows of ``span`` cover one of ``m``.
        out = op(out[..., : out.shape[-1] - (m - span)], out[..., m - span :])
    return out


def as_rows(block) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Normalize a streaming ``push`` argument to the multi-row form.

    Accepts a 1-D block (one row) or a sequence of 1-D rows of any
    lengths (several rows).  Returns ``(values, lengths,
    single)``: a float ``(rows, width)`` array, the per-row valid
    lengths (``None`` when every row fills the width; ragged rows are
    zero-padded on the right) and whether the caller passed one 1-D
    block.
    """
    if isinstance(block, (list, tuple)) and block and np.ndim(block[0]) == 1:
        rows = [np.asarray(row, dtype=float) for row in block]
        if any(row.ndim != 1 for row in rows):
            raise ValueError("rows must be 1-D")
        lengths = np.fromiter((row.size for row in rows), dtype=np.int64, count=len(rows))
        width = int(lengths.max())
        if (lengths == width).all():
            return np.stack(rows), None, False
        values = np.zeros((len(rows), width))
        for r, row in enumerate(rows):
            values[r, : row.size] = row
        return values, lengths, False
    values = np.asarray(block, dtype=float)
    if values.ndim != 1:
        raise ValueError("blocks must be 1-D (one row) or a sequence of 1-D rows")
    return values[np.newaxis, :], None, True


def from_rows(values: np.ndarray, lengths: np.ndarray | None, single: bool):
    """Inverse of :func:`as_rows`: each row's valid outputs (trimmed
    along the last axis), as one array for a 1-D push, else a list."""
    if lengths is None:
        return values[0] if single else list(values)
    rows = [values[r, ..., :n] for r, n in enumerate(lengths.tolist())]
    return rows[0] if single else rows


def row_lengths(values: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Per-row valid lengths of a multi-row block (materialized)."""
    if lengths is None:
        return np.full(values.shape[0], values.shape[-1], dtype=np.int64)
    return lengths


def shift_rows(carry: np.ndarray, block: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Return ``[carry | block]`` per row and shift the block in.

    ``carry`` is a ``(rows, c)`` right-aligned history: its newest
    sample sits in the last column.  Afterwards ``carry`` holds the
    last ``c`` columns of each row's valid extent of the returned
    array (updated in place, so views into a larger state array stay
    bound).  Valid-count bookkeeping is the caller's.
    """
    c = carry.shape[1]
    ext = np.concatenate((carry, block), axis=1)
    if lengths is None:
        w = block.shape[1]
        carry[...] = ext[:, w : w + c]
    elif c:
        carry[...] = np.take_along_axis(ext, lengths[:, np.newaxis] + np.arange(c), axis=1)
    return ext


def take_rows(values: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Row ``r`` of the result is ``values[r, starts[r] : starts[r] + width]``
    (indices past the end repeat the last column)."""
    index = np.minimum(starts[:, np.newaxis] + np.arange(width), values.shape[1] - 1)
    return np.take_along_axis(values, index, axis=1)


class StreamingExtremum:
    """Incremental sliding min/max over a centered, edge-padded window.

    Reproduces ``erosion``/``dilation`` (window ``length``, centered
    with ``left = length // 2`` and edge replication) sample for
    sample: output ``i`` equals the batch operator's output ``i`` and
    is emitted as soon as input sample ``i + right`` has been pushed
    (``right = length - 1 - left``).

    ``push`` accepts arbitrary block sizes (including single samples)
    and returns the outputs that became computable; ``flush`` emits
    the last ``right`` outputs by replicating the final sample, exactly
    like the batch operator's trailing edge padding.  After ``flush``
    the stage starts a fresh stream.

    A 1-D block is one row.  A sequence of 1-D rows (of any lengths)
    advances that many independent streams in one vectorized pass and
    returns a list of per-row outputs; the row count is fixed by the
    first push.
    """

    def __init__(self, length: int, maximum: bool = False):
        m = int(length)
        if m < 1:
            raise ValueError("window length must be >= 1")
        self.length = m
        self.left = m // 2
        self.right = m - 1 - self.left
        self._op = np.maximum if maximum else np.minimum
        # Per row: the newest m - 1 inputs (right-aligned) and how many
        # of them are real (0 = stream not started).
        self._carry: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._single = True

    def push(self, block) -> np.ndarray | list[np.ndarray]:
        """Consume a block; return the newly computable outputs."""
        values, lengths, single = as_rows(block)
        self._single = single
        if self.length == 1:
            out = values.copy()
        else:
            self._ensure_rows(values.shape[0])
            out, lengths = self._step(self._carry, self._count, values, lengths)
        return from_rows(out, lengths, self._single)

    def flush(self) -> np.ndarray | list[np.ndarray]:
        """Emit the final outputs (trailing edge replication)."""
        if self._carry is None or self.length == 1:
            return np.empty(0) if self._single else []
        rows = self._carry.shape[0]
        out, lengths = self._flush_step(
            self._carry, self._count, np.empty((rows, 0)), np.zeros(rows, dtype=np.int64)
        )
        return from_rows(out, lengths, self._single)

    def _ensure_rows(self, rows: int) -> None:
        if self._carry is None:
            self._carry = np.zeros((rows, self.length - 1))
            self._count = np.zeros(rows, dtype=np.int64)
        elif self._carry.shape[0] != rows:
            raise ValueError(f"row count changed mid-stream ({self._carry.shape[0]} -> {rows})")

    def _step(
        self,
        carry: np.ndarray,
        count: np.ndarray,
        values: np.ndarray,
        lengths: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Advance every row by its block; return ``(outputs, lengths)``.

        ``carry``/``count`` are this stage's state (updated in place).
        Row ``r`` emits ``count[r] + n[r] - (m - 1)`` outputs (when
        positive): ``sliding_extremum`` over ``[carry | block]`` yields
        one output per block column, of which a row still filling its
        carry (stream start) discards the leading ``m - 1 - count[r]``.
        """
        width = values.shape[1]
        c = self.length - 1
        if width == 0:
            return values, lengths
        if not count.all():
            # Stream start: virtual left edge padding with the first
            # sample (fewer than a full window, so it never emits).
            fresh = count == 0
            if lengths is not None:
                fresh &= lengths > 0
            if fresh.any():
                carry[fresh, c - self.left :] = values[fresh, :1]
                count[fresh] = self.left
        before = count.copy()
        out = self._advance(carry, values, lengths)
        np.minimum(count + (width if lengths is None else lengths), c, out=count)
        lag = c - before
        if not lag.any():
            return out, lengths
        n = row_lengths(values, lengths)
        return take_rows(out, lag, width), np.maximum(n - lag, 0)

    def _advance(
        self, carry: np.ndarray, values: np.ndarray, lengths: np.ndarray | None
    ) -> np.ndarray:
        """One batch kernel call over every row's ``[carry | block]``:
        one output per block column (all valid once the row's carry is
        full, the steady state)."""
        return _extremum(shift_rows(carry, values, lengths), self.length, self._op)

    def _flush_step(
        self,
        carry: np.ndarray,
        count: np.ndarray,
        values: np.ndarray,
        lengths: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_step`` over the block followed by ``right`` copies of each
        row's last sample, then reset the rows for a fresh stream."""
        n = row_lengths(values, lengths)
        rows, width = values.shape
        started = (count > 0) | (n > 0)
        if self.right:
            has = n > 0
            last = carry[:, -1].copy()
            last[has] = values[has, n[has] - 1]
            padded = np.zeros((rows, width + self.right))
            padded[:, :width] = values
            np.put_along_axis(
                padded,
                n[:, np.newaxis] + np.arange(self.right),
                last[:, np.newaxis],
                axis=1,
            )
            values, n = padded, n + self.right * started
        out, out_lengths = self._step(carry, count, values, n)
        carry[...] = 0.0
        count[...] = 0
        return out, row_lengths(out, out_lengths)


class TailBuffer:
    """Samples along the last axis with amortized append and front trim.

    ``append`` writes into spare capacity (growing geometrically) and
    ``drop`` only advances a start index, so a stream buffer that grows
    at one end and is trimmed at the other costs O(block) per call
    instead of an O(buffer) copy.  Pickles and deep copies carry only
    the live region.
    """

    __slots__ = ("_data", "_lo", "_hi")

    def __init__(self, lead_shape: tuple[int, ...] = ()):
        self._data = np.empty(tuple(lead_shape) + (0,))
        self._lo = self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def view(self) -> np.ndarray:
        """The live samples (a view; valid until the next append)."""
        return self._data[..., self._lo : self._hi]

    def append(self, block: np.ndarray) -> None:
        k = block.shape[-1]
        if self._hi + k > self._data.shape[-1]:
            live = self._hi - self._lo
            need = live + k
            if 5 * need > 4 * self._data.shape[-1]:
                # Grow to 1.25x the need: every later move then comes
                # after at least a fifth of the capacity was appended,
                # so each sample is copied O(1) times.
                grown = np.empty(self._data.shape[:-1] + (max(5 * need // 4, 64),))
                grown[..., :live] = self.view
                self._data = grown
            else:
                self._data[..., :live] = self.view
            self._lo, self._hi = 0, live
        self._data[..., self._hi : self._hi + k] = block
        self._hi += k

    def drop(self, k: int) -> None:
        """Forget the oldest ``k`` samples."""
        self._lo = min(self._hi, self._lo + k)

    def clear(self) -> None:
        self._lo = self._hi = 0

    def __getstate__(self):
        return self.view.copy()

    def __setstate__(self, data) -> None:
        self._data = data
        self._lo, self._hi = 0, data.shape[-1]
