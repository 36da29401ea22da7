"""Window-bucketed layout: each row window as one dense contraction slab.

FlashSparse makes every row window's work one dense tensor-core product.
A window holding ``nb`` TC blocks of ``group`` vectors is a dense
``(v, nb·group)`` slab of A whose lanes address ``nb·group`` rows of the
dense operand, so its SpMM is the single product ``(v, L) @ B[cols] (L, N)``
and its SDDMM ``A[window rows] (v, K) @ B[cols]ᵀ (K, L)`` with
``L = nb·group``.  Windows with the same ``L`` stack into one batched
matmul per *bucket* (``W`` windows of the same shape), the same
shape-bucketing :func:`repro.ops.segment_matmul` uses; a sparse tail of the
block-count histogram is padded into a neighbouring bucket so a layout never
has more than :data:`MAX_BUCKETS`.  Padded lanes (the tail of a window's
last, narrower block, and any blocks added to fit its bucket) address
column 0 with a zero A value, which contributes exactly the zero register
values the reference loop feeds its MMAs.

:class:`WindowLayout` holds that bucketing for one ``group``.  It is built
straight from the :class:`~repro.formats.windows.WindowPartition` and
cached on the format (:meth:`BlockedVectorFormat.window_layout`).  The A
slabs are quantised once per precision and cached with it.

:meth:`WindowLayout.view` cuts a window range ``[w0, w1)`` out of every
bucket with two ``searchsorted`` calls on the bucket's sorted window ids.
A range only selects bucket rows, so a window is contracted by the same
product with the same operand shapes whichever range it is part of.  That
is why the one-shot engine, its window-aligned chunks and threads, the
process-pool shards and the cluster hosts agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.windows import WindowPartition
from repro.precision.types import Precision, quantize

#: Most buckets per layout.
MAX_BUCKETS = 12
#: What one more bucket costs, in padded blocks: each bucket adds a few
#: NumPy calls to every contraction, about the time of this many blocks'
#: worth of gathers and products.
BUCKET_COST_BLOCKS = 64


@dataclass(frozen=True)
class WindowBucket:
    """Windows sharing one lane count, as stacked lane arrays.

    Attributes
    ----------
    windows:
        ``(W,)`` ascending window ids (relative to the enclosing view's
        first window).
    starts, counts:
        ``(W,)`` int64 — each window's first global nonzero-vector index and
        its vector count.  Lane ``j`` of a window holds vector
        ``start + j`` when ``j < count`` and is padding otherwise.
    columns:
        ``(W, L)`` int64 — dense-operand row of each lane (0 on padded
        lanes, whose A values are zero).
    values:
        ``(W, L, v)`` float32 A slabs (the transpose of each window's
        ``(v, L)`` slab: lane-major, like the format's vector values), zero
        on padded lanes, or ``None`` in a view that carries structure only.
    """

    windows: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    columns: np.ndarray
    values: np.ndarray | None = None

    @property
    def lanes(self) -> int:
        """Lanes per window (``blocks · group``)."""
        return int(self.columns.shape[1])

    def gather(self, vector_rows: np.ndarray, base: int = 0) -> np.ndarray:
        """``(W, L, v)`` float32 slab of each lane's row of ``vector_rows``,
        zero on padded lanes.

        ``vector_rows`` is ``(num_vectors, v)`` in nonzero-vector layout (the
        format's values, or a fused layer's attention weights) and holds
        vectors ``base, base + 1, …``.
        """
        lane = np.arange(self.lanes)
        valid = lane[None, :] < self.counts[:, None]
        local = np.where(valid, (self.starts - base)[:, None] + lane, 0)
        slab = np.asarray(vector_rows, dtype=np.float32)[local]
        slab[~valid] = 0.0
        return slab

    def with_values(self, values: np.ndarray | None) -> "WindowBucket":
        """The bucket with ``values`` as its A slabs."""
        return WindowBucket(self.windows, self.starts, self.counts, self.columns, values)

    def rows(self, i0: int, i1: int, w0: int, values: np.ndarray | None) -> "WindowBucket":
        """Windows ``i0:i1`` of the bucket, ids shifted down by ``w0``."""
        return WindowBucket(
            self.windows[i0:i1] - w0,
            self.starts[i0:i1],
            self.counts[i0:i1],
            self.columns[i0:i1],
            None if values is None else values[i0:i1],
        )


def _bucket(windows, starts, counts, lanes, vector_cols) -> WindowBucket:
    """A bucket of windows with ``lanes`` lanes each."""
    lane = np.arange(lanes, dtype=np.int64)
    valid = lane[None, :] < counts[:, None]
    columns = np.where(valid, vector_cols[np.where(valid, starts[:, None] + lane, 0)], 0)
    return WindowBucket(windows, starts, counts, columns)


@dataclass(frozen=True)
class WindowView:
    """The buckets of one window range ``[w0, w1)`` of a layout.

    Bucket window ids are local (``0 … w1 - w0 - 1``); lane vector ids stay
    global.  The range owns nonzero vectors ``vec_lo … vec_lo + vec_count -
    1``.  ``mask`` (optional) is the SDDMM sampling mask of those vectors:
    ``(slots, values)``, the flat positions in their ``(vec_count, v)``
    value block that hold a stored entry, and the entries.  Bucket rows are
    views into the layout, so a view is cheap to build per shard, and it
    pickles (to a worker process) as a few flat arrays.
    """

    w0: int
    w1: int
    vector_size: int
    buckets: tuple[WindowBucket, ...]
    vec_lo: int = 0
    vec_count: int = 0
    mask: tuple | None = None
    #: Precision of the A slabs (``None``: structure only).
    precision: Precision | None = None

    @property
    def num_windows(self) -> int:
        """Windows covered by the view (empty ones included)."""
        return self.w1 - self.w0

    def __reduce__(self):
        # A handful of flat arrays instead of several per bucket: per-array
        # pickling overhead would dominate a shard's task.
        buckets = self.buckets
        per_window = np.concatenate(
            [np.stack([b.windows, b.starts, b.counts]) for b in buckets]
            or [np.zeros((3, 0), dtype=np.int64)],
            axis=1,
        )
        columns = np.concatenate([b.columns.reshape(-1) for b in buckets] or [np.zeros(0)])
        values = None
        if buckets and buckets[0].values is not None:
            values = np.concatenate([b.values.reshape(-1) for b in buckets])
        shapes = [(len(b.windows), b.lanes) for b in buckets]
        header = (self.w0, self.w1, self.vector_size, self.vec_lo, self.vec_count, self.precision)
        return _rebuild_view, (header, shapes, per_window, columns, values, self.mask)


def _rebuild_view(header, shapes, per_window, columns, values, mask) -> WindowView:
    """Inverse of :meth:`WindowView.__reduce__`."""
    w0, w1, v, vec_lo, vec_count, precision = header
    buckets = []
    w = lane = 0
    for n, lanes in shapes:
        windows, starts, counts = per_window[:, w : w + n]
        end = lane + n * lanes
        slab = None if values is None else values[lane * v : end * v].reshape(n, lanes, v)
        buckets.append(
            WindowBucket(windows, starts, counts, columns[lane:end].reshape(n, lanes), slab)
        )
        w += n
        lane = end
    return WindowView(w0, w1, v, tuple(buckets), vec_lo, vec_count, mask, precision)


@dataclass
class WindowLayout:
    """Bucketed window layout of one blocked format for one ``group``.

    Attributes
    ----------
    group:
        Vectors per TC block (the format's ``k`` for SpMM, the output-tile
        width for SDDMM).
    window_offsets:
        ``(num_windows + 1,)`` block offsets per window — the indptr the
        shard planners cut window-aligned ranges from.
    buckets:
        At most :data:`MAX_BUCKETS` :class:`WindowBucket` s in ascending
        lane-count order (``values`` unset); see :func:`bucket_sizes`.
    partition, source:
        The partition and stored vector values the layout was built from.
    """

    group: int
    window_offsets: np.ndarray
    buckets: tuple[WindowBucket, ...]
    partition: WindowPartition = field(repr=False)
    source: np.ndarray = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls, partition: WindowPartition, vector_values: np.ndarray, group: int
    ) -> "WindowLayout":
        """Bucket ``partition``'s windows by blocks per window.

        ``window_offsets`` keep each window's true block count; a window in
        a bucket of more blocks gets extra padded lanes.
        """
        group = int(group)
        if group <= 0:
            raise ValueError("group must be positive")
        counts = partition.vectors_per_window.astype(np.int64)
        blocks = (counts + group - 1) // group
        offsets = np.zeros(partition.num_windows + 1, dtype=np.int64)
        np.cumsum(blocks, out=offsets[1:])

        # Each window takes the lane count of the smallest bucket that fits.
        sizes = bucket_sizes(blocks)
        padded = blocks.copy()
        padded[blocks > 0] = sizes[np.searchsorted(sizes, blocks[blocks > 0])]
        # A stable sort keeps each bucket's window ids ascending.
        order = np.argsort(padded, kind="stable")
        sizes, firsts = np.unique(padded[order], return_index=True)
        bounds = np.append(firsts, order.shape[0])
        cols = partition.vector_cols.astype(np.int64)
        buckets = []
        for nb, lo, hi in zip(sizes, bounds[:-1], bounds[1:]):
            if nb > 0:
                w = order[lo:hi]
                lanes = int(nb) * group
                buckets.append(_bucket(w, partition.window_ptr[w], counts[w], lanes, cols))
        return cls(group, offsets, tuple(buckets), partition, vector_values)

    @property
    def vector_size(self) -> int:
        """Window height."""
        return self.partition.vector_size

    @property
    def num_windows(self) -> int:
        """Number of row windows."""
        return self.partition.num_windows

    @property
    def num_blocks(self) -> int:
        """Total TC blocks across all windows."""
        return int(self.window_offsets[-1])

    def values(self, precision: Precision | str) -> tuple[np.ndarray, ...]:
        """Per-bucket ``(W, L, v)`` A slabs quantised to ``precision`` (cached).

        The slab of a window is its TC blocks side by side (transposed),
        zero on padded lanes.
        """
        precision = Precision(precision)
        slabs = self._cache.get(precision)
        if slabs is None:
            q = quantize(self.source, precision)
            slabs = tuple(b.gather(q) for b in self.buckets)
            self._cache[precision] = slabs
        return slabs

    def mask(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, values)`` of every stored entry: flat positions in the
        ``(num_vectors, v)`` vector values that hold one, and the entries as
        float32 (cached)."""
        mask = self._cache.get("mask")
        if mask is None:
            flat = np.asarray(self.source, dtype=np.float32).reshape(-1)
            slots = np.flatnonzero(flat)
            mask = self._cache["mask"] = (slots, flat[slots])
        return mask

    def view(
        self,
        w0: int = 0,
        w1: int | None = None,
        precision: Precision | str | None = None,
        mask: bool = False,
    ) -> WindowView:
        """The buckets of windows ``[w0, w1)``.

        ``precision`` attaches the A slabs quantised to it (``None``:
        structure only); ``mask`` attaches the range's SDDMM sampling mask
        (:attr:`WindowView.mask`).
        """
        w0 = int(w0)
        w1 = self.num_windows if w1 is None else int(w1)
        precision = None if precision is None else Precision(precision)
        slabs = self.values(precision) if precision is not None else (None,) * len(self.buckets)
        whole = w0 == 0 and w1 == self.num_windows
        buckets = []
        for bucket, slab in zip(self.buckets, slabs):
            if whole:
                buckets.append(bucket.with_values(slab))
                continue
            i0, i1 = np.searchsorted(bucket.windows, (w0, w1))
            if i0 < i1:
                buckets.append(bucket.rows(i0, i1, w0, slab))
        window_ptr = self.partition.window_ptr
        lo, hi = int(window_ptr[w0]), int(window_ptr[w1])
        entries = None
        if mask:
            slots, values = self.mask()
            v = self.vector_size
            s0, s1 = np.searchsorted(slots, (lo * v, hi * v))
            entries = (slots[s0:s1] - lo * v, values[s0:s1])
        return WindowView(w0, w1, self.vector_size, tuple(buckets), lo, hi - lo, entries, precision)


def bucket_sizes(blocks: np.ndarray) -> np.ndarray:
    """Ascending lane counts (in blocks) of the buckets for ``blocks`` per window.

    Consecutive distinct non-zero block counts are grouped, each group
    padded up to its largest count.  For every bucket count up to
    :data:`MAX_BUCKETS` a dynamic programme over the sorted counts finds
    the grouping that adds the fewest padded blocks; the bucket count chosen
    minimises padded blocks plus :data:`BUCKET_COST_BLOCKS` per bucket.
    """
    counts, windows = np.unique(blocks[blocks > 0], return_counts=True)
    n = counts.shape[0]
    if n <= 1:
        return counts
    # pad[i, k]: blocks added by padding counts[i..k] up to counts[k].
    cum_w = np.concatenate([[0], np.cumsum(windows)])
    cum_b = np.concatenate([[0], np.cumsum(windows * counts)])
    i, k = np.arange(n)[:, None], np.arange(n)[None, :]
    pad = np.where(
        i <= k, counts[None, :] * (cum_w[k + 1] - cum_w[i]) - (cum_b[k + 1] - cum_b[i]), np.inf
    )
    best = pad[0]  # best[k]: least padding for counts[0..k] in up to j groups
    totals = [best[-1]]
    splits = []  # splits[j][k]: first count of the last group (0: no new group)
    cols = np.arange(n)
    for _ in range(min(n, MAX_BUCKETS) - 1):
        candidates = np.concatenate([[np.inf], best[:-1]])[:, None] + pad
        start = candidates.argmin(axis=0)
        better = candidates[start, cols] < best
        splits.append(np.where(better, start, 0))
        best = np.where(better, candidates[start, cols], best)
        totals.append(best[-1])
    groups = int(np.argmin(np.array(totals) + BUCKET_COST_BLOCKS * np.arange(len(totals))))
    ends, k = [n - 1], n - 1
    for split in reversed(splits[:groups]):
        if split[k] > 0:
            k = int(split[k]) - 1
            ends.append(k)
    return counts[sorted(ends)]
