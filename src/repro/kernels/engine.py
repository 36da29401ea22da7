"""Window-bucketed contraction engine shared by the four TCU kernels.

The reference kernels (``engine="reference"``) walk the TC-block structure
with a per-(window, block, tile) Python loop, issuing one emulated MMA per
tile.  That mirrors the CUDA kernel faithfully but is dominated by
interpreter overhead.  This module is the ``engine="batched"`` execution
path.  Like FlashSparse, it makes each row window's work one dense product:
a window with ``nb`` TC blocks of ``group`` vectors is an ``(v, L)`` slab of
A with ``L = nb·group`` lanes, so

* its SpMM is ``(v, L) @ B[cols] (L, N)``, and
* its SDDMM is ``A[window rows] (v, K) @ B[cols]ᵀ (K, L)``.

Windows are bucketed by blocks per window
(:class:`~repro.formats.layout.WindowLayout`, cached on the translation
together with the quantised A slabs), and each bucket runs as one batched
matmul over its ``W`` same-shaped windows.  Padded lanes hold zero A
values, exactly the zero registers the reference loop feeds its MMAs.
There is no per-block product and no reduction pass: the matmul sums a
window's blocks in its own FP32 accumulation.

One primitive for every consumer
--------------------------------
Every consumer contracts a window range ``[w0, w1)`` through the same
private primitives (:func:`_spmm_into`, :func:`_sddmm_into`) over a
:meth:`WindowLayout.view <repro.formats.layout.WindowLayout.view>`:

* :func:`spmm_batched` / :func:`sddmm_batched` — the in-process one-shot
  run, its window-aligned ``block_chunk`` / ``max_intermediate_bytes``
  chunks and its ``workers`` threads;
* :func:`spmm_shard_rows` / :func:`sddmm_shard_values` /
  :func:`layer_shard_rows` — the shard hooks of the process pool
  (:mod:`repro.serve.scheduler`), the cluster worker hosts and the head's
  inline fallback (:mod:`repro.cluster`).

A view only selects bucket rows, so every window is contracted by the same
matmul with the same operand shapes whichever range it falls in.  All of
these results are therefore bit-identical to one another: chunked ==
threaded == sharded == one-shot, for SpMM, SDDMM and the fused layer.

Memory-bounded streaming
------------------------
The one-shot run materialises, per cache-sized slice of a bucket, the
``(W, L, N)`` gather of B rows and the ``(W, v, N)`` window products.
Passing ``block_chunk`` (a block count) or ``max_intermediate_bytes`` (a
byte budget the chunk size is derived from, see
:func:`spmm_bytes_per_block`) contracts window-aligned ranges of about that
many blocks one at a time instead.  A window wider
than the chunk is a range of its own, never split.  ``workers=K`` runs the
ranges on a thread pool; ranges own disjoint output rows, and NumPy's BLAS
matmuls release the GIL, so the threads overlap.

Only the numerics live here.  Cost accounting is closed-form over the
block-width histogram and stays with each kernel's ``*_cost`` function,
which produces counter state bit-identical to the reference loop and, by
construction, independent of the chunking and worker knobs.

The engine is quantisation-faithful: the sparse values are quantised to
the target precision exactly where :func:`repro.gpu.mma.mma_execute` would
(FP16 storage is already exact; TF32 values are stored in FP32 containers
and rounded once into the cached slab), and all accumulation happens in
FP32, matching tensor-core accumulators.  A window's matmul may sum its
``L`` lanes in a different association order than the 16-column-tile loop,
so values agree with ``engine="reference"`` to FP32 round-off, not
bit-exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.layout import WindowLayout, WindowView
from repro.ops import segment_ids, segment_softmax
from repro.precision.types import Precision, quantize


def spmm_bytes_per_block(vector_size: int, group: int, n_dense: int) -> int:
    """Upper bound on the float32 intermediate bytes one SpMM block adds.

    A window range's contraction gathers ``group · N`` B rows per block and
    writes one ``v · N`` product per *window*.  Every non-empty window has
    at least one block, so ``(v + group) · N`` floats per block bound both —
    the figure :func:`resolve_block_chunk` divides a byte budget by.  The
    serving planner uses the same formula so its budget math can never
    drift from the engine's.
    """
    return (int(vector_size) + int(group)) * int(n_dense) * 4


def sddmm_bytes_per_block(vector_size: int, group: int, k_dense: int) -> int:
    """Upper bound on the float32 intermediate bytes one SDDMM block adds.

    The gathered B rows ``(group, K)`` per block, the window's A rows
    ``(v, K)`` (at most one window per block) and the ``(v, group)``
    accumulator.
    """
    v, g = int(vector_size), int(group)
    return ((v + g) * int(k_dense) + v * g) * 4


def resolve_block_chunk(
    num_blocks: int,
    bytes_per_block: int,
    block_chunk: int | None,
    max_intermediate_bytes: int | None,
    workers: int = 1,
) -> int:
    """Blocks per streaming range; ``num_blocks`` means the one-shot path.

    An explicit ``block_chunk`` wins; otherwise ``max_intermediate_bytes``
    is divided by the per-block intermediate footprint (never below one
    block — the floor under which no streaming granularity exists).  The
    byte budget covers the whole run: with ``workers`` threads each holding
    one range's intermediates concurrently, the per-range share is
    ``budget / workers``.
    """
    if block_chunk is not None:
        return max(1, int(block_chunk))
    if max_intermediate_bytes is not None:
        per_chunk_budget = int(max_intermediate_bytes) // max(1, int(workers))
        return max(1, per_chunk_budget // max(1, int(bytes_per_block)))
    return max(1, num_blocks)


def _run_ranges(layout: WindowLayout, chunk: int, workers: int, body) -> None:
    """Run ``body(w0, w1)`` over window-aligned ranges of ≈ ``chunk`` blocks.

    One range covers everything unless the chunk or the worker count asks
    for more; with ``workers > 1`` the ranges run on a thread pool (each
    owns disjoint output rows, so the writes never race).
    """
    n_blocks = layout.num_blocks
    workers = max(1, int(workers))
    if chunk >= n_blocks and workers == 1:
        body(0, layout.num_windows)
        return
    target = min(chunk, -(-n_blocks // workers))
    ranges = [(r.w0, r.w1) for r in window_aligned_ranges(layout.window_offsets, target)]
    if workers == 1 or len(ranges) == 1:
        for w0, w1 in ranges:
            body(w0, w1)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
        # list() re-raises the first worker exception instead of swallowing it.
        list(pool.map(lambda r: body(*r), ranges))


# ---------------------------------------------------------------------------
# The contraction primitives
# ---------------------------------------------------------------------------
#: Bytes of gathered dense-operand rows per batched matmul.  A bucket is
#: contracted in slices of whole windows whose gather stays cache-sized, so
#: the matmul reads it while it is still hot.  Slicing a bucket never
#: changes a window's own product.
GATHER_BYTES = 1 << 20
#: Most multiply-adds in one window product.  OpenBLAS hands a GEMM above
#: 2**18 multiply-adds to its thread pool, whose wake-up costs far more than
#: a window product; staying at or below it keeps every product on the
#: calling thread.
MAX_MULADDS = 1 << 18
#: Output columns per SpMM window product (see :func:`_spmm_into`).
MAX_COLUMNS = 64


def _slices(lanes: int, num_windows: int, row_bytes: int):
    """Window slices of a bucket whose gathered rows fill ≈ GATHER_BYTES."""
    step = max(1, GATHER_BYTES // max(1, lanes * row_bytes))
    return (slice(i, i + step) for i in range(0, num_windows, step))


def _spans(total: int, step: int) -> list[tuple[int, int]]:
    """``[0, total)`` in spans of ``step``, none of width 1 unless
    ``total`` is (a one-wide product would take the matrix-vector path)."""
    bounds = list(range(0, total, step)) + [total]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return list(zip(bounds[:-1], bounds[1:]))


def _spmm_into(view: WindowView, b_q: np.ndarray, out: np.ndarray) -> None:
    """Write the ``(v, N)`` product of every window of ``view`` into
    ``out[window]`` (``out`` is ``(view.num_windows, v, N)``; empty windows
    are left untouched).

    Each window is computed as ``(B[cols]ᵀ (N, L) @ slab (L, v))ᵀ``.  In
    that orientation BLAS keeps ``v`` on its blocked dimension and walks the
    ``N`` output columns independently, so a column's bits do not depend on
    ``N`` or on which columns share its product: the server's column-stacked
    batches of requests split back bit-identically.  A single column would
    take the matrix-vector path, whose summation order differs, so ``N = 1``
    runs as two columns.  Products stay within :data:`MAX_MULADDS`: at most
    :data:`MAX_COLUMNS` columns each, and a window wider than
    ``MAX_MULADDS / (v · MAX_COLUMNS)`` lanes is summed over fixed lane
    spans in lane order — both depend only on the format, never on the
    window range.
    """
    n_dense = b_q.shape[1]
    # One memory order for every consumer: BLAS may pick a different kernel
    # (and summation order) for a transposed operand.
    b_q = np.ascontiguousarray(b_q)
    if n_dense == 1:
        b_q = np.pad(b_q, ((0, 0), (0, 1)))
    lane_step = max(1, MAX_MULADDS // (view.vector_size * MAX_COLUMNS))
    col_spans = _spans(b_q.shape[1], MAX_COLUMNS)
    for bucket in view.buckets:
        lane_spans = _spans(bucket.lanes, lane_step)
        for s in _slices(bucket.lanes, len(bucket.windows), b_q.shape[1] * 4):
            gathered = b_q[bucket.columns[s]].transpose(0, 2, 1)  # (W, N, L)
            slab = bucket.values[s]  # (W, L, v)
            for c0, c1 in col_spans:
                acc = None
                for l0, l1 in lane_spans:
                    prod = gathered[:, c0:c1, l0:l1] @ slab[:, l0:l1]
                    acc = prod if acc is None else acc + prod
                c1 = min(c1, n_dense)
                out[bucket.windows[s], :, c0:c1] = acc.transpose(0, 2, 1)[..., : c1 - c0]


def _a_window(a_q: np.ndarray, w0: int, w1: int, v: int) -> np.ndarray:
    """The zero-padded ``(w1 - w0, v, K)`` SDDMM slab of A rows for a window
    range."""
    k_dense = a_q.shape[1]
    a_win = np.zeros(((w1 - w0) * v, k_dense), dtype=np.float32)
    lo, hi = w0 * v, min(w1 * v, a_q.shape[0])
    a_win[: hi - lo] = a_q[lo:hi]
    return a_win.reshape(w1 - w0, v, k_dense)


def _sddmm_into(
    view: WindowView, a_q: np.ndarray, b_q: np.ndarray, scale_by_mask: bool, out: np.ndarray
) -> None:
    """Write the sampled dot products of the range's nonzero vectors into
    ``out`` (their ``(vec_count, v)`` value block, zero-initialised).

    ``view`` must carry the sampling mask (``mask=True``).  Each window
    product is ``B[cols] (L, K) @ A[window rows]ᵀ (K, v)``, cut into lane
    spans of at most :data:`MAX_MULADDS` multiply-adds (the lanes' dot
    products are independent, so the cut never changes a value).  Only the
    mask's slots are copied out; the rest stay zero.
    """
    v = view.vector_size
    a_win = _a_window(a_q, view.w0, view.w1, v)
    b_q = np.ascontiguousarray(b_q)
    lane_step = max(2, MAX_MULADDS // (v * max(1, b_q.shape[1])))
    # Every lane's row lands in the layout of the format's vector values;
    # padded lanes write to the extra last row.
    dots = np.empty((view.vec_count + 1, v), dtype=np.float32)
    for bucket in view.buckets:
        lane = np.arange(bucket.lanes)
        target = np.where(
            lane < bucket.counts[:, None], (bucket.starts - view.vec_lo)[:, None] + lane, -1
        )
        for s in _slices(bucket.lanes, len(bucket.windows), b_q.shape[1] * 4):
            gathered = b_q[bucket.columns[s]]  # (W, L, K)
            a_t = a_win[bucket.windows[s]].transpose(0, 2, 1)  # (W, K, v)
            for l0, l1 in _spans(bucket.lanes, lane_step):
                dots[target[s][:, l0:l1]] = gathered[:, l0:l1] @ a_t
    slots, entries = view.mask
    sampled = dots.reshape(-1)[slots]
    out.reshape(-1)[slots] = sampled * entries if scale_by_mask else sampled


def spmm_batched(
    fmt: BlockedVectorFormat,
    b_q: np.ndarray,
    precision: Precision,
    block_chunk: int | None = None,
    max_intermediate_bytes: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Numeric result of ``C = A @ B``, one batched matmul per window bucket.

    Parameters
    ----------
    fmt:
        The blocked sparse matrix (any vector size; the swap-and-transpose
        8×1 kernels and the 16×1 baselines share this path, since Equation (1)
        is a numeric identity).
    b_q:
        Dense operand already quantised to ``precision``, float32, of shape
        ``(fmt.shape[1], N)``.
    precision:
        Target precision of the sparse values (quantised once into the
        layout's cached slabs).
    block_chunk, max_intermediate_bytes, workers:
        Memory-bounded streaming knobs (see the module docstring).  The
        result is bit-identical for every setting.
    """
    layout = fmt.window_layout()
    v = fmt.vector_size
    n_dense = b_q.shape[1]
    out = np.zeros((layout.num_windows * v, n_dense), dtype=np.float32)
    if layout.num_blocks == 0 or n_dense == 0:
        return out[: fmt.shape[0]]
    chunk = resolve_block_chunk(
        layout.num_blocks,
        spmm_bytes_per_block(v, layout.group, n_dense),
        block_chunk,
        max_intermediate_bytes,
        workers,
    )
    layout.values(precision)  # build the cached slabs before any thread starts
    out3 = out.reshape(layout.num_windows, v, n_dense)

    def body(w0: int, w1: int) -> None:
        _spmm_into(layout.view(w0, w1, precision), b_q, out3[w0:w1])

    _run_ranges(layout, chunk, workers, body)
    # The partial last window's rows past n_rows are padding.
    return out[: fmt.shape[0]]


def sddmm_batched(
    fmt: BlockedVectorFormat,
    a_q: np.ndarray,
    b_q: np.ndarray,
    precision: Precision,
    group: int,
    scale_by_mask: bool = False,
    block_chunk: int | None = None,
    max_intermediate_bytes: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Numeric SDDMM output values, one batched matmul per window bucket.

    Parameters
    ----------
    fmt:
        The blocked sampling mask.
    a_q, b_q:
        Dense operands already quantised to ``precision``, float32, of shapes
        ``(fmt.shape[0], K)`` and ``(fmt.shape[1], K)``.
    precision:
        Target precision (the dense operands are assumed pre-quantised; kept
        for signature symmetry with :func:`spmm_batched`).
    group:
        Nonzero vectors covered by one sparse output TC block (16 for the 8×1
        swap-and-transpose kernel, 8 for the 16×1 baseline).
    scale_by_mask:
        Multiply each sampled dot product by the mask's stored value.
    block_chunk, max_intermediate_bytes, workers:
        Memory-bounded streaming knobs (see the module docstring); the
        result is bit-identical for every setting.

    Returns
    -------
    ``(num_nonzero_vectors, vector_size)`` float32 array in the layout of
    ``fmt.vector_values``.
    """
    del precision
    layout = fmt.window_layout(group)
    k_dense = a_q.shape[1]
    if layout.num_blocks == 0 or k_dense == 0:
        return np.zeros(fmt.vector_values.shape, dtype=np.float32)
    chunk = resolve_block_chunk(
        layout.num_blocks,
        sddmm_bytes_per_block(fmt.vector_size, group, k_dense),
        block_chunk,
        max_intermediate_bytes,
        workers,
    )

    layout.mask()  # build the cached mask before any thread starts
    out = np.zeros(fmt.vector_values.shape, dtype=np.float32)

    def body(w0: int, w1: int) -> None:
        # Every vector belongs to exactly one window, so the ranges' value
        # blocks are disjoint.
        view = layout.view(w0, w1, mask=True)
        _sddmm_into(view, a_q, b_q, scale_by_mask, out[view.vec_lo : view.vec_lo + view.vec_count])

    _run_ranges(layout, chunk, workers, body)
    return out


# ---------------------------------------------------------------------------
# Shard execution hooks (multi-process and multi-host serving)
# ---------------------------------------------------------------------------
# The functions below are what the serving scheduler's worker *processes*,
# the cluster worker hosts and the head's inline fallback run per shard.
# They take a window view (a few small arrays, cheap to pickle per shard;
# the large dense operands travel via shared memory or the pinned store)
# and go through the same primitives as the one-shot path above, so every
# shard result is bit-identical to the single-process run.


@dataclass(frozen=True)
class ShardRange:
    """One window-aligned unit of work: blocks ``[lo, hi)`` covering windows
    ``[w0, w1)`` of the batch."""

    lo: int
    hi: int
    w0: int
    w1: int

    @property
    def num_blocks(self) -> int:
        """Blocks in the shard."""
        return self.hi - self.lo


def window_aligned_ranges(
    window_offsets: np.ndarray, target_blocks: int
) -> list[ShardRange]:
    """Cut the block batch into window-aligned shards of ≈ ``target_blocks``.

    Every window's blocks land in exactly one shard (the race-freedom and
    bit-exactness invariant); a window with more than ``target_blocks``
    blocks becomes a shard of its own rather than being split.  The shards
    cover the windows gaplessly and in order — empty windows (zero blocks,
    zero output) are absorbed into the neighbouring shard — so consecutive
    shards satisfy ``prev.hi == next.lo`` and ``prev.w1 == next.w0``.  An
    all-empty batch yields no shards.
    """
    offsets = np.asarray(window_offsets, dtype=np.int64)
    n_windows = offsets.shape[0] - 1
    target = max(1, int(target_blocks))
    ranges: list[ShardRange] = []
    w0 = 0
    while w0 < n_windows:
        lo = int(offsets[w0])
        # Largest window end whose cumulative block count stays within target
        # (but always at least one window).
        w1 = int(np.searchsorted(offsets, lo + target, side="right")) - 1
        w1 = min(max(w1, w0 + 1), n_windows)
        hi = int(offsets[w1])
        while hi == lo and w1 < n_windows:  # leading empty windows: reach blocks
            w1 += 1
            hi = int(offsets[w1])
        while w1 < n_windows and int(offsets[w1 + 1]) == hi:  # trailing empties
            w1 += 1
        if hi > lo:
            ranges.append(ShardRange(lo=lo, hi=hi, w0=w0, w1=w1))
        w0 = w1
    return ranges


def spmm_shard_rows(view: WindowView, b_q: np.ndarray) -> np.ndarray:
    """Dense output rows of one window range of an SpMM.

    ``view`` is ``layout.view(w0, w1, precision)`` of the format's SpMM
    layout.  Returns the ``((w1 - w0) · v, N)`` row block starting at
    matrix row ``w0 · v`` (the caller clips the tail window past
    ``n_rows``).
    """
    rows = np.zeros((view.num_windows, view.vector_size, b_q.shape[1]), dtype=np.float32)
    _spmm_into(view, b_q, rows)
    return rows.reshape(-1, b_q.shape[1])


def sddmm_shard_values(
    view: WindowView, a_q: np.ndarray, b_q: np.ndarray, scale_by_mask: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled values of one window range of an SDDMM.

    ``view`` is ``layout.view(w0, w1, mask=True)`` of the format's
    SDDMM-grouping layout; ``a_q`` / ``b_q`` are the whole dense operands.
    Returns ``(vector_indices, values)`` — the range's nonzero vectors (a
    contiguous run of ``fmt.vector_values`` rows) and the ``(n, v)`` rows
    to store there.
    """
    out = np.zeros((view.vec_count, view.vector_size), dtype=np.float32)
    _sddmm_into(view, a_q, b_q, scale_by_mask, out)
    return np.arange(view.vec_lo, view.vec_lo + view.vec_count), out


# ---------------------------------------------------------------------------
# Fused layer shard hook (one round trip per GNN layer)
# ---------------------------------------------------------------------------
# A GAT/AGNN-style attention layer is SDDMM → (scale) → edge softmax → SpMM.
# Served one kernel at a time that costs three request cycles per layer, each
# re-gathering dense operands and re-acquiring the translation.  The fused
# hook below executes the *whole* pipeline for one window range.
#
# Why this is possible per range, bit-identically: ranges are whole windows,
# windows are ``vector_size`` consecutive rows, so a range owns whole CSR
# rows — every softmax segment (one CSR row) lies entirely inside it, and
# :func:`repro.ops.segment_softmax` computes each segment from its own
# elements only.  The SDDMM and SpMM stages were already range-local.  The
# one representational hop — SDDMM emits values in nonzero-vector layout,
# the softmax wants CSR edge order, the SpMM wants window slabs again — is a
# pair of gathers/scatters through the shared
# :class:`~repro.formats.windows.WindowPartition` (computed locally by
# :func:`layer_softmax_mapping` from the partition + CSR indptr) and one
# gather through the SpMM layout's cached lane→vector map; nothing extra has
# to travel on the wire for the cluster's ``layer`` task frames.
#
# The composed serving path additionally *translates* the attention CSR
# before the SpMM, which stores the values as ``dtype_for(precision)``.
# Skipping that round trip is exact because the fused stage applies
# ``quantize`` to the slab and quantisation is idempotent (an FP16 round
# trip and TF32 mantissa rounding are both projections), so the fused SpMM
# contracts the same slabs the composed one does.


def layer_softmax_mapping(
    indptr: np.ndarray,
    nnz_vector_of_entry: np.ndarray,
    window_ptr: np.ndarray,
    w0: int,
    w1: int,
    vector_size: int,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Shard-local CSR ↔ nonzero-vector mapping for the fused softmax stage.

    For the window range ``[w0, w1)`` (rows ``[w0·v, min(w1·v, n_rows))``)
    returns ``(local_indptr, entry_vector, entry_lane, vec_lo, vec_count)``:
    ``local_indptr`` is the shard-local CSR row layout (softmax segments),
    ``entry_vector`` / ``entry_lane`` address each CSR entry's slot in the
    shard's ``(vec_count, v)`` nonzero-vector value slab (vector ids local
    to ``vec_lo = window_ptr[w0]``), exactly the scatter the translation
    performs — so a gather through them reads SDDMM outputs in CSR edge
    order and a scatter writes attention weights back into vector layout.
    Everything derives from the partition and the CSR ``indptr``; a cluster
    worker computes it locally per task.
    """
    v = int(vector_size)
    r0 = int(w0) * v
    r1 = min(int(w1) * v, int(n_rows))
    e0 = int(indptr[r0])
    e1 = int(indptr[r1])
    local_indptr = np.asarray(indptr[r0 : r1 + 1], dtype=np.int64) - e0
    vec_lo = int(window_ptr[w0])
    vec_count = int(window_ptr[w1]) - vec_lo
    entry_vector = np.asarray(nnz_vector_of_entry[e0:e1], dtype=np.int64) - vec_lo
    # Rows start at w0·v ≡ 0 (mod v), so the lane (row-in-window) of every
    # entry is just its shard-local row index modulo v.
    entry_lane = segment_ids(local_indptr) % v
    return local_indptr, entry_vector, entry_lane, vec_lo, vec_count


def layer_views(
    fmt: BlockedVectorFormat, indptr: np.ndarray, group: int, w0: int, w1: int
) -> tuple[WindowView, WindowView, tuple]:
    """``(spmm_view, sddmm_view, mapping)`` of windows ``[w0, w1)``: the
    format-side inputs of :func:`layer_shard_rows`, built the same way by
    every consumer.  ``indptr`` is the mask's CSR row layout and ``group``
    the SDDMM output grouping."""
    part = fmt.partition
    mapping = layer_softmax_mapping(
        indptr, part.nnz_vector_of_entry, part.window_ptr, w0, w1, fmt.vector_size, fmt.shape[0]
    )
    return (
        fmt.window_layout().view(w0, w1),
        fmt.window_layout(group).view(w0, w1, mask=True),
        mapping,
    )


def layer_shard_rows(
    spmm_view: WindowView,
    sddmm_view: WindowView,
    mapping: tuple,
    a_q: np.ndarray,
    b_q: np.ndarray,
    x_q: np.ndarray,
    precision: Precision,
    scale: float | None,
    scale_by_mask: bool,
) -> tuple[np.ndarray, dict]:
    """Dense output rows of one fused-layer window range, plus per-stage seconds.

    Executes SDDMM → (scale) → edge softmax → SpMM for one window range
    without leaving the worker.  ``sddmm_view`` is the range's view of the
    SDDMM-grouping layout with its sampling mask (``mask=True``),
    ``spmm_view`` the same range of the SpMM-grouping layout (structure
    only: its A slabs are the attention weights computed here), and
    ``mapping`` the :func:`layer_softmax_mapping` of the range —
    :func:`layer_views` builds all three.  ``a_q`` / ``b_q`` are the SDDMM
    operands, ``x_q`` the SpMM dense operand; ``scale`` multiplies the edge
    logits in float32 before the softmax (the AGNN β).

    Returns ``(rows, timings)``: the ``(windows · v, N)`` output rows
    starting at matrix row ``w0 · v`` (caller clips the tail window) and a
    ``{"sddmm_s", "edge_softmax_s", "spmm_s"}`` wall-clock split.
    """
    local_indptr, entry_vector, entry_lane, vec_lo, vec_count = mapping
    v = spmm_view.vector_size
    t0 = time.perf_counter()
    logits_vec = np.zeros((vec_count, v), dtype=np.float32)
    _sddmm_into(sddmm_view, a_q, b_q, scale_by_mask, logits_vec)
    t1 = time.perf_counter()
    # SDDMM output → CSR edge order → per-row softmax → vector layout.
    logits_csr = logits_vec[entry_vector, entry_lane]
    if scale is not None:
        logits_csr = logits_csr * np.float32(scale)
    attn_csr = segment_softmax(logits_csr, local_indptr)
    attn_vec = np.zeros_like(logits_vec)
    attn_vec[entry_vector, entry_lane] = attn_csr
    t2 = time.perf_counter()
    # The attention slabs, gathered through each bucket's lane→vector map.
    attn_q = quantize(attn_vec, precision)
    buckets = tuple(b.with_values(b.gather(attn_q, vec_lo)) for b in spmm_view.buckets)
    rows = np.zeros((spmm_view.num_windows, v, x_q.shape[1]), dtype=np.float32)
    _spmm_into(WindowView(spmm_view.w0, spmm_view.w1, v, buckets), x_q, rows)
    t3 = time.perf_counter()
    timings = {
        "sddmm_s": t1 - t0,
        "edge_softmax_s": t2 - t1,
        "spmm_s": t3 - t2,
    }
    return rows.reshape(-1, x_q.shape[1]), timings
