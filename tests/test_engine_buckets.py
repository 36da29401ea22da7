"""Bit-identity of the window-bucketed engine across every consumer.

A power-law matrix spreads its windows over many blocks-per-window buckets,
and the shard targets below cut ranges through the middle of buckets.  A
range only selects bucket rows, so every consumer contracts each window by
the same matmul: one-shot == chunked (grid 1/7/huge) == ``workers=2`` ==
``ShardScheduler`` process pool == one-host cluster == head inline
fallback (zero hosts), bit for bit, for SpMM, SDDMM and the fused layer —
and the fused layer equals its three-kernel composition.  Served segment
matmul joins the grid: the worker and the head's inline fallback run the
same shard function for every op.  The matrix has empty windows
and a partial last window; N=1 exercises the matrix-vector shape, TF32 the
k=4 blocks, and an all-zero matrix the empty layout.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import assert_numerics_contract

from repro.cluster import ClusterScheduler
from repro.datasets.generators import power_law_matrix
from repro.formats.csr import CSRMatrix
from repro.formats.layout import MAX_BUCKETS, bucket_sizes
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.engine import (
    layer_shard_rows,
    layer_views,
    sddmm_batched,
    spmm_batched,
    window_aligned_ranges,
)
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as GROUP
from repro.ops import segment_matmul, segment_softmax
from repro.precision.types import Precision, quantize
from repro.serve.program import attention_csr, gather_edge_values
from repro.serve.scheduler import ShardScheduler

PRECISIONS = (Precision.FP16, Precision.TF32)
CHUNKS = (1, 7, 10**9)
SCALE = 0.7


def _matrix() -> CSRMatrix:
    """Power-law, 2003 rows (partial last window), rows 64-103 empty."""
    m = power_law_matrix(2003, avg_row_length=16, seed=17).to_scipy().tolil()
    m[64:104, :] = 0
    return CSRMatrix.from_scipy(sp.csr_matrix(m.tocsr()))


MATRIX = _matrix()
EMPTY = CSRMatrix.from_scipy(sp.csr_matrix((37, 29), dtype=np.float32))


def _operands(csr: CSRMatrix, n_dense: int, k_dense: int = 12, seed: int = 5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((csr.n_rows, k_dense)).astype(np.float32)
    b = rng.standard_normal((csr.n_cols, k_dense)).astype(np.float32)
    x = rng.standard_normal((csr.n_cols, n_dense)).astype(np.float32)
    return a, b, x


def _mid_bucket_target(fmt, group=None) -> int:
    """A shard target whose range boundaries cut through buckets."""
    layout = fmt.window_layout(group)
    target = max(1, layout.num_blocks // 5)
    cuts = [r.w0 for r in window_aligned_ranges(layout.window_offsets, target)[1:]]
    assert any(
        (bucket.windows < w).any() and (bucket.windows >= w).any()
        for bucket in layout.buckets
        for w in cuts
    )
    return target


@pytest.fixture(scope="module")
def pool():
    with ShardScheduler(workers=2) as scheduler:
        yield scheduler


@pytest.fixture(scope="module")
def cluster():
    with ClusterScheduler(hosts=1) as scheduler:
        yield scheduler


@pytest.fixture(scope="module")
def head_inline():
    with ClusterScheduler(hosts=0) as scheduler:
        yield scheduler


def _routing(csr: CSRMatrix) -> dict:
    return {"csr": csr, "content_key": csr.content_key()}


def test_power_law_layout_spans_many_buckets():
    fmt = MEBCRSMatrix.from_csr(MATRIX, precision="fp16")
    layout = fmt.window_layout()
    assert len(layout.buckets) >= 6
    counts = np.diff(layout.window_offsets)
    assert (counts == 0).any()  # empty windows
    assert MATRIX.n_rows % fmt.vector_size != 0  # partial last window
    windows = np.concatenate([bucket.windows for bucket in layout.buckets])
    np.testing.assert_array_equal(np.sort(windows), np.flatnonzero(counts))
    for bucket in layout.buckets:
        assert bucket.lanes % layout.group == 0
        assert (bucket.counts <= bucket.lanes).all()
        # Padded lanes (past each window's vectors) read column 0.
        padded = np.arange(bucket.lanes) >= bucket.counts[:, None]
        assert not bucket.columns[padded].any()


def test_bucket_sizes_cap_the_bucket_count_and_fit_every_window():
    heavy_tail = np.random.default_rng(3).zipf(1.6, 5000).clip(max=400)
    sizes = bucket_sizes(heavy_tail)
    assert len(sizes) <= MAX_BUCKETS
    assert sizes[-1] == heavy_tail.max() and (np.diff(sizes) > 0).all()
    # Counts held by many windows are never padded into another bucket.
    populous = np.repeat(np.arange(1, 6), 1000)
    np.testing.assert_array_equal(bucket_sizes(populous), np.arange(1, 6))
    assert bucket_sizes(np.zeros(4, dtype=np.int64)).size == 0


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("n_dense", (1, 13))
def test_spmm_every_consumer_is_bit_identical(precision, n_dense, pool, cluster, head_inline):
    fmt = MEBCRSMatrix.from_csr(MATRIX, precision=precision)
    _, _, x = _operands(MATRIX, n_dense)
    x_q = quantize(x, precision)
    base = spmm_batched(fmt, x_q, precision)
    target = _mid_bucket_target(fmt)
    got = {f"chunk={c}": spmm_batched(fmt, x_q, precision, block_chunk=c) for c in CHUNKS}
    got["workers=2"] = spmm_batched(fmt, x_q, precision, workers=2)
    got["pool"] = pool.run_spmm(fmt, x_q, precision, target_blocks=target)
    got["cluster"] = cluster.run_spmm(fmt, x_q, precision, target, **_routing(MATRIX))
    got["inline"] = head_inline.run_spmm(fmt, x_q, precision, target, **_routing(MATRIX))
    for name, values in got.items():
        np.testing.assert_array_equal(values, base, err_msg=name)
    assert_numerics_contract("spmm", precision.value, base, MATRIX, x)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("scale_by_mask", (False, True))
def test_sddmm_every_consumer_is_bit_identical(
    precision, scale_by_mask, pool, cluster, head_inline
):
    fmt = MEBCRSMatrix.from_csr(MATRIX, precision=precision)
    a, b, _ = _operands(MATRIX, 1)
    a_q, b_q = quantize(a, precision), quantize(b, precision)
    base = sddmm_batched(fmt, a_q, b_q, precision, GROUP, scale_by_mask)
    target = _mid_bucket_target(fmt, GROUP)
    got = {
        f"chunk={c}": sddmm_batched(fmt, a_q, b_q, precision, GROUP, scale_by_mask, block_chunk=c)
        for c in CHUNKS
    }
    got["workers=2"] = sddmm_batched(fmt, a_q, b_q, precision, GROUP, scale_by_mask, workers=2)
    args = (fmt, a_q, b_q, precision, GROUP, scale_by_mask, target)
    got["pool"] = pool.run_sddmm(*args)
    got["cluster"] = cluster.run_sddmm(*args, **_routing(MATRIX))
    got["inline"] = head_inline.run_sddmm(*args, **_routing(MATRIX))
    for name, values in got.items():
        np.testing.assert_array_equal(values, base, err_msg=name)
    if not scale_by_mask:
        out = fmt.partition.nnz_vector_of_entry
        rows = np.repeat(np.arange(MATRIX.n_rows), np.diff(MATRIX.indptr)) % fmt.vector_size
        assert_numerics_contract("sddmm", precision.value, base[out, rows], MATRIX, a, b)


def _composed_layer(fmt, csr, a_q, b_q, x_q, precision):
    """SDDMM → scale → softmax → translate → SpMM, one kernel at a time."""
    logits = gather_edge_values(
        fmt.partition, csr.indptr, sddmm_batched(fmt, a_q, b_q, precision, GROUP)
    )
    attention = segment_softmax(logits * np.float32(SCALE), csr.indptr)
    afmt = MEBCRSMatrix.from_csr(attention_csr(csr, attention), precision=precision)
    return spmm_batched(afmt, x_q, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("n_dense", (1, 13))
def test_layer_every_consumer_is_bit_identical(precision, n_dense, pool, cluster, head_inline):
    fmt = MEBCRSMatrix.from_csr(MATRIX, precision=precision)
    a, b, x = _operands(MATRIX, n_dense)
    a_q, b_q, x_q = (quantize(m, precision) for m in (a, b, x))
    views = layer_views(fmt, MATRIX.indptr, GROUP, 0, fmt.num_windows)
    rows, _ = layer_shard_rows(*views, a_q, b_q, x_q, precision, SCALE, False)
    base = rows[: MATRIX.n_rows]
    np.testing.assert_array_equal(base, _composed_layer(fmt, MATRIX, a_q, b_q, x_q, precision))
    target = _mid_bucket_target(fmt)
    args = (fmt, MATRIX.indptr, a_q, b_q, x_q, precision, GROUP, SCALE, False, target)
    got = {"pool": pool.run_layer(*args)[0]}
    got["cluster"] = cluster.run_layer(*args, **_routing(MATRIX))[0]
    got["inline"] = head_inline.run_layer(*args, **_routing(MATRIX))[0]
    for name, values in got.items():
        np.testing.assert_array_equal(values, base, err_msg=name)
    assert_numerics_contract("layer", precision.value, base, MATRIX, a, b, x, scale=SCALE)


def test_segmm_every_consumer_is_bit_identical(pool, cluster, head_inline):
    data, _, _ = _operands(MATRIX, 1)
    offsets = np.array([0, 64, 64, 700, MATRIX.n_rows], dtype=np.int64)
    weights = list(np.random.default_rng(9).standard_normal((4, data.shape[1], 13)))
    weights = [w.astype(np.float32) for w in weights]
    base = segment_matmul(data, offsets, weights)
    got = {
        name: scheduler.run_segment_matmul(data, offsets, weights)
        for name, scheduler in (("pool", pool), ("cluster", cluster), ("inline", head_inline))
    }
    for name, values in got.items():
        np.testing.assert_array_equal(values, base, err_msg=name)
    assert cluster.stats_snapshot()["inline_fallbacks"] == 0
    assert head_inline.stats_snapshot()["inline_fallbacks"] > 0


def test_zero_nnz_matrix_every_consumer_returns_zeros(pool, cluster, head_inline):
    fmt = MEBCRSMatrix.from_csr(EMPTY, precision="fp16")
    assert fmt.window_layout().buckets == ()
    a, b, x = _operands(EMPTY, 3)
    p = Precision.FP16
    for got in (
        spmm_batched(fmt, x, p, block_chunk=1, workers=2),
        pool.run_spmm(fmt, x, p),
        cluster.run_spmm(fmt, x, p, **_routing(EMPTY)),
        head_inline.run_spmm(fmt, x, p, **_routing(EMPTY)),
        pool.run_layer(fmt, EMPTY.indptr, a, b, x, p, GROUP)[0],
    ):
        np.testing.assert_array_equal(got, np.zeros((37, 3), dtype=np.float32))
    assert sddmm_batched(fmt, a, b, p, GROUP).shape == (0, 8)
    assert pool.run_sddmm(fmt, a, b, p, GROUP).shape == (0, 8)
