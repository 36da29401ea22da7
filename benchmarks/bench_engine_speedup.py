"""Engine microbenchmark — batched vs reference wall-clock on SpMM/SDDMM.

The batched execution engine (:mod:`repro.kernels.engine`) exists to remove
the per-(window, block, tile) interpreter overhead of the reference loops.
This benchmark records the wall-clock of both engines on a fig11-style
synthetic workload (Erdős–Rényi / power-law matrices, N = 128), the speedup,
and each row's ratio to single-thread scipy ``csr @ dense`` on the same
matrix (the floor of what NumPy on the host allows).  It doubles as two
regression gates:

* the batched SpMM must stay at least 10× faster than the reference loop;
* on the baseline matrix (uniform 8192², density 0.002, N = 64, fp16) a
  warm batched SpMM kernel call must take at most 5× scipy's time.

Run standalone (``python benchmarks/bench_engine_speedup.py``) or through
pytest (``pytest benchmarks/bench_engine_speedup.py --benchmark-only``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.generators import erdos_renyi_matrix, power_law_matrix
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.sddmm_flash import sddmm_flash_execute

#: Dense operand width, matching the Figure 11 sweep.
N_DENSE = 128
#: Minimum batched-over-reference SpMM speedup the engine must sustain.
MIN_SPMM_SPEEDUP = 10.0
#: Most a batched SpMM on the baseline matrix may take, in multiples of
#: scipy's ``csr @ dense`` on the same operands.
MAX_SPMM_X_SCIPY = 5.0
#: The baseline matrix: uniform 8192², density 0.002, dense width 64.
BASELINE_N = 8192
BASELINE_DENSITY = 0.002
BASELINE_WIDTH = 64
#: Wall-clock samples per engine; best-of-N keeps the CI gate robust to
#: scheduling noise on shared runners.
TIMING_ROUNDS = 3


def _workload():
    """Two fig11-style synthetic matrices, small enough for the loop path."""
    return [
        ("erdos_renyi_2048", erdos_renyi_matrix(2048, avg_row_length=24, seed=11)),
        ("power_law_3072", power_law_matrix(3072, avg_row_length=16, seed=12)),
    ]


def _time(fn, rounds: int = TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scipy_time(csr: CSRMatrix, b: np.ndarray, rounds: int = TIMING_ROUNDS) -> float:
    """Best-of-N single-thread scipy ``csr @ dense`` (float32 operands)."""
    sp_csr = csr.to_scipy().astype(np.float32)
    b32 = np.ascontiguousarray(b, dtype=np.float32)
    return _time(lambda: sp_csr @ b32, rounds)


def run_engine_speedup():
    """Rows of (matrix, op, reference s, batched s, speedup, × scipy)."""
    rng = np.random.default_rng(20260730)
    rows = []
    for name, csr in _workload():
        fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
        b = rng.standard_normal((fmt.shape[1], N_DENSE))
        a = rng.standard_normal((fmt.shape[0], N_DENSE))
        batched = FlashSparseConfig(precision="fp16", engine="batched")
        reference = FlashSparseConfig(precision="fp16", engine="reference")
        scipy_s = _scipy_time(csr, b)

        # Warm both paths once (window layout, LRU caches, BLAS init).
        spmm_flash_execute(fmt, b, batched)
        ref_spmm = _time(lambda: spmm_flash_execute(fmt, b, reference))
        bat_spmm = _time(lambda: spmm_flash_execute(fmt, b, batched))
        rows.append([name, "spmm", ref_spmm, bat_spmm, ref_spmm / bat_spmm, bat_spmm / scipy_s])

        sddmm_flash_execute(fmt, a, b, batched)
        ref_sddmm = _time(lambda: sddmm_flash_execute(fmt, a, b, reference))
        bat_sddmm = _time(lambda: sddmm_flash_execute(fmt, a, b, batched))
        rows.append(
            [name, "sddmm", ref_sddmm, bat_sddmm, ref_sddmm / bat_sddmm, bat_sddmm / scipy_s]
        )
    rows.append(run_baseline_spmm())
    return rows


def run_baseline_spmm():
    """The baseline-matrix row: batched SpMM vs scipy (the loop path is too
    slow to time at this size, so it has no reference column)."""
    rng = np.random.default_rng(20260731)
    csr = erdos_renyi_matrix(
        BASELINE_N, avg_row_length=BASELINE_N * BASELINE_DENSITY, seed=13
    )
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    b = rng.standard_normal((BASELINE_N, BASELINE_WIDTH)).astype(np.float32)
    config = FlashSparseConfig(precision="fp16", engine="batched")
    spmm_flash_execute(fmt, b, config)  # warm: window layout, BLAS init
    # A ratio gate on a shared box: more rounds than the loop rows.
    batched_s = _time(lambda: spmm_flash_execute(fmt, b, config), 3 * TIMING_ROUNDS)
    scipy_s = _scipy_time(csr, b, 3 * TIMING_ROUNDS)
    nan = float("nan")
    return [f"uniform_{BASELINE_N}", "spmm", nan, batched_s, nan, batched_s / scipy_s]


def _emit(rows) -> None:
    from bench_common import emit_table

    emit_table(
        "engine_speedup",
        ["Matrix", "Op", "Reference (s)", "Batched (s)", "Speedup", "x scipy"],
        rows,
        title=(
            "Batched execution engine vs reference emulation loop (N=128, fp16; "
            f"uniform_{BASELINE_N}: N={BASELINE_WIDTH}) and vs scipy csr @ dense"
        ),
    )


def _check(rows) -> None:
    spmm_speedups = [r[4] for r in rows if r[1] == "spmm" and not np.isnan(r[4])]
    worst = min(spmm_speedups)
    assert worst >= MIN_SPMM_SPEEDUP, (
        f"batched SpMM engine regressed: worst speedup {worst:.1f}x < "
        f"{MIN_SPMM_SPEEDUP:.0f}x over the reference loop"
    )
    x_scipy = rows[-1][5]
    assert x_scipy <= MAX_SPMM_X_SCIPY, (
        f"batched SpMM on the baseline matrix takes {x_scipy:.1f}x scipy's "
        f"csr @ dense (gate {MAX_SPMM_X_SCIPY:.0f}x)"
    )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_engine_speedup(benchmark):
        rows = benchmark.pedantic(run_engine_speedup, rounds=1, iterations=1)
        _emit(rows)
        _check(rows)

except ImportError:

    def test_engine_speedup():
        rows = run_engine_speedup()
        _emit(rows)
        _check(rows)


if __name__ == "__main__":
    result_rows = run_engine_speedup()
    try:
        _emit(result_rows)
    except ImportError:  # standalone invocation without the harness on sys.path
        for row in result_rows:
            print(
                f"{row[0]:>20} {row[1]:>6}: reference {row[2]:.3f}s  batched {row[3]:.4f}s  "
                f"{row[4]:.1f}x  ({row[5]:.1f}x scipy)"
            )
    _check(result_rows)
    print(
        f"OK: batched SpMM engine >= {MIN_SPMM_SPEEDUP:.0f}x faster than the reference loop, "
        f"<= {MAX_SPMM_X_SCIPY:.0f}x scipy on the baseline matrix"
    )
