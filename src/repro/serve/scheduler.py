"""Multi-process shard scheduler for one SpMM / SDDMM.

PR 2's engine shards window-aligned chunk ranges across *threads*; this
module is the next scale step the ROADMAP called for: the same window-
aligned shards dispatched to a ``multiprocessing`` worker pool, so the
per-shard batched matmuls run on separate cores regardless of whether the
BLAS build releases the GIL for small GEMMs.

Execution model
---------------
* The **dense operands** (B for SpMM, A and B for SDDMM) and the **output**
  live in POSIX shared memory (:mod:`multiprocessing.shared_memory`): they
  are written once by the parent and mapped — not copied — into every
  worker.  Workers write their shard's output rows directly into the shared
  output; shards are window-aligned, so no two workers ever touch the same
  rows and no locking is needed.
* The **sparse shard slices** (the shard's
  :class:`~repro.formats.layout.WindowView`: bucket lane maps and A slabs)
  are small and travel with each task through the pool's pickle channel;
  this keeps workers stateless, so any worker can run any shard — the
  pool's internal queue is the work queue.
* Each shard is retried ``retries`` times on failure; a shard that exhausts
  its retries falls back to in-parent execution, so one bad worker degrades
  throughput, not correctness.

Bit-exactness
-------------
Every shard contracts whole windows through
:func:`repro.kernels.engine.spmm_shard_rows` /
:func:`~repro.kernels.engine.sddmm_shard_values` /
:func:`~repro.kernels.engine.layer_shard_rows`, the same primitive as the
single-process ``engine="batched"`` run, so it reproduces the one-shot
values bit-for-bit (see the engine module docstring).  The parity tests
assert exact equality, not allclose.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.kernels.engine import (
    layer_shard_rows,
    layer_views,
    sddmm_shard_values,
    spmm_shard_rows,
    window_aligned_ranges,
)
from repro.ops import segment_matmul
from repro.precision.types import Precision

try:  # POSIX shared memory; present on every platform this repo targets.
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - ancient interpreters only
    shared_memory = None

#: Default number of times a failed shard is re-enqueued before the parent
#: runs it inline.
DEFAULT_SHARD_RETRIES = 2


@dataclass(frozen=True)
class ShmArray:
    """Descriptor of an ndarray living in a named shared-memory segment."""

    name: str
    shape: tuple
    dtype: str


def _create_shm(array: np.ndarray) -> tuple["shared_memory.SharedMemory", ShmArray]:
    """Copy ``array`` into a fresh shared-memory segment."""
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return shm, ShmArray(name=shm.name, shape=tuple(array.shape), dtype=array.dtype.str)


def _create_shm_zeros(shape: tuple, dtype) -> tuple["shared_memory.SharedMemory", ShmArray]:
    """A zero-initialised shared-memory array (the output buffer)."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    view[...] = 0
    return shm, ShmArray(name=shm.name, shape=tuple(shape), dtype=dtype.str)


def _attach(desc: ShmArray) -> tuple["shared_memory.SharedMemory", np.ndarray]:
    """Map a descriptor's segment into this process (no tracker ownership).

    The parent owns the segment lifecycle (close + unlink); attaching
    workers must not register it with the resource tracker — under the
    ``fork`` start method parent and workers share one tracker process, so
    a worker-side registration makes the segment appear twice and the
    parent's unlink then trips the tracker's bookkeeping.  Python 3.13 has
    ``track=False`` for exactly this; earlier interpreters need the
    register call silenced around the attach.
    """
    try:
        shm = shared_memory.SharedMemory(name=desc.name, track=False)
    except TypeError:  # Python < 3.13: no track flag.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=desc.name)
        finally:
            resource_tracker.register = original_register
    return shm, np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=shm.buf)


# ---------------------------------------------------------------------------
# Worker-side task bodies (module-level: picklable by every start method)
# ---------------------------------------------------------------------------
def _maybe_fail(task: dict) -> None:
    """Deterministic failure injection for the retry tests."""
    if task["attempt"] <= task.get("fail_times", 0):
        raise RuntimeError(
            f"injected shard failure (shard {task['shard']}, attempt {task['attempt']})"
        )


def _run_spmm_shard(task: dict) -> int:
    """Compute one SpMM shard and write its rows into the shared output."""
    _maybe_fail(task)
    b_shm, b_q = _attach(task["b"])
    out_shm, out = _attach(task["out"])
    try:
        rows = spmm_shard_rows(task["view"], b_q)
        row0 = task["row0"]
        stop = min(row0 + rows.shape[0], out.shape[0])
        out[row0:stop] = rows[: stop - row0]
    finally:
        b_shm.close()
        out_shm.close()
    return task["shard"]


def _run_sddmm_shard(task: dict) -> int:
    """Compute one SDDMM shard and scatter its values into the shared output."""
    _maybe_fail(task)
    a_shm, a_q = _attach(task["a"])
    b_shm, b_q = _attach(task["b"])
    out_shm, out = _attach(task["out"])
    try:
        idx, vals = sddmm_shard_values(task["view"], a_q, b_q, task["scale_by_mask"])
        out[idx] = vals
    finally:
        a_shm.close()
        b_shm.close()
        out_shm.close()
    return task["shard"]


def _run_layer_shard(task: dict) -> tuple[int, dict]:
    """Run one fused-layer shard (SDDMM → softmax → SpMM) end to end."""
    _maybe_fail(task)
    a_shm, a_q = _attach(task["a"])
    b_shm, b_q = _attach(task["b"])
    x_shm, x_q = _attach(task["x"])
    out_shm, out = _attach(task["out"])
    try:
        rows, timings = layer_shard_rows(
            *task["views"],
            a_q,
            b_q,
            x_q,
            Precision(task["precision"]),
            task["scale"],
            task["scale_by_mask"],
        )
        row0 = task["row0"]
        stop = min(row0 + rows.shape[0], out.shape[0])
        out[row0:stop] = rows[: stop - row0]
    finally:
        a_shm.close()
        b_shm.close()
        x_shm.close()
        out_shm.close()
    return task["shard"], timings


_WORKER_BODIES = {"spmm": _run_spmm_shard, "sddmm": _run_sddmm_shard, "layer": _run_layer_shard}


def _run_task(task: dict) -> int:
    return _WORKER_BODIES[task["kind"]](task)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
class ShardScheduler:
    """Window-aligned shard executor over a persistent process pool.

    Parameters
    ----------
    workers:
        Worker process count.  ``workers <= 1`` executes every shard inline
        in the calling process (no pool, no shared memory) — the degenerate
        configuration the parity tests compare the pool against.
    retries:
        Times a failed shard is re-enqueued before the parent computes it
        inline.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap worker startup, copy-on-write import state) and
        the platform default elsewhere.
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = DEFAULT_SHARD_RETRIES,
        start_method: str | None = None,
    ):
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._mp_context = mp.get_context(start_method) if start_method else mp.get_context()
        self._pool: ProcessPoolExecutor | None = None
        #: Lifetime counters: shards run, retries performed, inline fallbacks.
        #: Mutated by the dispatching thread under ``_stats_lock``; read via
        #: :meth:`stats_snapshot` (client threads snapshot while `_dispatch`
        #: runs, so unguarded reads could observe mid-update state).
        self.stats = {"shards": 0, "retries": 0, "fallbacks": 0, "requests": 0}
        self._stats_lock = threading.Lock()

    # --------------------------------------------------------------- plumbing
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def stats_snapshot(self) -> dict:
        """Consistent copy of the lifetime counters (safe from any thread)."""
        with self._stats_lock:
            return dict(self.stats)

    def _count(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += n

    def __enter__(self) -> "ShardScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispatch(self, tasks: list[dict], inline_body, on_result=None) -> None:
        """Run ``tasks`` on the pool with per-shard retry and inline fallback.

        ``inline_body(task)`` is the parent-side fallback executed against
        the parent's own arrays once a shard exhausts its retries (or when
        the pool itself breaks).  ``on_result`` (optional) receives each
        pool future's return value — the fused-layer path collects its
        per-stage timings through it (inline bodies record their own).
        """
        self._count("requests")
        self._count("shards", len(tasks))
        if self.workers <= 1 or len(tasks) == 0:
            for task in tasks:
                inline_body(task)
            return
        pending = {self._ensure_pool().submit(_run_task, task): task for task in tasks}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                if future.exception() is None:
                    if on_result is not None:
                        on_result(future.result())
                    continue
                if task["attempt"] <= self.retries:
                    task = dict(task, attempt=task["attempt"] + 1)
                    self._count("retries")
                    try:
                        pending[self._ensure_pool().submit(_run_task, task)] = task
                    except Exception:
                        # Pool broken (dead workers): drop it so the next
                        # submit builds a fresh one, run this shard inline.
                        self._discard_pool()
                        self._count("fallbacks")
                        inline_body(task)
                else:
                    self._count("fallbacks")
                    inline_body(task)

    # ------------------------------------------------------------------ SpMM
    def run_spmm(
        self,
        fmt: BlockedVectorFormat,
        b_q: np.ndarray,
        precision: Precision,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> np.ndarray:
        """``A @ B`` sharded across the pool; bit-identical to one-shot.

        ``b_q`` must already be quantised float32 (the kernel entry points'
        convention).  ``target_blocks`` is the shard size target from the
        planner (defaults to an even split across workers).
        ``_inject_failures`` maps shard index → number of times that shard
        fails (test hook for the retry path).
        """
        v = fmt.vector_size
        n_rows = fmt.shape[0]
        n_dense = b_q.shape[1]
        layout = fmt.window_layout()
        if target_blocks is None:
            target_blocks = max(1, -(-layout.num_blocks // self.workers))
        ranges = window_aligned_ranges(layout.window_offsets, target_blocks)
        if n_dense == 0 or not ranges:
            return np.zeros((n_rows, n_dense), dtype=np.float32)

        use_pool = self.workers > 1 and shared_memory is not None
        segments = []
        try:
            if use_pool:
                b_shm, b_desc = _create_shm(b_q)
                out_shm, out_desc = _create_shm_zeros((n_rows, n_dense), np.float32)
                segments = [b_shm, out_shm]
                out_view = np.ndarray((n_rows, n_dense), np.float32, buffer=out_shm.buf)
            else:
                b_desc = out_desc = None
                out_view = np.zeros((n_rows, n_dense), dtype=np.float32)

            tasks = [
                {
                    "kind": "spmm",
                    "shard": i,
                    "attempt": 1,
                    "fail_times": (_inject_failures or {}).get(i, 0),
                    "view": layout.view(r.w0, r.w1, precision),
                    "row0": r.w0 * v,
                    "b": b_desc,
                    "out": out_desc,
                }
                for i, r in enumerate(ranges)
            ]

            def inline(task: dict) -> None:
                rows = spmm_shard_rows(task["view"], b_q)
                row0 = task["row0"]
                stop = min(row0 + rows.shape[0], n_rows)
                out_view[row0:stop] = rows[: stop - row0]

            self._dispatch(tasks, inline)
            return np.array(out_view, copy=True)
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    # ----------------------------------------------------------------- SDDMM
    def run_sddmm(
        self,
        fmt: BlockedVectorFormat,
        a_q: np.ndarray,
        b_q: np.ndarray,
        precision: Precision,
        group: int,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> np.ndarray:
        """Sampled dense×dense sharded across the pool (bit-identical).

        Returns the ``(num_nonzero_vectors, vector_size)`` value array in
        the layout of ``fmt.vector_values``.
        """
        k_dense = a_q.shape[1]
        layout = fmt.window_layout(group)
        if target_blocks is None:
            target_blocks = max(1, -(-layout.num_blocks // self.workers))
        ranges = window_aligned_ranges(layout.window_offsets, target_blocks)
        out_shape = fmt.vector_values.shape
        if k_dense == 0 or not ranges:
            return np.zeros(out_shape, dtype=np.float32)

        use_pool = self.workers > 1 and shared_memory is not None
        segments = []
        try:
            if use_pool:
                a_shm, a_desc = _create_shm(a_q)
                b_shm, b_desc = _create_shm(b_q)
                out_shm, out_desc = _create_shm_zeros(out_shape, np.float32)
                segments = [a_shm, b_shm, out_shm]
                out_view = np.ndarray(out_shape, np.float32, buffer=out_shm.buf)
            else:
                a_desc = b_desc = out_desc = None
                out_view = np.zeros(out_shape, dtype=np.float32)

            tasks = []
            for i, r in enumerate(ranges):
                tasks.append(
                    {
                        "kind": "sddmm",
                        "shard": i,
                        "attempt": 1,
                        "fail_times": (_inject_failures or {}).get(i, 0),
                        "view": layout.view(r.w0, r.w1, mask=True),
                        "scale_by_mask": bool(scale_by_mask),
                        "a": a_desc,
                        "b": b_desc,
                        "out": out_desc,
                    }
                )

            def inline(task: dict) -> None:
                idx, vals = sddmm_shard_values(task["view"], a_q, b_q, task["scale_by_mask"])
                out_view[idx] = vals

            self._dispatch(tasks, inline)
            return np.array(out_view, copy=True)
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    # ----------------------------------------------------------- fused layer
    def run_layer(
        self,
        fmt: BlockedVectorFormat,
        indptr: np.ndarray,
        a_q: np.ndarray,
        b_q: np.ndarray,
        x_q: np.ndarray,
        precision: Precision,
        group: int,
        scale: float | None = None,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> tuple[np.ndarray, dict]:
        """One fused layer (SDDMM → scale → softmax → SpMM) sharded across
        the pool — bit-identical to the three-call composition.

        ``indptr`` is the mask's CSR row layout (the softmax segments);
        ``a_q`` / ``b_q`` are the SDDMM operands and ``x_q`` the SpMM dense
        operand, all pre-quantised float32.  ``group`` is the SDDMM output
        grouping (``VECTORS_PER_OUTPUT_BLOCK``).  Shards are cut on the
        SpMM grouping's window offsets and each stage views its own layout
        at the same window bounds — the two groupings cover identical
        windows, so the shard set is window-aligned for both.

        Returns ``(rows, stage_seconds)`` where ``stage_seconds`` sums each
        stage's wall clock across shards
        (``{"sddmm_s", "edge_softmax_s", "spmm_s"}``).
        """
        v = fmt.vector_size
        n_rows = fmt.shape[0]
        n_dense = x_q.shape[1]
        layout = fmt.window_layout()
        if target_blocks is None:
            target_blocks = max(1, -(-layout.num_blocks // self.workers))
        ranges = window_aligned_ranges(layout.window_offsets, target_blocks)
        stage_seconds = {"sddmm_s": 0.0, "edge_softmax_s": 0.0, "spmm_s": 0.0}
        if n_dense == 0 or not ranges:
            return np.zeros((n_rows, n_dense), dtype=np.float32), stage_seconds

        use_pool = self.workers > 1 and shared_memory is not None
        segments = []
        try:
            if use_pool:
                a_shm, a_desc = _create_shm(a_q)
                b_shm, b_desc = _create_shm(b_q)
                x_shm, x_desc = _create_shm(x_q)
                out_shm, out_desc = _create_shm_zeros((n_rows, n_dense), np.float32)
                segments = [a_shm, b_shm, x_shm, out_shm]
                out_view = np.ndarray((n_rows, n_dense), np.float32, buffer=out_shm.buf)
            else:
                a_desc = b_desc = x_desc = out_desc = None
                out_view = np.zeros((n_rows, n_dense), dtype=np.float32)

            tasks = []
            for i, r in enumerate(ranges):
                tasks.append(
                    {
                        "kind": "layer",
                        "shard": i,
                        "attempt": 1,
                        "fail_times": (_inject_failures or {}).get(i, 0),
                        "views": layer_views(fmt, indptr, group, r.w0, r.w1),
                        "row0": r.w0 * v,
                        "precision": precision.value,
                        "scale": None if scale is None else float(scale),
                        "scale_by_mask": bool(scale_by_mask),
                        "a": a_desc,
                        "b": b_desc,
                        "x": x_desc,
                        "out": out_desc,
                    }
                )

            def add_timings(timings: dict) -> None:
                for key in stage_seconds:
                    stage_seconds[key] += timings.get(key, 0.0)

            def inline(task: dict) -> None:
                rows, timings = layer_shard_rows(
                    *task["views"], a_q, b_q, x_q, precision, task["scale"], task["scale_by_mask"]
                )
                row0 = task["row0"]
                stop = min(row0 + rows.shape[0], n_rows)
                out_view[row0:stop] = rows[: stop - row0]
                add_timings(timings)

            self._dispatch(tasks, inline, on_result=lambda res: add_timings(res[1]))
            return np.array(out_view, copy=True), stage_seconds
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    # -------------------------------------------------------- segment matmul
    def run_segment_matmul(self, data: np.ndarray, offsets: np.ndarray, weights) -> np.ndarray:
        """Served typed-linear (:func:`repro.ops.segment_matmul`).

        Runs in-process: the op is already one bucketed batched-BLAS pass,
        so process sharding would only add pickle traffic.  Counted as one
        request / one shard in the lifetime stats.
        """
        self._count("requests")
        self._count("shards")
        return segment_matmul(data, offsets, weights)
