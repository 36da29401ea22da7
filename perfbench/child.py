"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample so that no cache, pool or
host carries over between samples.  It sets up the workload, prints
``PERFBENCH_READY`` (the parent times set-up up to that line), and then,
unless ``--setup-only``, runs the timed phase, checks the outputs against
the fp64 oracle and the modeled costs against ``cost_model.json``, closes
the server, checks that no child process or shared-memory segment is left,
and prints one JSON line of raw results.

    python3 perfbench/child.py --workload serve-hot --seed 1 --seconds 20
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: the load generator and the
# server share two cores, and BLAS threads would oversubscribe them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import multiprocessing
import queue
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing as tr
import workloads as wl

OUT_DIR = Path(".perfbench_out")
COST_MODEL_FILE = Path(__file__).resolve().parent / "cost_model.json"
#: How long the run waits for requests still in flight after the last send.
DRAIN_S = 60.0
#: A run whose load generator sent its p90 request later than this after
#: the scheduled time did not offer the load it claims; it is invalid.
MAX_LAG_P90_MS = 20.0


class SharedMemoryLedger:
    """Names of the shared-memory segments this process creates."""

    def __init__(self):
        from multiprocessing import shared_memory

        self.names: list[str] = []
        original = shared_memory.SharedMemory.__init__
        ledger = self

        def init(seg, name=None, create=False, size=0):
            original(seg, name, create, size)
            if create:
                ledger.names.append(seg.name)

        shared_memory.SharedMemory.__init__ = init

    def leaked(self) -> list[str]:
        from multiprocessing import resource_tracker, shared_memory

        left = []
        for name in self.names:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            seg.close()
            resource_tracker.unregister(seg._name, "shared_memory")
            left.append(name)
        return left


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live child (pool workers, hosts)."""
    return _vm_hwm_mb(os.getpid()) + sum(
        _vm_hwm_mb(p.pid) for p in multiprocessing.active_children()
    )


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q) * 1e3) if len(samples) else 0.0


# ------------------------------------------------------------------ setup
class Run:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.tracer = None
        self.op_of_future: dict = {}
        self.queue_waits: list[float] = []
        self.exec_times: list[float] = []
        if args.trace:
            self.tracer = tr.Tracer(OUT_DIR / f"{self.workload}-seed{args.seed}-spans")
            tr.install(self.tracer)
            self._time_groups()
        self.shm = SharedMemoryLedger()

    def _time_groups(self) -> None:
        """Attribute the spans of each served group to the op of its first
        request, and record each request's queue wait (submit to dequeue)
        and execution (dequeue to the end of its group's execution)."""
        from repro.serve.server import Server

        traced = Server._execute_group
        run = self

        def execute_group(server, group):
            run.tracer.set_op(run.op_of_future.get(id(group[0].future)))
            try:
                return traced(server, group)
            finally:
                run.tracer.set_op(None)
                end = time.perf_counter()
                for req in group:
                    if req.dequeued_at:
                        run.queue_waits.append(req.dequeued_at - req.submitted_at)
                        run.exec_times.append(end - req.dequeued_at)

        Server._execute_group = execute_group

    def setup(self) -> None:
        import repro

        if self.workload == "kernel":
            self.server = None
            self.inputs = wl.build_inputs(self.workload, self.args.seed, self.args.seconds)
            # Translate once (cached by matrix identity), then one op.
            repro.FlashSparseMatrix(csr=self.inputs.matrices[0]).mebcrs(wl.PRECISION)
            for op in self.inputs.warmup:
                self.kernel_op(op)
            return
        if self.workload == "serve-hot":
            self.server = repro.start_server(precision=wl.PRECISION)
        else:
            self.server = repro.start_server(
                precision=wl.PRECISION, backend="cluster", hosts=wl.FRESH_HOSTS
            )
        # Built after the server starts, so hosts forked at start-up do not
        # carry the inputs in their resident set.
        self.inputs = wl.build_inputs(self.workload, self.args.seed, self.args.seconds)
        for op in self.inputs.warmup:
            if op.kind == "step":
                out1 = self.submit_layer(op.matrix, wl.layer_operands(op.operands["h"])).result(120)
                self.submit_layer(op.matrix, wl.layer_operands(out1.values)).result(120)
            else:
                self.submit(op).result(120)

    # ------------------------------------------------------------------ ops
    def kernel_op(self, op):
        import repro

        m = op.matrix
        o = op.operands
        s = repro.sddmm(m, o["a"], o["b"], precision=wl.PRECISION)
        y = repro.spmm(m, o["x"], precision=wl.PRECISION)
        return s, y

    def submit_layer(self, matrix, operands):
        return self.server.submit_layer(
            matrix, operands["a"], operands["b"], operands["x"], scale=1.0
        )

    def submit(self, op):
        o = op.operands
        if op.kind == "spmm":
            return self.server.submit_spmm(op.matrix, o["b"])
        if op.kind == "sddmm":
            return self.server.submit_sddmm(op.matrix, o["a"], o["b"])
        return self.server.submit_layer(op.matrix, o["a"], o["a"], o["x"], scale=1.0)

    # ---------------------------------------------------------- timed phase
    def drive_closed_loop(self) -> dict:
        ops = self.inputs.ops
        check = wl.check_mask(wl.KERNEL_CHECK_SPAN, self.args.seed, wl.KERNEL_CHECK_COUNT)
        check[: len(ops)] = True
        done, kept = [], []
        failed = 0
        t0 = time.perf_counter()
        deadline = t0 + self.args.seconds
        i = 0
        while time.perf_counter() < deadline:
            op = ops[i % len(ops)]
            if self.tracer is not None:
                self.tracer.set_op(i)
            start = time.perf_counter()
            try:
                s, y = self.kernel_op(op)
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"op {i} failed: {exc!r}", file=sys.stderr)
                failed += 1
            else:
                done.append((i, op, time.perf_counter() - start))
                if i < check.size and check[i]:
                    kept.append((i, op, (s, y)))
            i += 1
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.set_op(None)
        return {"attempted": i, "failed": failed, "done": done, "elapsed": elapsed, "kept": kept, "lags": []}

    def drive_open_loop(self) -> dict:
        ops = self.inputs.ops
        schedule = self.inputs.schedule
        n = schedule.size
        done_at = [math.nan] * n
        errors: list = [None] * n
        results: list = [None] * n
        lags = []
        pending = threading.Semaphore(0)
        chain: "queue.SimpleQueue" = queue.SimpleQueue()

        def finish(i, fut):
            exc = fut.exception()
            if exc is not None:
                errors[i] = exc
            elif ops[i].check:
                results[i] = fut.result().values if ops[i].kind != "sddmm" else fut.result()
            done_at[i] = time.perf_counter()
            pending.release()

        def chain_worker():
            # Second layer of a step: its input is the first layer's output.
            while True:
                item = chain.get()
                if item is None:
                    return
                i, fut = item
                exc = fut.exception()
                if exc is not None:
                    errors[i] = exc
                    done_at[i] = time.perf_counter()
                    pending.release()
                    continue
                out1 = fut.result().values
                operands = wl.layer_operands(out1)
                if self.tracer is not None:
                    self.tracer.set_op(i)
                try:
                    fut2 = self.submit_layer(ops[i].matrix, operands)
                except Exception as exc:  # refused: counted as a failed op
                    errors[i] = exc
                    done_at[i] = time.perf_counter()
                    pending.release()
                    continue
                self.op_of_future[id(fut2)] = i
                if ops[i].check:
                    results[i] = (out1, operands)
                fut2.add_done_callback(lambda f, i=i: finish_step(i, f))

        def finish_step(i, fut):
            exc = fut.exception()
            if exc is not None:
                errors[i] = exc
            elif ops[i].check:
                out1, operands = results[i]
                results[i] = (out1, operands, fut.result().values)
            done_at[i] = time.perf_counter()
            pending.release()

        chainer = None
        if self.workload == "serve-fresh":
            chainer = threading.Thread(target=chain_worker, name="perfbench-chain")
            chainer.start()
        t0 = time.perf_counter()
        try:
            for i in range(n):
                due = t0 + schedule[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                lags.append(sent - due)
                if self.tracer is not None:
                    self.tracer.set_op(i)
                op = ops[i]
                try:
                    if op.kind == "step":
                        fut = self.submit_layer(op.matrix, wl.layer_operands(op.operands["h"]))
                        self.op_of_future[id(fut)] = i
                        fut.add_done_callback(lambda f, i=i: chain.put((i, f)))
                    else:
                        fut = self.submit(op)
                        self.op_of_future[id(fut)] = i
                        fut.add_done_callback(lambda f, i=i: finish(i, f))
                except Exception as exc:  # refused at submit: a failed op
                    errors[i] = exc
                    done_at[i] = time.perf_counter()
                    pending.release()
            drain_end = time.perf_counter() + DRAIN_S
            for _ in range(n):
                if not pending.acquire(timeout=max(0.0, drain_end - time.perf_counter())):
                    break
        finally:
            if chainer is not None:
                chain.put(None)
                chainer.join(DRAIN_S)
            if self.tracer is not None:
                self.tracer.set_op(None)
        done, kept = [], []
        failed = 0
        last_done = t0
        for i in range(n):
            if errors[i] is not None or math.isnan(done_at[i]):
                failed += 1
                if errors[i] is not None:
                    print(f"op {i} failed: {errors[i]!r}", file=sys.stderr)
                continue
            done.append((i, ops[i], done_at[i] - (t0 + schedule[i])))
            last_done = max(last_done, done_at[i])
            if ops[i].check:
                kept.append((i, ops[i], results[i]))
        return {"attempted": n, "failed": failed, "done": done, "elapsed": last_done - t0, "kept": kept, "lags": lags}

    # ------------------------------------------------------------- checking
    def check_outputs(self, kept) -> tuple[set, float]:
        """(ids of ops with a wrong result, worst error in units of the
        numerics contract)."""
        wrong, worst = set(), 0.0
        for i, op, got in kept:
            err = max(op_errors(op, got))
            worst = max(worst, err)
            if not err <= wl.ERROR_BOUND:
                wrong.add(i)
        return wrong, worst

    def check_cost_model(self) -> list[str]:
        """Entries where the modeled costs differ from the committed ones."""
        committed = json.loads(COST_MODEL_FILE.read_text()).get(self.workload, {})
        measured = wl.modeled_costs(self.workload)
        return sorted(
            f"{label}.{key}"
            for label in committed.keys() | measured.keys()
            for key in committed.get(label, {}).keys() | measured.get(label, {}).keys()
            if committed.get(label, {}).get(key) != measured.get(label, {}).get(key)
        )


def op_errors(op, got) -> list[float]:
    """Oracle errors of every kernel output one kept op produced."""
    m, o = op.matrix, op.operands
    if op.kind == "kernel":
        s, y = got
        return [
            wl.sddmm_error(m, o["a"], o["b"], wl.sddmm_values_on_pattern(m, s)),
            wl.spmm_error(m, o["x"], y.values),
        ]
    if op.kind == "spmm":
        return [wl.spmm_error(m, o["b"], got)]
    if op.kind == "sddmm":
        return [wl.sddmm_error(m, o["a"], o["b"], wl.sddmm_values_on_pattern(m, got))]
    if op.kind == "layer":
        return [wl.layer_error(m, o["a"], o["a"], o["x"], got)]
    out1, second, out2 = got
    first = wl.layer_operands(o["h"])
    return [
        wl.layer_error(m, first["a"], first["b"], first["x"], out1),
        wl.layer_error(m, second["a"], second["b"], second["x"], out2),
    ]


def spmm_operands(op, got) -> list[np.ndarray]:
    """Dense operands of the SpMMs one kept op ran."""
    if op.kind == "step":
        return [op.operands["h"], got[1]["x"]]
    key = {"kernel": "x", "spmm": "b", "layer": "x"}.get(op.kind)
    return [op.operands[key]] if key else []


def scipy_spmm_ms(kept) -> float:
    """Single-thread scipy ``csr @ dense`` time of an op's SpMMs, averaged
    over the kept ops (the reference floor; median of 3 repetitions)."""
    times = []
    for _, op, got in kept:
        csr = op.matrix.to_scipy()
        total = 0.0
        for dense in spmm_operands(op, got):
            reps = []
            for _ in range(3):
                t = time.perf_counter()
                csr @ dense
                reps.append(time.perf_counter() - t)
            total += float(np.median(reps))
        times.append(total)
    return float(np.mean(times)) * 1e3 if times else 0.0


def layer_metrics(run: Run, out: dict, before: dict, after: dict, spans: list[dict]) -> dict:
    """Per-layer metrics of a traced run (per op unless the name says
    otherwise; 0 where the layer does not run on this workload)."""
    ops = max(1, len(out["done"]))
    self_s = tr.self_time_by_name(spans)

    def per_op_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) / ops * 1e3

    spmm_names = {"kernels.spmm_flash_execute", "engine.spmm_shard_rows"}
    sddmm_names = {"kernels.sddmm_flash_execute", "engine.sddmm_shard_values"}
    spmm_ms = tr.inclusive_time(spans, spmm_names) / ops * 1e3
    sddmm_ms = tr.inclusive_time(spans, sddmm_names) / ops * 1e3
    spmm_flops = sum(useful_spmm_flops(op) for _, op, _ in out["done"]) / ops
    scipy_ms = scipy_spmm_ms(out["kept"])
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")}
    lookups = cache["hits"] + cache["misses"]
    head_calls = tr.count_by_name(spans, pid=os.getpid())
    m = {
        "formats.translate_ms": per_op_ms("formats.translate"),
        "formats.content_key_ms": per_op_ms("formats.content_key"),
        "formats.cache_hit_frac": cache["hits"] / lookups if lookups else 0.0,
        "kernels.spmm_ms": spmm_ms,
        "kernels.sddmm_ms": sddmm_ms,
        "kernels.spmm_gflops": spmm_flops / (spmm_ms / 1e3) / 1e9 if spmm_ms else 0.0,
        "engine.spmm_batched_ms": per_op_ms("engine.spmm_batched"),
        "engine.sddmm_batched_ms": per_op_ms("engine.sddmm_batched"),
        "engine.shard_ms": per_op_ms(
            "engine.spmm_shard_rows", "engine.sddmm_shard_values", "engine.layer_shard_rows"
        ),
        "ops.segment_sum_ms": per_op_ms("ops.segment_sum"),
        "ops.segment_softmax_ms": per_op_ms("ops.segment_softmax"),
        "precision.quantize_ms": per_op_ms("precision.quantize"),
        "ref.scipy_spmm_ms": scipy_ms,
        "kernels.x_scipy": spmm_ms / scipy_ms if scipy_ms else 0.0,
        "serve.queue_wait_p50_ms": 0.0,
        "serve.queue_wait_p90_ms": 0.0,
        "serve.exec_p50_ms": 0.0,
        "serve.batch_mean": 0.0,
        "serve.coalesced_frac": 0.0,
        "serve.stage.sddmm_ms": 0.0,
        "serve.stage.edge_softmax_ms": 0.0,
        "serve.stage.spmm_ms": 0.0,
        "serve.plan_ms": per_op_ms("serve.plan_spmm", "serve.plan_sddmm"),
        "scheduler.run_ms": per_op_ms("scheduler.run_spmm", "scheduler.run_sddmm", "scheduler.run_layer"),
        "scheduler.shards_per_op": 0.0,
        "scheduler.retries": 0.0,
        "cluster.run_ms": per_op_ms("cluster.run_spmm", "cluster.run_sddmm", "cluster.run_layer"),
        "cluster.tasks_per_op": 0.0,
        "cluster.retries": 0.0,
        "cluster.wire_bytes_per_op": 0.0,
        "cluster.store_put_bytes_per_op": 0.0,
        "cluster.store_hit_frac": 0.0,
        "transport.send_ms": sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == "transport.send_message" and s["pid"] == os.getpid()
        )
        / ops
        * 1e3,
        "transport.frames_per_op": head_calls.get("transport.send_message", 0) / ops,
        "loadgen.lag_p90_ms": percentile_ms(out["lags"], 90),
    }
    if run.server is not None:
        snap = after["snapshot"]
        base = before["snapshot"]
        completed = snap.requests_completed - base.requests_completed
        batches = snap.batches_dispatched - base.batches_dispatched
        m["serve.queue_wait_p50_ms"] = percentile_ms(run.queue_waits, 50)
        m["serve.queue_wait_p90_ms"] = percentile_ms(run.queue_waits, 90)
        m["serve.exec_p50_ms"] = percentile_ms(run.exec_times, 50)
        m["serve.batch_mean"] = completed / batches if batches else 0.0
        m["serve.coalesced_frac"] = (
            (snap.requests_coalesced - base.requests_coalesced) / completed if completed else 0.0
        )
        for stage in ("sddmm", "edge_softmax", "spmm"):
            stats = snap.stage_latency.get(stage)
            m[f"serve.stage.{stage}_ms"] = stats.p50_s * 1e3 if stats else 0.0
        sched, sched0 = after["scheduler"], before["scheduler"]

        def delta(key):
            return sched.get(key, 0) - sched0.get(key, 0)

        if run.server.backend == "local":
            m["scheduler.shards_per_op"] = delta("shards") / ops
            m["scheduler.retries"] = float(delta("retries") + delta("fallbacks"))
        else:
            m["cluster.tasks_per_op"] = delta("tasks_sent") / ops
            m["cluster.retries"] = float(
                delta("shards_failed_over") + delta("failovers") + delta("inline_fallbacks")
            )
            m["cluster.wire_bytes_per_op"] = (delta("bytes_sent") + delta("bytes_received")) / ops
            m["cluster.store_put_bytes_per_op"] = delta("store_put_bytes") / ops
            puts_hits = delta("store_hits") + delta("store_puts")
            m["cluster.store_hit_frac"] = delta("store_hits") / puts_hits if puts_hits else 0.0
    return m


def useful_spmm_flops(op) -> float:
    """Useful SpMM FLOPs (``2 * nnz * width``) one op asks for."""
    nnz = op.matrix.nnz
    if op.kind == "kernel":
        return 2.0 * nnz * wl.KERNEL_WIDTH
    if op.kind == "spmm":
        return 2.0 * nnz * op.operands["b"].shape[1]
    if op.kind == "layer":
        return 2.0 * nnz * op.operands["x"].shape[1]
    if op.kind == "step":
        return 2 * 2.0 * nnz * wl.FRESH_FEATURES
    return 0.0


def counters(run: Run) -> dict:
    from repro.formats.cache import format_cache_stats

    stats = format_cache_stats()
    out = {"cache": {"hits": stats.hits, "misses": stats.misses}}
    if run.server is not None:
        out["snapshot"] = run.server.snapshot()
        out["scheduler"] = run.server.scheduler.stats_snapshot()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    run = Run(args)
    run.setup()
    print("PERFBENCH_READY", flush=True)
    try:
        if not args.setup_only:
            before = counters(run)
            run.queue_waits.clear()
            run.exec_times.clear()
            timed_from = time.perf_counter()
            out = run.drive_closed_loop() if run.server is None else run.drive_open_loop()
            timed_to = time.perf_counter()
            after = counters(run)
            rss_mb = peak_rss_mb()
    finally:
        if run.server is not None:
            run.server.close()
    leaks = [p.name for p in multiprocessing.active_children()]
    leaks += [f"shm:{n}" for n in run.shm.leaked()]
    if leaks:
        print(f"leaked after close(): {leaks}", file=sys.stderr)
        return 3
    if args.setup_only:
        return 0

    wrong, worst = run.check_outputs(out["kept"])
    problems = []
    if wrong:
        problems.append(f"{len(wrong)} of {len(out['kept'])} checked ops exceed the numerics bound")
    lag_p90 = percentile_ms(out["lags"], 90)
    if lag_p90 > MAX_LAG_P90_MS:
        problems.append(f"invalid run: load generator lag p90 {lag_p90:.1f} ms > {MAX_LAG_P90_MS} ms")
    if not args.trace:
        mismatched = run.check_cost_model()
        if mismatched:
            problems.append(f"cost model differs from cost_model.json: {mismatched[:8]}")
    # A wrong result is a failed op, never a timed success.
    lat = [latency for i, _, latency in out["done"] if i not in wrong]
    slo_s = wl.SLO_MS[args.workload] / 1e3
    attempted = out["attempted"]
    result = {
        "attempted": attempted,
        "failed": out["failed"] + len(wrong),
        "completed": len(lat),
        "checked": len(out["kept"]),
        "worst_error": worst,
        "problems": problems,
        "ops_per_s": len(lat) / out["elapsed"] if out["elapsed"] > 0 else 0.0,
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p90_ms": percentile_ms(lat, 90),
        "slo_frac": sum(1 for x in lat if x <= slo_s) / max(1, attempted),
        "peak_rss_mb": rss_mb,
        "lag_p90_ms": lag_p90,
    }
    if run.tracer is not None:
        spans = run.tracer.collect(timed_from, timed_to)
        tr.write_chrome_trace(spans, OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json")
        result["layers"] = layer_metrics(run, out, before, after, spans)
        result["spans"] = len(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
