"""Benchmark-side tracer: spans around calls into each ``repro`` layer.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the public
functions named in :data:`TRACED` with wrappers, wherever a ``repro`` module
holds them: a function imported by name (``from repro.ops import
segment_sum`` in the engine) is a separate module attribute, and each one is
rebound.  Class attributes (``MEBCRSMatrix.from_csr``,
``ShardScheduler.run_spmm``) are rebound on the class.

Each span records its name, start, end, its own id, the id of the span that
enclosed it on the same thread, the op id current on that thread, the
process and the thread.  Self time (duration minus the time covered by
direct child spans) is computed when the span closes.

Pool workers and cluster hosts are forked after :func:`install`, so they
inherit the wrappers.  A span that closes in a process other than the one
that installed the tracer is appended to ``spans-<pid>.jsonl`` in the
trace directory, flushed line by line so the file is complete however the
process exits; :meth:`Tracer.collect` merges those files after the server
has closed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (span name, module, attribute path) of every traced function.  A dotted
#: attribute path names a method on a class.
TRACED = [
    ("formats.translate", "repro.formats.mebcrs", "MEBCRSMatrix.from_csr"),
    ("formats.content_key", "repro.formats.csr", "CSRMatrix.content_key"),
    ("kernels.spmm_flash_execute", "repro.kernels.spmm_flash", "spmm_flash_execute"),
    ("kernels.sddmm_flash_execute", "repro.kernels.sddmm_flash", "sddmm_flash_execute"),
    ("engine.spmm_batched", "repro.kernels.engine", "spmm_batched"),
    ("engine.sddmm_batched", "repro.kernels.engine", "sddmm_batched"),
    ("engine.spmm_shard_rows", "repro.kernels.engine", "spmm_shard_rows"),
    ("engine.sddmm_shard_values", "repro.kernels.engine", "sddmm_shard_values"),
    ("engine.layer_shard_rows", "repro.kernels.engine", "layer_shard_rows"),
    ("ops.segment_sum", "repro.ops.segment", "segment_sum"),
    ("ops.segment_softmax", "repro.ops.segment", "segment_softmax"),
    ("precision.quantize", "repro.precision.types", "quantize"),
    ("serve.plan_spmm", "repro.serve.planner", "plan_spmm"),
    ("serve.plan_sddmm", "repro.serve.planner", "plan_sddmm"),
    ("serve.execute_group", "repro.serve.server", "Server._execute_group"),
    ("scheduler.run_spmm", "repro.serve.scheduler", "ShardScheduler.run_spmm"),
    ("scheduler.run_sddmm", "repro.serve.scheduler", "ShardScheduler.run_sddmm"),
    ("scheduler.run_layer", "repro.serve.scheduler", "ShardScheduler.run_layer"),
    ("cluster.run_spmm", "repro.cluster.head", "ClusterScheduler.run_spmm"),
    ("cluster.run_sddmm", "repro.cluster.head", "ClusterScheduler.run_sddmm"),
    ("cluster.run_layer", "repro.cluster.head", "ClusterScheduler.run_layer"),
    ("transport.send_message", "repro.cluster.transport", "send_message"),
]


class Tracer:
    """Span recorder; one per benchmark process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.owner_pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._child_file = None
        self._child_pid = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Another thread may have held the lock when the fork happened.
        self._lock = threading.Lock()
        self.spans = []

    # ------------------------------------------------------------ op scope
    def set_op(self, op_id) -> None:
        """Make ``op_id`` the op of every span opened on this thread."""
        self._local.op = op_id

    # --------------------------------------------------------------- spans
    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "self": duration - frame[1],
                        "id": span_id,
                        "parent": stack[-1][0] if stack else None,
                        "op": getattr(local, "op", None),
                        "pid": os.getpid(),
                        "tid": threading.get_ident(),
                    }
                )

        return traced

    def _record(self, span: dict) -> None:
        pid = span["pid"]
        if pid == self.owner_pid:
            with self._lock:
                self.spans.append(span)
            return
        # Forked pool worker or cluster host.  Its span ids continue the
        # parent's counter, so they are unique only together with the pid.
        with self._lock:
            if self._child_pid != pid:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._child_file = open(self.out_dir / f"spans-{pid}.jsonl", "a")
                self._child_pid = pid
            self._child_file.write(json.dumps(span) + "\n")
            self._child_file.flush()

    def collect(self, since: float, until: float) -> list[dict]:
        """Spans that started in ``[since, until]``: this process's plus those
        forked children wrote.  ``perf_counter`` is the system-wide
        monotonic clock, so the window applies across processes."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()
        if self.out_dir.is_dir():
            self.out_dir.rmdir()
        return [s for s in spans if since <= s["start"] <= until]


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> int:
    """Wrap every function in :data:`TRACED`; returns how many bindings
    were replaced."""
    replaced = 0
    for name, module_name, path in TRACED:
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw))
            replaced += 1
            continue
        wrapped = tracer.wrap(name, raw)
        # Rebind every module-level alias of the function (``from x import f``).
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    replaced += 1
    return replaced


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
    return totals


def inclusive_time(spans: list[dict], names: set[str]) -> float:
    """Seconds inside spans named in ``names``, counting a nested span of the
    same set once (only the outermost one of each chain)."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            outer = by_key.get((span["pid"], parent))
            if outer is None:
                break
            if outer["name"] in names:
                nested = True
                break
            parent = outer["parent"]
        if not nested:
            total += span["end"] - span["start"]
    return total


def count_by_name(spans: list[dict], pid: int | None = None) -> dict[str, int]:
    """Calls per span name, optionally only those made in process ``pid``."""
    counts: dict[str, int] = {}
    for span in spans:
        if pid is None or span["pid"] == pid:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
    return counts


def write_chrome_trace(spans: list[dict], path: Path) -> None:
    """Chrome trace-event JSON (open in Perfetto or ``chrome://tracing``)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [
        {
            "name": s["name"],
            "cat": s["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"],
            "tid": s["tid"],
            "args": {"span": s["id"], "parent": s["parent"], "op": s["op"]},
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
