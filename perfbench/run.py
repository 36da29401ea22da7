"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every sample runs in a fresh interpreter
(``perfbench/child.py``) so that no translation cache, plan cache, worker
pool or cluster host carries over, and ``setup_s`` is a cold start.

``--trace 0`` reports the end-to-end metrics: set-up is timed in
``SETUP_SAMPLES`` fresh interpreters (the last of which then runs the
timed phase) and reported as their median.  ``--trace 1`` runs the timed
phase twice, untraced and traced, and reports the per-layer metrics of the
traced run plus ``trace.overhead_frac``; a Chrome trace of it is written to
``.perfbench_out/``.  Both modes check every sampled output against an
fp64 oracle and the modeled kernel costs against ``cost_model.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed and its outputs were correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: Fresh interpreters whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock budget of the whole run; a child still running past it is
#: killed and the run fails.
RUN_BUDGET_S = 170.0
READY = "PERFBENCH_READY"

def manifest() -> dict:
    """The benchmark manifest at the repository root: workload names and
    metric units come from it."""
    return json.loads(Path("BENCHMARK.json").read_text())


def with_units(values: dict, kind: str) -> dict:
    units = {m["name"]: m["unit"] for m in manifest()[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """Run one fresh-interpreter sample; returns (set-up seconds, result)."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    # Kills a child that hangs with its stdout open past the budget.
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if setup_s is None and line.strip() == READY:
                setup_s = time.perf_counter() - start
                continue
            lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"sample {cmd[2:]} ran past the run budget")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise ChildFailed(f"sample {cmd[2:]} exited with code {code}")
    if "--setup-only" in extra:
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in manifest()["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            _, plain = run_child(args, deadline)
            _, traced = run_child(args, deadline, "--trace", "1")
            samples = [plain, traced]
            base = plain["latency_p50_ms"]
            layers = dict(traced["layers"])
            layers["trace.overhead_frac"] = (traced["latency_p50_ms"] - base) / base
            metrics = with_units(layers, "per_layer")
        else:
            setups = [run_child(args, deadline, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, result = run_child(args, deadline)
            setups.append(setup_s)
            samples = [result]
            values = {
                "setup_s": statistics.median(setups),
                "ops_per_s": result["ops_per_s"],
                "latency_p50_ms": result["latency_p50_ms"],
                "latency_p90_ms": result["latency_p90_ms"],
                "slo_frac": result["slo_frac"],
                "ok_frac": 1.0 - result["failed"] / result["attempted"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = with_units(values, "end_to_end")
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [p for s in samples for p in s["problems"]]
    for sample in samples:
        print(
            f"# {args.workload} seed={args.seed}: {sample['completed']}/{sample['attempted']} ops "
            f"completed, {sample['checked']} checked (worst error {sample['worst_error']:.2f} contract units, limit 16), "
            f"fail_frac={sample['failed'] / sample['attempted']:.4f}, "
            f"generator lag p90={sample['lag_p90_ms']:.2f} ms"
        )
    for problem in problems:
        print(f"# problem: {problem}")
    line = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
