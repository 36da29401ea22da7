"""Seeded inputs, op definitions and the fp64 oracle for each workload.

Every input is generated here from the ``--seed`` argument; the program
under test only ever sees the generated matrices and operands.  Offered
rates, mixes, sizes and latency limits are absolute constants, written
here and never calibrated from the code under test, so a parent commit and
a change see the same load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Unit roundoff ``u`` and underflow spacing ``eta`` of the kernel input
#: precisions.  Both keep 10 explicit mantissa bits; FP16 subnormals are
#: 2**-24 apart, TF32 keeps the FP32 exponent range.
UNIT_ROUNDOFF = {"fp16": 2.0**-11, "tf32": 2.0**-11}
UNDERFLOW = {"fp16": 2.0**-24, "tf32": 2.0**-136}
#: The numerics contract, elementwise against an fp64 oracle:
#: ``|served - oracle| <= ERROR_BOUND * (u * magnitude + eta * reach)``.
#: ``magnitude`` is the oracle of the same op on absolute values; ``reach``
#: is the sum of the absolute coefficients each output element combines
#: (what an input rounded by up to ``eta`` near zero can move it by).
#: Rounding the two kernel inputs costs ``2u``; the fused layer's logits
#: carry ``2u``, which the softmax doubles, and rounding the attention
#: matrix and ``x`` adds ``2u``: ``6u`` in all.  16 leaves headroom and
#: still flags a 1% error (about ``20u``).
ERROR_BOUND = 16.0
PRECISION = "fp16"

# --------------------------------------------------------------- kernel
#: ROADMAP baseline matrix: uniform 8192 x 8192, density 0.002 (~134k nnz).
KERNEL_N = 8192
KERNEL_DENSITY = 0.002
KERNEL_K = 32
KERNEL_WIDTH = 64
#: Distinct operand sets the closed loop cycles through.
KERNEL_OPERAND_SETS = 4
KERNEL_SLO_MS = 400.0

# ------------------------------------------------------------ serve-hot
HOT_GRAPHS = 4
HOT_NODES = 3000
HOT_ROW_LENGTH = 16
HOT_SPMM_WIDTH = 16
HOT_SDDMM_K = 32
HOT_LAYER_K = 32
HOT_LAYER_WIDTH = 32
#: Request mix.  SpMM is the fastest kind, SDDMM next, the fused layer the
#: slowest, so p50 falls at 5/7 of the SpMM latency mode and p90 in the
#: middle of the layer mode, away from the edges between modes.
HOT_MIX = {"spmm": 0.7, "sddmm": 0.1, "layer": 0.2}
HOT_OPERAND_SETS = 2
HOT_RATE = 12.0
HOT_SLO_MS = 150.0

# ---------------------------------------------------------- serve-fresh
FRESH_GRAPH_NODES = 20000
FRESH_ROW_LENGTH = 24
FRESH_SAMPLE_NODES = 768
FRESH_FEATURES = 32
FRESH_RATE = 5.0
#: Shortest gap between two steps, about twice a step's latency: steps
#: rarely overlap, so the latencies measure the cold path (hashing,
#: translation, pushes) rather than queueing behind the previous step,
#: which ``serve-hot`` covers.  A step slower than the gap still queues.
FRESH_MIN_GAP_S = 0.08
FRESH_SLO_MS = 400.0
FRESH_HOSTS = 2

#: Ops whose outputs are kept and checked against the oracle: a seeded
#: sample of this many, plus the first op of every kind (and, on
#: ``kernel``, of every operand set).  A fixed count keeps the memory the
#: kept outputs take the same on every seed.
CHECK_COUNT = 24
#: The closed loop's op count is not known in advance; its sample is drawn
#: from the ops it always reaches, and its outputs are large, so it keeps
#: fewer.
KERNEL_CHECK_COUNT = 8
KERNEL_CHECK_SPAN = 100
SLO_MS = {"kernel": KERNEL_SLO_MS, "serve-hot": HOT_SLO_MS, "serve-fresh": FRESH_SLO_MS}
WORKLOADS = ("kernel", "serve-hot", "serve-fresh")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), sum(ord(c) << (8 * i) for i, c in enumerate(stream))])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return (x / np.where(norms == 0, 1.0, norms)).astype(np.float32)


def open_loop_schedule(
    rate: float, seconds: float, rng: np.random.Generator, min_gap: float = 0.0
) -> np.ndarray:
    """Poisson-like send times: exactly ``rate * seconds`` arrivals ending at
    ``seconds``.

    The gaps are ``min_gap`` plus the exponential distribution's quantiles at
    ``(k + 0.5) / n``, in a seeded order, so every seed offers the same rate
    and the same set of gaps (as many near-simultaneous arrivals), and only
    their order varies.  Independent exponential draws would move the count
    of close arrivals, and the queueing they cause, by about 20% between
    seeds.
    """
    n = max(1, int(round(rate * seconds)))
    gaps = min_gap + (1.0 / rate - min_gap) * -np.log1p(-(np.arange(n) + 0.5) / n)
    times = np.cumsum(rng.permutation(gaps))
    return times * (seconds / times[-1])


def seeded_mix(shares: dict, n: int, rng: np.random.Generator) -> list:
    """``n`` labels in exactly the given shares, in a seeded order."""
    labels = list(shares)
    counts = [int(round(shares[k] * n)) for k in labels]
    counts[0] += n - sum(counts)
    return list(rng.permutation(np.repeat(labels, counts)))


# ------------------------------------------------------------- inputs
@dataclass
class Op:
    """One unit of offered work: a single kernel pair, request or step."""

    kind: str
    matrix: object
    operands: dict
    check: bool = False


@dataclass
class Inputs:
    matrices: list
    ops: list = field(default_factory=list)
    warmup: list = field(default_factory=list)
    schedule: np.ndarray | None = None


def kernel_matrix(seed: int):
    from repro.datasets.generators import erdos_renyi_matrix

    return erdos_renyi_matrix(
        KERNEL_N, avg_row_length=KERNEL_N * KERNEL_DENSITY, seed=rng_for(seed, "kernel-matrix")
    )


def power_law_graph(n: int, avg_row_length: float, rng: np.random.Generator, exponent: float = 2.1):
    """Scale-free graph whose size does not depend on the seed.

    Row degrees and column popularity follow one fixed Zipf profile
    (``rank ** (-1 / (exponent - 1))``, degrees capped at ``n / 4``); the
    seed only permutes which node gets which degree and draws the edges.
    ``repro.datasets.generators.power_law_matrix`` normalises heavy-tailed
    random draws instead, so its nonzero count moves several-fold between
    seeds, and every latency with it.
    """
    from repro.formats.csr import CSRMatrix

    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    degrees = np.clip(np.round(weights / weights.mean() * avg_row_length), 1, n // 4)
    degrees = degrees.astype(np.int64)[rng.permutation(n)]
    popularity = weights[rng.permutation(n)]
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = rng.choice(n, size=rows.size, p=popularity / popularity.sum())
    keys = np.unique(rows * n + cols)
    values = rng.uniform(0.1, 1.0, size=keys.size).astype(np.float32)
    return CSRMatrix.from_coo(keys // n, keys % n, values, (n, n))


def hot_graphs(seed: int, count: int = HOT_GRAPHS) -> list:
    return [
        power_law_graph(HOT_NODES, HOT_ROW_LENGTH, rng_for(seed, f"hot-graph-{i}"))
        for i in range(count)
    ]


def fresh_subgraphs(seed: int, count: int) -> list:
    """``count`` induced subgraphs of one power-law graph.

    Each step samples ``FRESH_SAMPLE_NODES`` nodes without replacement with
    probability proportional to degree (in + out), which keeps every
    subgraph near 16 nonzeros per row, and takes the induced submatrix.
    """
    from repro.formats.csr import CSRMatrix

    graph = power_law_graph(
        FRESH_GRAPH_NODES, FRESH_ROW_LENGTH, rng_for(seed, "fresh-graph")
    ).to_scipy()
    degree = np.diff(graph.indptr) + np.bincount(graph.indices, minlength=FRESH_GRAPH_NODES)
    prob = degree / degree.sum()
    rng = rng_for(seed, "fresh-sample")
    subgraphs = []
    for _ in range(count):
        nodes = np.sort(rng.choice(FRESH_GRAPH_NODES, FRESH_SAMPLE_NODES, replace=False, p=prob))
        subgraphs.append(CSRMatrix.from_scipy(graph[nodes][:, nodes].tocsr()))
    return subgraphs


def check_mask(count: int, seed: int, keep: int = CHECK_COUNT) -> np.ndarray:
    """Seeded sample of ``keep`` op indices out of ``count``."""
    mask = np.zeros(count, dtype=bool)
    mask[rng_for(seed, "check-sample").choice(count, min(count, keep), replace=False)] = True
    return mask


def build_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """Every matrix, operand and send time of one run."""
    if workload == "kernel":
        matrix = kernel_matrix(seed)
        rng = rng_for(seed, "kernel-operands")
        sets = []
        for _ in range(KERNEL_OPERAND_SETS):
            a = rng.standard_normal((KERNEL_N, KERNEL_K)).astype(np.float32)
            b = rng.standard_normal((KERNEL_N, KERNEL_K)).astype(np.float32)
            x = rng.standard_normal((KERNEL_N, KERNEL_WIDTH)).astype(np.float32)
            sets.append({"a": a, "b": b, "x": x})
        # Closed loop: the op count is open-ended, so ops cycle the sets.
        ops = [Op("kernel", matrix, sets[i]) for i in range(KERNEL_OPERAND_SETS)]
        return Inputs([matrix], ops=ops, warmup=[ops[0]])

    if workload == "serve-hot":
        graphs = hot_graphs(seed)
        rng = rng_for(seed, "hot-operands")
        pool = {}
        for g, graph in enumerate(graphs):
            n = graph.shape[0]
            for kind in HOT_MIX:
                for s in range(HOT_OPERAND_SETS):
                    if kind == "spmm":
                        ops = {"b": rng.standard_normal((n, HOT_SPMM_WIDTH)).astype(np.float32)}
                    elif kind == "sddmm":
                        ops = {
                            "a": rng.standard_normal((n, HOT_SDDMM_K)).astype(np.float32),
                            "b": rng.standard_normal((n, HOT_SDDMM_K)).astype(np.float32),
                        }
                    else:
                        h = rng.standard_normal((n, HOT_LAYER_K)).astype(np.float32)
                        ops = {
                            "a": _unit_rows(h),
                            "x": rng.standard_normal((n, HOT_LAYER_WIDTH)).astype(np.float32),
                        }
                    pool[(g, kind, s)] = ops
        schedule = open_loop_schedule(HOT_RATE, seconds, rng_for(seed, "hot-schedule"))
        mix_rng = rng_for(seed, "hot-mix")
        kinds = seeded_mix(HOT_MIX, schedule.size, mix_rng)
        graph_picks = mix_rng.integers(0, HOT_GRAPHS, size=schedule.size)
        set_picks = mix_rng.integers(0, HOT_OPERAND_SETS, size=schedule.size)
        check = check_mask(schedule.size, seed)
        seen = set()
        ops = []
        for i in range(schedule.size):
            kind = str(kinds[i])
            key = (int(graph_picks[i]), kind, int(set_picks[i]))
            ops.append(Op(kind, graphs[key[0]], pool[key], check=bool(check[i]) or kind not in seen))
            seen.add(kind)
        warmup = [
            Op(kind, graph, pool[(g, kind, 0)]) for g, graph in enumerate(graphs) for kind in HOT_MIX
        ]
        return Inputs(graphs, ops=ops, warmup=warmup, schedule=schedule)

    if workload == "serve-fresh":
        schedule = open_loop_schedule(
            FRESH_RATE, seconds, rng_for(seed, "fresh-schedule"), min_gap=FRESH_MIN_GAP_S
        )
        # One extra subgraph warms the code paths; it is never timed.
        subgraphs = fresh_subgraphs(seed, schedule.size + 1)
        rng = rng_for(seed, "fresh-features")
        check = check_mask(schedule.size, seed)
        ops = []
        for i, graph in enumerate(subgraphs):
            h = rng.standard_normal((graph.shape[0], FRESH_FEATURES)).astype(np.float32)
            ops.append(Op("step", graph, {"h": h}, check=i == 1 or bool(i and check[i - 1])))
        return Inputs(subgraphs, ops=ops[1:], warmup=ops[:1], schedule=schedule)

    raise ValueError(f"unknown workload {workload!r}")


def layer_operands(h: np.ndarray) -> dict:
    """AGNN layer operands from node features: cosine logits, ``x = h``."""
    unit = _unit_rows(h)
    return {"a": unit, "b": unit, "x": np.ascontiguousarray(h, dtype=np.float32)}


# --------------------------------------------------------------- oracle
def _pattern(csr):
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return rows, np.asarray(csr.indices, dtype=np.int64)


def _scipy64(csr, data=None):
    import scipy.sparse as sp

    values = csr.data if data is None else data
    return sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(csr.indices), np.asarray(csr.indptr)),
        shape=csr.shape,
    )


def _ratio(got: np.ndarray, ref: np.ndarray, magnitude: np.ndarray, reach: np.ndarray) -> float:
    """Largest error as a multiple of ``u * magnitude + eta * reach`` (inf on
    a shape or non-finite mismatch)."""
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    err = np.abs(got.astype(np.float64) - ref)
    scale = UNIT_ROUNDOFF[PRECISION] * magnitude + UNDERFLOW[PRECISION] * reach
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(err == 0, 0.0, err / np.where(scale > 0, scale, 0.0))
    return float(ratio.max(initial=0.0))


def spmm_error(csr, b, got) -> float:
    a64 = abs(_scipy64(csr))
    b64 = np.abs(np.asarray(b, dtype=np.float64))
    reach = a64 @ np.ones_like(b64) + (a64 != 0) @ b64
    return _ratio(np.asarray(got), _scipy64(csr) @ np.asarray(b, dtype=np.float64), a64 @ b64, reach)


def sddmm_values_on_pattern(csr, sddmm_result) -> np.ndarray:
    """Served SDDMM output as one value per stored entry of ``csr``
    (entries the output lacks read as 0)."""
    out = sddmm_result.output.to_csr()
    rows, cols = _pattern(csr)
    keys = rows * csr.shape[1] + cols
    out_rows, out_cols = _pattern(out)
    out_keys = out_rows * csr.shape[1] + out_cols
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], out_keys)
    pos = np.clip(pos, 0, keys.size - 1)
    hit = keys[order][pos] == out_keys
    values = np.zeros(keys.size, dtype=np.float64)
    if not np.all(hit):  # an entry outside the pattern is a wrong result
        values[:] = np.nan
        return values
    values[order[pos]] = out.data
    return values


def sddmm_error(csr, a, b, values) -> float:
    rows, cols = _pattern(csr)
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    ref = np.einsum("ij,ij->i", a64[rows], b64[cols])
    mag = np.einsum("ij,ij->i", np.abs(a64[rows]), np.abs(b64[cols]))
    reach = np.abs(a64).sum(axis=1)[rows] + np.abs(b64).sum(axis=1)[cols]
    return _ratio(values, ref, mag, reach)


def layer_error(csr, a, b, x, got, scale: float = 1.0) -> float:
    """Fused attention layer ``softmax_row(scale * <a_i, b_j>) @ x``."""
    rows, cols = _pattern(csr)
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    logits = scale * np.einsum("ij,ij->i", a64[rows], b64[cols])
    row_max = np.full(csr.shape[0], -np.inf)
    np.maximum.at(row_max, rows, logits)
    weights = np.exp(logits - row_max[rows])
    denom = np.bincount(rows, weights=weights, minlength=csr.shape[0])
    probs = weights / denom[rows]
    p64 = _scipy64(csr, probs)
    x64 = np.asarray(x, dtype=np.float64)
    reach = p64 @ np.ones_like(x64)
    return _ratio(np.asarray(got), p64 @ x64, p64 @ np.abs(x64), reach)


# ------------------------------------------------------ cost-model check
#: Seed of the matrices whose modeled costs are committed in
#: ``cost_model.json`` (independent of ``--seed``, so the committed
#: values hold for every run).
COST_CHECK_SEED = 0
COST_DEVICES = ("h100", "rtx4090")


def cost_check_matrices(workload: str) -> list[tuple[str, object, int, int]]:
    """(label, matrix, spmm width, sddmm K) of each workload's matrices at
    :data:`COST_CHECK_SEED`."""
    seed = COST_CHECK_SEED
    if workload == "kernel":
        return [("baseline", kernel_matrix(seed), KERNEL_WIDTH, KERNEL_K)]
    if workload == "serve-hot":
        return [
            (f"graph{i}", g, HOT_SPMM_WIDTH, HOT_SDDMM_K) for i, g in enumerate(hot_graphs(seed))
        ]
    return [
        (f"subgraph{i}", g, FRESH_FEATURES, FRESH_FEATURES)
        for i, g in enumerate(fresh_subgraphs(seed, 2))
    ]


def modeled_costs(workload: str) -> dict:
    """``CostCounter.as_dict()`` and modeled device times per matrix."""
    from dataclasses import asdict

    from repro.core.api import sddmm_cost, spmm_cost
    from repro.gpu.device import get_device
    from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE
    from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE
    from repro.perfmodel.model import estimate_time

    out = {}
    for label, matrix, width, k in cost_check_matrices(workload):
        spmm = spmm_cost(matrix, width, precision=PRECISION)
        sddmm = sddmm_cost(matrix, k, precision=PRECISION)
        entry = {"spmm": spmm.as_dict(), "sddmm": sddmm.as_dict()}
        for device in COST_DEVICES:
            spec = get_device(device)
            entry[f"spmm_{device}"] = asdict(estimate_time(spmm, spec, FLASH_SPMM_PROFILE))
            entry[f"sddmm_{device}"] = asdict(estimate_time(sddmm, spec, FLASH_SDDMM_PROFILE))
        out[label] = entry
    # Round-trip through JSON so the comparison sees what the file stores.
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    # Record the modeled costs the benchmark checks against:
    #   PYTHONPATH=src python3 perfbench/workloads.py
    from pathlib import Path

    target = Path(__file__).resolve().parent / "cost_model.json"
    values = {workload: modeled_costs(workload) for workload in WORKLOADS}
    target.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
