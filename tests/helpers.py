"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by name:
importing from ``conftest`` breaks as soon as another rootdir directory (the
benchmark harness) also ships a ``conftest.py``, because the flat module
namespace can only hold one module called ``conftest``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix


def random_csr(
    n_rows: int,
    n_cols: int,
    density: float,
    seed: int = 0,
    ensure_nonempty: bool = True,
) -> CSRMatrix:
    """Random CSR matrix helper used across test modules."""
    matrix = sp.random(n_rows, n_cols, density=density, format="csr", random_state=seed)
    matrix.data = np.abs(matrix.data) + 0.1  # keep values away from zero
    csr = CSRMatrix.from_scipy(matrix)
    if ensure_nonempty and csr.nnz == 0:
        dense = np.zeros((n_rows, n_cols), dtype=np.float32)
        dense[0, 0] = 1.0
        csr = CSRMatrix.from_dense(dense)
    return csr


# ---------------------------------------------------------------------------
# Numerics contract against an fp64 oracle
# ---------------------------------------------------------------------------
#: Unit roundoff ``u`` and underflow spacing ``eta`` of the kernel input
#: precisions (the definitions the repository benchmark's oracle check uses).
#: Both keep 10 explicit mantissa bits; FP16 subnormals are 2**-24 apart,
#: TF32 keeps the FP32 exponent range.
UNIT_ROUNDOFF = {"fp16": 2.0**-11, "tf32": 2.0**-11}
UNDERFLOW = {"fp16": 2.0**-24, "tf32": 2.0**-136}
#: The constant ``C``: rounding the two kernel inputs costs ``2u``; the fused
#: layer's logits carry ``2u``, which the softmax doubles, and rounding the
#: attention matrix and ``x`` adds ``2u`` (``6u`` in all).  16 leaves
#: headroom and still flags a 1% error (about ``20u``).
ERROR_BOUND = 16.0


def _pattern(csr: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    rows = np.repeat(np.arange(csr.n_rows), np.diff(csr.indptr))
    return rows, np.asarray(csr.indices, dtype=np.int64)


def _scipy64(csr: CSRMatrix, data=None) -> sp.csr_matrix:
    values = csr.data if data is None else data
    return sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), csr.indices, csr.indptr), shape=csr.shape
    )


def assert_numerics_contract(op: str, precision: str, got, csr: CSRMatrix, *operands, scale=None):
    """Assert ``|got - oracle| <= C·(u·magnitude + eta·reach)`` elementwise.

    The oracle is the fp64 scipy result of ``op`` on the unquantised inputs;
    ``magnitude`` is the same op on absolute values (``|A||B|``) and
    ``reach`` the sum of the absolute coefficients each output combines
    (what an input rounded by up to ``eta`` near zero can move it by).

    * ``op="spmm"``: operands ``(b,)``; ``got`` is the dense ``(n_rows, N)``
      result.
    * ``op="sddmm"``: operands ``(a, b)``; ``got`` is the SDDMM output
      format (any :class:`~repro.formats.blocked.BlockedVectorFormat`), or
      its values in CSR entry order.
    * ``op="layer"``: operands ``(a, b, x)`` and ``scale``; ``got`` is the
      dense ``softmax_row(scale · <a_i, b_j>) @ x`` result.
    """
    rows, cols = _pattern(csr)
    if op == "spmm":
        (b,) = operands
        a64 = abs(_scipy64(csr))
        b64 = np.asarray(b, dtype=np.float64)
        ref = _scipy64(csr) @ b64
        magnitude = a64 @ np.abs(b64)
        reach = a64 @ np.ones_like(b64) + (a64 != 0) @ np.abs(b64)
    elif op == "sddmm":
        a64, b64 = (np.asarray(m, dtype=np.float64) for m in operands)
        if isinstance(got, BlockedVectorFormat):
            vectors = got.partition.nnz_vector_of_entry
            got = np.asarray(got.vector_values)[vectors, rows % got.vector_size]
        ref = np.einsum("ij,ij->i", a64[rows], b64[cols])
        magnitude = np.einsum("ij,ij->i", np.abs(a64[rows]), np.abs(b64[cols]))
        reach = np.abs(a64).sum(axis=1)[rows] + np.abs(b64).sum(axis=1)[cols]
    elif op == "layer":
        a64, b64, x64 = (np.asarray(m, dtype=np.float64) for m in operands)
        logits = (1.0 if scale is None else scale) * np.einsum("ij,ij->i", a64[rows], b64[cols])
        row_max = np.full(csr.n_rows, -np.inf)
        np.maximum.at(row_max, rows, logits)
        weights = np.exp(logits - row_max[rows])
        probs = weights / np.bincount(rows, weights=weights, minlength=csr.n_rows)[rows]
        p64 = _scipy64(csr, probs)
        ref = p64 @ x64
        magnitude = p64 @ np.abs(x64)
        reach = p64 @ np.ones_like(x64)
    else:
        raise ValueError(f"unknown op {op!r}")
    got = np.asarray(got, dtype=np.float64)
    assert got.shape == ref.shape, (got.shape, ref.shape)
    assert np.all(np.isfinite(got))
    bound = ERROR_BOUND * (UNIT_ROUNDOFF[precision] * magnitude + UNDERFLOW[precision] * reach)
    err = np.abs(got - ref)
    worst = float(np.max(err - bound, initial=-np.inf))
    assert np.all(err <= bound), f"{op}/{precision} exceeds the numerics contract by {worst:.3g}"
