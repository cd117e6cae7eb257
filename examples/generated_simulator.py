#!/usr/bin/env python3
"""The simulator *generator*: emit and run standalone Python loop nests.

TeAAL is not just an interpreter — it generates executable simulators
(paper section 4.3 lowers the IR to an embedded Python DSL), and the
generated-Python backend is the default execution engine.  This example:

1. prints the actual Python source generated for an occupancy-follower
   SpMSpM mapping (Gamma-style leader/follower partitioning — virtual
   levels and runtime windows compile like everything else);
2. executes the generated flat kernel — it walks the inputs' flat arena
   buffers span by span — and checks it against the interpreting
   executor and numpy;
3. shows backend selection (``evaluate(..., backend=...)``) and the
   batched ``evaluate_many`` API, which compiles a spec once and fans it
   out across a sweep of workloads through the compile cache.

Run:  python examples/generated_simulator.py
"""

import time

import numpy as np

from repro.einsum import ARITHMETIC
from repro.fibertree import prepare_arena, tensor_from_dense, tensor_to_dense
from repro.ir import build_ir
from repro.ir.codegen import compile_ir
from repro.model import evaluate, evaluate_many, execute_cascade
from repro.spec import load_spec

SPEC = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.8)]
  loop-order:
    Z: [K1, M, N, K0]
"""


def main():
    spec = load_spec(SPEC, name="generated-demo")
    ir = build_ir(spec, "Z")
    kernel, source = compile_ir(ir, "flat")

    print("=" * 70)
    print("Generated simulator source (occupancy follower: B adopts A's")
    print("partition windows at runtime — note rt.window_span):")
    print("=" * 70)
    # Show the kernel function itself (skip the shared prelude).
    print(source[source.index("def kernel") :])

    rng = np.random.default_rng(42)
    a = (rng.random((24, 16)) < 0.3) * rng.integers(1, 9, (24, 16))
    b = (rng.random((24, 12)) < 0.3) * rng.integers(1, 9, (24, 12))
    tensors = {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }

    arenas = {
        plan.tensor: prepare_arena(
            tensors[plan.tensor],
            spec.mapping.rank_order_of(
                plan.tensor, spec.einsum.ranks_of(plan.tensor)
            ),
            plan.prep,
        )
        for plan in ir.accesses
    }
    shapes = {"K": 24, "M": 16, "N": 12}
    generated = kernel(arenas, ARITHMETIC, shapes)

    interpreted = execute_cascade(spec, tensors)["Z"]
    expected = a.astype(float).T @ b.astype(float)

    assert generated.points() == interpreted.points()
    np.testing.assert_allclose(
        tensor_to_dense(generated, shape=[16, 12]), expected
    )
    print("=" * 70)
    print(f"generated simulator == interpreter == numpy "
          f"(Z nnz={generated.nnz})")

    # ------------------------------------------------------------------
    # Backend selection: the full evaluation (traffic/time/energy) runs
    # through generated kernels by default; name a backend explicitly to
    # compare engines.
    # ------------------------------------------------------------------
    compiled = evaluate(spec, dict(tensors))  # default: compiled
    reference = evaluate(spec, dict(tensors), backend="interpreter")
    assert compiled.traffic_bytes() == reference.traffic_bytes()
    assert compiled.exec_seconds == reference.exec_seconds
    print(f"evaluate(backend='compiled') == evaluate(backend='interpreter')"
          f": {compiled.traffic_bytes():.0f} DRAM bytes both ways")

    # ------------------------------------------------------------------
    # Batched evaluation: compile once, sweep many workloads.
    # ------------------------------------------------------------------
    workloads = []
    for i in range(8):
        r = np.random.default_rng(100 + i)
        wa = (r.random((24, 16)) < 0.3) * r.integers(1, 9, (24, 16))
        wb = (r.random((24, 12)) < 0.3) * r.integers(1, 9, (24, 12))
        workloads.append({
            "A": tensor_from_dense("A", ["K", "M"], wa.astype(float)),
            "B": tensor_from_dense("B", ["K", "N"], wb.astype(float)),
        })
    t0 = time.perf_counter()
    results = evaluate_many(spec, workloads)
    dt = time.perf_counter() - t0
    traffic = [f"{r.traffic_bytes():.0f}" for r in results]
    print(f"evaluate_many: {len(results)} workloads in {dt:.2f}s "
          f"(one compile, cached kernels)")
    print("per-workload DRAM bytes:", ", ".join(traffic))


if __name__ == "__main__":
    main()
