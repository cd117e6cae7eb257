"""Code-generation backend: generated Python must match the interpreter.

Each mapping runs through the untraced arena-native flat kernel, which
must reproduce the interpreter's output.
"""

import numpy as np

from repro.fibertree import tensor_from_dense, tensor_to_dense
from repro.ir import build_cascade_ir, build_ir
from repro.fibertree.arena import arena_from_tensor
from repro.ir.codegen import compile_ir
from repro.ir.codegen_flat import generate_flat_source
from repro.model import (
    CompileCache,
    CompiledBackend,
    FusedMachines,
    execute_cascade,
)
from repro.model.executor import prepare_tensor
from repro.model.traces import TraceSink
from repro.spec import load_spec


def compile_and_run(spec_text, tensors_dense, shapes=None):
    """Run a single-Einsum spec through the flat kernel and the
    interpreter; return (generated, interpreted, flat source)."""
    spec = load_spec(spec_text)
    name = spec.einsum.cascade.produced[-1]
    ir = build_ir(spec, name)
    flat, source = compile_ir(ir, "flat")

    tensors = {
        t: tensor_from_dense(t, spec.einsum.ranks_of(t), arr)
        for t, arr in tensors_dense.items()
    }
    all_shapes = dict(spec.einsum.shapes)
    for t, arr in tensors_dense.items():
        for rank, extent in zip(spec.einsum.ranks_of(t), arr.shape):
            all_shapes.setdefault(rank, extent)
    if shapes:
        all_shapes.update(shapes)

    prepared = {}
    for plan in ir.accesses:
        order = spec.mapping.rank_order_of(
            plan.tensor, spec.einsum.ranks_of(plan.tensor)
        )
        prepared[plan.tensor] = prepare_tensor(
            tensors[plan.tensor], order, plan.prep
        )
    from repro.einsum import ARITHMETIC

    arenas = {t: arena_from_tensor(p) for t, p in prepared.items()}
    generated = flat(arenas, ARITHMETIC, all_shapes)
    env = execute_cascade(spec, tensors)
    return generated, env[name], source


def random_dense(shape, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density) * rng.integers(
        1, 9, shape
    ).astype(float)


MATMUL = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""


class TestGeneratedMatmul:
    def test_matches_interpreter(self):
        gen, interp, _ = compile_and_run(
            MATMUL,
            {"A": random_dense((10, 8), 0.4, 1),
             "B": random_dense((10, 7), 0.4, 2)},
        )
        assert gen.points() == interp.points()

    def test_source_is_plain_python(self):
        spec = load_spec(MATMUL)
        src = generate_flat_source(build_ir(spec, "Z"))
        assert "def kernel(arenas, opset, shapes):" in src
        assert "_bl(" in src  # the inlined galloping two-way merge
        assert "Tensor.from_points(" in src

    def test_tiled_mapping(self):
        gen, interp, _ = compile_and_run(
            MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_shape(4)]
      M: [uniform_shape(4)]
  loop-order:
    Z: [K1, M1, M0, N, K0]
""",
            {"A": random_dense((12, 9), 0.4, 3),
             "B": random_dense((12, 11), 0.4, 4)},
        )
        assert gen.points() == interp.points()

    def test_occupancy_leader(self):
        gen, interp, _ = compile_and_run(
            MATMUL + """
mapping:
  partitioning:
    Z:
      M: [uniform_occupancy(A.4)]
  loop-order:
    Z: [M1, M0, N, K]
""",
            {"A": random_dense((12, 9), 0.5, 5),
             "B": random_dense((12, 8), 0.5, 6)},
        )
        assert gen.points() == interp.points()

    def test_flattened_mapping(self):
        gen, interp, _ = compile_and_run(
            MATMUL + """
mapping:
  partitioning:
    Z:
      (K, M): [flatten()]
      KM: [uniform_occupancy(A.6)]
  loop-order:
    Z: [KM1, KM0, N]
""",
            {"A": random_dense((10, 10), 0.5, 7),
             "B": random_dense((10, 6), 0.5, 8)},
        )
        assert gen.points() == interp.points()


class TestGeneratedConvolution:
    def test_affine_projection(self):
        gen, interp, _ = compile_and_run(
            """
einsum:
  declaration: {I: [W], F: [S], O: [Q]}
  expressions: ["O[q] = I[q + s] * F[s]"]
  shapes: {Q: 6}
""",
            {"I": random_dense((8,), 0.9, 9), "F": random_dense((3,), 1.0, 10)},
        )
        assert gen.points() == interp.points()


class TestGeneratedTake:
    def test_take_einsum(self):
        gen, interp, _ = compile_and_run(
            """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    T: [K, M, N]
  expressions:
    - T[k, m, n] = take(A[k, m], B[k, n], 1)
""",
            {"A": random_dense((8, 6), 0.5, 11),
             "B": random_dense((8, 5), 0.5, 12)},
        )
        assert gen.points() == interp.points()


class TestGeneratedAdd:
    def test_union_einsum(self):
        gen, interp, _ = compile_and_run(
            """
einsum:
  declaration: {A: [V], B: [V], Z: [V]}
  expressions: ["Z[v] = A[v] + B[v]"]
""",
            {"A": random_dense((12,), 0.5, 13),
             "B": random_dense((12,), 0.5, 14)},
        )
        assert gen.points() == interp.points()


class TestModuleGeneration:
    def test_cascade_runs_generated_kernels(self):
        spec = load_spec("""
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    T: [K, M, N]
    Z: [M, N]
  expressions:
    - T[k, m, n] = A[k, m] * B[k, n]
    - Z[m, n] = T[k, m, n]
""")
        a = random_dense((9, 7), 0.4, 15)
        b = random_dense((9, 6), 0.4, 16)
        tensors = {
            "A": tensor_from_dense("A", ["K", "M"], a),
            "B": tensor_from_dense("B", ["K", "N"], b),
        }
        backend = CompiledBackend(cache=CompileCache())
        untraced = backend.run_cascade(spec, dict(tensors))
        traced = backend.run_cascade(spec, dict(tensors), sink=TraceSink())
        np.testing.assert_allclose(
            tensor_to_dense(untraced["Z"], shape=[7, 6]), a.T @ b
        )
        assert traced["T"].points() == untraced["T"].points()
        assert traced["Z"].points() == untraced["Z"].points()

    def test_followers_compile(self):
        from repro.accelerators import accelerator

        spec = accelerator("gamma")
        ir = build_ir(spec, "T")  # B is an occupancy follower
        src = generate_flat_source(ir)
        # follower adopts the leader's window
        assert "rt.window_span(" in src

    def test_every_registered_spec_compiles(self):
        from repro.accelerators import FACTORIES, accelerator

        for name in FACTORIES:
            spec = accelerator(name)
            for ir in build_cascade_ir(spec):
                generate_flat_source(ir)
                generate_flat_source(ir, priced=True)
                generate_flat_source(ir, ports=True)


class TestGeneratedOccupancyFollower:
    FOLLOWER = MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.4)]
  loop-order:
    Z: [K1, M, N, K0]
"""

    def test_follower_matches_interpreter(self):
        gen, interp, _ = compile_and_run(
            self.FOLLOWER,
            {"A": random_dense((13, 9), 0.5, 21),
             "B": random_dense((13, 8), 0.5, 22)},
        )
        assert gen.points() == interp.points()

    def test_multi_level_follower_split(self):
        gen, interp, _ = compile_and_run(
            MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.8), uniform_occupancy(A.2)]
  loop-order:
    Z: [K2, K1, M, N, K0]
""",
            {"A": random_dense((16, 9), 0.5, 23),
             "B": random_dense((16, 8), 0.5, 24)},
        )
        assert gen.points() == interp.points()

    def test_union_follower_requires_window(self):
        # Additive co-iteration at the split rank: without the leader's
        # runtime window the follower would leak coordinates outside the
        # current chunk into every chunk's union.
        gen, interp, _ = compile_and_run(
            """
einsum:
  declaration: {A: [V], B: [V], Z: [V]}
  expressions: ["Z[v] = A[v] + B[v]"]
mapping:
  partitioning:
    Z:
      V: [uniform_occupancy(A.4)]
  loop-order:
    Z: [V1, V0]
""",
            {"A": random_dense((17,), 0.6, 25),
             "B": random_dense((17,), 0.6, 26)},
        )
        assert gen.points() == interp.points()


class TestGeneratedLiteralIndices:
    def test_fft_style_literal_prefix(self):
        gen, interp, _ = compile_and_run(
            """
einsum:
  declaration:
    P: [Z, K0, N1, W]
    X: [N1, H]
    E: [Z, K0]
  expressions:
    - E[0, k0] = P[0, k0, n1, 0] * X[n1, 0]
""",
            {
                "P": random_dense((1, 4, 2, 2), 0.9, 17),
                "X": random_dense((2, 2), 1.0, 18),
            },
        )
        assert gen.points() == interp.points()


class AllDram(FusedMachines):
    """A routing plan with no machines: a vector kernel run with it
    routes every touch to DRAM, like the counted kernel."""

    def __init__(self):
        super().__init__(None, None)

    @staticmethod
    def port(tensor, rank, kind):
        return None


class TestCancellingSums:
    """Arena kernels reduce into a point buffer and build their output
    once: a sum that cancels to exactly 0.0 leaves no zero leaf, yet its
    add is still counted, and a producer-side swizzle still sorts the
    point the kernel wrote (as the interpreter, which prunes later)."""

    REDUCE = """
einsum:
  declaration:
    A: [M, K]
    Z: [M]
  expressions:
    - Z[m] = A[m, k]
mapping:
  loop-order:
    Z: [M, K]
"""

    SWIZZLED = MATMUL + """
mapping:
  rank-order:
    Z: [M, N]
  loop-order:
    Z: [N, M, K]
"""

    @staticmethod
    def _dense_cancelling():
        # Row 2 sums to 1.5 - 1.5 == 0.0; the other rows do not cancel.
        dense = np.zeros((4, 200))
        dense[0, :3] = [1.0, 2.0, 3.0]
        dense[2, [0, 150]] = [1.5, -1.5]
        dense[3, ::2] = 0.25
        return dense

    def test_zero_sum_leaves_no_leaf_and_counts_its_add(self, monkeypatch):
        import repro.ir.codegen_runtime as rt
        from repro.einsum import ARITHMETIC
        from repro.fibertree import prepare_arena
        from repro.model.traces import CountingSink, KernelCounters

        spec = load_spec(self.REDUCE)
        ir = build_ir(spec, "Z")
        a = tensor_from_dense("A", ["M", "K"], self._dense_cancelling())
        arenas = {"A": prepare_arena(a, ["M", "K"], ir.accesses[0].prep)}
        shapes = {"M": 4, "K": 200}
        sink = CountingSink()
        ref = execute_cascade(spec, {"A": a}, sink=sink)["Z"]
        assert (2,) not in ref.points()
        for vleaf_min in (rt.VLEAF_MIN, 0):  # scalar and batched leaves
            monkeypatch.setattr(rt, "VLEAF_MIN", vleaf_min)
            flat, _ = compile_ir(ir, "flat")
            assert flat(arenas, ARITHMETIC, shapes).points() == ref.points()
            for flavor in ("counted", "vector"):
                kernel, _ = compile_ir(ir, flavor)
                kc = KernelCounters()
                args = (arenas, ARITHMETIC, shapes, kc)
                if flavor == "vector":
                    args += (AllDram(),)
                out = kernel(*args)
                assert out.points() == ref.points()
                assert 0.0 not in out.points().values()
                assert kc.computes["add"][0] == sink.computes[("Z", "add")]
                assert kc.out_points == len(ref.points()) + 1

    def test_producer_swizzle_counts_cancelled_points(self):
        from repro.model.traces import CountingSink

        spec = load_spec(self.SWIZZLED)
        assert build_ir(spec, "Z").output.needs_producer_swizzle
        a = np.array([[1.0, 2.0], [1.0, 0.0]])   # A[k, m]
        b = np.array([[1.0, 3.0], [-1.0, 0.0]])  # B[k, n]: Z[0, 0] == 0
        tensors = {"A": tensor_from_dense("A", ["K", "M"], a),
                   "B": tensor_from_dense("B", ["K", "N"], b)}
        ref_sink = CountingSink()
        ref = execute_cascade(spec, dict(tensors), sink=ref_sink)["Z"]
        assert (0, 0) not in ref.points()
        backend = CompiledBackend(CompileCache())
        for make_machines in (None, lambda name, ir: AllDram()):
            sink = CountingSink()  # counted, then vector kernels
            env = backend.run_cascade_fused(spec, dict(tensors), sink=sink,
                                            make_machines=make_machines)
            assert env["Z"].points() == ref.points()
            assert sink.swizzles == ref_sink.swizzles
            assert sink.swizzles[("Z", "Z", "producer")] == 4
