"""Code-generator tests: templates, emitted source, generated kernels."""

import numpy as np
import pytest

from repro.core.codegen import VQLLMCodeGenerator
from repro.core.emitter import emit_cuda
from repro.core.heuristics import LEVELS, PlanKnobs
from repro.core.slack import find_slack
from repro.core.template import BASE_RESOURCES, build_template
from repro.gpu.spec import PRESETS, RTX4090
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape
from repro.vq.algorithms import make_config

GEMV = GemmShape(m=1, n=2048, k=2048)
GEMM = GemmShape(m=512, n=2048, k=2048)
ATTN = AttentionShape(batch=1, heads=8, seq_len=512, head_dim=128)


@pytest.fixture(scope="module")
def gen():
    return VQLLMCodeGenerator(RTX4090)


class TestTemplates:
    def test_template_describe(self):
        knobs = PlanKnobs(label="GC", placement="global")
        t = build_template("gemv", make_config("gptvq-2"), knobs)
        desc = t.describe()
        assert desc["algorithm"] == "GPTVQ-2"
        assert desc["vq"] == "VQ<4,8,1>"
        assert desc["dataflow"] == "naive"

    def test_register_fusion_builds_thread_mapping(self):
        knobs = PlanKnobs(label="O4", placement="global",
                          dataflow=True, register_fusion=True)
        t = build_template("gemm", make_config("quip#-4"), knobs)
        assert t.fusion.uses_register_fusion
        assert t.mapping is not None
        assert t.mapping.mini_warp_size == 4

    def test_unknown_operation_rejected(self):
        knobs = PlanKnobs(label="GC", placement="global")
        with pytest.raises(ValueError):
            build_template("conv", make_config("cq-2"), knobs)


class TestEmitter:
    def _source(self, level, algo="gptvq-2", op="gemv", gen=None):
        gen = gen or VQLLMCodeGenerator(RTX4090)
        return None

    def test_gc_emits_global_lookup(self):
        knobs = PlanKnobs(label="GC", placement="global")
        src = emit_cuda(build_template("gemv", make_config("gptvq-2"),
                                       knobs))
        assert "ld_global(codebook_g + idx)" in src

    def test_sc_emits_shared_lookup(self):
        knobs = PlanKnobs(label="SC", placement="shared_all")
        src = emit_cuda(build_template("gemv", make_config("gptvq-2"),
                                       knobs))
        assert "codebook_s[idx]" in src

    def test_hierarchical_emits_two_comparisons(self, gen, qt_gptvq):
        k = gen.generate_gemv(GEMV, qt_gptvq, level="O2")
        b = k.template.boundaries
        assert f"if (idx < {b.n_reg})" in k.source
        assert f"else if (idx < {b.n_shared})" in k.source

    def test_register_fusion_emits_shuffles(self, gen, qt_gptvq):
        k = gen.generate_gemv(GEMV, qt_gptvq, level="O4")
        if k.template.fusion.uses_register_fusion:
            assert "__shfl_xor_sync" in k.source
            assert k.source.count("__shfl_xor_sync") \
                == k.template.fusion.n_shuffles

    def test_dataflow_emits_global_reduction(self, gen, qt_cq2_kv,
                                             qt_cq4_kv):
        k = gen.generate_attention(ATTN, qt_cq2_kv, qt_cq2_kv, level="O3")
        assert "atomic_reduce" in k.source

    def test_kernel_name_embeds_algorithm(self, gen, qt_gptvq):
        k = gen.generate_gemv(GEMV, qt_gptvq, level="O4")
        assert "gptvq_2" in k.source


class TestGeneratedKernels:
    def test_all_levels_generate_for_all_ops(self, gen, qt_gptvq,
                                             qt_cq2_kv):
        for level in ("GC", "SC", "O1", "O2", "O3", "O4"):
            assert gen.generate_gemv(GEMV, qt_gptvq,
                                     level=level).latency_us() > 0
            assert gen.generate_gemm(GEMM, qt_gptvq,
                                     level=level).latency_us() > 0
            assert gen.generate_attention(
                ATTN, qt_cq2_kv, qt_cq2_kv, level=level).latency_us() > 0

    def test_o4_beats_gc_for_large_codebooks(self, gen, qt_gptvq):
        gc = gen.generate_gemv(GEMV, qt_gptvq, level="GC").latency_us()
        o4 = gen.generate_gemv(GEMV, qt_gptvq, level="O4").latency_us()
        assert o4 < gc

    def test_attention_o3_beats_all_naive_levels(self, gen, qt_cq2_kv):
        latencies = {
            lv: gen.generate_attention(ATTN, qt_cq2_kv, qt_cq2_kv,
                                       level=lv).latency_us()
            for lv in ("GC", "SC", "O1", "O3")
        }
        assert latencies["O3"] < min(latencies["GC"], latencies["SC"],
                                     latencies["O1"])

    def test_numeric_execution_gemv(self, gen, qt_gptvq, weight):
        # The quantized weight is laid out (N, K): rows are output
        # channels, columns the reduction axis.
        n, k_dim = weight.shape
        a = np.random.default_rng(0).standard_normal((1, k_dim))
        k = gen.generate_gemv(GemmShape(1, n, k_dim), qt_gptvq,
                              level="O4", a=a)
        out = k.execute()
        expected = a @ qt_gptvq.dequantize().T
        assert np.allclose(out, expected)

    def test_describe_includes_boundaries(self, gen, qt_gptvq):
        k = gen.generate_gemv(GEMV, qt_gptvq, level="O2")
        desc = k.describe()
        assert "n_reg" in desc and "n_shared" in desc

    def test_sweep_levels(self, gen, qt_gptvq):
        kernels = gen.sweep_levels(gen.generate_gemv, GEMV, qt_gptvq)
        assert set(kernels) == {"GC", "SC", "O1", "O2", "O3", "O4"}

    def test_adaptive_placement_never_worse_than_slack_only(
            self, gen, qt_aqlm):
        # The O1 candidate search picks min(partial, full): it must not
        # exceed the SC (full, forced) latency by more than noise.
        sc = gen.generate_gemv(GEMV, qt_aqlm, level="SC").latency_us()
        o1 = gen.generate_gemv(GEMV, qt_aqlm, level="O1").latency_us()
        assert o1 <= sc * 1.05


class TestOnDemandTemplates:
    """The template and source are built on first access; they must
    equal what an eager build from the selected knobs gives."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("op", ["gemm", "gemv", "attention"])
    def test_lazy_template_and_source_equal_eager(self, gen, op, level,
                                                  qt_gptvq, qt_cq4_kv):
        if op == "attention":
            k = gen.generate_attention(ATTN, qt_cq4_kv, qt_cq4_kv,
                                       level=level)
        else:
            generate = gen.generate_gemm if op == "gemm" else \
                gen.generate_gemv
            k = generate(GEMM if op == "gemm" else GEMV, qt_gptvq,
                         level=level)
        eager = build_template(op, k.config, k.knobs)
        assert k.template.describe() == eager.describe()
        assert k.source == emit_cuda(eager)
        assert k.template.slack == gen.slack(op)
        assert k.name == (f"{k.kernel.name}-{k.template.config.name}-"
                          f"{k.template.knobs.label}")

    @pytest.mark.parametrize("gpu", sorted(PRESETS))
    @pytest.mark.parametrize("op", sorted(BASE_RESOURCES))
    def test_generator_slack_is_find_slack(self, gpu, op):
        spec = PRESETS[gpu]
        base = BASE_RESOURCES[op]
        gen = VQLLMCodeGenerator(spec)
        assert gen.slack(op) == find_slack(spec, base["threads"],
                                           base["regs"], base["smem"])
        assert gen.slack(op) is gen.slack(op)
