"""The generator's codebook-statistics memo, and the slack memo beside it.

A generator computes each tensor's hotness profile and each bank-
conflict degree once, however many shapes and candidates it costs, and
each operation's resource slack once.  These tests pin that the memos
change no counter, that each distinct key is evaluated exactly once per
engine, and that nothing they hold outlives the engine.
"""

import gc
import hashlib
import weakref
from collections import Counter
from dataclasses import fields

import pytest

from repro.bench.serving import make_cost_model
from repro.bench.workloads import attention_sample, weight_sample
from repro.core import codegen
from repro.core.codegen import VQLLMCodeGenerator
from repro.core.engine import ComputeEngine
from repro.core.heuristics import LEVELS
from repro.gpu.banks import BankConflictModel
from repro.gpu.costmodel import CostModel
from repro.gpu.counters import PerfCounters
from repro.gpu.spec import RTX4090
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape
from repro.kernels.vq_fused import CodebookStats, VQAttentionKernel
from repro.llm.config import llama_7b
from repro.serve.costs import BATCH_BUCKETS
from repro.vq.quantizer import QuantizedTensor

GEMV = GemmShape(m=1, n=4096, k=4096)
GEMM = GemmShape(m=512, n=4096, k=4096)
ATTN = AttentionShape(batch=1, heads=32, seq_len=1024, head_dim=128)
#: Shapes a warm generator costs before the shape under test.
OTHER_SHAPES = {
    "gemv": (GemmShape(m=16, n=11008, k=4096), GemmShape(m=64, n=4096,
                                                         k=11008)),
    "gemm": (GemmShape(m=128, n=12288, k=4096),),
    "attention": (AttentionShape(batch=8, heads=32, seq_len=512,
                                 head_dim=128),
                  AttentionShape(batch=32, heads=32, seq_len=2048,
                                 head_dim=128)),
}
#: Sequence buckets of the decode sweeps below.
SEQ_BUCKETS = (512, 1024, 2048, 4096)
#: Every (sample tensor, cache split) conflict-degree key one pass of
#: the ``sweep-cold`` host benchmark evaluates (frequency-reordered, on
#: RTX 4090), with its exact degree as the word-by-word count gave it:
#: (algorithm, tensor, n_reg, n_shared, degree).
SWEEP_COLD_DEGREES = (
    ("cq-4", "K", 1, 256, 3.115234375),
    ("cq-4", "V", 1, 256, 3.1435546875),
    ("cq-2", "K", 1, 256, 4.30859375),
    ("cq-2", "V", 1, 256, 4.3310546875),
    ("quip#-4", "W", 6, 256, 2.7233400402414487),
    ("gptvq-2", "W", 5, 10, 1.0),
    ("gptvq-2", "W", 5, 21, 1.0),
    ("gptvq-2", "W", 5, 130, 2.4458661417322833),
    ("gptvq-2", "W", 5, 256, 2.9714566929133857),
)


def _generate(gen, op, shape, level, qt_w, qt_kv):
    if op == "attention":
        return gen.generate_attention(shape, qt_kv, qt_kv, level=level)
    fn = gen.generate_gemm if op == "gemm" else gen.generate_gemv
    return fn(shape, qt_w, level=level)


def _assert_fields_equal(a: PerfCounters, b: PerfCounters) -> None:
    for f in fields(PerfCounters):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.fixture(scope="module")
def warm(qt_gptvq, qt_cq4_kv):
    """A generator that has costed every op at other shapes and levels."""
    gen = VQLLMCodeGenerator(RTX4090)
    for op, shapes in OTHER_SHAPES.items():
        for shape in shapes:
            for level in LEVELS:
                _generate(gen, op, shape, level, qt_gptvq, qt_cq4_kv)
    return gen


class TestCountersUnchanged:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("op,shape", [("gemv", GEMV), ("gemm", GEMM),
                                          ("attention", ATTN)])
    def test_warm_generator_matches_fresh(self, warm, op, shape, level,
                                          qt_gptvq, qt_cq4_kv):
        before = warm.stats.degree_evaluations
        got = _generate(warm, op, shape, level, qt_gptvq, qt_cq4_kv)
        assert warm.stats.degree_evaluations == before  # all hits
        fresh = _generate(VQLLMCodeGenerator(RTX4090), op, shape, level,
                          qt_gptvq, qt_cq4_kv)
        assert got.template.knobs == fresh.template.knobs
        _assert_fields_equal(got.counters(), fresh.counters())
        assert got.latency_us() == fresh.latency_us()

    @pytest.mark.parametrize("level", LEVELS)
    def test_standalone_kernel_matches_generated(self, warm, level,
                                                 qt_cq4_kv):
        """A kernel built outside the generator uses a private memo and
        reports the counters the generator selected it with."""
        got = warm.generate_attention(ATTN, qt_cq4_kv, qt_cq4_kv,
                                      level=level)
        alone = VQAttentionKernel(ATTN, qt_cq4_kv, qt_cq4_kv,
                                  got.template.knobs)
        assert alone.stats is not warm.stats
        counters = CostModel(RTX4090).resolve_occupancy(
            alone.counters(RTX4090))
        _assert_fields_equal(counters, got.counters())


def _count_degree_calls(monkeypatch) -> Counter:
    """Count ``average_degree`` calls by the content of their inputs."""
    calls: Counter = Counter()
    original = BankConflictModel.average_degree

    def counted(self, stream, register_resident=0, shared_resident=None,
                **kwargs):
        spec = self.spec
        key = (hashlib.sha256(stream.tobytes()).hexdigest(),
               register_resident, shared_resident, self.entry_bytes,
               spec.warp_size, spec.smem_banks, spec.smem_bank_bytes)
        calls[key] += 1
        return original(self, stream, register_resident, shared_resident,
                        **kwargs)

    monkeypatch.setattr(BankConflictModel, "average_degree", counted)
    return calls


def _decode_sweep(engine: ComputeEngine) -> None:
    cost = make_cost_model(engine, llama_7b(), "kv-cq-4")
    for batch in BATCH_BUCKETS:
        for seq in SEQ_BUCKETS:
            cost.decode_step_us(batch, seq)


class TestDegreeEvaluations:
    def test_each_key_evaluated_once_per_engine(self, monkeypatch):
        calls = _count_degree_calls(monkeypatch)
        first = ComputeEngine(RTX4090)
        _decode_sweep(first)
        # K and V caches under the one O4 cache split: two keys, each
        # evaluated once across 12 batch x 4 sequence buckets.
        assert len(calls) == 2
        assert set(calls.values()) == {1}
        assert first.generator.stats.degree_evaluations == 2

        calls.clear()
        second = ComputeEngine(RTX4090)
        assert second.generator.stats.degree_evaluations == 0
        _decode_sweep(second)
        assert len(calls) == 2
        assert set(calls.values()) == {1}
        assert second.generator.stats.degree_evaluations == 2


class TestSlackSearches:
    def test_once_per_operation_and_engine(self, monkeypatch, qt_gptvq,
                                           qt_cq4_kv):
        searches = []
        original = codegen.find_slack

        def counted(spec, *base):
            searches.append(base)
            return original(spec, *base)

        monkeypatch.setattr(codegen, "find_slack", counted)
        engine = ComputeEngine(RTX4090)
        for level in LEVELS:
            for op, shape in (("gemv", GEMV), ("gemm", GEMM),
                              ("attention", ATTN)):
                _generate(engine.generator, op, shape, level, qt_gptvq,
                          qt_cq4_kv)
        assert len(searches) == 3  # one per operation, not per kernel
        _generate(ComputeEngine(RTX4090).generator, "gemv", GEMV, "O4",
                  qt_gptvq, qt_cq4_kv)
        assert len(searches) == 4  # a fresh engine searches again


class TestSweepColdDegrees:
    @pytest.mark.parametrize("algo,tensor,n_reg,n_shared,degree",
                             SWEEP_COLD_DEGREES)
    def test_degree_is_exact(self, algo, tensor, n_reg, n_shared, degree):
        if tensor == "W":
            qt = weight_sample(algo)
        else:
            qt = attention_sample(algo)["KV".index(tensor)]
        got = CodebookStats().conflict_degree(
            RTX4090, qt.config.entry_bytes, qt, True, n_reg, n_shared)
        assert got == degree


class TestLifetime:
    def test_engine_pins_tensors_only_while_alive(self, qt_gptvq):
        qt = QuantizedTensor(qt_gptvq.config, qt_gptvq.shape,
                             qt_gptvq.codes, qt_gptvq.codebooks)
        ref = weakref.ref(qt)
        engine = ComputeEngine(RTX4090)
        engine.batch_latency_us("gemv", GEMV, qt=qt)
        del qt
        gc.collect()
        assert ref() is not None  # pinned by the engine's memos
        del engine
        gc.collect()
        assert ref() is None  # nothing outlives the engine

    def test_profile_is_computed_once_per_tensor(self, qt_gptvq):
        stats = CodebookStats()
        assert stats.profile(qt_gptvq) is stats.profile(qt_gptvq)
