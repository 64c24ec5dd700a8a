"""Compute-engine and level-sweep tests."""

import pytest

from repro.core.engine import ComputeEngine, LevelSweep
from repro.gpu.spec import RTX4090
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import FP16GemvKernel, GemmShape


class TestLevelSweep:
    SWEEP = LevelSweep("x", {"GC": 100.0, "SC": 80.0, "O1": 60.0,
                             "O2": 55.0, "O3": 40.0, "O4": 42.0})

    def test_best_level(self):
        assert self.SWEEP.best_level == "O3"
        assert self.SWEEP.best_us == 40.0

    def test_reduction_vs_gc(self):
        assert self.SWEEP.reduction_vs("GC") == pytest.approx(0.6)

    def test_reduction_vs_other_baseline(self):
        assert self.SWEEP.reduction_vs("SC") == pytest.approx(0.5)

    def test_single_level_sweep(self):
        sweep = LevelSweep("solo", {"O4": 37.5})
        assert sweep.best_level == "O4"
        assert sweep.best_us == 37.5
        assert sweep.reduction_vs("O4") == pytest.approx(0.0)


class TestComputeEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return ComputeEngine(RTX4090)

    def test_latency_of_plain_kernel(self, engine):
        k = FP16GemvKernel(GemmShape(1, 2048, 2048))
        assert engine.latency_us(k) > 0

    def test_latency_of_generated_kernel(self, engine, qt_gptvq):
        gk = engine.generator.generate_gemv(
            GemmShape(1, 2048, 2048), qt_gptvq, level="O4")
        assert engine.latency_us(gk) == pytest.approx(gk.latency_us())

    def test_latency_rejects_unknown_type(self, engine):
        with pytest.raises(TypeError):
            engine.latency_us("not a kernel")

    def test_sweep_covers_all_levels(self, engine, qt_gptvq):
        sweep = engine.sweep(engine.generator.generate_gemv,
                             GemmShape(1, 2048, 2048), qt_gptvq,
                             name="gemv")
        assert set(sweep.latencies_us) == {"GC", "SC", "O1", "O2",
                                           "O3", "O4"}
        assert sweep.reduction_vs("GC") >= 0.0

    def test_compare(self, engine):
        kernels = {
            "small": FP16GemvKernel(GemmShape(1, 1024, 1024)),
            "large": FP16GemvKernel(GemmShape(1, 8192, 8192)),
        }
        out = engine.compare(kernels)
        assert out["large"] > out["small"]


class TestBatchLatencyMemo:
    """The memoized batch-latency API the serving simulator relies on."""

    @pytest.fixture()
    def engine(self):
        return ComputeEngine(RTX4090)

    def test_cache_hit_returns_identical_value(self, engine):
        shape = GemmShape(1, 2048, 2048)
        first = engine.batch_latency_us("gemv", shape)
        info = engine.memo_info()
        again = engine.batch_latency_us("gemv", shape)
        assert again == first  # bit-identical, not approx: same cache entry
        assert engine.memo_info()["hits"] == info["hits"] + 1
        assert engine.memo_info()["misses"] == info["misses"]

    def test_distinct_shapes_do_not_collide(self, engine):
        a = engine.batch_latency_us("gemv", GemmShape(1, 2048, 2048))
        b = engine.batch_latency_us("gemv", GemmShape(1, 4096, 4096))
        assert a != b
        assert engine.memo_info()["currsize"] == 2

    def test_distinct_levels_do_not_collide(self, engine, qt_gptvq):
        shape = GemmShape(1, 2048, 2048)
        gc = engine.batch_latency_us("gemv", shape, qt=qt_gptvq, level="GC")
        o4 = engine.batch_latency_us("gemv", shape, qt=qt_gptvq, level="O4")
        assert o4 < gc

    def test_matches_unmemoized_kernels(self, engine, qt_gptvq):
        shape = GemmShape(1, 2048, 2048)
        direct = engine.generator.generate_gemv(
            shape, qt_gptvq, level="O4").latency_us()
        assert engine.batch_latency_us(
            "gemv", shape, qt=qt_gptvq) == pytest.approx(direct)
        fp16 = FP16GemvKernel(shape).latency_us(RTX4090)
        assert engine.batch_latency_us("gemv", shape) == pytest.approx(fp16)

    def test_attention_defaults_value_cache_to_key_cache(self, engine,
                                                         qt_cq4_kv):
        shape = AttentionShape(batch=1, heads=2, seq_len=512, head_dim=128)
        us = engine.batch_latency_us("attention", shape, qt=qt_cq4_kv)
        assert us == pytest.approx(engine.batch_latency_us(
            "attention", shape, qt=qt_cq4_kv, qt_v=qt_cq4_kv))

    def test_prefill_attention_is_fp16_only(self, engine, qt_cq4_kv):
        shape = AttentionShape(batch=1, heads=2, seq_len=512, head_dim=128)
        assert engine.batch_latency_us("prefill_attention", shape) > 0
        with pytest.raises(ValueError):
            engine.batch_latency_us("prefill_attention", shape, qt=qt_cq4_kv)

    def test_rejects_bad_arguments(self, engine, qt_gptvq):
        with pytest.raises(ValueError):
            engine.batch_latency_us("conv", GemmShape(1, 64, 64))
        with pytest.raises(ValueError):
            engine.batch_latency_us("gemv", GemmShape(1, 64, 64),
                                    qt=qt_gptvq, bits=4)
        with pytest.raises(TypeError):
            engine.batch_latency_us("gemv", AttentionShape(1, 2, 64, 128))

    def test_lru_evicts_oldest(self):
        engine = ComputeEngine(RTX4090, memo_size=2)
        shapes = [GemmShape(1, 1024, 1024), GemmShape(1, 2048, 2048),
                  GemmShape(1, 4096, 4096)]
        for s in shapes:
            engine.batch_latency_us("gemv", s)
        assert engine.memo_info()["currsize"] == 2
        # The first shape was evicted: timing it again is a miss.
        misses = engine.memo_info()["misses"]
        engine.batch_latency_us("gemv", shapes[0])
        assert engine.memo_info()["misses"] == misses + 1
