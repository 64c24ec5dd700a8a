"""Tensor-parallel plan and TP-aware cost model tests."""

import pytest

from repro.cluster.interconnect import IDEAL_LINK, NVLINK3, PCIE4
from repro.cluster.sharding import TensorParallelPlan
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape
from repro.llm.config import llama_7b, tiny_llama
from repro.llm.model import decode_operator_shapes, prefill_operator_shapes
from repro.bench.serving import SERVING_MODES, mode_cost_kwargs
from repro.serve.costs import StepCostModel
from repro.serve.scheduler import KVBudget, hbm_walk, kv_codebook_bytes
from repro.vq.algorithms import make_config


@pytest.fixture(scope="module")
def engine():
    return ComputeEngine(RTX4090)


def _decode_collective_us(engine, plan, batch):
    """The collective term of one decode step priced under ``plan``."""
    model = StepCostModel(engine, plan.config, plan=plan)
    return model.decode_breakdown(batch, 512).collective_us


class TestPlanValidation:
    def test_degree_must_divide_model_dims(self):
        cfg = llama_7b()  # 32 heads, intermediate 11008, vocab 32000
        TensorParallelPlan(cfg, 8)  # divides everything
        with pytest.raises(ValueError):
            TensorParallelPlan(cfg, 3)
        with pytest.raises(ValueError):
            TensorParallelPlan(cfg, 0)

    def test_unknown_projection_rejected(self):
        plan = TensorParallelPlan(llama_7b(), 2)
        with pytest.raises(ValueError):
            plan.shard_gemm("mystery_proj", GemmShape(m=1, n=64, k=64))

    def test_tp1_passthrough(self):
        plan = TensorParallelPlan(llama_7b(), 1)
        g = GemmShape(m=4, n=4096, k=4096)
        a = AttentionShape(batch=4, heads=32, seq_len=512, head_dim=128)
        assert plan.shard_gemm("qkv_proj", g) == g
        assert plan.shard_attention(a) == a
        assert plan.prefill_collective_us(512) == 0.0
        assert plan.sample_collective_us(16) == 0.0


class TestFlopConservation:
    """Per-shard work times tp_degree equals the unsharded work."""

    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_decode_ledger_conserves_flops(self, tp):
        cfg = llama_7b()
        plan = TensorParallelPlan(cfg, tp)
        for op in decode_operator_shapes(cfg, batch=8, seq_len=512):
            if op.kind == "gemv":
                full = GemmShape(m=op.m, n=op.n, k=op.k)
                shard = plan.shard_gemm(op.name, full)
                assert shard.flops * tp == full.flops, op.name
            elif op.kind == "attention":
                full = AttentionShape(batch=op.batch, heads=op.heads,
                                      seq_len=op.seq_len,
                                      head_dim=op.head_dim)
                shard = plan.shard_attention(full)
                assert shard.flops * tp == full.flops

    @pytest.mark.parametrize("tp", [2, 4])
    def test_prefill_gemms_conserve_flops(self, tp):
        cfg = llama_7b()
        plan = TensorParallelPlan(cfg, tp)
        gemms = [op for op in prefill_operator_shapes(cfg, 256, 0, 256)
                 if op.kind == "gemm"]
        assert len(gemms) == 4
        for op in gemms:
            full = GemmShape(m=op.m, n=op.n, k=op.k)
            shard = plan.shard_gemm(op.name, full)
            assert shard.flops * tp == full.flops, op.name

    def test_row_and_column_parallel_split_different_dims(self):
        plan = TensorParallelPlan(llama_7b(), 4)
        g = GemmShape(m=2, n=4096, k=4096)
        col = plan.shard_gemm("qkv_proj", g)
        row = plan.shard_gemm("o_proj", g)
        assert col.n == g.n // 4 and col.k == g.k
        assert row.k == g.k // 4 and row.n == g.n


class TestCollectiveAccounting:
    def test_decode_collectives_monotone_in_degree(self, engine):
        cfg = llama_7b()
        costs = [_decode_collective_us(
                     engine, TensorParallelPlan(cfg, tp, NVLINK3), 16)
                 for tp in (1, 2, 4, 8)]
        assert costs == sorted(costs)
        assert costs[0] == 0.0 and costs[-1] > 0.0

    def test_decode_collectives_monotone_in_batch(self, engine):
        plan = TensorParallelPlan(llama_7b(), 4, NVLINK3)
        costs = [_decode_collective_us(engine, plan, b) for b in (1, 8, 64)]
        assert costs == sorted(costs) and costs[0] < costs[-1]

    def test_prefill_skips_the_lm_head_gather(self, engine):
        """Per token, prefill communicates less than decode (no logits)."""
        plan = TensorParallelPlan(llama_7b(), 4, NVLINK3)
        assert (plan.prefill_collective_us(16)
                < _decode_collective_us(engine, plan, 16))

    def test_sample_collective_prices_the_logits_gather(self):
        """The prompt-completing iteration's first tokens pay the same
        full-vocab all-gather a decode step's LM head does."""
        plan = TensorParallelPlan(llama_7b(), 4, NVLINK3)
        assert plan.sample_collective_us(4) > 0.0
        assert (plan.sample_collective_us(4)
                == pytest.approx(plan.allgather_us(
                    4 * llama_7b().vocab * 2)))
        assert TensorParallelPlan(
            llama_7b(), 1, NVLINK3).sample_collective_us(4) == 0.0


class TestKVBudgetSharding:
    def test_kv_bytes_shard_but_codebooks_replicate(self):
        cfg = llama_7b()
        vq = make_config("cq-4")
        single = KVBudget.for_gpu(cfg, RTX4090, vq=vq)
        for tp in (2, 4):
            shard = KVBudget.for_gpu(cfg, RTX4090, vq=vq, tp_degree=tp)
            assert shard.bytes_per_token == pytest.approx(
                single.bytes_per_token / tp)
            # Replicated codebooks: the per-GPU overhead does not shrink.
            assert shard.overhead_bytes == kv_codebook_bytes(cfg, vq)
            assert shard.max_tokens > single.max_tokens

    def test_weight_bytes_shrink_with_degree(self):
        cfg = llama_7b()
        quip = make_config("quip#-4")
        for weights in ({}, {"weight_vq": quip}, {"weight_bits": 4}):
            walks = [hbm_walk(cfg, RTX4090, tp_degree=tp, **weights)
                     for tp in (1, 2, 4, 8)]
            sizes = [w.weights for w in walks]
            assert sizes == sorted(sizes, reverse=True)
            # Weight codebooks replicate on every shard.
            assert len({w.weight_codebooks for w in walks}) == 1
        # tp=1 FP16 is exactly two bytes per parameter: the GEMV
        # operators, the embedding and the norms cover the model.
        fp16 = hbm_walk(cfg, RTX4090)
        assert fp16.weights == 2.0 * cfg.param_count
        # At tp=8 all that stays whole per GPU is the embedding and norms.
        replicated = 2.0 * (cfg.vocab + 2 * cfg.n_layers + 1) * cfg.hidden
        tp8 = hbm_walk(cfg, RTX4090, tp_degree=8).weights
        assert tp8 == pytest.approx(
            (fp16.weights - replicated) / 8 + replicated)


class TestShardedStepCostModel:
    def test_tp1_equals_base_model_exactly(self, engine):
        """In every serving mode and over any link, an explicit TP-1
        plan prices float for float as the default (no plan) model, so
        ``make_replicas`` needs no single-GPU branch."""
        cfg = llama_7b()
        for link in (NVLINK3, PCIE4):
            plan = TensorParallelPlan(cfg, 1, link)
            for mode in SERVING_MODES:
                kwargs = mode_cost_kwargs(mode)
                base = StepCostModel(engine, cfg, seq_bucket=512, **kwargs)
                tp1 = StepCostModel(engine, cfg, seq_bucket=512, plan=plan,
                                    **kwargs)
                for batch, ctx in ((1, 128), (16, 1024), (64, 4096),
                                   (96, 700)):
                    assert (tp1.decode_breakdown(batch, ctx)
                            == base.decode_breakdown(batch, ctx)), mode
                    assert (tp1.decode_step_us(batch, ctx)
                            == base.decode_step_us(batch, ctx)), mode
                for tokens, ctx in ((256, 0), (512, 1024), (700, 300)):
                    assert (tp1.prefill_us(tokens, ctx)
                            == base.prefill_us(tokens, ctx)), mode
                for batch in (4, 65):
                    assert (tp1.first_token_us(batch)
                            == base.first_token_us(batch)), mode

    def test_first_token_includes_logits_gather_under_tp(self, engine):
        """Regression: under TP the first sampled token's LM-head
        all-gather must be priced, exactly as a decode step's is."""
        cfg = llama_7b()
        plan = TensorParallelPlan(cfg, 4, NVLINK3)
        sharded = StepCostModel(engine, cfg, seq_bucket=512, plan=plan)
        shard_only = (sharded.first_token_us(4)
                      - plan.sample_collective_us(4))
        assert plan.sample_collective_us(4) > 0.0
        assert shard_only > 0.0

    def test_free_interconnect_makes_tp_strictly_faster(self, engine):
        """Over an ideal link, sharding can only shrink the step."""
        cfg = llama_7b()
        costs = []
        for tp in (1, 2, 4):
            plan = TensorParallelPlan(cfg, tp, IDEAL_LINK)
            model = StepCostModel(engine, cfg, seq_bucket=512, plan=plan)
            costs.append(model.decode_step_us(16, 1024))
        assert costs[0] > costs[1] > costs[2]

    def test_pcie_collectives_erode_the_gain(self, engine):
        """The same sharding helps less over a slower interconnect."""
        cfg = llama_7b()

        def step(link):
            plan = TensorParallelPlan(cfg, 8, link)
            model = StepCostModel(engine, cfg, seq_bucket=512, plan=plan)
            return model.decode_step_us(16, 1024)

        assert step(NVLINK3) < step(PCIE4)

    def test_decode_breakdown_is_the_step(self, engine):
        """One walk fills every class: the total is the bucket table's
        float, the collective is the plan's, and off-grid inputs are
        priced exactly while the table rounds them up."""
        cfg = llama_7b()
        plan = TensorParallelPlan(cfg, 4, PCIE4)
        model = StepCostModel(engine, cfg, seq_bucket=512, plan=plan)
        step = model.decode_breakdown(16, 1024)
        assert step.total_us == model.decode_step_us(16, 1024)
        assert step.collective_us == (plan.prefill_collective_us(16)
                                      + plan.sample_collective_us(16)) > 0.0
        assert step.total_us == pytest.approx(
            step.gemv_us + step.attention_us + step.elementwise_us
            + step.collective_us, rel=1e-15)
        assert model.decode_step_us(13, 700.0) == step.total_us
        assert model.decode_breakdown(13, 700).total_us < step.total_us

    def test_config_mismatch_rejected(self, engine):
        plan = TensorParallelPlan(llama_7b(), 2)
        with pytest.raises(ValueError):
            StepCostModel(engine, tiny_llama(), plan=plan)

    def test_zero_work_is_free(self, engine):
        plan = TensorParallelPlan(llama_7b(), 2, NVLINK3)
        model = StepCostModel(engine, llama_7b(), plan=plan)
        assert model.decode_step_us(0, 128.0) == 0.0
        assert model.prefill_us(0) == 0.0
