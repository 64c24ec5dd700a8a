"""The cost model's operator walk against a reference of its arithmetic.

The reference below prices a decode step, a prefill chunk and a
first-token sample operator by operator against the engine, in the
association every serving number, hostbench digest and golden was
recorded with.  The walk must reproduce it float for float (``==``),
so re-associating a sum, or pricing a term at another shape, fails
here.
"""

import math

import pytest

from repro.bench.serving import SERVING_MODES, mode_cost_kwargs
from repro.cluster.interconnect import PCIE4
from repro.cluster.sharding import TensorParallelPlan
from repro.core.engine import ComputeEngine
from repro.gpu.costmodel import LAUNCH_OVERHEAD_S
from repro.gpu.spec import RTX4090
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GEMV_MAX_BATCH, GemmShape
from repro.llm.config import llama_7b
from repro.serve.costs import (
    BATCH_BUCKETS,
    ELEMENTWISE_LAUNCHES,
    StepCostModel,
    bucket_up,
)

SEQ_BUCKET = 512

#: (chunk, context) pairs on and off the 512-token grid: context 0, a
#: chunk that completes a 512-token prompt, chunks longer than a bucket.
PREFILL_PAIRS = ((512, 0), (300, 0), (212, 300), (100, 1000), (1300, 0),
                 (1024, 512), (37, 2011), (2048, 4096))


@pytest.fixture(scope="module")
def engine():
    return ComputeEngine(RTX4090)


class Reference:
    """One serving mode's pricing on one TP plan, term by term."""

    def __init__(self, engine, plan, mode):
        self.engine, self.plan, self.cfg = engine, plan, plan.config
        kwargs = mode_cost_kwargs(mode)
        self.weights, self.kv = {}, {}
        if "weight_qt" in kwargs:
            self.weights = {"qt": kwargs["weight_qt"], "level": "O4"}
        elif "weight_bits" in kwargs:
            self.weights = {"bits": kwargs["weight_bits"]}
        if "kv_qt" in kwargs:
            qt_k, qt_v = kwargs["kv_qt"]
            self.kv = {"qt": qt_k, "qt_v": qt_v, "level": "O4"}
        elif "kv_bits" in kwargs:
            self.kv = {"bits": kwargs["kv_bits"]}

    def projection(self, name, m, n, k, op):
        shape = self.plan.shard_gemm(name, GemmShape(m=m, n=n, k=k))
        if m > GEMV_MAX_BATCH:
            op = "gemm"
        weights = {} if name == "lm_head" else self.weights
        return self.engine.batch_latency_us(op, shape, **weights)

    def elementwise(self, elements):
        bw = self.engine.spec.dram_bytes_per_s * 0.75
        extra = 1.3 if self.weights else 1.0
        return (elements * 2 * 2 * extra / bw
                + ELEMENTWISE_LAUNCHES * LAUNCH_OVERHEAD_S) * 1e6

    def layers_collective(self, tokens):
        nbytes = tokens * self.cfg.hidden * 2
        return self.cfg.n_layers * (2.0 * self.plan.allreduce_us(nbytes))

    def logits_collective(self, batch):
        return self.plan.allgather_us(batch * self.cfg.vocab * 2)

    def decode(self, batch, seq_len):
        """(gemv, attention, element-wise, collective, total)."""
        cfg, layers = self.cfg, self.cfg.n_layers
        h, inter = cfg.hidden, cfg.intermediate
        qkv = self.projection("qkv_proj", batch, 3 * h, h, "gemv") * layers
        attn = self.engine.batch_latency_us(
            "attention", self.plan.shard_attention(AttentionShape(
                batch, cfg.n_heads, seq_len, cfg.head_dim)),
            **self.kv) * layers
        o = self.projection("o_proj", batch, h, h, "gemv") * layers
        gate_up = self.projection("gate_up_proj", batch, 2 * inter, h,
                                  "gemv") * layers
        down = self.projection("down_proj", batch, h, inter,
                               "gemv") * layers
        head = self.projection("lm_head", batch, cfg.vocab, h, "gemv")
        ew = self.elementwise(batch * (4 * h + 2 * inter)) * layers
        collective = (self.layers_collective(batch)
                      + self.logits_collective(batch))
        return (qkv + o + gate_up + down + head, attn, ew, collective,
                qkv + attn + o + gate_up + down + head + ew + collective)

    def prefill(self, new_tokens, context):
        cfg = self.cfg
        h, inter = cfg.hidden, cfg.intermediate

        def bucket(tokens):
            t = math.ceil(max(1.0, tokens))
            return max(SEQ_BUCKET, -(-t // SEQ_BUCKET) * SEQ_BUCKET)

        def cum(tokens):
            if tokens < 1:
                return 0.0
            return self.engine.batch_latency_us(
                "prefill_attention", self.plan.shard_attention(
                    AttentionShape(1, cfg.n_heads, bucket(tokens),
                                   cfg.head_dim)))

        t = bucket(new_tokens)
        gemm = (self.projection("qkv_proj", t, 3 * h, h, "gemm")
                + self.projection("o_proj", t, h, h, "gemm")
                + self.projection("gate_up_proj", t, 2 * inter, h, "gemm")
                + self.projection("down_proj", t, h, inter, "gemm"))
        attn = max(0.0, cum(context + new_tokens) - cum(context))
        ew = self.elementwise(t * (4 * h + 2 * inter))
        return (gemm + attn + ew) * cfg.n_layers + self.layers_collective(t)

    def first_token(self, n_completing):
        cfg = self.cfg
        b = bucket_up(n_completing, BATCH_BUCKETS)
        return (self.projection("lm_head", b, cfg.vocab, cfg.hidden, "gemv")
                + self.elementwise(b * (cfg.hidden + cfg.vocab))
                + self.logits_collective(b))


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("mode", SERVING_MODES)
def test_walk_matches_reference_exactly(engine, mode, tp):
    cfg = llama_7b()
    plan = TensorParallelPlan(cfg, tp, PCIE4)
    kwargs = mode_cost_kwargs(mode)
    models = [StepCostModel(engine, cfg, seq_bucket=SEQ_BUCKET, plan=plan,
                            **kwargs)]
    if tp == 1:
        models.append(StepCostModel(engine, cfg, seq_bucket=SEQ_BUCKET,
                                    **kwargs))
    ref = Reference(engine, plan, mode)
    for model in models:
        for batch in (1, 16, 64, 65, 128):
            for seq_len in (1, 700, 2048):
                step = model.decode_breakdown(batch, seq_len)
                assert (step.gemv_us, step.attention_us, step.elementwise_us,
                        step.collective_us, step.total_us) == ref.decode(
                            batch, seq_len), (batch, seq_len)
        for new_tokens, context in PREFILL_PAIRS:
            assert (model.prefill_us(new_tokens, context)
                    == ref.prefill(new_tokens, context)), (new_tokens,
                                                           context)
        for n in (1, 64, 65, 128):
            assert model.first_token_us(n) == ref.first_token(n), n
