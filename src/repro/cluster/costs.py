"""TP-aware iteration cost model.

:class:`ShardedStepCostModel` extends
:class:`repro.serve.costs.StepCostModel` to price one scheduler
iteration on a tensor-parallel group: it overrides the base model's
sharding hooks so that every GEMM/GEMV/attention shape is first
sharded by a :class:`~repro.cluster.sharding.TensorParallelPlan`,
priced through the same memoized
:meth:`~repro.core.engine.ComputeEngine.batch_latency_us` (all shards
are identical, so one shard's latency is the group's compute time),
and the plan's two ring-collective terms are added per iteration:
every layer's all-reduces (decode steps and prefill chunks) and the
logits all-gather (decode steps and first-token samples).  The walk
itself — which operators an iteration runs — lives only in the base
class.

Element-wise operators (norms, RoPE, activations) are charged
*unsharded*: layer norms run replicated on every GPU in Megatron-style
TP, and the sharded activation passes they bracket are bandwidth-bound
either way — keeping the full charge errs conservative, consistent with
the round-up bucketing of the base model.

With ``tp_degree == 1`` and any link, this model prices every
iteration exactly as the base model, float for float (the sharding
plan passes shapes through and both collectives cost exactly 0.0), so
:func:`repro.bench.cluster.make_replicas` builds it at every degree —
tested in ``tests/test_cluster_sharding.py``.
"""

from __future__ import annotations

from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape

from repro.cluster.sharding import TensorParallelPlan
from repro.serve.costs import StepCostModel


class ShardedStepCostModel(StepCostModel):
    """Prices iterations for one (GPU, model, mode, TP plan) tuple.

    Accepts every :class:`~repro.serve.costs.StepCostModel` keyword
    (quantized operands, the sequence bucket) plus the sharding ``plan``.
    The engine's GPU spec describes *one* shard — the group is
    ``plan.tp_degree`` of them in lockstep.
    """

    def __init__(self, engine, config, plan: TensorParallelPlan, **kwargs):
        if plan.config is not config and plan.config != config:
            raise ValueError("plan was built for a different model config")
        super().__init__(engine, config, **kwargs)
        self.plan = plan

    # -- sharding hooks ------------------------------------------------
    def _shard_gemm(self, name: str, shape: GemmShape) -> GemmShape:
        return self.plan.shard_gemm(name, shape)

    def _shard_attention(self, shape: AttentionShape) -> AttentionShape:
        return self.plan.shard_attention(shape)

    def _prefill_collective_us(self, tokens: int) -> float:
        return self.plan.prefill_collective_us(tokens)

    def _sample_collective_us(self, batch: int) -> float:
        return self.plan.sample_collective_us(batch)
