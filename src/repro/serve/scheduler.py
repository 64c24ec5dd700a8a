"""Continuous-batching scheduler with KV-cache memory accounting.

The scheduler implements the iteration-level (Orca-style) continuous
batching loop used by modern LLM serving engines:

- every iteration, all running sequences in the *decode* phase
  contribute one token each, in round-robin priority so a tight token
  budget never starves the tail of the batch;
- leftover token budget goes to *prefill*, chunked so a long prompt
  never starves decodes (chunked prefill);
- memory is governed by one of two admission policies:

  ``admission="reserve"``
      a request is admitted only when its worst-case KV-cache footprint
      (prompt + maximum output tokens) fits in the HBM budget, so there
      is never a mid-generation eviction — simple, but occupancy is
      bounded by reservations that mostly go unused;

  ``admission="paged"``
      KV memory is a pool of fixed-size blocks
      (:class:`~repro.serve.paging.PagedKVAllocator`, vLLM-style)
      allocated on demand as prefill/decode advance.  Admission needs
      only the *prompt's* blocks, so far more sequences run
      concurrently; when the pool runs dry the scheduler preempts the
      most recently admitted sequence via *recompute* — its blocks are
      freed and its prompt (plus tokens generated so far) is
      re-prefilled when it is re-admitted, FCFS ahead of the waiting
      queue.

KV memory is where VQ earns its keep at the serving level: the budget's
bytes-per-token comes from :func:`kv_bytes_per_token`, which scales the
FP16 footprint of :attr:`repro.llm.config.LlamaConfig.kv_bytes_per_token`
by a :class:`~repro.vq.config.VQConfig` compression ratio (e.g. CQ-2
stores 12.5% of FP16), minus a one-off resident-codebook overhead
(:func:`kv_codebook_bytes`).  At an equal HBM budget a VQ cache
therefore admits ~4-8x more concurrent sequences — and under paged
admission it also packs ~4-8x more *blocks*, which is what the
simulator turns into sustained-throughput numbers.  A budget derived
from a GPU is what :func:`hbm_walk` leaves after the mode's own weights.

See ``docs/architecture.md`` for how the scheduler plugs into the
simulator and cost model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.kernels.elementwise import (KV_GROUP_SIZE, WEIGHT_GROUP_SIZE,
                                      quant_payload_bytes)
from repro.llm.config import LlamaConfig
from repro.llm.model import decode_operator_shapes
from repro.vq.config import FP16_BYTES, VQConfig

from repro.obs.trace import EVT_ADMITTED, EVT_PREEMPTED, NULL_TRACER
from repro.serve.api import SchedulerConfig
from repro.serve.paging import PagedKVAllocator
from repro.serve.prefix import PrefixCachingAllocator, PrefixStats
from repro.serve.requests import Request
from repro.serve.sanitize import check

#: Admission policies :class:`ContinuousBatchScheduler` understands.
ADMISSION_POLICIES = ("reserve", "paged")

#: DRAM share kept for activations, the CUDA context and fragmentation.
HBM_RESERVE = 0.1


def kv_bytes_per_token(config: LlamaConfig,
                       vq: Optional[VQConfig] = None,
                       bits: Optional[int] = None) -> float:
    """KV-cache bytes one token occupies across all layers.

    ``vq`` scales the FP16 footprint by the codes-only compression ratio
    (codebooks are accounted separately — they are shared across tokens,
    see :func:`kv_codebook_bytes`).  ``bits`` models an element-wise
    quantized cache (e.g. qServe's INT4), per-group scales included
    (:func:`~repro.kernels.elementwise.quant_payload_bytes`).
    """
    if vq is not None and bits is not None:
        raise ValueError("vq and bits are mutually exclusive")
    fp16 = float(config.kv_bytes_per_token)
    if vq is not None:
        return fp16 * vq.compression_ratio
    if bits is not None:
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        return quant_payload_bytes(fp16 / FP16_BYTES, bits, KV_GROUP_SIZE)
    return fp16


def kv_codebook_bytes(config: LlamaConfig, vq: VQConfig) -> float:
    """Resident codebook storage for a VQ KV cache (both K and V).

    CQ trains one codebook per channel group (``hidden / vector_size``
    groups) per residual level, independently for keys and values in
    every layer.  This is a fixed overhead, shared by all sequences.
    """
    groups = config.hidden // vq.vector_size
    per_side = groups * vq.residuals * vq.codebook_bytes
    return float(2 * per_side * config.n_layers)


@dataclass(frozen=True)
class HBMWalk:
    """One GPU's DRAM in bytes (:func:`hbm_walk`).  Past the reserve,
    the ``weights``, ``weight_codebooks``, ``kv_codebooks`` and ``kv``
    sum to ``dram_bytes * (1 - HBM_RESERVE)``; ``kv_capacity`` is the
    last two, a :class:`KVBudget`'s ``capacity_bytes``."""

    weights: float
    weight_codebooks: float
    kv_codebooks: float
    kv_capacity: float

    @property
    def kv(self) -> float:
        """The remainder, the KV cache itself."""
        return self.kv_capacity - self.kv_codebooks


def hbm_walk(config: LlamaConfig, spec,
             weight_vq: Optional[VQConfig] = None,
             weight_bits: Optional[int] = None,
             kv_vq: Optional[VQConfig] = None,
             tp_degree: int = 1) -> HBMWalk:
    """Walk one GPU's DRAM for a ``tp_degree``-GPU replica of ``config``.

    The weights of the decode GEMVs
    (:func:`~repro.llm.model.decode_operator_shapes`) shard over the
    GPUs, stored as FP16, ``weight_vq`` codes or ``weight_bits``-bit
    element-wise payload; the LM head stays FP16, as in the cost model.
    The FP16 embedding and norms and every weight and KV codebook are
    replicated on each shard, an upper bound.  KV takes the rest.
    """
    if getattr(spec, "dram_bytes", 0.0) <= 0:
        raise ValueError(
            f"{getattr(spec, 'name', spec)!r} has no dram_bytes set; "
            "pass an explicit capacity via for_model instead")
    if weight_vq is not None and weight_bits is not None:
        raise ValueError("weight_vq and weight_bits are mutually exclusive")
    if tp_degree < 1 or config.n_heads % tp_degree:
        raise ValueError(f"tp_degree={tp_degree} does not shard "
                         f"{config.name}'s {config.n_heads} heads")
    gemv = lm_head = 0  # elements
    weight_codebooks = 0.0
    for op in decode_operator_shapes(config, batch=1, seq_len=1):
        if op.name == "lm_head":
            lm_head += op.n * op.k * op.count
        elif op.kind == "gemv":
            gemv += op.n * op.k * op.count
            if weight_vq is not None:
                weight_codebooks += (
                    op.count * weight_vq.codebook_storage_bytes(op.k, op.n))
    if weight_vq is not None:
        gemv_bytes = weight_vq.quantized_bytes(gemv)
    elif weight_bits is not None:
        gemv_bytes = quant_payload_bytes(gemv, weight_bits,
                                         WEIGHT_GROUP_SIZE)
    else:
        gemv_bytes = FP16_BYTES * gemv
    replicated = (config.vocab + 2 * config.n_layers + 1) * config.hidden
    weights = ((gemv_bytes + FP16_BYTES * lm_head) / tp_degree
               + FP16_BYTES * replicated)
    return HBMWalk(
        weights=weights, weight_codebooks=weight_codebooks,
        kv_codebooks=(kv_codebook_bytes(config, kv_vq)
                      if kv_vq is not None else 0.0),
        kv_capacity=(spec.dram_bytes * (1 - HBM_RESERVE) - weights
                     - weight_codebooks))


@dataclass
class KVBudget:
    """An HBM allowance for KV-cache storage.

    ``capacity_bytes`` is the pool available to the cache (model
    weights, activations and fragmentation margin already subtracted);
    ``overhead_bytes`` (resident codebooks) is taken off the top.
    """

    capacity_bytes: float
    bytes_per_token: float
    overhead_bytes: float = 0.0

    def __post_init__(self):
        if self.bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        if self.capacity_bytes <= self.overhead_bytes:
            raise ValueError("capacity does not even fit the overhead")

    @classmethod
    def for_model(cls, config: LlamaConfig, capacity_bytes: float,
                  vq: Optional[VQConfig] = None,
                  bits: Optional[int] = None) -> "KVBudget":
        """Budget for one model under FP16, VQ or element-wise caching."""
        overhead = kv_codebook_bytes(config, vq) if vq is not None else 0.0
        return cls(capacity_bytes=capacity_bytes,
                   bytes_per_token=kv_bytes_per_token(config, vq, bits),
                   overhead_bytes=overhead)

    @classmethod
    def for_gpu(cls, config: LlamaConfig, spec,
                vq: Optional[VQConfig] = None,
                bits: Optional[int] = None,
                weight_vq: Optional[VQConfig] = None,
                weight_bits: Optional[int] = None,
                tp_degree: int = 1) -> "KVBudget":
        """Per-GPU budget of a ``tp_degree``-GPU replica on a
        :class:`~repro.gpu.spec.GPUSpec`: the KV capacity of
        :func:`hbm_walk`.  Heads shard the per-token bytes but not the
        KV codebooks, so ``max_tokens`` counts the whole replica."""
        walk = hbm_walk(config, spec, weight_vq=weight_vq,
                        weight_bits=weight_bits, kv_vq=vq,
                        tp_degree=tp_degree)
        if walk.kv <= 0:
            raise ValueError(
                f"{config.name} weights ({walk.weights / 1e9:.1f} GB "
                f"per GPU at TP {tp_degree}) leave no KV room on "
                f"{spec.name} ({spec.dram_gb:.0f} GB)")
        return cls(capacity_bytes=walk.kv_capacity,
                   bytes_per_token=(kv_bytes_per_token(config, vq, bits)
                                    / tp_degree),
                   overhead_bytes=walk.kv_codebooks)

    @property
    def max_tokens(self) -> int:
        """Maximum tokens resident at once under this budget."""
        return int((self.capacity_bytes - self.overhead_bytes)
                   // self.bytes_per_token)


@dataclass
class SequenceState:
    """Scheduler-side state of one admitted request."""

    request: Request
    #: Monotonic first-admission rank (scheduler bookkeeping: preempted
    #: sequences re-admit in this order, keeping re-admission FCFS).
    admission_no: int = 0
    #: Prompt (plus recompute) tokens already prefilled.
    prefilled: int = 0
    #: Output tokens generated so far.
    generated: int = 0
    #: Generated tokens converted back into prefill work by recompute
    #: preemptions (their KV was freed; they re-prefill with the prompt).
    restart_tokens: int = 0
    #: Prompt tokens served from the prefix cache at the most recent
    #: admission (they count as prefilled without prefill work).
    cached_tokens: int = 0
    #: Times this sequence was preempted.
    preemptions: int = 0
    #: Simulation time of admission, first output token, completion.
    admitted_s: float = 0.0
    first_token_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Token slots this sequence's KV blocks back under paged admission
    #: (``holds × block_tokens``; scheduler bookkeeping, refreshed at
    #: admission and after every allocation).  With
    #: :attr:`context_tokens` it is the paged token ledger: the pool
    #: counts blocks only.
    kv_slots: int = 0

    @property
    def prefill_target(self) -> int:
        """Tokens this sequence must prefill before (re-)entering decode."""
        return self.request.prompt_tokens + self.restart_tokens

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_target - self.prefilled

    @property
    def in_decode(self) -> bool:
        """Prefill complete and still generating."""
        return self.prefill_remaining == 0 and not self.finished

    @property
    def finished(self) -> bool:
        return self.generated >= self.request.output_tokens

    @property
    def context_tokens(self) -> int:
        """Tokens currently in this sequence's KV cache.

        ``generated`` tokens whose KV was dropped by a preemption count
        only once they are re-prefilled (they are inside ``prefilled``
        via :attr:`prefill_target`), hence the ``restart_tokens``
        correction.
        """
        return self.prefilled + self.generated - self.restart_tokens

    @property
    def reserved_tokens(self) -> int:
        """Worst-case KV tokens reserved for this sequence."""
        return self.request.total_tokens


def _drop(seqs: List[SequenceState], seq: SequenceState) -> None:
    """Remove ``seq`` from ``seqs`` by identity (``list.remove`` would
    compare dataclass fields on the way)."""
    for i, cand in enumerate(seqs):
        if cand is seq:
            del seqs[i]
            return


@dataclass
class BatchPlan:
    """One iteration's work: prefill chunks plus decode sequences."""

    prefill: List[Tuple[SequenceState, int]] = field(default_factory=list)
    decode: List[SequenceState] = field(default_factory=list)
    #: Scheduler-stamped value of :meth:`mean_context`, set when the
    #: plan grants every decoding sequence (the scheduler's incremental
    #: decode-context sum is then exactly this plan's sum); ``None``
    #: means "derive from ``decode``".  The sum is exact integer
    #: arithmetic either way, so the stamped value is bit-identical to
    #: the derived one.
    cached_mean_context: Optional[float] = None
    #: Stamped by the paged decode grant, which visits every granted
    #: sequence anyway: each decode's slot slack (``kv_slots`` past
    #: this plan's token, in ``decode`` order) and the fewest output
    #: tokens any decode has left before this plan.  ``None`` means
    #: "derive from ``decode``" (reserve plans, hand-built plans).
    decode_slack: Optional[List[int]] = None
    min_outputs_left: Optional[int] = None

    @property
    def prefill_tokens(self) -> int:
        return sum(chunk for _, chunk in self.prefill)

    @property
    def decode_batch(self) -> int:
        return len(self.decode)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_batch

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode

    @property
    def prompt_completions(self) -> int:
        """Prefill entries whose chunk completes the prompt this
        iteration — each samples a first token through the LM head.
        Evaluate *before* :meth:`ContinuousBatchScheduler.complete`
        applies the plan (the cost model prices the plan first)."""
        return sum(1 for seq, chunk in self.prefill
                   if chunk == seq.prefill_remaining)

    def mean_context(self) -> float:
        """Mean decode context length (tokens already in cache)."""
        if self.cached_mean_context is not None:
            return self.cached_mean_context
        if not self.decode:
            return 0.0
        return sum(s.context_tokens for s in self.decode) / len(self.decode)

    def slack(self) -> List[int]:
        """Each decode's token slots past this plan's token (paged)."""
        if self.decode_slack is not None:
            return self.decode_slack
        return [s.kv_slots - s.context_tokens - 1 for s in self.decode]

    def outputs_left(self) -> int:
        """The fewest output tokens any decode has left before this
        plan is applied (the plan must decode something)."""
        if self.min_outputs_left is not None:
            return self.min_outputs_left
        return min(s.request.output_tokens - s.generated
                   for s in self.decode)


class ContinuousBatchScheduler:
    """Iteration-level scheduler over a KV budget and a token budget.

    Parameters
    ----------
    budget:
        The KV-cache memory allowance.
    config:
        A :class:`~repro.serve.api.SchedulerConfig` (defaults when
        omitted) carrying the options below.

    Config options
    --------------
    token_budget:
        Maximum tokens processed per iteration (decode tokens + prefill
        chunk), the knob vLLM calls ``max_num_batched_tokens``.
    max_seqs:
        Maximum concurrently admitted sequences (attention batch cap).
    admission:
        ``"reserve"`` (default) reserves each request's worst-case
        footprint at admission; ``"paged"`` allocates fixed-size blocks
        on demand and preempts-by-recompute on exhaustion.
    block_tokens:
        Token slots per KV block under paged admission (vLLM's
        ``block_size``); ignored for ``"reserve"``.
    watermark_frac:
        Fraction of the block pool paged admission keeps free as a
        hedge against immediate preemption of a just-admitted sequence
        (vLLM's ``watermark``); ignored for ``"reserve"``.
    prefix_caching:
        Share KV blocks across requests with a common prompt prefix
        (requires ``admission="paged"`` and requests that carry
        ``prompt_ids``).  Admission matches the prompt against a radix
        tree of cached blocks
        (:class:`~repro.serve.prefix.PrefixCachingAllocator`): cached
        tokens are credited as already prefilled — they skip the
        prefill GEMM/attention work but still count toward context
        length for decode attention — and finished/preempted sequences
        commit their full blocks back into the tree instead of freeing
        them, where they stay resident until LRU eviction reclaims
        them for live sequences.
    """

    def __init__(self, budget: KVBudget,
                 config: Optional[SchedulerConfig] = None):
        config = config if config is not None else SchedulerConfig()
        token_budget = config.token_budget
        max_seqs = config.max_seqs
        admission = config.admission
        block_tokens = config.block_tokens
        watermark_frac = config.watermark_frac
        prefix_caching = config.prefix_caching
        if token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if max_seqs < 1:
            raise ValueError("max_seqs must be >= 1")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {admission!r}; "
                             f"expected one of {ADMISSION_POLICIES}")
        if not 0 <= watermark_frac < 1:
            raise ValueError("watermark_frac must be in [0, 1)")
        if prefix_caching and admission != "paged":
            raise ValueError("prefix_caching requires admission='paged'")
        self.config = config
        self.budget = budget
        self.token_budget = token_budget
        self.max_seqs = max_seqs
        self.admission = admission
        self.prefix_caching = prefix_caching
        self.allocator: Optional[PagedKVAllocator] = None
        self._watermark_blocks = 0
        if admission == "paged":
            alloc_cls = (PrefixCachingAllocator if prefix_caching
                         else PagedKVAllocator)
            self.allocator = alloc_cls.from_budget(
                budget, block_tokens, sanitize=config.sanitize)
            self._watermark_blocks = int(self.allocator.total_blocks
                                         * watermark_frac)
        self.waiting: Deque[Request] = deque()
        #: Preempted sequences awaiting re-admission (ahead of
        #: ``waiting`` — they are older than anything still queued).
        self.preempted: Deque[SequenceState] = deque()
        self.running: List[SequenceState] = []
        self.reserved_tokens = 0
        #: Incremental batch state, shared by both admission modes, so
        #: no iteration scans the whole batch.  ``running`` is
        #: partitioned (in running order) into ``_prefilling`` and
        #: ``_decoding``; the two integer context sums back
        #: :attr:`kv_occupancy` and :meth:`BatchPlan.mean_context`;
        #: ``_committed`` is paged admission's outstanding prefill
        #: demand — blocks running sequences still need for their prompt
        #: plus sampled-token slot, beyond what they hold.  Each is
        #: updated only where its inputs change (admission, allocation,
        #: preemption, completion) and equals the re-sum over
        #: ``running`` exactly, so results stay bit-identical.
        self._decoding: List[SequenceState] = []
        self._prefilling: List[SequenceState] = []
        self._decode_ctx_sum = 0
        self._running_ctx_sum = 0
        self._committed = 0
        #: Queued demand, the integer :attr:`kv_pressure` adds to what
        #: is held: under paged admission the blocks for each waiting
        #: request's prompt plus sampled token and for each preempted
        #: sequence's ``prefill_target`` plus one; under reserve
        #: admission each waiting request's ``total_tokens``.  Updated
        #: at :meth:`submit`, admission and preemption, so a router's
        #: read is O(1) and equals the re-sum over the queues exactly.
        self._queued_demand = 0
        #: ``budget.max_tokens`` is a derived property; hot paths read
        #: it every iteration, so cache it (budgets are never mutated
        #: after scheduler construction).
        self._max_tokens = budget.max_tokens
        #: Largest ``total_tokens`` :meth:`fits` accepts: the pool's
        #: whole blocks under paged admission, the budget otherwise.
        self._fit_tokens = (self._max_tokens if self.allocator is None
                            else self.allocator.total_blocks * block_tokens)
        self._admission_counter = 0
        #: Round-robin start offset for decode-slot priority.
        self._decode_offset = 0
        #: High-water marks and counters, for reporting.
        self.peak_seqs = 0
        self.peak_reserved_tokens = 0
        self.peak_kv_occupancy = 0.0
        self.n_preemptions = 0
        #: Work counter (a plain int, outside :meth:`emit_metrics`):
        #: :meth:`schedule` calls, which replayed iterations skip.
        self.n_schedule_calls = 0
        #: Observability hooks (:mod:`repro.obs`): the default
        #: :data:`~repro.obs.trace.NULL_TRACER` makes every
        #: ``if tracer.enabled:`` recording guard near-free.  The
        #: simulator that owns this scheduler swaps in a live tracer
        #: (and its replica id) when tracing is on.
        self.tracer = NULL_TRACER
        self.trace_replica = 0
        #: Simulated time of the in-flight :meth:`schedule` call —
        #: preemption fires deep inside plan building where ``now_s``
        #: is not threaded, so it is stashed here (traced runs only).
        self._trace_now_s = 0.0

    # -- queue management ----------------------------------------------
    def fits(self, request: Request) -> bool:
        """Whether this request could ever complete under the budget
        (under paged admission: whether its blocks fit the pool)."""
        return request.total_tokens <= self._fit_tokens

    def submit(self, request: Request) -> None:
        """Enqueue an arrived request (FCFS) and add its demand to the
        queued total :attr:`kv_pressure` reads."""
        if not self.fits(request):
            if self.allocator is not None:
                raise ValueError(
                    f"request {request.req_id} needs "
                    f"{self.allocator.blocks_for_tokens(request.total_tokens)}"
                    f" KV blocks but the pool holds "
                    f"{self.allocator.total_blocks}")
            raise ValueError(
                f"request {request.req_id} needs {request.total_tokens} "
                f"KV tokens but the budget holds {self.budget.max_tokens}")
        self.waiting.append(request)
        alloc = self.allocator
        self._queued_demand += (
            request.total_tokens if alloc is None
            else alloc.blocks_for_tokens(request.prompt_tokens + 1))

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.preempted or self.running)

    @property
    def kv_utilization(self) -> float:
        """Fraction of the KV budget currently held against admission.

        Reserve mode: worst-case reservations over capacity.  Paged
        mode: allocated blocks over the pool (what actually gates
        allocation).
        """
        if self.allocator is not None:
            return self.allocator.used_fraction
        return self.reserved_tokens / max(1, self._max_tokens)

    @property
    def kv_occupancy(self) -> float:
        """Fraction of the KV budget *actually resident* in HBM.

        Reserve mode: live context tokens over capacity — typically far
        below :attr:`kv_utilization`, because worst-case reservations
        sit idle until the tokens materialise.  Paged mode: allocated
        blocks over the pool (blocks are resident bytes; the gap to
        live tokens is the internal fragmentation
        :attr:`kv_fragmentation` derives).
        Prefix caching adds the cached-but-unreferenced tree blocks —
        they hold bytes until evicted.
        """
        if self.allocator is not None:
            frac = getattr(self.allocator, "resident_fraction", None)
            return self.allocator.used_fraction if frac is None else frac
        # Incrementally maintained integer sum — exactly equal to
        # ``sum(s.context_tokens for s in self.running)``.
        return self._running_ctx_sum / max(1, self._max_tokens)

    def prefix_stats(self) -> Optional[PrefixStats]:
        """Hit/miss/evict counters (``None`` unless prefix caching)."""
        if not self.prefix_caching:
            return None
        return self.allocator.prefix_stats()

    def emit_metrics(self, registry, **labels) -> None:
        """Emit scheduler counters and high-water marks into a
        :class:`~repro.obs.metrics.MetricsRegistry` (end-of-run only,
        so the same run yields the same registry with tracing on or
        off).  Delegates to the allocator for pool-level metrics; the
        pool counts no tokens, so ``kv_fragmentation`` comes from here."""
        registry.counter(
            "sched_admissions_total", "First-time sequence admissions",
            **labels).inc(self._admission_counter)
        registry.counter(
            "sched_preemptions_total", "Recompute preemptions fired",
            **labels).inc(self.n_preemptions)
        registry.gauge(
            "sched_peak_seqs", "Peak concurrently running sequences",
            **labels).set(self.peak_seqs)
        registry.gauge(
            "sched_peak_reserved_tokens",
            "Peak worst-case KV token reservation (reserve admission)",
            **labels).set(self.peak_reserved_tokens)
        registry.gauge(
            "kv_peak_occupancy",
            "Peak fraction of the KV budget resident in HBM",
            **labels).set(self.peak_kv_occupancy)
        if self.allocator is not None:
            self.allocator.emit_metrics(registry, **labels)
            registry.gauge(
                "kv_fragmentation",
                "Internal fragmentation of allocated blocks at run end",
                **labels).set(self.kv_fragmentation)

    @property
    def kv_pressure(self) -> float:
        """Near-term KV demand over capacity, counting the queue.

        Unlike :attr:`kv_utilization` this includes what *queued* work
        will need — worst-case reservations in reserve mode, observed
        block usage plus queued prompts' blocks in paged mode — so a
        router sees pressure build before admission does.  The queued
        part is one maintained integer (``_queued_demand``), so a read
        is O(1) and divides the same integer sum a re-sum would.
        """
        alloc = self.allocator
        if alloc is not None:
            return ((alloc.used_blocks + self._queued_demand)
                    / alloc.total_blocks)
        return ((self.reserved_tokens + self._queued_demand)
                / max(1, self._max_tokens))

    @property
    def kv_fragmentation(self) -> float:
        """Internal fragmentation of the paged pool: the fraction of
        allocated token slots backing no live token (0.0 for reserve).

        The scheduler is the token ledger, so this derives from the
        running sequences: each backs ``min(context_tokens, kv_slots)``
        live tokens (a prompt completed in the pool's last slot defers
        its sampled token's slot).  Under prefix caching a locked block
        is shared and counts once in ``used_blocks``, so each sequence's
        locked blocks come off its tokens and every referenced tree
        block counts as ``block_tokens`` live tokens.
        """
        alloc = self.allocator
        if alloc is None:
            return 0.0
        bt = alloc.block_tokens
        slots = alloc.used_blocks * bt
        if slots == 0:
            return 0.0
        live = sum(min(s.context_tokens, s.kv_slots) for s in self.running)
        if self.prefix_caching:
            live += bt * (alloc.cache.n_referenced - sum(
                alloc.shared_blocks(s.request.req_id) for s in self.running))
        return 1.0 - live / slots

    # -- admission -----------------------------------------------------
    def _admit(self, now_s: float) -> None:
        """Move queued work to running while memory and seats last.

        Admission is FCFS without holes: skipping ahead of a large
        request would starve it.  Preempted sequences re-enter first —
        they predate everything still waiting.

        The admission rule is the one per-mode difference.  Reserve
        admission needs the request's worst-case footprint beside every
        other reservation.  Paged admission needs only the prompt's
        blocks (plus the first sampled token's slot) — that is the whole
        point of paging — but counts the outstanding prefill demand of
        already running sequences (``_committed``) too, so a burst of
        admissions cannot promise the same free blocks twice.  Under
        prefix caching, blocks the radix tree already holds for the
        candidate's prompt are not demanded (a feasibility ``lookup``
        of the cached path; that path is locked only when the candidate
        is actually admitted, and nothing changes the tree in between).
        An admission takes its demand off ``_queued_demand``.
        """
        if not (self.preempted or self.waiting):
            return
        alloc = self.allocator
        while (len(self.running) < self.max_seqs
               and (self.preempted or self.waiting)):
            seq = self.preempted[0] if self.preempted else None
            req = self.waiting[0] if seq is None else seq.request
            restart = 0 if seq is None else seq.restart_tokens
            known = None
            if alloc is None:
                demand = req.total_tokens
                if self.reserved_tokens + demand > self._max_tokens:
                    break
            else:
                if self.prefix_caching:
                    known = self._known_ids(req, restart)
                cached_path = ()
                if known is not None:
                    cached_path = alloc.lookup(known)
                demand = alloc.blocks_for_tokens(
                    req.prompt_tokens + restart + 1)
                need = max(0, demand - len(cached_path))
                watermark = self._watermark_blocks if self.running else 0
                if self._committed + need + watermark > alloc.free_blocks:
                    break
            self._queued_demand -= demand
            if seq is None:
                seq = self._new_sequence(self.waiting.popleft(), now_s)
            else:
                self.preempted.popleft()
                if self.tracer.enabled:
                    # Re-admission after preemption (value=1 marks it).
                    self.tracer.event(EVT_ADMITTED, now_s,
                                      self.trace_replica, req.req_id, 1)
            if alloc is None:
                self.reserved_tokens += req.total_tokens
            else:
                if alloc.sanitize:
                    # Declare the owner live before any allocation so a
                    # release with zero blocks still counts for the
                    # double-free check.
                    alloc.notify_admitted(req.req_id)
                if known is not None:
                    cached = alloc.match_and_lock(req.req_id, known,
                                                  cached_path)
                    seq.prefilled = cached
                    seq.cached_tokens = cached
                seq.kv_slots = alloc.holds(req.req_id) * alloc.block_tokens
                self._committed += self._owed_blocks(seq)
            self.running.append(seq)
            # At least one prompt token is always computed (prefix
            # caching leaves the last one to the sampler), so an
            # admitted sequence starts in the prefill partition.
            self._prefilling.append(seq)
            self._running_ctx_sum += seq.context_tokens
        self.peak_seqs = max(self.peak_seqs, len(self.running))
        self.peak_reserved_tokens = max(self.peak_reserved_tokens,
                                        self.reserved_tokens)

    def _owed_blocks(self, seq: SequenceState) -> int:
        """Blocks ``seq`` still needs for its prompt (plus recompute)
        and the sampled token's slot, beyond what it holds — its share
        of ``_committed``."""
        alloc = self.allocator
        return max(0, alloc.blocks_for_tokens(seq.prefill_target + 1)
                   - seq.kv_slots // alloc.block_tokens)

    def _ensure(self, seq: SequenceState, tokens: int) -> bool:
        """Grow ``seq``'s blocks to back ``tokens`` slots; on success
        refresh its ``kv_slots`` and its share of ``_committed``.

        The missing blocks come from ``kv_slots``, so the pool is called
        only when a block is missing, and only to change its count.
        """
        alloc = self.allocator
        bt = alloc.block_tokens
        held = seq.kv_slots // bt
        need = -(-tokens // bt) - held
        if need <= 0:
            return True
        if alloc.sanitize:
            self._check_slots(seq, "before growing")
        if not alloc.ensure(seq.request.req_id, tokens):
            return False
        # The growth pays the sequence's prefill debt first (none stays
        # none), so one debt computation updates ``_committed``.
        owed = -(-(seq.prefill_target + 1) // bt) - held
        if owed > 0:
            self._committed -= min(need, owed)
        seq.kv_slots = (held + need) * bt
        if alloc.sanitize:
            self._check_slots(seq, "after growing")
        return True

    def _check_slots(self, seq: SequenceState, when: str) -> None:
        """Sanitize mode: ``seq``'s ``kv_slots`` is the pool's count of
        its blocks in slots."""
        alloc = self.allocator
        rid = seq.request.req_id
        check(seq.kv_slots == alloc.holds(rid) * alloc.block_tokens,
              f"request {rid} has {seq.kv_slots} KV slots {when}, but "
              f"the pool holds {alloc.holds(rid)} blocks of "
              f"{alloc.block_tokens} slots for it")

    @staticmethod
    def _known_ids(request: Request, generated: int):
        """Token ids resident after (re-)prefilling ``request`` with
        ``generated`` recompute tokens — ``None`` when the request
        carries no ids (prefix caching is then a per-request no-op)."""
        if request.prompt_ids is None:
            return None
        ids = request.prompt_ids
        if generated > 0 and request.output_ids is not None:
            ids = ids + request.output_ids[:generated]
        return ids

    def _resident_ids(self, seq: SequenceState):
        """Ids of the tokens currently in ``seq``'s KV cache (prompt
        first), for committing full blocks into the prefix tree."""
        ids = self._known_ids(seq.request, seq.generated)
        if ids is None:
            return None
        return ids[:seq.context_tokens]

    def _release_blocks(self, seq: SequenceState) -> None:
        """Free ``seq``'s blocks — committing them to the prefix tree
        first when prefix caching is on and the ids are known."""
        if self.allocator.sanitize:
            self._check_slots(seq, "at release")
        if self.prefix_caching:
            self.allocator.release(seq.request.req_id,
                                   token_ids=self._resident_ids(seq))
        else:
            self.allocator.release(seq.request.req_id)

    def _new_sequence(self, request: Request,
                      now_s: float) -> SequenceState:
        """First admission of a request (stamps its FCFS rank)."""
        self._admission_counter += 1
        if self.tracer.enabled:
            self.tracer.event(EVT_ADMITTED, now_s, self.trace_replica,
                              request.req_id)
        return SequenceState(request=request, admitted_s=now_s,
                             admission_no=self._admission_counter)

    # -- preemption ----------------------------------------------------
    def _preempt(self, victim: SequenceState,
                 evicted_ids: set) -> None:
        """Evict ``victim`` by recompute: free its blocks, queue it for
        re-admission with its generated tokens folded into prefill.

        Under prefix caching the victim's full blocks are committed to
        the tree rather than freed — if they survive until re-admission
        the recompute is (mostly) a cache hit.
        """
        self._committed -= self._owed_blocks(victim)
        self._release_blocks(victim)
        victim.kv_slots = 0
        ctx = victim.context_tokens
        self._running_ctx_sum -= ctx
        if victim.prefill_remaining > 0:
            _drop(self._prefilling, victim)
        else:
            _drop(self._decoding, victim)
            self._decode_ctx_sum -= ctx
        _drop(self.running, victim)
        evicted_ids.add(id(victim))
        victim.prefilled = 0
        victim.restart_tokens = victim.generated
        victim.preemptions += 1
        self._queued_demand += self.allocator.blocks_for_tokens(
            victim.prefill_target + 1)
        # Insert by first-admission rank: victims of one iteration fall
        # youngest-first, and a victim of a *later* iteration may be
        # older or younger than what is already queued — either way
        # re-admission must stay FCFS.
        pos = 0
        while (pos < len(self.preempted)
               and self.preempted[pos].admission_no < victim.admission_no):
            pos += 1
        self.preempted.insert(pos, victim)
        self.n_preemptions += 1
        if self.tracer.enabled:
            # value = tokens that will be recomputed at re-admission.
            self.tracer.event(EVT_PREEMPTED, self._trace_now_s,
                              self.trace_replica, victim.request.req_id,
                              victim.restart_tokens)

    def _pick_victim(self, plan: BatchPlan) -> Optional[SequenceState]:
        """Youngest-admitted running sequence not already granted work
        in this plan (it may be the sequence asking for blocks).

        Youngest means highest :attr:`SequenceState.admission_no`, not
        tail position — re-admitted preempted sequences append to the
        tail of ``running`` but keep their original (older) rank, and
        re-evicting one would throw away its just-paid re-prefill.
        """
        planned = {id(s) for s in plan.decode}
        planned.update(id(s) for s, _ in plan.prefill)
        victim: Optional[SequenceState] = None
        for cand in self.running:
            if id(cand) in planned:
                continue
            if victim is None or cand.admission_no > victim.admission_no:
                victim = cand
        return victim

    def _grant_decodes(self, rotation: List[SequenceState], budget: int,
                       plan: BatchPlan) -> None:
        """Paged decode grant: give each sequence of ``rotation`` its
        next token slot while ``budget`` lasts.

        A decode that stays inside the blocks it holds touches nothing
        but the plan: the sequence is the token ledger.  One that
        crosses into a new block goes through :meth:`_grow_for_decode`.
        The same pass stamps the plan's slot slacks and fewest outputs
        left, which :meth:`repeat_room` and :meth:`block_crossings`
        read instead of walking the batch again.
        """
        decode = plan.decode
        slack: List[int] = []
        left = None
        #: Sequences preempted while building *this* plan — an id set,
        #: so skipping them costs O(1) per candidate.
        evicted_ids: set = set()
        for seq in rotation:
            if budget <= 0:
                break
            if evicted_ids and id(seq) in evicted_ids:
                continue  # preempted as a victim earlier this plan
            tokens = seq.context_tokens + 1
            slots = seq.kv_slots
            if tokens > slots:
                if not self._grow_for_decode(seq, tokens, plan,
                                             evicted_ids):
                    continue
                slots = seq.kv_slots
            decode.append(seq)
            slack.append(slots - tokens)
            outputs = seq.request.output_tokens - seq.generated
            if left is None or outputs < left:
                left = outputs
            budget -= 1
        plan.decode_slack = slack
        plan.min_outputs_left = left
        if self.allocator.sanitize:
            # Each granted token fits its slots by construction, so it
            # fits the pool's blocks if the slots match them.
            for seq in decode:
                self._check_slots(seq, "at decode")

    def _grow_for_decode(self, seq: SequenceState, tokens: int,
                         plan: BatchPlan, evicted_ids: set) -> bool:
        """Allocate the block ``seq``'s next token crosses into,
        preempting as needed.

        Returns ``False`` when ``seq`` cannot decode this iteration —
        either it was itself the preemption victim, or every other
        running sequence is already committed to the plan.
        """
        while not self._ensure(seq, tokens):
            victim = self._pick_victim(plan)
            if victim is None:
                return False
            self._preempt(victim, evicted_ids)
            if victim is seq:
                return False
        return True

    def _clip_prefill_chunk(self, seq: SequenceState, chunk: int) -> int:
        """Shrink a prefill chunk to what the free list can back now.

        A chunk never preempts — decodes hold that privilege — it just
        takes fewer tokens and resumes next iteration (only a plan with
        no progress at all preempts, in :meth:`schedule`).  A chunk that
        completes the prompt takes the sampled token's slot too when it
        fits; otherwise that slot is deferred to the sequence's first
        decode (whose ``ensure`` may preempt), so a full pool can never
        wedge a one-token-from-done prefill at zero progress.
        """
        alloc = self.allocator
        kv = seq.context_tokens
        avail = seq.kv_slots + alloc.free_blocks * alloc.block_tokens - kv
        chunk = min(chunk, avail)
        if chunk < 1:
            return 0
        target = kv + chunk
        if chunk == seq.prefill_remaining and chunk + 1 <= avail:
            target += 1
        if not self._ensure(seq, target):  # pragma: no cover - avail bounds
            return 0
        return chunk

    # -- iteration planning --------------------------------------------
    def schedule(self, now_s: float = 0.0) -> BatchPlan:
        """Plan one iteration: decodes first, then chunked prefill.

        Decode slots are granted in round-robin order (a rotating start
        offset over the decoding sequences), so when ``token_budget``
        is smaller than the decoding batch every sequence still makes
        progress within a bounded number of iterations instead of the
        head of ``running`` draining first while the tail starves.
        """
        self.n_schedule_calls += 1
        if self.tracer.enabled:
            self._trace_now_s = now_s
        self._admit(now_s)
        plan = BatchPlan()
        budget = self.token_budget
        decoding = self._decoding
        n = len(decoding)
        if n:
            start = self._decode_offset % n
            rotation = decoding[start:] + decoding[:start]
            if self.allocator is None:
                plan.decode = rotation[:budget] if budget < n else rotation
            else:
                self._grant_decodes(rotation, budget, plan)
            granted = len(plan.decode)
            budget -= granted
            self._decode_offset = (start + granted) % n
            # Every (surviving) decoding sequence granted: the running
            # decode-context sum is exactly this plan's.
            if granted and granted == len(self._decoding):
                plan.cached_mean_context = self._decode_ctx_sum / granted
        if budget > 0:
            self._plan_prefill(plan, budget)
        while (plan.empty and self.allocator is not None
               and len(self.running) > 1):
            # Nothing decodes and every prefill is clipped to zero: a
            # full pool of prefilling sequences' private and locked
            # shared blocks.  Apply the decodes' rule — preempt the
            # youngest — and retry (the plan is empty, so the budget
            # is whole).
            self._preempt(self._pick_victim(plan), set())
            self._plan_prefill(plan, budget)
        return plan

    def _plan_prefill(self, plan: BatchPlan, budget: int) -> None:
        """Chunk ``budget`` prefill tokens over the prefilling
        sequences, in running order."""
        for seq in self._prefilling:
            chunk = min(seq.prefill_remaining, budget)
            if self.allocator is not None:
                chunk = self._clip_prefill_chunk(seq, chunk)
                if chunk < 1:
                    continue
            plan.prefill.append((seq, chunk))
            budget -= chunk
            if budget <= 0:
                break

    # -- decode-run replay ---------------------------------------------
    def repeat_room(self, plan: BatchPlan, limit: int) -> int:
        """How many further iterations, up to ``limit``, would plan
        exactly ``plan`` again.

        Only a decode-only plan granting every decoding sequence can
        repeat, and only while nothing else could change the next plan:
        nothing is queued or prefilling (it could be admitted or take
        budget), no sequence finishes before the run's last iteration,
        and under paged admission every block the run crosses fits in
        ``free_blocks`` (free plus evictable), so no decode in it could
        preempt.  Whether the price repeats too is the cost model's
        half (:meth:`~repro.serve.costs.StepCostModel.repeat_room`).
        """
        if (limit <= 0 or plan.prefill or plan.cached_mean_context is None
                or self._prefilling or self.waiting or self.preempted):
            return 0
        room = min(limit, plan.outputs_left() - 1)
        alloc = self.allocator
        if room <= 0 or alloc is None:
            return max(0, room)
        # A sequence holding ``slack`` slots past this plan's token
        # crosses ceil((k - slack) / block_tokens) blocks in k replays.
        bt = alloc.block_tokens
        slacks = plan.slack()
        free = alloc.free_blocks

        def fits(k: int) -> bool:
            return sum(-(-(k - slack) // bt)
                       for slack in slacks if k > slack) <= free

        if fits(room):
            return room
        lo, hi = 0, room  # fits(lo), not fits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def block_crossings(self, plan: BatchPlan, k: int) -> List[int]:
        """The replays of ``plan``, among its first ``k``, at which a
        decoding sequence crosses into a new block: one entry per block
        the replays allocate, sorted (paged admission; read before the
        replays are applied).

        A sequence holding ``slack`` slots past this plan's token first
        crosses at replay ``slack + 1``, then every ``block_tokens``
        replays, which is the count :meth:`repeat_room` sums.
        """
        bt = self.allocator.block_tokens
        crossings: List[int] = []
        for slack in plan.slack():
            crossings.extend(range(slack + 1, k + 1, bt))
        crossings.sort()
        return crossings

    def repeat(self, plan: BatchPlan, k: int) -> None:
        """Advance through ``k`` replays of ``plan`` (``k`` within
        :meth:`repeat_room`), leaving ``plan`` as the run's last
        iteration.

        Each decoding sequence takes its first ``k`` tokens here and its
        KV grows straight to the last iteration's token: one ``ensure``
        per sequence that crosses a block (evictions batch exactly,
        since decodes never touch the radix tree and LRU order is fixed
        by ``last_used``), nothing for the rest.  :meth:`complete`
        then applies the last token, so finishers and peak occupancy —
        which only grows within a run — come out as step-by-step
        execution leaves them.  A sequence crosses a block iff ``k``
        exceeds its slot slack.  The plan's stamps are dropped (derived
        again if read).
        """
        decode = plan.decode
        if self.allocator is None:
            for seq in decode:
                seq.generated += k
        else:
            for seq, slack in zip(decode, plan.slack()):
                seq.generated += k
                if k > slack and not self._ensure(seq,
                                                  seq.context_tokens + 1):
                    raise RuntimeError(  # pragma: no cover
                        f"replayed decode of request {seq.request.req_id} "
                        "found no free block; repeat_room bounds the run")
            plan.decode_slack = plan.min_outputs_left = None
        grown = k * len(plan.decode)
        self._running_ctx_sum += grown
        self._decode_ctx_sum += grown
        plan.cached_mean_context = self._decode_ctx_sum / len(plan.decode)

    def complete(self, plan: BatchPlan, now_s: float) -> List[SequenceState]:
        """Apply one executed iteration; return sequences that finished.

        A sequence whose prefill completes emits its first output token
        in the same iteration (the last prefill chunk's logits feed the
        sampler), which is when TTFT stops ticking.  After a recompute
        preemption the same rule re-applies: the iteration completing
        the re-prefill samples the *next* token.

        Only sequences granted work this iteration can finish, so the
        finished scan covers the plan, never all of ``running``.
        Finished sequences are released in running order.
        """
        entrants: List[SequenceState] = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            self._running_ctx_sum += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                self._running_ctx_sum += 1
                if seq.first_token_s is None:
                    seq.first_token_s = now_s
                entrants.append(seq)
        # A decoding sequence sampled its first token when its prefill
        # completed, so only the counter moves here.
        done = set()
        for seq in plan.decode:
            seq.generated += 1
            if seq.generated >= seq.request.output_tokens:
                done.add(id(seq))
        n_decode = len(plan.decode)
        self._running_ctx_sum += n_decode
        self._decode_ctx_sum += n_decode
        # High-water mark of resident KV, before finished sequences free.
        self.peak_kv_occupancy = max(self.peak_kv_occupancy,
                                     self.kv_occupancy)
        finished: List[SequenceState] = []
        if done:
            # Filter the decode partition, not the plan, so finishers
            # come out in running order.
            decoding = []
            for seq in self._decoding:
                if id(seq) in done:
                    finished.append(seq)
                    self._decode_ctx_sum -= seq.context_tokens
                else:
                    decoding.append(seq)
            self._decoding[:] = decoding
        if entrants:
            # Prefill completes in running order in both modes: an
            # earlier prefiller either completes, takes the rest of the
            # token budget, or (paged) takes every free block, so a
            # later one never overtakes it.  Entrants therefore follow
            # every decoding sequence, and appending keeps
            # ``_decoding`` in running order.
            gone = {id(s) for s in entrants}
            self._prefilling[:] = [s for s in self._prefilling
                                   if id(s) not in gone]
            for seq in entrants:
                if seq.generated >= seq.request.output_tokens:
                    finished.append(seq)
                else:
                    self._decoding.append(seq)
                    self._decode_ctx_sum += seq.context_tokens
        if not finished:
            return finished
        alloc = self.allocator
        for seq in finished:
            seq.finished_s = now_s
            self._running_ctx_sum -= seq.context_tokens
            if alloc is None:
                self.reserved_tokens -= seq.reserved_tokens
            else:
                self._committed -= self._owed_blocks(seq)
                self._release_blocks(seq)
                seq.kv_slots = 0
        dead = {id(s) for s in finished}
        self.running[:] = [s for s in self.running if id(s) not in dead]
        return finished
