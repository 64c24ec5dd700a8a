"""Block-based (paged) KV-cache allocation.

Real serving engines do not reserve a request's worst-case KV footprint
at admission — vLLM-style paged attention carves the cache pool into
fixed-size *blocks* of ``block_tokens`` token slots each and hands them
out on demand as prefill and decode advance.  Admission then only needs
the *prompt's* blocks up front, so many more sequences run concurrently
than worst-case reservations would allow; the price is that the pool
can genuinely run out mid-generation, at which point the scheduler
preempts a sequence and recomputes it later.

:class:`PagedKVAllocator` is the memory-manager half of that design:
a free-list of interchangeable blocks (the simulator never needs block
*identities*, only counts — a block table adds nothing to an analytic
model) and per-owner block accounting.  The pool counts blocks and
nothing else.  The scheduling half — who gets blocks, who gets
preempted — lives in
:class:`~repro.serve.scheduler.ContinuousBatchScheduler` under
``admission="paged"``, and so does the token ledger: each sequence
owns its token count (``context_tokens``) and the slots its blocks back
(``kv_slots``), and the scheduler calls the pool only when a token
crosses into a block the sequence does not hold yet, as vLLM's block
manager does.  Internal fragmentation (the unused tail of each
sequence's last block) is therefore derived and exported by the
scheduler
(:attr:`~repro.serve.scheduler.ContinuousBatchScheduler.kv_fragmentation`).

Compression composes multiplicatively with paging: the bytes one block
occupies is ``block_tokens *`` the scheme's
:func:`~repro.serve.scheduler.kv_bytes_per_token`, so a CQ-4 cache
fits ~4x the blocks of FP16 in the same pool *and* each sequence's
internal fragmentation (the unused tail of its last block) shrinks by
the same factor in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.serve.sanitize import check, sanitize_enabled


@dataclass(frozen=True)
class PagingStats:
    """Point-in-time snapshot of a :class:`PagedKVAllocator`, in blocks.

    Token counts are the scheduler's (internal fragmentation is
    :attr:`~repro.serve.scheduler.ContinuousBatchScheduler.kv_fragmentation`).
    External fragmentation is structurally zero — blocks are
    interchangeable, so any free block serves any request.
    """

    total_blocks: int
    used_blocks: int
    free_blocks: int
    block_tokens: int
    peak_used_blocks: int
    n_owners: int

    @property
    def used_fraction(self) -> float:
        return self.used_blocks / max(1, self.total_blocks)


class PagedKVAllocator:
    """Free-list allocator over a pool of fixed-size KV blocks.

    Parameters
    ----------
    total_blocks:
        Blocks in the pool (codebook overhead already carved out by
        :meth:`from_budget`).
    block_tokens:
        Token slots per block (vLLM's ``block_size``, typically 16).
    bytes_per_block:
        HBM bytes one block occupies under the cache scheme, for
        reporting only — allocation is counted in blocks.

    Owners are opaque hashable keys (the scheduler uses request ids).
    The allocator counts, per owner, the blocks it holds — nothing per
    token: the caller owns the token count and calls :meth:`ensure`
    only to change a block count.  Invariant (tested):
    ``used_blocks + free_blocks == total_blocks`` at all times.

    Work counters (plain ints, outside every metric export):
    ``n_ensure_calls`` counts :meth:`ensure` calls and
    ``n_idle_ensures`` the ones among them that allocated nothing and
    did not fail — a caller that keeps its own token count makes none.

    ``sanitize=True`` (or env ``REPRO_SANITIZE=1``) arms O(1) invariant
    checks on every operation plus :meth:`audit` /
    :meth:`audit_drained` full-heap sweeps; see
    :mod:`repro.serve.sanitize`.  Checks only read state, so sanitized
    runs are bit-identical on metrics.
    """

    def __init__(self, total_blocks: int, block_tokens: int,
                 bytes_per_block: float = 0.0, sanitize: bool = False):
        if total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.total_blocks = total_blocks
        self.block_tokens = block_tokens
        self.bytes_per_block = bytes_per_block
        self._held: Dict[int, int] = {}
        self._used_blocks = 0
        self.peak_used_blocks = 0
        self.n_ensure_calls = 0
        self.n_idle_ensures = 0
        self.sanitize = sanitize_enabled(sanitize)
        #: Sanitize-mode shadow state: owners that currently hold an
        #: allocation, and owners whose allocation was already freed —
        #: a release hitting the second set is a double-free.  An owner
        #: the allocator has never seen is *not* an error (``release``
        #: documents "0 if unknown"), so direct API users stay valid.
        self._live_owners: Set[int] = set()
        self._freed_owners: Set[int] = set()

    @classmethod
    def from_budget(cls, budget, block_tokens: int,
                    sanitize: bool = False) -> "PagedKVAllocator":
        """Carve a :class:`~repro.serve.scheduler.KVBudget` into blocks.

        The resident-codebook overhead comes off the top (it is not
        pageable), then the remainder is divided into whole blocks —
        the sub-block remainder is the pool-level rounding loss paging
        accepts for O(1) allocation.
        """
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        bytes_per_block = block_tokens * budget.bytes_per_token
        pool = budget.capacity_bytes - budget.overhead_bytes
        total = int(pool // bytes_per_block)
        if total < 1:
            raise ValueError(
                f"budget holds {pool:.0f} bytes but one "
                f"{block_tokens}-token block needs {bytes_per_block:.0f}")
        return cls(total_blocks=total, block_tokens=block_tokens,
                   bytes_per_block=bytes_per_block, sanitize=sanitize)

    # -- accounting ----------------------------------------------------
    @property
    def used_blocks(self) -> int:
        # Maintained as a counter in ensure/release: this is read in
        # per-sequence scheduler loops, where re-summing _held would
        # make every iteration quadratic in the running batch.
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.used_blocks

    @property
    def used_fraction(self) -> float:
        """Fraction of the pool currently allocated."""
        return self.used_blocks / self.total_blocks

    def holds(self, owner: int) -> int:
        """Blocks currently held by ``owner`` (0 if unknown)."""
        return self._held.get(owner, 0)

    def blocks_for_tokens(self, tokens: int) -> int:
        """Blocks needed to store ``tokens`` token slots (ceil)."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_tokens)

    # -- allocation ----------------------------------------------------
    def ensure(self, owner: int, tokens: int) -> bool:
        """Grow ``owner``'s allocation to back ``tokens`` token slots.

        Allocates the missing blocks from the free list and returns
        ``True``; returns ``False`` (allocating nothing) when the free
        list cannot cover the growth — the caller then preempts or
        waits.  Shrinking never happens here: blocks are returned only
        by :meth:`release`.
        """
        self.n_ensure_calls += 1
        held = self._held.get(owner, 0)
        need = self.blocks_for_tokens(tokens) - held
        if need > self.total_blocks - self._used_blocks:
            return False
        if need > 0:
            self._held[owner] = held + need
            self._used_blocks += need
            if self._used_blocks > self.peak_used_blocks:
                self.peak_used_blocks = self._used_blocks
        else:
            self.n_idle_ensures += 1
        if self.sanitize:
            self._note_live(owner)
            check(0 <= self._used_blocks <= self.total_blocks,
                  f"used_blocks counter {self._used_blocks} outside "
                  f"[0, {self.total_blocks}] after ensure({owner!r})")
        return True

    def release(self, owner: int) -> int:
        """Return all of ``owner``'s blocks to the free list."""
        if self.sanitize:
            self._note_freed(owner)
        freed = self._held.pop(owner, 0)
        self._used_blocks -= freed
        if self.sanitize:
            check(freed >= 0 and self._used_blocks >= 0,
                  f"release({owner!r}) drove used_blocks to "
                  f"{self._used_blocks} (freed {freed}); the free-list "
                  f"counter no longer matches per-owner holdings")
        return freed

    # -- sanitize mode -------------------------------------------------
    def _note_live(self, owner: int) -> None:
        self._live_owners.add(owner)
        self._freed_owners.discard(owner)

    def _note_freed(self, owner: int) -> None:
        check(owner not in self._freed_owners,
              f"double free: owner {owner!r} released twice without an "
              f"intervening allocation")
        if owner in self._live_owners:
            self._live_owners.discard(owner)
            self._freed_owners.add(owner)

    def notify_admitted(self, owner: int) -> None:
        """Sanitize-mode hook: the scheduler declares ``owner`` live at
        admission, so a release before any allocation is still tracked
        against double-free.  No-op when sanitize mode is off."""
        if self.sanitize:
            check(owner not in self._live_owners,
                  f"owner {owner!r} admitted while already live "
                  f"(admission without release)")
            self._note_live(owner)

    def audit(self) -> None:
        """Full-heap sweep of every redundant invariant (O(owners)).

        Run by the simulators at drain when sanitize mode is on; callable
        any time the allocator is quiescent (between operations).
        """
        held_sum = sum(self._held.values())
        check(self._used_blocks == held_sum,
              f"used_blocks counter {self._used_blocks} != "
              f"sum of per-owner holdings {held_sum}")
        for owner, blocks in self._held.items():
            check(blocks > 0,
                  f"owner {owner!r} holds a non-positive block count "
                  f"{blocks}")
        check(self.used_blocks + self.free_blocks == self.total_blocks,
              f"conservation broken: used {self.used_blocks} + free "
              f"{self.free_blocks} != total {self.total_blocks}")
        check(0 <= self.peak_used_blocks <= self.total_blocks,
              f"peak_used_blocks {self.peak_used_blocks} outside "
              f"[0, {self.total_blocks}]")

    def audit_drained(self) -> None:
        """:meth:`audit` plus drained-pool checks: after every sequence
        finished, no owner may hold blocks."""
        self.audit()
        check(not self._held,
              f"{len(self._held)} owner(s) still hold blocks after "
              f"drain: {sorted(self._held)[:5]}")
        check(self._used_blocks == 0,
              f"used_blocks is {self._used_blocks} after drain")

    def stats(self) -> PagingStats:
        """Snapshot for reports and tests."""
        return PagingStats(
            total_blocks=self.total_blocks,
            used_blocks=self.used_blocks,
            free_blocks=self.free_blocks,
            block_tokens=self.block_tokens,
            peak_used_blocks=self.peak_used_blocks,
            n_owners=len(self._held),
        )

    def emit_metrics(self, registry, **labels) -> None:
        """Emit pool-level gauges into a
        :class:`~repro.obs.metrics.MetricsRegistry` (end-of-run
        snapshot; subclasses add their own counters on top)."""
        snap = self.stats()
        registry.gauge(
            "kv_blocks_total", "KV blocks in the paged pool",
            **labels).set(snap.total_blocks)
        registry.gauge(
            "kv_blocks_peak_used", "Peak KV blocks allocated at once",
            **labels).set(snap.peak_used_blocks)
        registry.gauge(
            "kv_block_tokens", "Token slots per KV block",
            **labels).set(snap.block_tokens)
