"""Shared-prefix KV reuse: a radix tree of ref-counted paged blocks.

:mod:`repro.serve.paging` treats KV blocks as interchangeable counts;
this module gives them *identity* so requests that share a prompt
prefix — thousands of requests behind one system prompt, or a chat
session re-sending its whole history every turn — can share the blocks
instead of recomputing them (vLLM's automatic prefix caching, SGLang's
radix attention).

Design:

- **Block identity.**  The tree is path-compressed: a node holds a
  *run* of ``n >= 1`` full blocks (``n * block_tokens`` token ids)
  that share one ref count and one ``last_used``, and its parent files
  it under its first block's ids.  Looking up a prompt is one dict
  probe per node plus one comparison of the node's whole run against
  the matching slice of the prompt; only a divergence inside a run is
  located block by block.  Comparisons are exact, so a hit is never
  wrong, and a node is reachable only through its parent, so a
  block's identity is its *full prefix*, not just its own tokens.
  Every modeled number equals the one-node-per-block tree's: a run is
  that tree's chain of blocks, stored once.
- **Ids.**  The tree holds token ids in the one format of
  :mod:`repro.serve.requests`: a packed ``str``, one code point per
  id.  Keys, runs and the slices compared against them are slices of
  that string, so a probe hashes and a comparison scans contiguous
  memory, and a run costs two bytes per id below 65,536.  The public
  entry points (the tree's ``insert`` and ``match``; the allocator's
  ``lookup``, ``peek``, ``match_and_lock`` and ``release``) pack any
  other int sequence first, so a tuple finds what its string finds.
  ``str`` hashes are salted per process, so nothing here iterates a
  hashed container into an order: children dicts keep insertion
  order, and the LRU heap orders by tick.
- **Splits.**  An operation that would treat a run's blocks
  differently — a touch, a lock or an insert that ends inside it, or
  an insert that diverges inside it — first splits the node: its
  first blocks move into a new parent, and the tail stays in the
  original object, so the tail's heap entries, its children and the
  locked paths that end at it stay valid.  Runs never merge back.
- **Paths.**  A :class:`PrefixPath` is the end node, the blocks of it
  the path leaves out (``spare``), and the total block count
  (``len()``).  Walks, touches, locks and commits follow parent links
  from the end node, so they cost nodes, not blocks.  A locked path
  ends at its node's last block (locking splits first), so a later
  split inside it needs no bookkeeping.
- **Ref counting.**  Matching a prompt locks the matched path
  (``ref += 1`` on every node); ``release`` unlocks it.  Referenced
  blocks are pinned; because locks are always path prefixes, a
  referenced node's ancestors are referenced too, so the unreferenced
  nodes form downward-closed subtrees.
- **LRU eviction.**  Unreferenced *leaves* are evicted
  least-recently-used when the free list cannot cover an allocation —
  cached blocks are a second-class tenant of the pool: resident while
  memory is idle, reclaimed the moment a live sequence needs the block.
  A heap with an entry per unreferenced leaf is kept up to date as
  leaves appear, so reclaiming blocks costs heap pops (plus skipped
  stale entries), not a walk of the whole tree.  A victim run loses
  ``min(needed, n)`` tail blocks in one step, and a parent left as an
  unreferenced leaf older than every heap entry is the next victim, so
  it is evicted at once without an entry: an unreferenced chain falls
  for one pop.
- **Each node's work once.**  An admission walks its prompt once: the
  path :meth:`PrefixCachingAllocator.lookup` returns for the admission
  check is the path ``match_and_lock`` touches and locks.  A release
  commits only the blocks past the owner's locked path; the path itself
  is stamped, not compared again.
- **Copy-on-write.**  Only *full* blocks are shared, and at least one
  prompt token must always be recomputed (its logits feed the
  sampler).  When the block holding that tail is itself cached — the
  prompt's next block matches a tree block exactly, typically because
  the whole prompt is cached — the sequence cannot extend the shared
  copy in place: it recomputes those tokens into a *private copy* of
  the cached block (``n_cow_copies`` in the stats).  A prompt that
  *diverges* inside a block shares nothing there — that is a plain
  miss, not a COW.

:class:`PrefixCachingAllocator` extends
:class:`~repro.serve.paging.PagedKVAllocator` with the tree while
keeping its interface, so
:class:`~repro.serve.scheduler.ContinuousBatchScheduler` under
``prefix_caching=True`` reuses the paged admission/preemption machinery
unchanged: ``holds`` counts shared + private blocks, ``free_blocks``
counts truly-free *plus evictable* blocks, and the conservation
invariant ``used + free == total`` still holds with ``used`` = blocks
referenced by live sequences.

Compression interacts directly: a CQ-4 pool holds ~4x the FP16 block
count at equal HBM, so at equal memory the compressed cache sustains a
much deeper shared-prefix tree before eviction sets in — higher hit
rates on the same workload, which is the headline
``examples/prefix_caching.py`` checks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.paging import PagedKVAllocator, PagingStats
from repro.serve.requests import pack_ids, unpack_ids
from repro.serve.sanitize import check

#: The LRU heap is rebuilt from the tree once it holds more than this
#: many entries per resident block, which bounds the stale entries it
#: carries while keeping the rebuild's cost amortized O(1) per push.
LRU_HEAP_FACTOR = 2


class _RadixNode:
    """A run of ``n`` cached full blocks sharing one ``ref`` and one
    ``last_used``: ``n * block_tokens`` packed token ids plus tree and
    LRU bookkeeping.  Its parent files it under its first block.

    ``parent`` is ``None`` for the root and for evicted nodes.
    """

    __slots__ = ("tokens", "n", "parent", "children", "ref", "last_used")

    def __init__(self, tokens: str, n: int,
                 parent: Optional["_RadixNode"]):
        self.tokens = tokens
        self.n = n
        self.parent = parent
        self.children: Dict[str, _RadixNode] = {}
        self.ref = 0
        self.last_used = 0


class PrefixPath:
    """A root-down run of cached blocks: every block from the root
    through ``node``, less ``node``'s last ``spare`` blocks.

    ``len()`` is the block count; the empty path ends at the root.
    ``spare`` counts from the node's end, so a path that ends at its
    node's last block (every locked path does) stays valid when a split
    later moves the node's head into a new parent.
    """

    __slots__ = ("node", "n_blocks", "spare")

    def __init__(self, node: _RadixNode, n_blocks: int, spare: int = 0):
        self.node = node
        self.n_blocks = n_blocks
        self.spare = spare

    def __len__(self) -> int:
        return self.n_blocks

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrefixPath) and self.node is other.node
                and self.n_blocks == other.n_blocks
                and self.spare == other.spare)


@dataclass(frozen=True)
class PrefixStats:
    """Cumulative hit/miss/evict counters of a prefix cache."""

    #: Prompt lookups performed (one per admission of an id-carrying
    #: request, including re-admissions after preemption).
    n_lookups: int
    #: Lookups that matched at least one cached block.
    n_lookup_hits: int
    #: Prompt tokens served from cache across all lookups.
    hit_tokens: int
    #: Prompt tokens that had to be prefilled.
    miss_tokens: int
    #: Cached blocks reclaimed by LRU eviction.
    n_evicted_blocks: int
    #: Private copies of *cached* blocks: the prompt's next block was
    #: in the tree but had to be recomputed privately because the
    #: prompt ends inside it (at least the final token's logits are
    #: always recomputed).  In-block divergence is a miss, not a COW.
    n_cow_copies: int
    #: Full blocks inserted into the tree by sequence release.
    n_committed_blocks: int
    #: Tree blocks currently resident (referenced + evictable).
    cached_blocks: int
    #: Tree blocks currently referenced by live sequences.
    referenced_blocks: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit at least one block."""
        return self.n_lookup_hits / max(1, self.n_lookups)

    @property
    def cached_token_fraction(self) -> float:
        """Fraction of looked-up prompt tokens served from cache."""
        return self.hit_tokens / max(1, self.hit_tokens + self.miss_tokens)


class PrefixCache:
    """Path-compressed radix tree over full KV blocks with ref counts
    and LRU eviction.

    Pure tree logic — which blocks exist, which are locked, which to
    evict; pool accounting (how many blocks memory affords) lives in
    :class:`PrefixCachingAllocator`.  ``block_tokens`` is the block
    granularity; a node stores a whole number of blocks.

    Eviction order comes from a lazy min-heap of ``(last_used, seq,
    node)`` entries.  Invariant: every unreferenced leaf has an entry
    at its current ``last_used``.  An entry is pushed whenever a node
    becomes an unreferenced leaf (created as the end of an insert,
    unlocked to ref 0, exposed by evicting its last child, left with
    blocks by a truncating eviction) and whenever such a leaf is
    touched without being locked; entries whose node was since evicted,
    gained a child, got locked or was touched again are stale and are
    skipped when popped.  The one exception is a parent that
    :meth:`evict_lru` exposes and then evicts in the same step because
    it is older than every live entry; it never needs one.  A leaf's
    last block is the one-node-per-block tree's leaf, so the heap takes
    exactly that tree's pushes.

    Work counters, for exact gates: ``n_walks`` (prompt walks),
    ``n_heap_pushes`` (LRU heap pushes) and ``n_nodes_allocated``
    (nodes created plus nodes split).
    """

    def __init__(self, block_tokens: int):
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.block_tokens = block_tokens
        self._root = _RadixNode(tokens="", n=0, parent=None)
        self._n_nodes = 0
        self._n_blocks = 0
        self._n_referenced = 0
        self._tick = 0
        self._lru: List[Tuple[int, int, _RadixNode]] = []
        self._seq = itertools.count()
        self.n_walks = 0
        self.n_heap_pushes = 0
        self.n_nodes_allocated = 0

    # -- size ----------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Resident tree blocks (each occupies one pool block)."""
        return self._n_blocks

    @property
    def n_referenced(self) -> int:
        """Tree blocks locked by at least one live sequence."""
        return self._n_referenced

    @property
    def lru_heap_bound(self) -> int:
        """Most entries the LRU heap may hold before it is rebuilt."""
        return LRU_HEAP_FACTOR * self._n_nodes

    # -- LRU heap ------------------------------------------------------
    def _push_if_evictable(self, node: _RadixNode) -> None:
        """Give ``node`` a heap entry if it is an unreferenced leaf."""
        if node.children or node.ref:
            return
        heapq.heappush(self._lru, (node.last_used, next(self._seq), node))
        self.n_heap_pushes += 1
        if len(self._lru) > self.lru_heap_bound:
            self._rebuild_lru()

    def _rebuild_lru(self) -> None:
        """Replace the heap's contents, in place (:meth:`evict_lru`
        holds a reference), with one entry per unreferenced leaf."""
        heap = self._lru
        heap.clear()
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if child.children:
                    stack.append(child)
                elif child.ref == 0:
                    heap.append((child.last_used, next(self._seq), child))
        heapq.heapify(heap)

    # -- runs ----------------------------------------------------------
    def _split(self, node: _RadixNode, k: int) -> _RadixNode:
        """Move ``node``'s first ``k`` blocks into a new parent, which
        takes over ``node``'s key, ref and ``last_used``; return it.

        The tail stays in ``node``, so its heap entries, its children
        and the locked paths that end at it stay valid.
        """
        cut = k * self.block_tokens
        tokens = node.tokens
        parent = node.parent
        head = _RadixNode(tokens[:cut], k, parent)
        head.ref = node.ref
        head.last_used = node.last_used
        parent.children[tokens[:self.block_tokens]] = head
        node.tokens = tokens[cut:]
        node.n -= k
        node.parent = head
        head.children[node.tokens[:self.block_tokens]] = node
        self._n_nodes += 1
        self.n_nodes_allocated += 1
        return head

    def _end_at_node(self, path: PrefixPath) -> _RadixNode:
        """Split ``path``'s end node where the path ends inside it, so
        the path ends at its node's last block; return that node."""
        if path.spare:
            path.node = self._split(path.node, path.node.n - path.spare)
            path.spare = 0
        return path.node

    def _matching_blocks(self, node: _RadixNode, token_ids: str,
                         b: int, limit: int) -> int:
        """Leading blocks of ``node``'s run, at most ``limit``, that
        equal ``token_ids``' blocks from block ``b`` on.  The first is
        known to (the node was found by it); the rest are compared as
        one slice, and only a divergence is located block by block."""
        m = min(node.n, limit)
        if m > 1:
            bt = self.block_tokens
            run = node.tokens if m == node.n else node.tokens[:m * bt]
            ids = token_ids[b * bt:(b + m) * bt]
            if ids != run:
                m = 1
                while run[m * bt:(m + 1) * bt] == ids[m * bt:(m + 1) * bt]:
                    m += 1
        return m

    def path_tokens(self, path: PrefixPath) -> str:
        """The packed token ids ``path`` spells, root first: the runs
        of its nodes joined end to end (walks the parent links; for
        checks and tests)."""
        runs = []
        node = path.node
        while node.parent is not None:
            runs.append(node.tokens)
            node = node.parent
        return "".join(reversed(runs))[:len(path) * self.block_tokens]

    # -- lookup --------------------------------------------------------
    def _walk(self, token_ids: Sequence[int],
              max_blocks: int) -> PrefixPath:
        """The longest cached prefix of ``token_ids``' first
        ``max_blocks`` blocks: per node, one probe for its first block
        and one comparison of its run.  Every walk packs its ids here."""
        self.n_walks += 1
        token_ids = pack_ids(token_ids)
        bt = self.block_tokens
        node = self._root
        b = 0
        while b < max_blocks:
            child = node.children.get(token_ids[b * bt:(b + 1) * bt])
            if child is None:
                break
            m = self._matching_blocks(child, token_ids, b, max_blocks - b)
            b += m
            if m < child.n:
                return PrefixPath(child, b, child.n - m)
            node = child
        return PrefixPath(node, b)

    def match(self, token_ids: Sequence[int],
              max_blocks: int) -> PrefixPath:
        """Longest cached full-block prefix of ``token_ids`` (deepest
        first ``<= max_blocks`` blocks), LRU-touched but *not* locked."""
        path = self._walk(token_ids, max_blocks)
        self.touch(path)
        if path:
            self._push_if_evictable(path.node)
        return path

    def touch(self, path: PrefixPath) -> None:
        """Mark a root-down ``path`` used now (one LRU tick), splitting
        its end node first if the path ends inside it.

        Pushes no heap entry: a caller that leaves the path's last node
        an unreferenced leaf owes it one (:meth:`match`), and a caller
        that locks the path makes any entry stale at once.
        """
        self._tick += 1
        tick = self._tick
        node = self._end_at_node(path)
        while node.parent is not None:
            node.last_used = tick
            node = node.parent

    # -- ref counting --------------------------------------------------
    def lock(self, path: PrefixPath) -> None:
        """Pin a root-down ``path`` against eviction, splitting its end
        node first if the path ends inside it."""
        node = self._end_at_node(path)
        while node.parent is not None:
            if node.ref == 0:
                self._n_referenced += node.n
            node.ref += 1
            node = node.parent

    def unlock(self, path: PrefixPath) -> None:
        """Drop one reference from each node of a locked ``path``.

        Only the path's end node can become an unreferenced leaf (every
        other node keeps the next one as a child), so only it may need
        a heap entry.
        """
        end = node = path.node
        while node.parent is not None:
            if node.ref < 1:  # pragma: no cover - internal misuse
                raise RuntimeError("unlock of an unreferenced block")
            node.ref -= 1
            if node.ref == 0:
                self._n_referenced -= node.n
            node = node.parent
        if path:
            self._push_if_evictable(end)

    # -- insertion -----------------------------------------------------
    def insert(self, token_ids: Sequence[int], n_blocks: int,
               start: Optional[PrefixPath] = None) -> Tuple[int, int]:
        """Ensure the first ``n_blocks`` full blocks of ``token_ids``
        are in the tree.

        ``start`` is a locked path already spelling the first
        ``len(start) <= n_blocks`` blocks (the caller's own match); its
        nodes are stamped with this insert's tick like the rest of the
        walk, but not compared again.  Past it, each node's run is
        compared in one piece, and the blocks no node holds become one
        new node.

        Returns ``(created, duplicates)``: blocks past ``start`` newly
        added (the caller donates one pool block each) and blocks past
        ``start`` already present (the caller frees its private copies
        — concurrent requests that missed the same prefix converge on
        one resident copy).
        """
        bt = self.block_tokens
        token_ids = pack_ids(token_ids)
        if start is None:
            start = PrefixPath(self._root, 0)
        self.touch(start)
        tick = self._tick
        node = start.node
        b = len(start)
        created = 0
        dups = 0
        while b < n_blocks:
            key = token_ids[b * bt:(b + 1) * bt]
            child = node.children.get(key)
            if child is None:
                m = n_blocks - b
                child = _RadixNode(token_ids[b * bt:n_blocks * bt], m, node)
                node.children[key] = child
                self._n_nodes += 1
                self._n_blocks += m
                self.n_nodes_allocated += 1
                created += m
            else:
                m = self._matching_blocks(child, token_ids, b, n_blocks - b)
                if m < child.n:
                    child = self._split(child, m)
                dups += m
            child.last_used = tick
            node = child
            b += m
        if node is not self._root:
            self._push_if_evictable(node)
        return created, dups

    # -- eviction ------------------------------------------------------
    def evict_lru(self, n: int) -> int:
        """Evict up to ``n`` blocks from unreferenced leaves, least
        recently used first (evicting a leaf may expose its parent).
        Returns the number of blocks actually reclaimed.

        Pops the LRU heap, skipping stale entries, so reclaiming blocks
        never walks the tree.  No two leaves ever share a ``last_used``:
        each tick touches one root-down path, and a path holds at most
        one leaf.  The order is therefore fully determined by
        ``last_used``.

        A victim's blocks share its ``last_used``, so the per-block
        order takes them tail first, back to back: a victim loses as
        many tail blocks as the call still needs, up to all of them, in
        one step, and a victim left with blocks stays an unreferenced
        leaf with a fresh entry (the push the per-block order makes for
        the block it leaves exposed).  A parent that an eviction leaves as an
        unreferenced leaf is evicted at once, without a heap entry,
        when it is strictly older than the heap's oldest live entry
        (stale entries on top are dropped first; they would be skipped
        anyway) or the heap holds none: it is then exactly the entry
        the next pop would return, so victims, their order and every
        tick are unchanged, and a chain of ``k`` unreferenced nodes
        costs one pop instead of ``k`` pushes and pops.  Otherwise it
        gets an entry, as every new unreferenced leaf does.
        """
        if n <= 0:
            return 0
        heap = self._lru
        root = self._root
        bt = self.block_tokens
        evicted = 0
        while evicted < n and heap:
            last_used, _, victim = heapq.heappop(heap)
            if _stale(last_used, victim):
                continue
            while True:
                take = n - evicted
                if take < victim.n:  # the call ends inside the run
                    victim.n -= take
                    victim.tokens = victim.tokens[:victim.n * bt]
                    self._n_blocks -= take
                    evicted = n
                    self._push_if_evictable(victim)
                    break
                parent = victim.parent
                del parent.children[victim.tokens[:bt]]
                victim.parent = None
                self._n_nodes -= 1
                self._n_blocks -= victim.n
                evicted += victim.n
                if parent is root or parent.children or parent.ref:
                    break
                if evicted < n:
                    while heap and _stale(heap[0][0], heap[0][2]):
                        heapq.heappop(heap)
                    if not heap or parent.last_used < heap[0][0]:
                        victim = parent
                        continue
                self._push_if_evictable(parent)
                break
        if len(heap) > self.lru_heap_bound:
            self._rebuild_lru()
        return evicted


def _stale(last_used: int, node: _RadixNode) -> bool:
    """Whether a heap entry ``(last_used, _, node)`` no longer names an
    unreferenced leaf at its current ``last_used``."""
    return (node.parent is None or bool(node.children) or node.ref > 0
            or node.last_used != last_used)


class PrefixCachingAllocator(PagedKVAllocator):
    """Paged allocator whose blocks can be shared through a radix tree.

    Accounting (the conservation invariant stays
    ``used_blocks + free_blocks == total_blocks``):

    - *private* blocks — held by exactly one sequence (its uncached
      suffix and generated tokens), tracked by the parent class;
    - *shared* blocks — tree blocks locked by ``match_and_lock``; they
      count once in ``used_blocks`` no matter how many sequences hold
      them;
    - *evictable* blocks — unreferenced tree blocks; counted in
      ``free_blocks`` because :meth:`ensure` reclaims them on demand,
      so admission sees the capacity it can actually get.

    ``release(owner, token_ids=...)`` commits the owner's full private
    blocks into the tree instead of freeing them — that is how the
    cache warms — and drops the owner's locks on shared blocks.
    """

    def __init__(self, total_blocks: int, block_tokens: int,
                 bytes_per_block: float = 0.0, sanitize: bool = False):
        super().__init__(total_blocks, block_tokens, bytes_per_block,
                         sanitize=sanitize)
        self.cache = PrefixCache(block_tokens)
        #: Each owner's locked path: its end node and block count.
        self._shared: Dict[int, PrefixPath] = {}
        self.n_lookups = 0
        self.n_lookup_hits = 0
        self.hit_tokens = 0
        self.miss_tokens = 0
        self.n_evicted_blocks = 0
        self.n_cow_copies = 0
        self.n_committed_blocks = 0
        #: :meth:`lookup` calls (``peek`` and an unwalked
        #: ``match_and_lock`` go through it): a work counter.
        self.n_lookup_calls = 0

    # -- accounting overrides ------------------------------------------
    @property
    def used_blocks(self) -> int:
        """Blocks referenced by live sequences (private + shared,
        shared counted once)."""
        return self._used_blocks + self.cache.n_referenced

    @property
    def raw_free_blocks(self) -> int:
        """Blocks on the free list proper (no eviction needed)."""
        return (self.total_blocks - self._used_blocks
                - self.cache.n_blocks)

    @property
    def resident_fraction(self) -> float:
        """Fraction of the pool holding bytes — live sequences' blocks
        *plus* cached-but-unreferenced tree blocks (they are resident
        HBM until evicted, which is what occupancy should report)."""
        return ((self._used_blocks + self.cache.n_blocks)
                / self.total_blocks)

    def holds(self, owner: int) -> int:
        """Private plus shared blocks backing ``owner``'s tokens."""
        return (self._held.get(owner, 0)
                + len(self._shared.get(owner, ())))

    def shared_blocks(self, owner: int) -> int:
        """Cached blocks ``owner`` is sharing (0 if none)."""
        return len(self._shared.get(owner, ()))

    # -- prefix lookup -------------------------------------------------
    def _matchable_blocks(self, token_ids: Sequence[int]) -> int:
        # At least one prompt token must be computed (its logits feed
        # the sampler), so a fully cached prompt still recomputes its
        # last block from a private copy-on-write copy.
        return max(0, (len(token_ids) - 1) // self.block_tokens)

    def lookup(self, token_ids: Sequence[int]) -> PrefixPath:
        """The cached path :meth:`match_and_lock` would lock for
        ``token_ids``, walked once, without touching, locking or
        counting anything but the call; pass it to ``match_and_lock``
        unchanged."""
        self.n_lookup_calls += 1
        return self.cache._walk(token_ids, self._matchable_blocks(token_ids))

    def peek(self, token_ids: Sequence[int]) -> int:
        """Cached-token count a :meth:`match_and_lock` would return,
        without locking or touching the stats (admission feasibility
        checks run every scheduling round; only real admissions should
        count as lookups)."""
        return len(self.lookup(token_ids)) * self.block_tokens

    def match_and_lock(self, owner: int, token_ids: Sequence[int],
                       path: Optional[PrefixPath] = None) -> int:
        """Lock the cached prefix of ``token_ids`` for ``owner`` and
        return the cached token count.

        ``path`` is the :meth:`lookup` of ``token_ids`` when the caller
        already has it (admission checks feasibility first); the tree
        must not have changed since.  Sanitize mode walks the prompt
        again to check that.  The owner must hold nothing yet (fresh
        admission or re-admission after a preemption released
        everything).
        """
        if self.holds(owner) != 0:
            raise RuntimeError(f"owner {owner!r} already holds blocks")
        token_ids = pack_ids(token_ids)
        if not token_ids:
            return 0
        if path is None:
            path = self.lookup(token_ids)
        elif self.sanitize:
            check(path == self.lookup(token_ids),
                  f"match_and_lock({owner!r}) was given a {len(path)}-"
                  f"block path that is not the tree's cached prefix of "
                  f"its prompt")
        cache = self.cache
        # One tick for the whole path, and no heap entry: the lock
        # below would make it stale at once.  The touch splits the end
        # node where the path ends inside it, so the path's next block
        # is the first block of one of ``path.node``'s children.
        cache.touch(path)
        # Copy-on-write: the prompt diverges (or ends) inside the next
        # block — if that block is cached, a shared copy cannot be
        # extended in place, so the sequence recomputes those tokens
        # into a private copy.
        bt = self.block_tokens
        matchable = self._matchable_blocks(token_ids)
        if len(path) == matchable:
            # The un-matchable tail is never empty: matchable is capped
            # at (len(token_ids) - 1) // bt.
            tail = token_ids[matchable * bt:(matchable + 1) * bt]
            if tail in path.node.children:
                self.n_cow_copies += 1
        cache.lock(path)
        if path:
            self._shared[owner] = path
        if self.sanitize:
            self._note_live(owner)
        cached = len(path) * bt
        self.n_lookups += 1
        if path:
            self.n_lookup_hits += 1
        self.hit_tokens += cached
        self.miss_tokens += len(token_ids) - cached
        return cached

    # -- allocation override -------------------------------------------
    def ensure(self, owner: int, tokens: int) -> bool:
        """Grow ``owner`` to back ``tokens`` token slots, evicting
        unreferenced cached blocks LRU when the free list runs short."""
        self.n_ensure_calls += 1
        need = self.blocks_for_tokens(tokens) - self.holds(owner)
        if need > self.raw_free_blocks:
            evicted = self.cache.evict_lru(need - self.raw_free_blocks)
            self.n_evicted_blocks += evicted
        if need > self.raw_free_blocks:
            return False
        if need > 0:
            self._held[owner] = self._held.get(owner, 0) + need
            self._used_blocks += need
            self.peak_used_blocks = max(self.peak_used_blocks,
                                        self.used_blocks)
        else:
            self.n_idle_ensures += 1
        if self.sanitize:
            self._note_live(owner)
            check(self.raw_free_blocks >= 0,
                  f"free list overdrawn: raw_free_blocks is "
                  f"{self.raw_free_blocks} after ensure({owner!r})")
        return True

    # -- release / commit ----------------------------------------------
    def release(self, owner: int,
                token_ids: Optional[Sequence[int]] = None) -> int:
        """Unlock ``owner``'s shared blocks and free its private ones —
        after committing every full private block whose ids are known
        (``token_ids`` = the ids of the owner's resident tokens, prompt
        first) into the tree, where it stays resident as cached.

        The ids the owner's blocks back are committed: the first
        ``min(len(token_ids), holds * block_tokens)`` of them, in whole
        blocks, where ``holds`` counts the private and the locked
        blocks.  The caller's ids end at its token count, so the pool
        needs no count of its own.

        Returns the number of blocks returned to the free list (blocks
        that became cached are resident, not free).
        """
        if token_ids is not None:
            token_ids = pack_ids(token_ids)
        if self.sanitize:
            self._note_freed(owner)
        shared = self._shared.pop(owner, None)
        n_shared = len(shared) if shared else 0
        held = self._held.get(owner, 0)
        if token_ids:
            bt = self.block_tokens
            committable = min(len(token_ids), (held + n_shared) * bt) // bt
            if committable > n_shared:
                if self.sanitize and shared:
                    check(self.cache.path_tokens(shared)
                          == token_ids[:n_shared * bt],
                          f"release({owner!r}): the locked path does not "
                          f"spell the first blocks of the committed ids")
                created, dups = self.cache.insert(token_ids, committable,
                                                  shared)
                # The blocks past the lock leave the owner's private
                # count: created ones transfer into the tree (still
                # resident), duplicates collapse onto the resident copy
                # (freed).  Each was one of the owner's private blocks,
                # so more means the accounting is broken.
                moved = created + dups
                check(moved <= held,
                      f"release({owner!r}) commits {moved} blocks past "
                      f"its lock but holds only {held} private blocks")
                if moved:
                    self._held[owner] = held - moved
                    self._used_blocks -= moved
                self.n_committed_blocks += created
        if shared:
            self.cache.unlock(shared)
        freed = self._held.pop(owner, 0)
        self._used_blocks -= freed
        if self.sanitize:
            check(self._used_blocks >= 0,
                  f"release({owner!r}) drove the private-block counter "
                  f"to {self._used_blocks}")
        return freed

    # -- stats ---------------------------------------------------------
    def stats(self) -> PagingStats:
        """Snapshot in which shared blocks count once in ``used_blocks``
        and an owner holding only locked blocks still counts."""
        return PagingStats(
            total_blocks=self.total_blocks,
            used_blocks=self.used_blocks,
            free_blocks=self.free_blocks,
            block_tokens=self.block_tokens,
            peak_used_blocks=self.peak_used_blocks,
            n_owners=len(set(self._held) | set(self._shared)),
        )

    def prefix_stats(self) -> PrefixStats:
        """Snapshot of the hit/miss/evict counters."""
        return PrefixStats(
            n_lookups=self.n_lookups,
            n_lookup_hits=self.n_lookup_hits,
            hit_tokens=self.hit_tokens,
            miss_tokens=self.miss_tokens,
            n_evicted_blocks=self.n_evicted_blocks,
            n_cow_copies=self.n_cow_copies,
            n_committed_blocks=self.n_committed_blocks,
            cached_blocks=self.cache.n_blocks,
            referenced_blocks=self.cache.n_referenced,
        )

    def emit_metrics(self, registry, **labels) -> None:
        """Pool gauges (super) plus radix-tree hit/miss counters."""
        super().emit_metrics(registry, **labels)
        registry.counter(
            "prefix_lookups_total", "Prefix-cache admission lookups",
            **labels).inc(self.n_lookups)
        registry.counter(
            "prefix_lookup_hits_total",
            "Lookups matching at least one cached block",
            **labels).inc(self.n_lookup_hits)
        registry.counter(
            "prefix_hit_tokens_total",
            "Prompt tokens served from the prefix cache",
            **labels).inc(self.hit_tokens)
        registry.counter(
            "prefix_miss_tokens_total",
            "Looked-up prompt tokens that had to be computed",
            **labels).inc(self.miss_tokens)
        registry.counter(
            "prefix_evicted_blocks_total",
            "Cached blocks reclaimed by LRU eviction",
            **labels).inc(self.n_evicted_blocks)
        registry.counter(
            "prefix_cow_copies_total", "Copy-on-write block copies",
            **labels).inc(self.n_cow_copies)
        registry.counter(
            "prefix_committed_blocks_total",
            "Full blocks committed into the radix tree",
            **labels).inc(self.n_committed_blocks)
        registry.gauge(
            "prefix_cached_blocks", "Tree blocks resident at run end",
            **labels).set(self.cache.n_blocks)
        registry.gauge(
            "prefix_referenced_blocks",
            "Tree blocks referenced by live sequences at run end",
            **labels).set(self.cache.n_referenced)

    # -- sanitize mode -------------------------------------------------
    def audit(self) -> None:
        """Base-pool audit plus a full radix-tree consistency sweep.

        The tree walk verifies, for every node: its parent's children
        map files it under its first block, parent/child links are
        mutual, its tokens are exactly ``n`` full ``block_tokens``-wide
        blocks (``n >= 1``), refs are non-negative, its parent was used
        no earlier than it (every touch stamps a whole root-down path),
        every referenced node has a referenced parent (locks are path
        prefixes), and every unreferenced leaf has an LRU heap entry at
        its current ``last_used`` (a leaf without one still counts in
        ``free_blocks`` but :meth:`ensure` could never reclaim it).
        Tallies (nodes, blocks, referenced blocks) and the blocks the
        refs cover (``ref * n`` summed) are re-derived and compared
        against the O(1) counters and the blocks live sequences hold
        locked; each owner's end node must reach the root through
        referenced nodes holding exactly its path's block count, and
        the heap must be within its rebuild bound.
        """
        super().audit()
        cache = self.cache
        bt = self.block_tokens
        root = cache._root
        heap_entries = {(node, last_used)
                        for last_used, _, node in cache._lru}
        n_nodes = 0
        n_blocks = 0
        n_ref = 0
        ref_blocks = 0
        stack = [root]
        while stack:
            node = stack.pop()
            for packed, child in node.children.items():
                key = unpack_ids(packed)
                n_nodes += 1
                n_blocks += child.n
                check(child.parent is node,
                      f"node {key} has a stale parent link")
                check(child.tokens[:bt] == packed,
                      f"node filed under {key} starts with tokens "
                      f"{unpack_ids(child.tokens[:bt])}: the node's tokens "
                      f"no longer match its lookup key")
                check(child.n >= 1 and len(child.tokens) == child.n * bt,
                      f"node {key} stores {len(child.tokens)} tokens for "
                      f"{child.n} blocks; a node holds a run of whole "
                      f"{bt}-token blocks")
                check(child.ref >= 0,
                      f"node {key} has negative ref {child.ref}")
                check(node is root or node.last_used >= child.last_used,
                      f"node {key} was used at tick {child.last_used}, "
                      f"after its parent at {node.last_used}; every touch "
                      f"stamps a whole root-down path")
                if child.ref > 0:
                    n_ref += child.n
                    check(node is root or node.ref > 0,
                          f"node {key} is referenced but its "
                          f"parent is not; locks must be path prefixes")
                elif not child.children:
                    check((child, child.last_used) in heap_entries,
                          f"unreferenced leaf {key} has no LRU heap "
                          f"entry at its last_used {child.last_used}: "
                          f"ensure could never reclaim it")
                ref_blocks += child.ref * child.n
                stack.append(child)
        check(n_nodes == cache._n_nodes,
              f"tree holds {n_nodes} nodes but the n_nodes tally says "
              f"{cache._n_nodes}")
        check(n_blocks == cache.n_blocks,
              f"tree nodes hold {n_blocks} blocks but the n_blocks tally "
              f"says {cache.n_blocks}")
        check(n_ref == cache.n_referenced,
              f"{n_ref} blocks are referenced but the n_referenced "
              f"tally says {cache.n_referenced}")
        check(len(cache._lru) <= cache.lru_heap_bound,
              f"LRU heap holds {len(cache._lru)} entries, above its "
              f"rebuild bound {cache.lru_heap_bound}")
        for owner, path in self._shared.items():
            blocks = 0
            node = path.node
            while node.parent is not None:
                check(node.ref >= 1,
                      f"owner {owner!r} locks node "
                      f"{unpack_ids(node.tokens[:bt])} "
                      f"whose ref is {node.ref}")
                blocks += node.n
                node = node.parent
            check(node is root and path.spare == 0
                  and blocks == len(path),
                  f"owner {owner!r}'s locked path holds {len(path)} "
                  f"blocks, but its end node reaches "
                  f"{'the root' if node is root else 'an evicted node'} "
                  f"with {blocks} blocks, {path.spare} of them spare")
        lock_sum = sum(len(path) for path in self._shared.values())
        check(ref_blocks == lock_sum,
              f"node refs cover {ref_blocks} blocks but live sequences "
              f"hold {lock_sum} blocks locked (refcount leak)")
        check(self._used_blocks + cache.n_blocks + self.raw_free_blocks
              == self.total_blocks,
              f"pool partition broken: private {self._used_blocks} + "
              f"cached {cache.n_blocks} + free {self.raw_free_blocks} "
              f"!= total {self.total_blocks}")

    def audit_drained(self) -> None:
        """Drained audit: additionally, no live sequence may still lock
        tree blocks (cached-but-unreferenced residents are fine — a
        warm cache is the point)."""
        check(not self._shared,
              f"{len(self._shared)} owner(s) still lock cached blocks "
              f"after drain: {sorted(self._shared)[:5]}")
        check(self.cache.n_referenced == 0,
              f"{self.cache.n_referenced} tree blocks still referenced "
              f"after drain")
        super().audit_drained()

    def check_conservation(self) -> None:
        """Assert the pool partition: private + tree + free == total.

        Called by tests and the self-checking example; raises
        ``AssertionError`` on any leak.
        """
        assert (self._used_blocks + self.cache.n_blocks
                + self.raw_free_blocks == self.total_blocks)
        assert self.used_blocks + self.free_blocks == self.total_blocks
        assert self.cache.n_referenced <= self.cache.n_blocks
