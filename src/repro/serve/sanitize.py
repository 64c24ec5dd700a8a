"""Runtime sanitizer for the KV allocators (ASan for the block pool).

The paged allocator and the prefix radix tree maintain redundant
bookkeeping — counters beside dicts, ref tallies beside per-node refs —
because the hot paths need O(1) reads.  Redundancy is where corruption
hides: a missed decrement stays invisible until a golden metric drifts
thousands of iterations later.  Sanitize mode makes the redundancy
*checked*: cheap O(1) invariant checks on every allocator operation,
plus a full-heap audit when a simulation drains.

Activation (either is sufficient):

- ``SchedulerConfig(sanitize=True)`` (``SimConfig`` / ``FleetConfig``
  carry it in their ``scheduler`` field), or
- environment ``REPRO_SANITIZE=1`` — so CI can re-run the entire test
  suite sanitized without touching call sites.

Checks only *read* engine state and raise :class:`SanitizeError`;
they never write, so a sanitized run is bit-identical on metrics to an
unsanitized one (tested in ``tests/test_sanitize.py``).

What is caught:

- double-free: a second ``release`` of an owner whose blocks were
  already freed;
- refcount corruption: per-node radix refs disagreeing with the
  ``n_referenced`` tally or with the locks live sequences hold;
- accounting drift: ``used_blocks`` counter vs the per-owner dict,
  pool conservation (used + free == total), and the scheduler's token
  ledger vs the pool — a sequence's ``kv_slots`` must equal the blocks
  the pool holds for it at every growth and release, and a granted
  decode's token must fit them;
- tree corruption: a node whose tokens differ from the key its parent
  files it under, broken parent/child links, wrong-size blocks, an
  unreferenced leaf missing from the LRU eviction heap;
- leaks at drain: owners, locks or referenced blocks surviving after
  every sequence finished.
"""

from __future__ import annotations

import os

__all__ = ["SanitizeError", "sanitize_enabled"]


class SanitizeError(RuntimeError):
    """An allocator invariant does not hold (engine bug, not user error).

    Raised only in sanitize mode; carries a message naming the broken
    invariant and the observed values.
    """


def sanitize_enabled(flag: bool = False) -> bool:
    """Fold an explicit config flag with the ``REPRO_SANITIZE`` env var.

    The env var is read at *allocator construction*, not import, so a
    test can toggle it with ``monkeypatch.setenv`` per case.
    """
    if flag:
        return True
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def check(condition: bool, message: str) -> None:
    """Raise :class:`SanitizeError` unless ``condition`` holds."""
    if not condition:
        raise SanitizeError(message)
