"""Host-speed probes: wall time rescaled to a fixed reference speed.

On a shared 2-vCPU VM (Xeon, 2.1 GHz) the host runs at a changing
speed: a fixed pure-Python loop takes between 1.0x and 1.7x its fastest
time, in spells lasting from under a second to over a minute, and CPU
time tracks wall time, so the variation is the host's speed rather than
scheduling.  A median over passes cannot remove a spell that covers a
whole run.

So while a probe is active, a fixed reference (:func:`reference_s`) is
timed at the first event-heap pop after every :data:`INTERVAL_S` of
simulation.  The probes cut the run into short segments; each segment's
wall time, divided by the mean of the reference times at its two ends,
is its cost in reference units.  The sum over segments, times
:data:`NOMINAL_REF_S`, is the wall time the work would take on a host
where the reference takes :data:`NOMINAL_REF_S` — a host-speed-
normalized wall time in seconds.  Time spent in the probes themselves is
excluded.  A change that slows the simulator lengthens its segments and
leaves the reference alone, so it shows in full.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import List, Tuple

import numpy as np

#: Reference time of the nominal host the metrics are scaled to (the
#: fastest tenth of its timings on the VM above).
NOMINAL_REF_S = 180e-6
#: Simulated work between probes, seconds of host time.
INTERVAL_S = 0.02

_TABLE = dict.fromkeys(range(97), 0)
_CODES = np.random.default_rng(0).integers(0, 256, 20_000)


def _reference_once() -> float:
    start = time.perf_counter()
    table, acc = _TABLE, 0
    for i in range(1200):
        key = i % 97
        acc += table[key]
        table[key] = acc & 0xFFFF
    for _ in range(3):
        np.bincount(_CODES, minlength=256)
    return time.perf_counter() - start


def reference_s() -> float:
    """Faster of two timings of a fixed reference (~0.25 ms).

    The reference mixes the two kinds of work the simulator does:
    interpreted dict-and-integer code and small NumPy reductions.  Each
    alone tracks the simulator's speed less well than the mix (on the VM
    above, simulation time over the reference varied by 7-9% where raw
    time varied by 12-17%).  It allocates no container the cyclic garbage collector
    tracks, so its cost does not depend on the simulator's live objects.
    """
    return min(_reference_once(), _reference_once())


class SpeedProbe:
    """Patches ``EventLoop.pop`` to time :func:`reference_s` between
    segments of about :data:`INTERVAL_S`; :meth:`take` returns the
    marks recorded since the last call."""

    def __init__(self):
        self._marks = array("d")
        self._original = None

    def __enter__(self) -> "SpeedProbe":
        cls = importlib.import_module("repro.serve.events").EventLoop
        pop = self._original = cls.__dict__["pop"]
        record, clock = self._marks.extend, time.perf_counter
        last = [clock()]

        def probed(loop):
            item = pop(loop)
            now = clock()
            if now - last[0] >= INTERVAL_S:
                ref = reference_s()
                last[0] = clock()
                record((now, last[0], ref))
            return item

        cls.pop = probed
        return self

    def __exit__(self, *exc) -> None:
        importlib.import_module("repro.serve.events").EventLoop.pop = \
            self._original

    def take(self) -> List[Mark]:
        flat = self._marks.tolist()
        del self._marks[:]
        return [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]


def normalize(start: Mark, marks: List[Mark], end: Mark
              ) -> Tuple[float, float]:
    """``(work_s, nominal_s)`` of the interval from ``start`` to ``end``.

    ``start`` and ``end`` are probes taken just outside the interval
    (``(t, t, ref)``); ``work_s`` is its wall time minus probe time and
    ``nominal_s`` the same work at the nominal reference speed.
    """
    points = [start, *marks, end]
    work = units = 0.0
    for (_, end0, ref0), (start1, _, ref1) in zip(points, points[1:]):
        segment = start1 - end0
        work += segment
        units += segment * 2.0 / (ref0 + ref1)
    return work, units * NOMINAL_REF_S
