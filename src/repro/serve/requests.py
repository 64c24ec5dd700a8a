"""Request traces for the serving simulator.

A trace is a list of :class:`Request` objects sorted by arrival time.
Five arrival processes are provided:

- :func:`poisson_trace` — memoryless arrivals at a constant offered
  rate, the standard open-loop serving benchmark;
- :func:`bursty_trace` — a two-state Markov-modulated Poisson process
  alternating between a calm and a burst rate, which is what production
  traffic looks like at minute granularity;
- :func:`flash_crowd_trace` — a *scheduled* rate spike (calm → crowd →
  calm at known times), the incident-shaped workload SLO burn-rate
  alerting is exercised against: unlike :func:`bursty_trace` the
  overload interval is deterministic, so a test can assert an alert
  fires inside it and clears after the drain;
- :func:`shared_prefix_trace` — every request starts with the same
  system prompt (synthesized token ids), the workload automatic prefix
  caching exists for;
- :func:`multi_turn_chat_trace` — sessions of consecutive turns where
  turn *k*'s prompt is the concatenated history (system prompt, earlier
  user messages *and* earlier assistant outputs), so a prefix cache can
  serve all but the newest user message from memory.

Prompt and output lengths come from a clipped lognormal
(:class:`LengthSampler`): LLM serving length distributions are
heavy-tailed — most prompts are short, a few are near the context
limit — and the tail is what stresses KV-cache capacity.

The session-aware generators synthesize deterministic *token ids*
(``Request.prompt_ids`` / ``Request.output_ids``) so block identity in
:mod:`repro.serve.prefix` is meaningful; the classic generators leave
them ``None`` and behave exactly as before.

Token ids have one format: a packed ``str`` whose *i*-th code point is
the *i*-th id, built by :func:`pack_ids` (``Request`` packs whatever
int sequence it is given).  A ``str`` is immutable and hashable, so a
slice of it keys the radix tree directly; it is sliced, compared and
concatenated by token in C; and CPython stores it at the width of its
largest code point, so ids below 65,536 (every vocabulary here) cost
two bytes each, where a tuple costs an 8-byte slot plus an int object
per id.  Every id in ``[0, 0x110000)`` round-trips exactly, surrogate
code points included; :func:`unpack_ids` gives the ints back.

Everything is deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: One past the largest token id a packed id string can hold (the
#: number of Unicode code points).
ID_LIMIT = 0x110000


def pack_ids(ids: Sequence[int]) -> str:
    """Token ids as one ``str`` whose *i*-th code point is ``ids[i]``.

    A ``str`` is returned as it is (it already is packed ids).  Any
    other sequence must hold integers in ``[0, ID_LIMIT)``, else
    ``ValueError``; surrogate code points pass through the codec too.
    """
    if isinstance(ids, str):
        return ids
    arr = np.asarray(ids)
    if arr.size == 0:
        return ""
    if (arr.ndim != 1 or arr.dtype.kind not in "iu" or arr.min() < 0
            or arr.max() >= ID_LIMIT):
        raise ValueError(
            f"token ids must be integers in [0, {ID_LIMIT:#x})")
    return arr.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


def unpack_ids(packed: str) -> Tuple[int, ...]:
    """The ids a :func:`pack_ids` string holds, as ints."""
    return tuple(map(ord, packed))


@dataclass(frozen=True)
class Request:
    """One serving request: arrive, prefill the prompt, decode tokens."""

    req_id: int
    #: Arrival time, seconds since trace start.
    arrival_s: float
    #: Prompt length in tokens (prefill work).
    prompt_tokens: int
    #: Number of tokens to generate (decode work).
    output_tokens: int
    #: Synthesized prompt token ids (``len == prompt_tokens``), only
    #: set by the session-aware generators; ``None`` disables prefix
    #: caching for this request.  Any int sequence is packed
    #: (:func:`pack_ids`).
    prompt_ids: Optional[str] = None
    #: Synthesized output token ids (``len == output_tokens``), so a
    #: later turn's prompt can embed this turn's generated history;
    #: packed like ``prompt_ids``.
    output_ids: Optional[str] = None
    #: Chat-session identity (``None`` for standalone requests); the
    #: ``prefix-affinity`` fleet router hashes on it.
    session_id: Optional[int] = None
    #: Turn index within the session (0 for the first or only turn).
    turn: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 1:
            raise ValueError("prompt_tokens must be >= 1")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        for name in ("prompt_ids", "output_ids"):
            ids = getattr(self, name)
            if ids is not None:
                object.__setattr__(self, name, pack_ids(ids))
        if (self.prompt_ids is not None
                and len(self.prompt_ids) != self.prompt_tokens):
            raise ValueError("prompt_ids must have prompt_tokens entries")
        if (self.output_ids is not None
                and len(self.output_ids) != self.output_tokens):
            raise ValueError("output_ids must have output_tokens entries")
        if self.turn < 0:
            raise ValueError("turn must be >= 0")

    @property
    def total_tokens(self) -> int:
        """Tokens the request will hold in the KV cache at completion."""
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class LengthSampler:
    """Clipped-lognormal token-length distribution.

    ``mean`` is the approximate mean of the *unclipped* distribution;
    ``cv`` its coefficient of variation (sigma/mean).  Samples are
    rounded to integers and clipped to ``[lo, hi]``.
    """

    mean: float
    cv: float = 0.5
    lo: int = 1
    hi: int = 8192

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError("mean must be positive")
        if self.cv < 0:
            raise ValueError("cv must be >= 0")
        if not 1 <= self.lo <= self.hi:
            raise ValueError("need 1 <= lo <= hi")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integer lengths."""
        if self.cv == 0:
            raw = np.full(n, self.mean)
        else:
            # Lognormal parameterised to hit the requested mean and cv.
            sigma2 = math.log(1.0 + self.cv ** 2)
            mu = math.log(self.mean) - sigma2 / 2
            raw = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
        return np.clip(np.rint(raw), self.lo, self.hi).astype(int)


def _build(arrivals: Sequence[float], prompts: Sequence[int],
           outputs: Sequence[int]) -> List[Request]:
    order = np.argsort(arrivals, kind="stable")
    return [
        Request(req_id=i, arrival_s=float(arrivals[j]),
                prompt_tokens=int(prompts[j]), output_tokens=int(outputs[j]))
        for i, j in enumerate(order)
    ]


def poisson_trace(
    rate_rps: float,
    n_requests: int,
    prompt: LengthSampler = LengthSampler(mean=512),
    output: LengthSampler = LengthSampler(mean=128),
    seed: int = 0,
) -> List[Request]:
    """Open-loop Poisson arrivals at ``rate_rps`` requests per second."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps) - gaps[0]  # first arrival at t=0
    return _build(arrivals, prompt.sample(rng, n_requests),
                  output.sample(rng, n_requests))


def bursty_trace(
    rate_rps: float,
    n_requests: int,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.2,
    mean_phase_s: float = 10.0,
    prompt: LengthSampler = LengthSampler(mean=512),
    output: LengthSampler = LengthSampler(mean=128),
    seed: int = 0,
) -> List[Request]:
    """Two-state MMPP arrivals averaging roughly ``rate_rps``.

    The process alternates exponentially-distributed calm and burst
    phases; bursts last ``burst_fraction`` of the time on average and
    run at ``burst_factor`` times the calm rate, with the calm rate set
    so the long-run average matches ``rate_rps``.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if burst_factor < 1:
        raise ValueError("burst_factor must be >= 1")
    if not 0 < burst_fraction < 1:
        raise ValueError("burst_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    calm_rate = rate_rps / (1 + burst_fraction * (burst_factor - 1))
    rates = (calm_rate, calm_rate * burst_factor)
    phase_means = (mean_phase_s * (1 - burst_fraction),
                   mean_phase_s * burst_fraction)
    arrivals = []
    t = 0.0
    state = 0
    while len(arrivals) < n_requests:
        phase_end = t + rng.exponential(phase_means[state])
        while len(arrivals) < n_requests:
            t += rng.exponential(1.0 / rates[state])
            if t > phase_end:
                t = phase_end
                break
            arrivals.append(t)
        state = 1 - state
    arrivals = np.asarray(arrivals) - arrivals[0]
    return _build(arrivals, prompt.sample(rng, n_requests),
                  output.sample(rng, n_requests))


def flash_crowd_trace(
    rate_rps: float,
    duration_s: float,
    crowd_factor: float = 8.0,
    crowd_start_s: Optional[float] = None,
    crowd_duration_s: Optional[float] = None,
    prompt: LengthSampler = LengthSampler(mean=512),
    output: LengthSampler = LengthSampler(mean=128),
    seed: int = 0,
) -> List[Request]:
    """Piecewise-constant-rate Poisson arrivals with one flash crowd.

    Arrivals run at ``rate_rps`` for ``duration_s`` seconds except
    during ``[crowd_start_s, crowd_start_s + crowd_duration_s)``, where
    the rate multiplies by ``crowd_factor`` (defaults: the crowd
    occupies the middle fifth of the trace).  The piecewise process is
    simulated by thinning a Poisson process at the peak rate, so the
    phase boundaries are exact — the trace's overload interval is known
    a priori, which is what lets SLO tests assert *when* an alert must
    fire rather than just whether.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if crowd_factor < 1:
        raise ValueError("crowd_factor must be >= 1")
    if crowd_start_s is None:
        crowd_start_s = 0.4 * duration_s
    if crowd_duration_s is None:
        crowd_duration_s = 0.2 * duration_s
    if not 0 <= crowd_start_s < duration_s:
        raise ValueError("crowd_start_s must fall inside the trace")
    if crowd_duration_s <= 0:
        raise ValueError("crowd_duration_s must be positive")
    rng = np.random.default_rng(seed)
    peak = rate_rps * crowd_factor
    crowd_end_s = min(crowd_start_s + crowd_duration_s, duration_s)
    arrivals = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration_s:
            break
        in_crowd = crowd_start_s <= t < crowd_end_s
        # Thinning: keep with probability rate(t) / peak.
        if in_crowd or rng.random() < 1.0 / crowd_factor:
            arrivals.append(t)
    if not arrivals:
        raise ValueError(
            "trace came out empty; raise rate_rps or duration_s")
    n = len(arrivals)
    return _build(np.asarray(arrivals), prompt.sample(rng, n),
                  output.sample(rng, n))


def _token_ids(rng: np.random.Generator, n: int, vocab: int) -> str:
    """``n`` synthesized token ids drawn uniformly from the vocabulary,
    packed."""
    return pack_ids(rng.integers(0, vocab, size=n))


def _check_vocab(vocab: int) -> None:
    if not 2 <= vocab <= ID_LIMIT:
        raise ValueError(f"vocab must be in [2, {ID_LIMIT:#x}]")


def _finish(requests: List[Request]) -> List[Request]:
    """Sort by arrival and stamp ``req_id`` = arrival rank (ties keep
    generation order), matching the convention of :func:`_build`."""
    order = sorted(range(len(requests)),
                   key=lambda i: (requests[i].arrival_s, i))
    return [
        Request(req_id=rank, arrival_s=requests[i].arrival_s,
                prompt_tokens=requests[i].prompt_tokens,
                output_tokens=requests[i].output_tokens,
                prompt_ids=requests[i].prompt_ids,
                output_ids=requests[i].output_ids,
                session_id=requests[i].session_id,
                turn=requests[i].turn)
        for rank, i in enumerate(order)
    ]


def shared_prefix_trace(
    rate_rps: float,
    n_requests: int,
    system_tokens: int = 512,
    prompt: LengthSampler = LengthSampler(mean=128),
    output: LengthSampler = LengthSampler(mean=96),
    vocab: int = 32000,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals that all share one ``system_tokens``-long prefix.

    Every request's prompt is the same synthesized system prompt
    followed by a unique user message (length from ``prompt``), which is
    the canonical automatic-prefix-caching workload: after the first
    request warms the tree, only the user suffix misses.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if system_tokens < 1:
        raise ValueError("system_tokens must be >= 1")
    _check_vocab(vocab)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps) - gaps[0]
    suffixes = prompt.sample(rng, n_requests)
    outputs = output.sample(rng, n_requests)
    system = _token_ids(rng, system_tokens, vocab)
    requests = []
    for i in range(n_requests):
        user = _token_ids(rng, int(suffixes[i]), vocab)
        requests.append(Request(
            req_id=i, arrival_s=float(arrivals[i]),
            prompt_tokens=system_tokens + len(user),
            output_tokens=int(outputs[i]),
            prompt_ids=system + user,
            output_ids=_token_ids(rng, int(outputs[i]), vocab),
            session_id=i, turn=0))
    return _finish(requests)


def multi_turn_chat_trace(
    n_sessions: int,
    turns: int,
    rate_rps: float = 2.0,
    think_s: float = 8.0,
    system_tokens: int = 256,
    user: LengthSampler = LengthSampler(mean=64),
    output: LengthSampler = LengthSampler(mean=96),
    vocab: int = 32000,
    shared_system: bool = True,
    seed: int = 0,
) -> List[Request]:
    """Chat sessions whose turn-*k* prompt re-sends the whole history.

    Sessions open with Poisson arrivals at ``rate_rps``; within a
    session, turn *k* arrives an exponential think time (mean
    ``think_s``) after turn *k-1*.  Turn *k*'s prompt ids are the
    system prompt, all earlier user messages and *assistant outputs*
    of the session, then the new user message — so with a prefix cache
    only the new message (plus, once, the system prompt) needs
    prefill.  ``shared_system=True`` (an assistant product: one system
    prompt for everyone) lets sessions share each other's root blocks;
    ``False`` (per-tenant system prompts) makes every session's tree
    private, which is the workload where session-affine routing is the
    difference between hits and misses.  The open-loop trace does not
    wait for turn *k-1* to complete; if the engine has not finished it
    by the next arrival the prefix merely misses (a ``think_s`` well
    above typical completion time makes that rare).
    """
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    if turns < 1:
        raise ValueError("turns must be >= 1")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if think_s <= 0:
        raise ValueError("think_s must be positive")
    if system_tokens < 1:
        raise ValueError("system_tokens must be >= 1")
    _check_vocab(vocab)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=n_sessions)
    opens = np.cumsum(gaps) - gaps[0]
    system = _token_ids(rng, system_tokens, vocab)
    requests = []
    for s in range(n_sessions):
        history = (system if shared_system
                   else _token_ids(rng, system_tokens, vocab))
        t = float(opens[s])
        user_lens = user.sample(rng, turns)
        out_lens = output.sample(rng, turns)
        for k in range(turns):
            msg = _token_ids(rng, int(user_lens[k]), vocab)
            out = _token_ids(rng, int(out_lens[k]), vocab)
            prompt_ids = history + msg
            requests.append(Request(
                req_id=0, arrival_s=t,
                prompt_tokens=len(prompt_ids),
                output_tokens=len(out),
                prompt_ids=prompt_ids, output_ids=out,
                session_id=s, turn=k))
            history = prompt_ids + out
            t += float(rng.exponential(think_s))
    return _finish(requests)


def trace_stats(trace: List[Request]) -> dict:
    """Summary statistics of a trace (for logging and docs)."""
    arrivals = np.array([r.arrival_s for r in trace])
    span = float(arrivals[-1] - arrivals[0]) if len(trace) > 1 else 0.0
    return {
        "n_requests": len(trace),
        "duration_s": span,
        "offered_rps": len(trace) / span if span > 0 else float("inf"),
        "mean_prompt_tokens": float(np.mean([r.prompt_tokens
                                             for r in trace])),
        "mean_output_tokens": float(np.mean([r.output_tokens
                                             for r in trace])),
        "total_tokens": int(sum(r.total_tokens for r in trace)),
    }
