"""Request-trace layer tests."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import requests
from repro.serve.requests import (
    ID_LIMIT,
    LengthSampler,
    Request,
    bursty_trace,
    multi_turn_chat_trace,
    pack_ids,
    poisson_trace,
    replayed_trace,
    shared_prefix_trace,
    trace_stats,
    unpack_ids,
)

#: Ids at every boundary of the packed format: the Latin-1, two-byte
#: and four-byte string widths, the surrogate range, and the last
#: code point.
EDGE_IDS = (0, 255, 256, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xFFFF,
            0x10000, 0x10FFFF)


class TestRequest:
    def test_total_tokens(self):
        r = Request(req_id=0, arrival_s=0.0, prompt_tokens=100,
                    output_tokens=28)
        assert r.total_tokens == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=0, output_tokens=1)
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=1, output_tokens=0)
        with pytest.raises(ValueError):
            Request(0, -1.0, prompt_tokens=1, output_tokens=1)


class TestLengthSampler:
    def test_respects_clipping(self):
        s = LengthSampler(mean=100, cv=2.0, lo=16, hi=256)
        lengths = s.sample(np.random.default_rng(0), 2000)
        assert lengths.min() >= 16 and lengths.max() <= 256

    def test_zero_cv_is_constant(self):
        s = LengthSampler(mean=64, cv=0.0)
        assert set(s.sample(np.random.default_rng(0), 10)) == {64}

    def test_mean_roughly_matches(self):
        s = LengthSampler(mean=200, cv=0.3, hi=10_000)
        lengths = s.sample(np.random.default_rng(1), 5000)
        assert lengths.mean() == pytest.approx(200, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LengthSampler(mean=0)
        with pytest.raises(ValueError):
            LengthSampler(mean=10, lo=5, hi=4)


class TestPoissonTrace:
    def test_deterministic_given_seed(self):
        a = poisson_trace(4.0, 50, seed=3)
        b = poisson_trace(4.0, 50, seed=3)
        assert a == b
        assert a != poisson_trace(4.0, 50, seed=4)

    def test_sorted_arrivals_and_ids(self):
        trace = poisson_trace(8.0, 100, seed=0)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.req_id for r in trace] == list(range(100))
        assert arrivals[0] == 0.0

    def test_rate_roughly_matches(self):
        trace = poisson_trace(10.0, 2000, seed=0)
        stats = trace_stats(trace)
        assert stats["offered_rps"] == pytest.approx(10.0, rel=0.1)


class TestBurstyTrace:
    def test_has_requested_count_and_order(self):
        trace = bursty_trace(5.0, 200, seed=0)
        assert len(trace) == 200
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_burstier_than_poisson(self):
        """The MMPP inter-arrival CV must exceed the Poisson CV of 1."""
        trace = bursty_trace(5.0, 3000, burst_factor=8.0, seed=0)
        gaps = np.diff([r.arrival_s for r in trace])
        cv = gaps.std() / gaps.mean()
        assert cv > 1.1

    def test_long_run_rate_matches_requested(self):
        """The calm/burst phase rates are balanced so the long-run mean
        inter-arrival time is 1/rate_rps."""
        for seed in (0, 1, 2):
            trace = bursty_trace(5.0, 4000, seed=seed)
            stats = trace_stats(trace)
            assert stats["offered_rps"] == pytest.approx(5.0, rel=0.1)
            gaps = np.diff([r.arrival_s for r in trace])
            assert gaps.mean() == pytest.approx(1 / 5.0, rel=0.1)

    def test_burst_factor_one_degenerates_to_poisson(self):
        """With equal phase rates the MMPP *is* a Poisson process: the
        phase structure must not distort the rate or the CV."""
        trace = bursty_trace(5.0, 4000, burst_factor=1.0, seed=0)
        stats = trace_stats(trace)
        assert stats["offered_rps"] == pytest.approx(5.0, rel=0.1)
        gaps = np.diff([r.arrival_s for r in trace])
        cv = gaps.std() / gaps.mean()
        assert cv == pytest.approx(1.0, abs=0.1)

    def test_burst_phase_rate_scales_with_factor(self):
        """Windowed peak rates reflect the burst phase: a high burst
        factor must produce windows far above the mean rate."""
        rate, factor = 5.0, 8.0
        trace = bursty_trace(rate, 4000, burst_factor=factor,
                             mean_phase_s=20.0, seed=0)
        arrivals = np.array([r.arrival_s for r in trace])
        counts, _ = np.histogram(
            arrivals, bins=np.arange(0.0, arrivals[-1], 5.0))
        peak_rate = counts.max() / 5.0
        calm_rate = rate / (1 + 0.2 * (factor - 1))
        # The fastest window should approach the burst rate, far above
        # what a calm-phase Poisson window would produce.
        assert peak_rate > 3 * calm_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_trace(0.0, 10)
        with pytest.raises(ValueError):
            bursty_trace(5.0, 10, burst_factor=0.5)
        with pytest.raises(ValueError):
            bursty_trace(5.0, 10, burst_fraction=1.0)


class TestReplayedTrace:
    def test_rebases_and_scales_time(self):
        trace = replayed_trace([10.0, 11.0, 14.0], [8, 16, 32], [4, 4, 4],
                               time_scale=2.0)
        assert [r.arrival_s for r in trace] == [0.0, 2.0, 8.0]
        assert [r.prompt_tokens for r in trace] == [8, 16, 32]

    def test_sorts_out_of_order_arrivals(self):
        trace = replayed_trace([5.0, 1.0], [8, 16], [4, 4])
        assert [r.prompt_tokens for r in trace] == [16, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            replayed_trace([0.0], [8], [4, 4])
        with pytest.raises(ValueError):
            replayed_trace([], [], [])
        with pytest.raises(ValueError):
            replayed_trace([0.0], [8], [4], time_scale=0.0)


class TestRequestIds:
    def test_id_length_validation(self):
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=4, output_tokens=1,
                    prompt_ids=(1, 2, 3))
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=1, output_tokens=4,
                    output_ids=(1, 2))
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=1, output_tokens=1, turn=-1)

    def test_classic_traces_carry_no_ids(self):
        for r in poisson_trace(4.0, 8, seed=0):
            assert r.prompt_ids is None and r.output_ids is None
            assert r.session_id is None and r.turn == 0


class TestTokenIds:
    """Packed ids decode to the generator's draws, element by element."""

    @staticmethod
    def _per_element(rng, n, vocab):
        return tuple(int(t) for t in rng.integers(0, vocab, size=n))

    @pytest.mark.parametrize("build", [
        lambda: multi_turn_chat_trace(6, 4, system_tokens=64, seed=5),
        lambda: shared_prefix_trace(8.0, 24, system_tokens=64, seed=5),
    ], ids=["chat", "shared_prefix"])
    def test_ids_equal_per_element_conversion(self, monkeypatch, build):
        """The reference draws each id as a Python int and keeps the
        tuples unpacked; the packed trace decodes to exactly them."""
        got = build()
        monkeypatch.setattr(requests, "_token_ids", self._per_element)
        monkeypatch.setattr(requests, "pack_ids", tuple)
        want = build()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g.prompt_ids) is str and type(g.output_ids) is str
            assert type(w.prompt_ids) is tuple
            assert all(type(t) is int for t in w.prompt_ids + w.output_ids)
            assert unpack_ids(g.prompt_ids) == w.prompt_ids
            assert unpack_ids(g.output_ids) == w.output_ids
            assert (g.req_id, g.arrival_s, g.session_id, g.turn) == (
                w.req_id, w.arrival_s, w.session_id, w.turn)


class TestPackedIds:
    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.one_of(st.sampled_from(EDGE_IDS),
                                  st.integers(0xD800, 0xDFFF),
                                  st.integers(0, ID_LIMIT - 1)),
                        max_size=64))
    def test_round_trip(self, ids):
        packed = pack_ids(ids)
        assert type(packed) is str
        assert len(packed) == len(ids)
        assert unpack_ids(packed) == tuple(ids)
        assert pack_ids(np.asarray(ids, dtype=np.int64)) == packed
        assert pack_ids(packed) is packed

    def test_every_edge_id_round_trips(self):
        assert unpack_ids(pack_ids(EDGE_IDS)) == EDGE_IDS
        assert pack_ids([]) == ""

    def test_two_bytes_per_id_below_65536(self):
        n = 10_000
        packed = pack_ids(np.arange(256, 256 + n))
        assert 2 * n <= sys.getsizeof(packed) <= 2 * n + 100

    @pytest.mark.parametrize("ids", [
        [-1], [ID_LIMIT], [0, ID_LIMIT + 5], [2 ** 32 + 5], [2 ** 70],
        np.array([-1]), np.array([2 ** 32 + 5]), [1.5], [[1, 2]],
    ], ids=["minus-one", "limit", "past-limit", "u32-wrap", "huge",
            "np-minus-one", "np-u32-wrap", "float", "nested"])
    def test_out_of_range_ids_raise(self, ids):
        with pytest.raises(ValueError):
            pack_ids(ids)

    def test_request_packs_any_int_sequence(self):
        r = Request(0, 0.0, prompt_tokens=3, output_tokens=2,
                    prompt_ids=[5, 0xD800, 0x10FFFF],
                    output_ids=np.array([7, 8]))
        assert r.prompt_ids == pack_ids((5, 0xD800, 0x10FFFF))
        assert r.output_ids == pack_ids((7, 8))
        with pytest.raises(ValueError):
            Request(0, 0.0, prompt_tokens=1, output_tokens=1,
                    prompt_ids=(-1,))

    @pytest.mark.parametrize("build", [
        lambda vocab: shared_prefix_trace(8.0, 4, vocab=vocab),
        lambda vocab: multi_turn_chat_trace(2, 2, vocab=vocab),
    ], ids=["shared_prefix", "chat"])
    def test_vocab_past_the_code_points_raises(self, build):
        with pytest.raises(ValueError, match="vocab"):
            build(ID_LIMIT + 1)
        trace = build(ID_LIMIT)
        assert all(len(r.prompt_ids) == r.prompt_tokens for r in trace)


class TestSharedPrefixTrace:
    def test_all_requests_share_the_system_prompt(self):
        trace = shared_prefix_trace(8.0, 16, system_tokens=64, seed=0)
        system = trace[0].prompt_ids[:64]
        for r in trace:
            assert r.prompt_ids[:64] == system
            assert len(r.prompt_ids) == r.prompt_tokens
            assert len(r.output_ids) == r.output_tokens
        # User suffixes are unique per request.
        suffixes = {r.prompt_ids[64:] for r in trace}
        assert len(suffixes) == 16

    def test_deterministic_and_sorted(self):
        a = shared_prefix_trace(8.0, 12, seed=7)
        b = shared_prefix_trace(8.0, 12, seed=7)
        assert a == b
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert [r.req_id for r in a] == list(range(12))

    def test_validation(self):
        with pytest.raises(ValueError):
            shared_prefix_trace(0.0, 4)
        with pytest.raises(ValueError):
            shared_prefix_trace(1.0, 0)
        with pytest.raises(ValueError):
            shared_prefix_trace(1.0, 4, system_tokens=0)
        with pytest.raises(ValueError):
            shared_prefix_trace(1.0, 4, vocab=1)


class TestMultiTurnChatTrace:
    def test_turn_k_prompt_extends_the_full_history(self):
        trace = multi_turn_chat_trace(3, 4, rate_rps=2.0, think_s=1.0,
                                      system_tokens=32, seed=0)
        assert len(trace) == 12
        by_session = {}
        for r in sorted(trace, key=lambda r: r.turn):
            by_session.setdefault(r.session_id, []).append(r)
        for turns in by_session.values():
            assert [r.turn for r in turns] == [0, 1, 2, 3]
            for prev, cur in zip(turns, turns[1:]):
                history = prev.prompt_ids + prev.output_ids
                assert cur.prompt_ids[:len(history)] == history
                assert len(cur.prompt_ids) > len(history)

    def test_shared_vs_private_system_prompts(self):
        shared = multi_turn_chat_trace(3, 2, system_tokens=16, seed=1)
        roots = {r.prompt_ids[:16] for r in shared if r.turn == 0}
        assert len(roots) == 1
        private = multi_turn_chat_trace(3, 2, system_tokens=16,
                                        shared_system=False, seed=1)
        roots = {r.prompt_ids[:16] for r in private if r.turn == 0}
        assert len(roots) == 3

    def test_turns_arrive_in_order_within_a_session(self):
        trace = multi_turn_chat_trace(4, 3, rate_rps=4.0, think_s=0.5,
                                      seed=2)
        by_session = {}
        for r in trace:
            by_session.setdefault(r.session_id, []).append(r)
        for turns in by_session.values():
            ordered = sorted(turns, key=lambda r: r.turn)
            arrivals = [r.arrival_s for r in ordered]
            assert arrivals == sorted(arrivals)

    def test_req_ids_are_arrival_ranks(self):
        trace = multi_turn_chat_trace(4, 3, rate_rps=4.0, seed=3)
        assert [r.req_id for r in trace] == list(range(12))
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_turn_chat_trace(0, 2)
        with pytest.raises(ValueError):
            multi_turn_chat_trace(1, 0)
        with pytest.raises(ValueError):
            multi_turn_chat_trace(1, 1, rate_rps=0.0)
        with pytest.raises(ValueError):
            multi_turn_chat_trace(1, 1, think_s=0.0)
        with pytest.raises(ValueError):
            multi_turn_chat_trace(1, 1, system_tokens=0)


class TestSharedPrefixStatistics:
    """Distributional checks mirroring the bursty-MMPP tests: the
    session-aware generators must honor their arrival and length
    parameters, not just produce well-formed requests."""

    RATE = 8.0
    N = 3000

    def _trace(self, seed=0, **kwargs):
        params = dict(system_tokens=64,
                      prompt=LengthSampler(mean=128, cv=0.5, hi=2048),
                      output=LengthSampler(mean=96, cv=0.5, hi=2048),
                      seed=seed)
        params.update(kwargs)
        return shared_prefix_trace(self.RATE, self.N, **params)

    def test_interarrivals_are_poisson(self):
        """Memoryless arrivals: mean gap 1/rate and CV ~= 1 (the MMPP
        tests assert CV > 1; a plain Poisson process must sit at 1)."""
        for seed in (0, 1):
            gaps = np.diff([r.arrival_s for r in self._trace(seed=seed)])
            assert gaps.mean() == pytest.approx(1 / self.RATE, rel=0.1)
            assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_suffix_lengths_match_sampler(self):
        """User-suffix lengths (prompt minus the fixed system prompt)
        follow the prompt sampler's lognormal: mean and the heavy
        right tail (lognormal median < mean) must both show."""
        suffixes = np.array([r.prompt_tokens - 64 for r in self._trace()])
        assert suffixes.min() >= 1
        assert suffixes.mean() == pytest.approx(128, rel=0.1)
        assert np.median(suffixes) < suffixes.mean()

    def test_output_lengths_match_sampler(self):
        outputs = np.array([r.output_tokens for r in self._trace()])
        assert outputs.mean() == pytest.approx(96, rel=0.1)


class TestMultiTurnChatStatistics:
    """Inter-arrival and length distributions of the chat generator."""

    RATE = 4.0
    THINK = 6.0
    SESSIONS = 800
    TURNS = 4

    def _trace(self, seed=0):
        return multi_turn_chat_trace(
            self.SESSIONS, self.TURNS, rate_rps=self.RATE,
            think_s=self.THINK, system_tokens=32,
            user=LengthSampler(mean=64, cv=0.5, hi=1024),
            output=LengthSampler(mean=96, cv=0.5, hi=1024), seed=seed)

    def _by_session(self, trace):
        by_session = {}
        for r in trace:
            by_session.setdefault(r.session_id, []).append(r)
        return {s: sorted(t, key=lambda r: r.turn)
                for s, t in by_session.items()}

    def test_session_opens_are_poisson(self):
        """Turn-0 arrivals open sessions at ``rate_rps``: mean gap
        1/rate, CV ~= 1."""
        opens = sorted(r.arrival_s for r in self._trace() if r.turn == 0)
        gaps = np.diff(opens)
        assert gaps.mean() == pytest.approx(1 / self.RATE, rel=0.1)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_think_times_are_exponential(self):
        """Within a session, consecutive turns are an exponential
        think time apart: mean ``think_s``, CV ~= 1."""
        thinks = []
        for turns in self._by_session(self._trace()).values():
            thinks.extend(b.arrival_s - a.arrival_s
                          for a, b in zip(turns, turns[1:]))
        thinks = np.array(thinks)
        assert len(thinks) == self.SESSIONS * (self.TURNS - 1)
        assert thinks.mean() == pytest.approx(self.THINK, rel=0.1)
        assert thinks.std() / thinks.mean() == pytest.approx(1.0, abs=0.1)

    def test_user_message_lengths_match_sampler(self):
        """Turn *k*'s prompt extends the history by exactly one user
        message, whose lengths follow the ``user`` sampler."""
        messages = []
        for turns in self._by_session(self._trace()).values():
            messages.append(turns[0].prompt_tokens - 32)  # minus system
            for prev, cur in zip(turns, turns[1:]):
                history = prev.prompt_tokens + prev.output_tokens
                messages.append(cur.prompt_tokens - history)
        messages = np.array(messages)
        assert messages.min() >= 1
        assert messages.mean() == pytest.approx(64, rel=0.1)
        assert np.median(messages) < messages.mean()

    def test_output_lengths_match_sampler(self):
        outputs = np.array([r.output_tokens for r in self._trace()])
        assert outputs.mean() == pytest.approx(96, rel=0.1)
