"""Harness, workload and E2E-ledger tests."""

from dataclasses import replace

import pytest

from repro.bench.accuracy import (
    correlated_2d_sample,
    mse_elementwise,
    mse_vq,
)
from repro.bench.e2e import MODES, E2ELedger
from repro.bench.harness import ExperimentResult, format_table
from repro.bench.workloads import (
    llama_attention_shape,
    llama_gemm_shape,
    llama_gemv_shape,
)
from repro.gpu.spec import A40, RTX4090
from repro.llm.config import llama_7b, llama_65b


#: ``replica_kv_budget`` of Llama-7B for the FP16-weight modes:
#: (GPU, mode, TP degree) -> (capacity_bytes, bytes_per_token,
#: overhead_bytes, max_tokens).
_FP16_WEIGHT_BUDGETS = {
    ("rtx4090", "fp16", 1): (8123168768.0, 524288.0, 0.0, 15493),
    ("rtx4090", "fp16", 2): (14730246144.0, 262144.0, 0.0, 56191),
    ("rtx4090", "fp16", 4): (18033784832.0, 131072.0, 0.0, 137586),
    ("rtx4090", "fp16", 8): (19685554176.0, 65536.0, 0.0, 300377),
    ("rtx4090", "kv-cq-4", 1): (8123168768.0, 131072.0, 134217728.0, 60950),
    ("rtx4090", "kv-cq-4", 2): (14730246144.0, 65536.0, 134217728.0, 222717),
    ("rtx4090", "kv-cq-4", 4): (18033784832.0, 32768.0, 134217728.0, 546251),
    ("rtx4090", "kv-cq-4", 8): (19685554176.0, 16384.0, 134217728.0, 1193318),
    ("rtx4090", "kv-cq-2", 1): (8123168768.0, 65536.0, 134217728.0, 121901),
    ("rtx4090", "kv-cq-2", 2): (14730246144.0, 32768.0, 134217728.0, 445435),
    ("rtx4090", "kv-cq-2", 4): (18033784832.0, 16384.0, 134217728.0, 1092502),
    ("rtx4090", "kv-cq-2", 8): (19685554176.0, 8192.0, 134217728.0, 2386637),
    ("a40", "fp16", 1): (29723168768.0, 524288.0, 0.0, 56692),
    ("a40", "fp16", 2): (36330246144.0, 262144.0, 0.0, 138588),
    ("a40", "fp16", 4): (39633784832.0, 131072.0, 0.0, 302381),
    ("a40", "fp16", 8): (41285554176.0, 65536.0, 0.0, 629967),
    ("a40", "kv-cq-4", 1): (29723168768.0, 131072.0, 134217728.0, 225745),
    ("a40", "kv-cq-4", 2): (36330246144.0, 65536.0, 134217728.0, 552307),
    ("a40", "kv-cq-4", 4): (39633784832.0, 32768.0, 134217728.0, 1205431),
    ("a40", "kv-cq-4", 8): (41285554176.0, 16384.0, 134217728.0, 2511678),
    ("a40", "kv-cq-2", 1): (29723168768.0, 65536.0, 134217728.0, 451491),
    ("a40", "kv-cq-2", 2): (36330246144.0, 32768.0, 134217728.0, 1104615),
    ("a40", "kv-cq-2", 4): (39633784832.0, 16384.0, 134217728.0, 2410862),
    ("a40", "kv-cq-2", 8): (41285554176.0, 8192.0, 134217728.0, 5023356),
    ("a100", "fp16", 1): (58523168768.0, 524288.0, 0.0, 111624),
    ("a100", "fp16", 2): (65130246144.0, 262144.0, 0.0, 248452),
    ("a100", "fp16", 4): (68433784832.0, 131072.0, 0.0, 522108),
    ("a100", "fp16", 8): (70085554176.0, 65536.0, 0.0, 1069420),
    ("a100", "kv-cq-4", 1): (58523168768.0, 131072.0, 134217728.0, 445472),
    ("a100", "kv-cq-4", 2): (65130246144.0, 65536.0, 134217728.0, 991760),
    ("a100", "kv-cq-4", 4): (68433784832.0, 32768.0, 134217728.0, 2084337),
    ("a100", "kv-cq-4", 8): (70085554176.0, 16384.0, 134217728.0, 4269490),
    ("a100", "kv-cq-2", 1): (58523168768.0, 65536.0, 134217728.0, 890944),
    ("a100", "kv-cq-2", 2): (65130246144.0, 32768.0, 134217728.0, 1983521),
    ("a100", "kv-cq-2", 4): (68433784832.0, 16384.0, 134217728.0, 4168674),
    ("a100", "kv-cq-2", 8): (70085554176.0, 8192.0, 134217728.0, 8538981),
}


class TestHarness:
    def test_add_row_validates_width(self):
        r = ExperimentResult("x", "t", columns=("a", "b"))
        r.add_row(1, 2)
        with pytest.raises(ValueError):
            r.add_row(1, 2, 3)

    def test_column_extraction(self):
        r = ExperimentResult("x", "t", columns=("a", "b"))
        r.add_row(1, "p")
        r.add_row(2, "q")
        assert r.column("a") == [1, 2]
        assert r.as_dicts()[1] == {"a": 2, "b": "q"}

    def test_render_contains_values(self):
        r = ExperimentResult("x", "Title", columns=("metric", "value"))
        r.add_row("speed", 12.5)
        text = r.render()
        assert "Title" in text and "12.50" in text

    def test_format_table_alignment(self):
        text = format_table("T", ("col",), [[123456.0]], notes=["hi"])
        assert "123,456" in text
        assert "note: hi" in text


class TestWorkloads:
    def test_llama7b_shapes(self):
        cfg = llama_7b()
        assert llama_gemm_shape(cfg, 1024).m == 1024
        assert llama_gemv_shape(cfg, 16).m == 16
        attn = llama_attention_shape(cfg, batch=8, seq_len=4096)
        assert attn.heads == 32 and attn.head_dim == 128

    def test_llama65b_is_bigger(self):
        small = llama_gemm_shape(llama_7b())
        big = llama_gemm_shape(llama_65b())
        assert big.n == 2 * small.n


class TestSampleDiskCache:
    """The persistent quantized-sample store round-trips losslessly."""

    @pytest.fixture()
    def tiny_samples(self, tmp_path, monkeypatch):
        from repro.bench import workloads as wl
        monkeypatch.setenv("REPRO_SAMPLE_CACHE", str(tmp_path))
        monkeypatch.setattr(wl, "WEIGHT_SAMPLE_SHAPE", (64, 64))
        monkeypatch.setattr(wl, "_CACHE", {})
        yield wl, tmp_path

    def test_round_trip_bit_identical(self, tiny_samples):
        import numpy as np
        wl, cache_dir = tiny_samples
        first = wl.weight_sample("cq-2", kmeans_iters=1)
        files = list(cache_dir.glob("*.npz"))
        assert len(files) == 1
        wl.clear_cache()
        # The second call must be served from disk: training inputs
        # are unreachable.
        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("disk cache missed")
        wl.__dict__["structured_matrix"], orig = boom, wl.structured_matrix
        try:
            second = wl.weight_sample("cq-2", kmeans_iters=1)
        finally:
            wl.__dict__["structured_matrix"] = orig
        assert np.array_equal(first.codes, second.codes)
        assert first.codes.dtype == second.codes.dtype == np.uint8
        assert np.array_equal(first.group_map, second.group_map)
        assert first.shape == second.shape
        for ga, gb in zip(first.codebooks.books, second.codebooks.books):
            for a, b in zip(ga, gb):
                assert np.array_equal(a.entries, b.entries)
                assert a.entries.dtype == b.entries.dtype
                assert a.element_bytes == b.element_bytes
        # The group map is derived from the scope, never stored.
        with np.load(files[0]) as data:
            assert not [k for k in data.files if k.endswith("_group_map")]

    def test_format_1_file_is_retrained_and_overwritten(self, tiny_samples,
                                                        monkeypatch):
        """A format-1 file (int64 codes beside an int64 group map) at
        the sample's path is retrained over, not loaded."""
        import json

        import numpy as np
        wl, cache_dir = tiny_samples
        first = wl.weight_sample("cq-2", kmeans_iters=1)
        (path,) = cache_dir.glob("*.npz")
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps({**meta, "format": 1},
                                             sort_keys=True))
        arrays["w_codes"] = arrays["w_codes"].astype(np.int64)
        arrays["w_group_map"] = first.group_map.astype(np.int64)
        np.savez(path, **arrays)
        wl.clear_cache()
        orig, trained = wl.structured_matrix, []

        def counting(*args):
            trained.append(args)
            return orig(*args)

        monkeypatch.setattr(wl, "structured_matrix", counting)
        second = wl.weight_sample("cq-2", kmeans_iters=1)
        assert len(trained) == 1
        assert np.array_equal(first.codes, second.codes)
        with np.load(path) as data:
            assert json.loads(str(data["meta"])) == meta
            assert data["w_codes"].dtype == np.uint8
            assert "w_group_map" not in data.files

    def test_key_mismatch_retrains(self, tiny_samples):
        wl, cache_dir = tiny_samples
        wl.weight_sample("cq-2", kmeans_iters=1)
        wl.clear_cache()
        # Different k-means depth -> different file, not a false hit.
        wl.weight_sample("cq-2", kmeans_iters=2)
        assert len(list(cache_dir.glob("*.npz"))) == 2

    def test_opt_out(self, tiny_samples, monkeypatch):
        wl, cache_dir = tiny_samples
        monkeypatch.setenv("REPRO_SAMPLE_CACHE", "off")
        assert wl._sample_cache_dir() is None
        wl.weight_sample("cq-2", kmeans_iters=1)
        assert not list(cache_dir.glob("*.npz"))


class TestAccuracyProxy:
    def test_vq_beats_elementwise_on_correlated_data(self):
        data = correlated_2d_sample(n=2048, rho=0.9, seed=0)
        for bits in (2, 4):
            assert mse_vq(data, bits, seed=0) < mse_elementwise(data, bits)

    def test_more_bits_help_both(self):
        data = correlated_2d_sample(n=2048, seed=1)
        assert mse_vq(data, 4, seed=1) < mse_vq(data, 2, seed=1)
        assert mse_elementwise(data, 4) < mse_elementwise(data, 2)


class TestE2ELedger:
    @pytest.fixture(scope="class")
    def ledger(self):
        return E2ELedger(RTX4090, llama_7b())

    def test_decode_step_positive(self, ledger):
        step = ledger.decode_step(16, 1024, "fp16")
        assert step.total_us > 0
        assert 0 < step.elementwise_share < 0.5

    def test_quantized_modes_faster(self, ledger):
        fp16 = ledger.decode_step(16, 1024, "fp16").total_us
        for mode in ("qserve", "vq4", "vq2"):
            assert ledger.decode_step(16, 1024, mode).total_us < fp16

    def test_vq2_faster_than_vq4(self, ledger):
        vq4 = ledger.decode_step(16, 1024, "vq4").total_us
        vq2 = ledger.decode_step(16, 1024, "vq2").total_us
        assert vq2 < vq4

    def test_generation_integrates_decode(self, ledger):
        gen = ledger.generation_us(16, 1024, 64, "fp16", samples=3)
        step = ledger.decode_step(16, 1024, "fp16").total_us
        assert gen >= step * 64 * 0.9

    def test_zero_tokens(self, ledger):
        assert ledger.generation_us(16, 1024, 0, "fp16") == 0.0

    def test_speedups_structure(self, ledger):
        speedups = ledger.speedups(16, 256, 16)
        assert set(speedups) == set(MODES)
        assert speedups["fp16"] == pytest.approx(1.0)
        assert all(s > 1.0 for m, s in speedups.items() if m != "fp16")

    def test_a40_speedup_at_least_4090(self):
        ours = E2ELedger(RTX4090, llama_7b()).speedups(16, 256, 8)
        theirs = E2ELedger(A40, llama_7b()).speedups(16, 256, 8)
        # Paper: the bandwidth-constrained A40 gains more from VQ.
        assert theirs["vq4"] >= ours["vq4"] * 0.95

    def test_batch_past_gemv_cap_prices_gemm(self, ledger):
        """The GEMV kernels reject batches above ``GEMV_MAX_BATCH``; a
        decode projection that large runs as the same family's GEMM,
        as the serving cost model prices it."""
        from repro.bench.e2e import run
        from repro.kernels.gemm import GEMV_MAX_BATCH, GemmShape
        from repro.llm.model import decode_operator_shapes

        def projections_us(kind, batch):
            # The step's GEMV class, re-priced operator by operator in
            # walk order with one kernel kind.
            total = 0.0
            for op in decode_operator_shapes(ledger.config, batch, 128):
                if op.kind == "gemv":
                    shape = GemmShape(m=op.m, n=op.n, k=op.k)
                    total += ledger.engine.batch_latency_us(
                        kind, shape) * op.count
            return total

        big = GEMV_MAX_BATCH + 32  # the 96 batch bucket
        assert (ledger.decode_step(big, 128, "fp16").gemv_us
                == projections_us("gemm", big))
        assert (ledger.decode_step(GEMV_MAX_BATCH, 128, "fp16").gemv_us
                == projections_us("gemv", GEMV_MAX_BATCH))
        result = run(["--batch", "96", "--prompt-len", "128",
                      "--gen-tokens", "8"])
        assert [r[0] for r in result.rows] == list(MODES)
        assert all(r[1] > 0 for r in result.rows)

    def test_unknown_mode_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.decode_step(1, 128, "int3")

    def test_run_returns_result_and_reports(self):
        from repro.bench.e2e import DecodeStepBreakdown, run

        reports = {}
        result = run(["--modes", "fp16", "qserve", "--batch", "4",
                      "--prompt-len", "128", "--gen-tokens", "8"],
                     reports=reports)
        assert [r[0] for r in result.rows] == ["fp16", "qserve"]
        assert set(reports) == {"fp16", "qserve"}
        assert all(isinstance(b, DecodeStepBreakdown)
                   for b in reports.values())
        by_mode = {r[0]: dict(zip(result.columns, r))
                   for r in result.rows}
        assert by_mode["fp16"]["speedup_vs_fp16"] == pytest.approx(1.0)
        assert by_mode["qserve"]["speedup_vs_fp16"] > 1.0


#: Per-class decode-step times (us) at batch 16, 1k context, as the
#: Fig. 17 ledger priced them before it became a client of
#: ``StepCostModel.decode_breakdown``: (GEMV, attention, element-wise).
FIG17_STEP_CLASSES_US = {
    ("RTX 4090", "fp16"): (18016.712746666664, 9990.895746031747,
                           872.0253968253969),
    ("RTX 4090", "qserve"): (7448.2317511111105, 2885.8779225396825,
                             903.2330158730159),
    ("RTX 4090", "vq4"): (7306.673991111113, 5197.202773333333,
                          903.2330158730159),
    ("RTX 4090", "vq2"): (7193.5983847619045, 4004.156302222222,
                          903.2330158730159),
    ("Tesla A40", "fp16"): (25154.810854252875, 14426.538666666667,
                            918.6574712643678),
    ("Tesla A40", "qserve"): (9848.734929655173, 4136.512853333333,
                              963.8547126436782),
    ("Tesla A40", "vq4"): (9601.957991724139, 7440.914361379311,
                           963.8547126436782),
    ("Tesla A40", "vq2"): (8915.170843218391, 5713.053954942529,
                           963.8547126436782),
}


class TestOneDecodeWalk:
    """The Fig. 17 ledger and the serving cost model are two clients
    of one decode walk, so they agree bit for bit on the bucket grid."""

    @pytest.fixture(scope="class", params=[RTX4090, A40],
                    ids=["rtx4090", "a40"])
    def ledger(self, request):
        return E2ELedger(request.param, llama_7b())

    @pytest.mark.parametrize("mode", MODES)
    def test_ledger_step_is_the_serving_step(self, ledger, mode):
        from repro.bench.serving import make_cost_model

        cost = make_cost_model(ledger.engine, ledger.config, mode)
        for batch in (1, 16, 64, 96):
            for seq in (512, 1024, 2048):
                assert (ledger.decode_step(batch, seq, mode).total_us
                        == cost.decode_step_us(batch, seq)), (batch, seq)

    @pytest.mark.parametrize("mode", MODES)
    def test_fig17_step_classes_pinned(self, ledger, mode):
        step = ledger.decode_step(16, 1024, mode)
        assert ((step.gemv_us, step.attention_us, step.elementwise_us)
                == FIG17_STEP_CLASSES_US[(ledger.spec.name, mode)])
        assert step.collective_us == 0.0
        assert step.total_us == pytest.approx(
            step.gemv_us + step.attention_us + step.elementwise_us,
            rel=1e-15)


class TestServingBench:
    """Mode wiring of the serving experiment (the full simulation runs
    in examples/serving_simulation.py; here we only check the mapping)."""

    def test_kv_budgets_reflect_compression(self):
        from repro.bench.serving import make_kv_budget
        cfg = llama_7b()
        fp16 = make_kv_budget(cfg, "fp16", 4e9)
        cq4 = make_kv_budget(cfg, "kv-cq-4", 4e9)
        cq2 = make_kv_budget(cfg, "kv-cq-2", 4e9)
        assert cq4.bytes_per_token == pytest.approx(
            fp16.bytes_per_token * 0.25)
        assert cq2.bytes_per_token == pytest.approx(
            fp16.bytes_per_token * 0.125)
        assert cq2.max_tokens > cq4.max_tokens > fp16.max_tokens

    def test_full_stack_modes_map_to_e2e_algos(self):
        from repro.bench.serving import make_kv_budget
        cfg = llama_7b()
        vq4 = make_kv_budget(cfg, "vq4", 4e9)
        qserve = make_kv_budget(cfg, "qserve", 4e9)
        # CQ-4 codes and INT4 both store 25% of FP16.  INT4 adds an FP16
        # scale and zero per 64 elements (1/8 more); the VQ mode instead
        # pays resident codebooks once.
        assert qserve.bytes_per_token == pytest.approx(
            vq4.bytes_per_token * 1.125)
        assert vq4.overhead_bytes > 0 and qserve.overhead_bytes == 0

    def test_unknown_mode_rejected(self):
        from repro.bench.serving import make_cost_model
        from repro.core.engine import ComputeEngine
        with pytest.raises(ValueError):
            make_cost_model(ComputeEngine(RTX4090), llama_7b(), "int3")

    def test_spec_derived_budget(self):
        from repro.bench.serving import make_kv_budget
        cfg = llama_7b()
        derived = make_kv_budget(cfg, "fp16", spec=RTX4090)
        explicit = make_kv_budget(cfg, "fp16", 4e9)
        assert derived.bytes_per_token == explicit.bytes_per_token
        assert derived.capacity_bytes > explicit.capacity_bytes  # ~8 GB
        with pytest.raises(ValueError):  # neither capacity nor spec
            make_kv_budget(cfg, "fp16")
        with pytest.raises(ValueError):  # TP shards a derived budget
            make_kv_budget(cfg, "fp16", 4e9, tp_degree=2)

    def test_derived_budgets_charge_each_modes_weights(self):
        """Quantized weights leave more than twice FP16's KV capacity on
        an RTX 4090; KV-only modes keep FP16 weights, so FP16's."""
        from repro.bench.serving import make_kv_budget
        cfg = llama_7b()
        fp16 = make_kv_budget(cfg, "fp16", spec=RTX4090).capacity_bytes
        for mode in ("vq4", "vq2", "qserve"):
            assert (make_kv_budget(cfg, mode, spec=RTX4090).capacity_bytes
                    > 2 * fp16)
        for mode in ("kv-cq-4", "kv-cq-2"):
            assert (make_kv_budget(cfg, mode, spec=RTX4090).capacity_bytes
                    == fp16)

    @pytest.mark.parametrize("model", [llama_7b, llama_65b])
    def test_walk_fills_usable_dram(self, model):
        """For every mode, preset and TP degree, the walk's terms sum to
        the DRAM past the reserve, and the mode's derived budget is the
        walk's KV: built where the KV has room, refused where not."""
        from repro.bench.serving import MODE_FORMATS, make_kv_budget
        from repro.gpu.spec import PRESETS
        from repro.serve.scheduler import HBM_RESERVE, hbm_walk
        from repro.vq.algorithms import make_config
        cfg = model()
        fits = 0
        for mode, (weights, kv) in MODE_FORMATS.items():
            formats = dict(
                weight_vq=(make_config(weights)
                           if isinstance(weights, str) else None),
                weight_bits=weights if isinstance(weights, int) else None,
                kv_vq=make_config(kv) if isinstance(kv, str) else None)
            for spec in PRESETS.values():
                for tp in (1, 2, 4, 8):
                    walk = hbm_walk(cfg, spec, tp_degree=tp, **formats)
                    assert (walk.weights + walk.weight_codebooks
                            + walk.kv_codebooks + walk.kv
                            == pytest.approx(
                                spec.dram_bytes * (1 - HBM_RESERVE),
                                rel=1e-12))
                    if walk.kv <= 0:
                        with pytest.raises(ValueError):
                            make_kv_budget(cfg, mode, spec=spec,
                                           tp_degree=tp)
                        continue
                    fits += 1
                    budget = make_kv_budget(cfg, mode, spec=spec,
                                            tp_degree=tp)
                    assert budget.capacity_bytes == walk.kv_capacity
                    assert budget.overhead_bytes == walk.kv_codebooks
        assert fits > 0

    def test_make_trace_kinds(self):
        from repro.bench.serving import make_trace
        for kind in ("poisson", "bursty"):
            trace = make_trace(kind, 8.0, 40, 256, 64, seed=1)
            assert len(trace) == 40
        assert make_trace("poisson", 8.0, 40, 256, 64, seed=1) == \
            make_trace("poisson", 8.0, 40, 256, 64, seed=1)
        with pytest.raises(ValueError):
            make_trace("weibull", 8.0, 40, 256, 64)

    def test_make_trace_session_kinds_carry_ids(self):
        from repro.bench.serving import make_trace
        shared = make_trace("shared_prefix", 8.0, 12, 64, 16, seed=1)
        assert len(shared) == 12
        root = shared[0].prompt_ids[:128]  # system = 2 * prompt_mean
        assert all(r.prompt_ids[:128] == root for r in shared)
        chat = make_trace("chat", 8.0, 12, 64, 16, seed=1)
        assert len(chat) == 12  # 3 sessions x 4 turns
        assert {r.turn for r in chat} == {0, 1, 2, 3}
        assert all(r.prompt_ids is not None and r.output_ids is not None
                   for r in chat)
        # Counts not divisible by the turn count are hit exactly, and
        # trimming keeps every session's kept turns a prefix.
        chat10 = make_trace("chat", 8.0, 10, 64, 16, seed=1)
        assert len(chat10) == 10
        assert [r.req_id for r in chat10] == list(range(10))
        by_session = {}
        for r in chat10:
            by_session.setdefault(r.session_id, []).append(r.turn)
        assert all(sorted(turns) == list(range(len(turns)))
                   for turns in by_session.values())

    def test_cli_runs_a_small_comparison(self, capsys):
        from repro.bench.serving import main
        rc = main(["--modes", "fp16", "--requests", "6", "--rate", "8",
                   "--kv-gb", "2", "--prompt-mean", "64",
                   "--output-mean", "16", "--trace-kind", "bursty"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace: bursty" in out
        assert "fp16" in out

    def test_cli_rejects_unknown_mode(self):
        from repro.bench.serving import main
        with pytest.raises(SystemExit):
            main(["--modes", "int3"])

    def test_cli_prefix_comparison(self, capsys):
        from repro.bench.serving import main
        rc = main(["--modes", "kv-cq-4", "--requests", "8", "--rate", "8",
                   "--kv-gb", "1", "--prompt-mean", "48",
                   "--output-mean", "8", "--trace-kind", "chat",
                   "--prefix-caching"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Prefix caching" in out
        assert "hit_rate" in out

    def test_cli_prefix_caching_defaults_to_chat_trace(self, capsys):
        """--prefix-caching without --trace-kind must not silently run
        an id-less poisson trace (where nothing can ever hit)."""
        from repro.bench.serving import main
        rc = main(["--modes", "kv-cq-4", "--requests", "8", "--rate", "8",
                   "--kv-gb", "1", "--prompt-mean", "48",
                   "--output-mean", "8", "--prefix-caching"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace: chat" in out
        assert "serves 0% of prompt tokens" not in out


class TestClusterBench:
    """Wiring of the fleet experiments (full runs live in
    examples/cluster_serving.py; these stay on tiny shapes)."""

    def test_replica_kv_budget_equal_hbm(self):
        from repro.bench.cluster import replica_kv_budget
        cfg = llama_7b()
        fp16 = replica_kv_budget(cfg, "fp16", RTX4090)
        cq4 = replica_kv_budget(cfg, "kv-cq-4", RTX4090)
        assert fp16.capacity_bytes == pytest.approx(cq4.capacity_bytes)
        assert cq4.max_tokens > 3.5 * fp16.max_tokens

    def test_replica_kv_budget_pins_fp16_and_kv_only_modes(self):
        """The modes with FP16 weights keep these exact budgets: the HBM
        walk may move only the budgets of weight-quantized modes."""
        from repro.bench.cluster import replica_kv_budget
        from repro.gpu.spec import get_spec
        cfg = llama_7b()
        for (gpu, mode, tp), pinned in _FP16_WEIGHT_BUDGETS.items():
            budget = replica_kv_budget(cfg, mode, get_spec(gpu),
                                       tp_degree=tp)
            assert (budget.capacity_bytes, budget.bytes_per_token,
                    budget.overhead_bytes, budget.max_tokens) == pinned

    def test_quantized_weights_fit_one_gpu(self):
        """Llama-65B in QuiP#-4 fits one A40 with ~9.8 GB of KV; its
        130.6 GB of FP16 weights do not, even over two GPUs."""
        from repro.bench.cluster import replica_kv_budget
        cfg = llama_65b()
        vq4 = replica_kv_budget(cfg, "vq4", A40)
        assert vq4.capacity_bytes == pytest.approx(9.77e9, rel=1e-3)
        assert vq4.max_tokens > 10_000
        for tp in (1, 2):
            with pytest.raises(ValueError):
                replica_kv_budget(cfg, "fp16", A40, tp_degree=tp)

    def test_tp_replicas_gain_kv_headroom(self):
        """Sharding frees weight memory and splits KV bytes, so a TP-2
        replica holds more than 2x the tokens of one GPU."""
        from repro.bench.cluster import replica_kv_budget
        cfg = llama_7b()
        single = replica_kv_budget(cfg, "fp16", RTX4090)
        tp2 = replica_kv_budget(cfg, "fp16", RTX4090, tp_degree=2)
        assert tp2.max_tokens > 2 * single.max_tokens

    def test_make_replicas_are_fresh_and_identical(self):
        """``FleetConfig.build`` gives every replica its own scheduler
        over one budget and one shared cost model."""
        from repro.bench.cluster import replica_kv_budget
        from repro.bench.serving import make_cost_model
        from repro.core.engine import ComputeEngine
        from repro.llm.config import tiny_llama
        from repro.serve.api import FleetConfig
        cfg = tiny_llama()
        engine = ComputeEngine(RTX4090)
        spec = replace(RTX4090, dram_bytes=1e9)
        reps = FleetConfig().build(3, replica_kv_budget(cfg, "fp16", spec),
                                   make_cost_model(engine, cfg,
                                                   "fp16")).replicas
        assert len(reps) == 3
        assert len({id(r.scheduler) for r in reps}) == 3  # own schedulers
        assert len({id(r.cost_model) for r in reps}) == 1  # shared pricing
        assert all(r.scheduler.budget.max_tokens ==
                   reps[0].scheduler.budget.max_tokens for r in reps)

    def test_tp_scaling_table_structure(self):
        from repro.bench.cluster import tp_scaling
        from repro.cluster.interconnect import IDEAL_LINK
        from repro.core.engine import ComputeEngine
        from repro.llm.config import tiny_llama
        result = tp_scaling(spec=RTX4090, config=tiny_llama(),
                            degrees=(1, 2, 4), links=(IDEAL_LINK,),
                            batch=4, context_tokens=256,
                            engine=ComputeEngine(RTX4090))
        assert result.column("tp") == [1, 2, 4]
        speedups = result.column("speedup_vs_tp1")
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[-1] > speedups[0]

    def test_tp_scaling_row_is_one_decode_breakdown(self):
        """Step and collective time of a row come from one exact
        decode walk at the requested batch and context."""
        from repro.bench.cluster import tp_scaling
        from repro.cluster.interconnect import PCIE4
        from repro.cluster.sharding import TensorParallelPlan
        from repro.core.engine import ComputeEngine
        from repro.llm.config import tiny_llama
        from repro.serve.costs import StepCostModel

        engine, config = ComputeEngine(RTX4090), tiny_llama()
        row = tp_scaling(spec=RTX4090, config=config, degrees=(2,),
                         links=(PCIE4,), batch=4, context_tokens=300,
                         engine=engine).as_dicts()[0]
        step = StepCostModel(
            engine, config,
            plan=TensorParallelPlan(config, 2, PCIE4)).decode_breakdown(4, 300)
        assert row["step_us"] == step.total_us
        assert row["collective_us"] == step.collective_us > 0.0

    def test_cluster_cli_tp_prices_the_prompt_mean_context(self, capsys):
        """``--experiment tp`` prices its decode step at
        ``--prompt-mean`` tokens of context."""
        from repro.bench.cluster import run, tp_scaling
        table = run(["--experiment", "tp", "--tp", "1", "2",
                     "--prompt-mean", "2048"])
        out = capsys.readouterr().out
        assert "context 2048" in out
        expected = tp_scaling(spec=RTX4090, config=llama_7b(),
                              degrees=(1, 2), context_tokens=2048)
        assert table.column("step_us") == expected.column("step_us")
        assert str(expected) in out

    def test_routing_comparison_structure(self):
        """Tiny-shape routing table: prefix-affinity must report the
        highest cached-token fraction on a sessionized trace."""
        from repro.bench.cluster import routing_comparison
        from repro.core.engine import ComputeEngine
        from repro.llm.config import tiny_llama
        reports = {}
        spec = replace(RTX4090, dram_bytes=2e9)
        result = routing_comparison(
            mode="fp16", n_replicas=2,
            policies=("round-robin", "prefix-affinity"),
            spec=spec, config=tiny_llama(),
            rate_rps=8.0, n_requests=8, prompt_mean=32, output_mean=8,
            engine=ComputeEngine(spec), reports=reports)
        assert result.column("policy") == ["round-robin",
                                           "prefix-affinity"]
        assert set(reports) == {"round-robin", "prefix-affinity"}
        cached = dict(zip(result.column("policy"),
                          result.column("cached_frac")))
        assert cached["prefix-affinity"] >= cached["round-robin"]

    def test_cluster_cli_runs_routing(self, capsys):
        from repro.bench.cluster import main
        rc = main(["--experiment", "routing", "--modes", "kv-cq-4",
                   "--trace-kind", "chat", "--rate", "8", "--requests", "8",
                   "--prompt-mean", "48", "--output-mean", "8",
                   "--replicas", "2",
                   "--policy", "round-robin", "prefix-affinity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Routing x prefix caching" in out
        assert "prefix-affinity" in out

    def test_cluster_cli_rejects_unknown_policy(self):
        from repro.bench.cluster import main
        with pytest.raises(SystemExit):
            main(["--experiment", "routing", "--policy", "random"])

    def test_cluster_cli_routing_defaults_to_chat_trace(self, capsys):
        """--experiment routing without --trace must default to an
        id-carrying trace, not poisson's all-zero hit table."""
        from repro.bench.cluster import main
        rc = main(["--experiment", "routing", "--modes", "kv-cq-4",
                   "--rate", "8", "--requests", "8",
                   "--prompt-mean", "48", "--output-mean", "8",
                   "--replicas", "2",
                   "--policy", "round-robin", "prefix-affinity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "caches 0% of prompt tokens" not in out

    def test_cluster_cli_prefix_caching_forces_paged(self, capsys):
        """--prefix-caching under the sizing experiment must imply
        paged admission instead of crashing on the reserve default."""
        from repro.bench.cluster import main
        rc = main(["--experiment", "sizing", "--modes", "kv-cq-4",
                   "--rate", "8", "--requests", "8",
                   "--prompt-mean", "48", "--output-mean", "8",
                   "--max-replicas", "2", "--prefix-caching"])
        assert rc == 0
        assert "Fleet sizing" in capsys.readouterr().out


class TestStructuredResults:
    """The CLI experiment paths return structured results (prints
    preserved), so the orchestrator and tests never scrape stdout."""

    SERVING_ARGS = ["--modes", "fp16", "--requests", "6", "--rate", "8",
                    "--kv-gb", "2", "--prompt-mean", "64",
                    "--output-mean", "16"]

    def test_serving_run_returns_experiment_result(self, capsys):
        from repro.bench.harness import ExperimentResult
        from repro.bench.serving import run

        reports = {}
        table = run(self.SERVING_ARGS, reports=reports)
        assert isinstance(table, ExperimentResult)
        assert table.column("mode") == ["fp16"]
        assert set(reports) == {"fp16"}
        # The printed table is the same structured result, rendered.
        assert table.render() in capsys.readouterr().out
        assert reports["fp16"].throughput_rps \
            == table.column("req/s")[0]

    def test_serving_main_still_prints_and_returns_zero(self, capsys):
        from repro.bench.serving import main

        assert main(self.SERVING_ARGS) == 0
        assert "fp16" in capsys.readouterr().out

    def test_cluster_run_returns_experiment_result(self, capsys):
        from repro.bench.cluster import run
        from repro.bench.harness import ExperimentResult
        from repro.cluster.fleet import FleetReport

        reports = {}
        table = run(["--experiment", "routing", "--modes", "fp16",
                     "--trace-kind", "chat", "--rate", "8", "--requests", "8",
                     "--prompt-mean", "48", "--output-mean", "8",
                     "--replicas", "2", "--policy", "round-robin"],
                    reports=reports)
        assert isinstance(table, ExperimentResult)
        assert set(reports) == {"round-robin"}
        assert isinstance(reports["round-robin"], FleetReport)
        assert table.render() in capsys.readouterr().out

    def test_serving_report_metrics_round_trip_json(self):
        import json

        from repro.bench.serving import simulate_mode

        rep = simulate_mode("fp16", rate_rps=8.0, n_requests=6,
                            prompt_mean=64, output_mean=16)
        metrics = rep.metrics()
        assert metrics["throughput_rps"] == rep.throughput_rps
        assert metrics["ttft_p50_ms"] == rep.ttft_s(50) * 1e3
        assert metrics["n_requests"] == rep.n_requests
        assert json.loads(json.dumps(metrics)) == metrics

    def test_fleet_report_metrics_with_and_without_slo(self):
        from repro.bench.cluster import replica_kv_budget
        from repro.bench.serving import make_cost_model, make_trace
        from repro.core.engine import ComputeEngine
        from repro.obs.slo import SLO
        from repro.serve.api import FleetConfig

        trace = make_trace("poisson", 8.0, 8, 64, 16, seed=0)
        config = llama_7b()
        rep = FleetConfig(policy="jsq").build(
            2, replica_kv_budget(config, "fp16", RTX4090),
            make_cost_model(ComputeEngine(RTX4090), config,
                            "fp16")).run(trace)
        metrics = rep.metrics()
        assert metrics["n_replicas"] == 2
        assert "goodput_rps" not in metrics
        slo = SLO(ttft_s=2.0)
        with_slo = rep.metrics(slo)
        assert with_slo["goodput_rps"] == rep.goodput_rps(slo)
        assert with_slo["slo_attainment"] == rep.slo_attainment(slo)
