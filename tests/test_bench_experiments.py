"""Experiment-registry and CLI tests (cheap experiments only; the
expensive figures are exercised by the benchmark suite)."""

from repro.bench.ablation import ABLATIONS
from repro.bench.ablation import main as ablation_main
from repro.bench.ablation import quantization_overhead, \
    shuffle_threshold_sweep
from repro.bench.experiments import (
    EXPERIMENTS,
    main,
    tbl02_configs,
    tbl03_axes,
)
from repro.bench.harness import ExperimentResult


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"fig2", "fig4", "fig8", "fig9", "fig10", "fig13",
                    "fig14", "fig15", "fig16", "fig17", "fig17acc",
                    "fig18", "tbl2", "tbl3", "tbl5"}
        assert expected <= set(EXPERIMENTS)

    def test_ablation_registry(self):
        assert {"bandwidth", "threshold", "floor",
                "quant-overhead"} <= set(ABLATIONS)


class TestCheapExperiments:
    def test_tbl2_returns_result(self):
        result = tbl02_configs()
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 5

    def test_tbl3_returns_result(self):
        result = tbl03_axes()
        assert len(result.rows) == 6

    def test_threshold_sweep(self):
        result = shuffle_threshold_sweep(thresholds=(5,))
        assert len(result.rows) == 1

    def test_quant_overhead(self):
        metrics = dict(quantization_overhead().rows)
        assert metrics["encode_vs_projection"] > 0

    def test_fig17_note_reads_the_tables_rtx4090_ledger(self, monkeypatch):
        """One ledger per GPU: the element-wise note reuses the RTX
        4090 ledger the table built, and reads what a fresh one does."""
        from repro.bench import experiments
        from repro.bench.e2e import E2ELedger
        from repro.gpu.spec import A40, RTX4090
        from repro.llm.config import llama_7b

        built = []

        class CountingLedger(E2ELedger):
            def __init__(self, spec, *args, **kwargs):
                built.append(spec.name)
                super().__init__(spec, *args, **kwargs)

        monkeypatch.setattr(experiments, "E2ELedger", CountingLedger)
        result = experiments.fig17_e2e()
        assert built == [RTX4090.name, A40.name]
        fresh = E2ELedger(RTX4090, llama_7b())
        fp16 = fresh.decode_step(16, 1024, "fp16").elementwise_share
        vq4 = fresh.decode_step(16, 1024, "vq4").elementwise_share
        assert result.notes == [
            f"elementwise-op share: fp16 {fp16:.1%}, vq4 {vq4:.1%} "
            "(paper: ~10% / ~20%)"]


class TestCLI:
    def test_main_runs_named_experiment(self, capsys):
        assert main(["tbl3"]) == 0
        out = capsys.readouterr().out
        assert "Tbl. III" in out

    def test_main_rejects_unknown(self, capsys):
        assert main(["fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().out

    def test_ablation_main(self, capsys):
        assert ablation_main(["quant-overhead"]) == 0
        assert "quantization overhead" in capsys.readouterr().out

    def test_ablation_main_rejects_unknown(self, capsys):
        assert ablation_main(["nope"]) == 1
