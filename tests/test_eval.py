"""Tests for the evaluation harness: figures, overhead model, page maps."""

import json
import math
from pathlib import Path

import pytest

from repro.eval.experiments import profiling_overhead
from repro.eval.figures import (
    aggregate_cells,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_overhead,
    run_fig6,
    sweep_figure_cells,
)
from repro.eval.pagemap import page_map
from repro.eval.pipeline import (
    PAPER_STRATEGY_SPECS,
    STRATEGY_CU,
    WorkloadPipeline,
)
from repro.eval.plotting import render_factor_chart, render_table
from repro.util.stats import ConfidenceInterval
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import microservice_workload

PAYLOAD = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
PAPER_NAMES = {spec.name for spec in PAPER_STRATEGY_SPECS}


@pytest.fixture(scope="module")
def figure_cells():
    """One ``repro figures`` sweep of Bounce and micronaut (base seed 1,
    one run): the cells every figure test below aggregates."""
    return sweep_figure_cells(
        [awfy_workload("Bounce"), microservice_workload("micronaut")],
        builds=1, runs=1,
    )


@pytest.fixture(scope="module")
def bounce_result(figure_cells):
    return {metric: aggregate_cells(figure_cells, metric, "awfy")[0]["Bounce"]
            for metric in ("fault_factor", "speedup")}


def _cell(workload, strategy, metric_value, seed=1, error=None):
    return {"workload": workload, "strategy": strategy, "seed": seed,
            "fault_factor": metric_value, "speedup": metric_value,
            "error": error}


class TestEvaluateWorkload:
    def test_all_strategies_present(self, bounce_result):
        assert set(bounce_result["fault_factor"]) == PAPER_NAMES
        assert set(bounce_result["speedup"]) == PAPER_NAMES

    def test_factors_positive_and_finite(self, bounce_result):
        for factors in bounce_result.values():
            for ci in factors.values():
                assert ci.mean > 0
                assert math.isfinite(ci.mean)

    def test_code_strategies_reduce_faults(self, bounce_result):
        assert bounce_result["fault_factor"]["cu"].mean > 1.0
        assert bounce_result["fault_factor"]["method"].mean > 1.0

    def test_combined_beats_cu_alone_on_total_faults(self, bounce_result):
        # cu+heap path covers both sections; its factor is computed over
        # text+heap, cu's over text only — both should improve the baseline.
        assert bounce_result["fault_factor"]["cu+heap path"].mean > 1.0

    def test_baseline_recorded(self, figure_cells):
        bounce = [c for c in figure_cells if c["workload"] == "Bounce"]
        assert len(bounce) == len(PAPER_NAMES)
        for cell in bounce:
            assert len(cell["baseline"]) == 1  # one cold run
            assert cell["baseline"][0]["time_s"] > 0
            assert cell["baseline"][0]["text_faults"] > 0

    def test_sample_counts_match_builds(self, figure_cells):
        # one build = one base seed = one sample per (workload, strategy)
        pairs = [(c["workload"], c["strategy"]) for c in figure_cells]
        assert len(pairs) == len(set(pairs)) == 2 * len(PAPER_NAMES)
        for suite in ("awfy", "micro"):
            factors, _ = aggregate_cells(figure_cells, "fault_factor", suite)
            for per_strategy in factors.values():
                assert all(ci.half_width == 0.0
                           for ci in per_strategy.values())

    def test_cells_equal_committed_sweep(self, figure_cells):
        # the figures path is the bench sweep: same cells, byte for byte
        committed = [
            cell for cell in json.loads(PAYLOAD.read_text())["results"]
            if cell["workload"] in ("Bounce", "micronaut")
            and cell["strategy"] in PAPER_NAMES
        ]
        assert len(committed) == 12
        assert (json.dumps(figure_cells, sort_keys=True)
                == json.dumps(committed, sort_keys=True))

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            sweep_figure_cells([awfy_workload("Bounce")], builds=0, runs=1)


class TestAggregateCells:
    def test_ci_across_base_seeds(self):
        cells = [_cell("Bounce", "cu", 1.5, seed=11),
                 _cell("Bounce", "cu", 2.5, seed=12)]
        factors, geomeans = aggregate_cells(cells, "fault_factor", "awfy")
        ci = factors["Bounce"]["cu"]
        assert ci.mean == pytest.approx(2.0)
        assert ci.half_width > 0
        assert geomeans == {"cu": pytest.approx(2.0)}

    def test_geomean_across_suite_workloads(self):
        cells = [_cell("Bounce", "cu", 2.0), _cell("Sieve", "cu", 8.0),
                 _cell("micronaut", "cu", 100.0)]
        factors, geomeans = aggregate_cells(cells, "speedup", "awfy")
        assert list(factors) == ["Bounce", "Sieve"]  # suite order
        assert geomeans["cu"] == pytest.approx(4.0)

    def test_ignores_strategies_outside_the_paper(self):
        cells = [_cell("Bounce", "cu", 2.0), _cell("Bounce", "cu-opt", 9.0)]
        factors, geomeans = aggregate_cells(cells, "fault_factor", "awfy")
        assert set(factors["Bounce"]) == {"cu"}
        assert set(geomeans) == {"cu"}

    def test_failed_cell_is_named_not_dropped(self):
        cells = [_cell("Bounce", "cu", 2.0),
                 _cell("Bounce", "method", 1.0, error="RuntimeError: boom")]
        with pytest.raises(ValueError, match="Bounce/method: RuntimeError"):
            aggregate_cells(cells, "fault_factor", "awfy")


class TestPaperShapes:
    """The artifact-appendix claims (B.3), on a fast subset."""

    @pytest.fixture(scope="class")
    def micro_result(self, figure_cells):
        return {metric: aggregate_cells(figure_cells, metric, "micro")[0]["micronaut"]
                for metric in ("fault_factor", "speedup")}

    def test_cu_beats_method_on_microservices(self, micro_result):
        faults = micro_result["fault_factor"]
        assert faults["cu"].mean >= faults["method"].mean

    def test_heap_path_beats_incremental_on_microservices(self, micro_result):
        faults = micro_result["fault_factor"]
        assert faults["heap path"].mean >= faults["incremental id"].mean

    def test_code_strategies_never_slow_down(self, micro_result):
        assert micro_result["speedup"]["cu"].mean >= 1.0
        assert micro_result["speedup"]["method"].mean >= 1.0

    def test_combined_is_best_speedup(self, micro_result):
        combined = micro_result["speedup"]["cu+heap path"].mean
        for name, ci in micro_result["speedup"].items():
            if name != "cu+heap path":
                assert combined >= ci.mean - 1e-9


class TestOverheadModel:
    def test_overheads_are_moderate_factors(self):
        result = profiling_overhead(awfy_workload("Towers"))
        assert 1.0 <= result.cu_overhead < 10.0
        assert 1.0 <= result.method_overhead < 10.0
        assert 1.0 <= result.heap_overhead < 10.0
        assert result.dump_mode == "dump-on-full"

    def test_method_tracing_costs_more_than_cu(self):
        result = profiling_overhead(awfy_workload("Towers"))
        assert result.method_overhead >= result.cu_overhead

    def test_microservices_use_mmap(self):
        result = profiling_overhead(microservice_workload("quarkus"))
        assert result.dump_mode == "mmap"


class TestRendering:
    def test_factor_chart_contains_values(self):
        chart = render_factor_chart(
            "T",
            ["w1"],
            ["s1"],
            {"w1": {"s1": ConfidenceInterval(1.5, 0.1)}},
            geomeans={"s1": 1.5},
        )
        assert "1.50x" in chart
        assert "geomean" in chart

    def test_table_alignment(self):
        table = render_table("T", ["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len({len(line) for line in lines[2:]}) >= 1
        assert "333" in table

    def test_fig_renderers_smoke(self, figure_cells):
        for renderer in (render_fig2, render_fig5):
            text = renderer(figure_cells)
            assert "Bounce" in text and "cu+heap path" in text
            assert "micronaut" not in text and "geomean" in text
        for renderer, title in ((render_fig3, "Figure 3"),
                                (render_fig4, "Figure 4")):
            text = renderer(figure_cells)
            assert title in text and "micronaut" in text
            assert "Bounce" not in text

    def test_overhead_render(self):
        result = profiling_overhead(awfy_workload("Sieve"))
        text = render_overhead([result])
        assert "Sieve" in text and "dump-on-full" in text


def _text_map(pipeline, binary):
    """Fig. 6's ``.text`` map of one measured run, at fault-around 2."""
    return page_map(binary, pipeline.measure(binary)[0],
                    exec_config=pipeline.exec_config, fault_around_pages=2)


class TestFig6PageMap:
    def test_page_map_cells_cover_text_section(self):
        pipeline = WorkloadPipeline(awfy_workload("Bounce"))
        binary = pipeline.build_baseline()
        text_map = _text_map(pipeline, binary)
        from repro.image.sections import PAGE_SIZE

        assert len(text_map.cells) == (binary.text.size + PAGE_SIZE - 1) // PAGE_SIZE
        assert text_map.faulted > 0

    def test_optimized_map_is_front_compacted(self):
        pipeline = WorkloadPipeline(awfy_workload("Bounce"))
        regular = pipeline.build_baseline(seed=1)
        outcome = pipeline.profile(seed=1)
        optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_CU, seed=2)
        regular_map = _text_map(pipeline, regular)
        optimized_map = _text_map(pipeline, optimized)
        # Fig. 6's claim: the cu layout compacts executed code to the front.
        assert optimized_map.front_density > regular_map.front_density

    def test_run_fig6_renders(self):
        text = run_fig6()
        assert "regular binary" in text
        assert "#" in text

    def test_native_blob_marked(self):
        pipeline = WorkloadPipeline(awfy_workload("Bounce"))
        binary = pipeline.build_baseline()
        assert "N" in _text_map(pipeline, binary).cells
