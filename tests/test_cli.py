"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults_track_scheduler_config(self):
        # the dataclass is the single source of truth for CLI defaults; a
        # bare `repro figures` is one sweep at base seed 1, like the bench
        from repro.eval.scheduler import SchedulerConfig

        args = build_parser().parse_args(["figures"])
        assert args.suite == "all"
        assert args.builds == 1
        assert args.runs == SchedulerConfig().iterations

    def test_robustness_defaults_track_degradation_policy(self):
        from repro.robustness.degradation import DegradationPolicy

        args = build_parser().parse_args(["robustness"])
        assert args.retries == DegradationPolicy().max_retries
        assert args.min_match_rate == DegradationPolicy().min_match_rate

    def test_bench_defaults_track_bench_config(self):
        from repro.eval.bench import BenchConfig

        args = build_parser().parse_args(["bench"])
        assert args.iterations == BenchConfig().iterations
        assert args.seed == BenchConfig().base_seed
        assert args.workers == BenchConfig().max_workers
        assert args.output == BenchConfig().output

    def test_chaos_defaults_track_policy_dataclasses(self):
        from repro.eval.scheduler import RetryPolicy, SchedulerConfig
        from repro.robustness.chaos import ChaosPolicy

        args = build_parser().parse_args(["chaos"])
        assert args.seed == ChaosPolicy().seed
        assert args.max_attempts == RetryPolicy().max_attempts
        assert args.workers == SchedulerConfig().max_workers
        assert args.fault_classes is None  # None = all classes

    def test_chaos_rejects_bad_rate(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--rate", "1.5"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Bounce" in out and "spring" in out and "cu+heap path" in out

    def test_compare_single_strategy(self, capsys):
        assert main(["compare", "Sieve", "--strategy", "cu"]) == 0
        out = capsys.readouterr().out
        assert "[Sieve / cu]" in out and "speedup" in out

    def test_compare_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["compare", "NotABenchmark"])

    def test_compare_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["compare", "Sieve", "--strategy", "bogus"])

    def test_pagemap_text(self, capsys):
        assert main(["pagemap", "Sieve"]) == 0
        out = capsys.readouterr().out
        assert "regular binary" in out and "#" in out

    def test_pagemap_heap(self, capsys):
        assert main(["pagemap", "Sieve", "--heap"]) == 0
        out = capsys.readouterr().out
        assert ".svm_heap page map" in out
        assert "faulted pages" in out

    def test_emit_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "image.snib"
        assert main(["emit", "Sieve", "-o", str(out_path)]) == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "SNIB image" in out and "mode=regular" in out

    def test_emit_optimized(self, tmp_path, capsys):
        out_path = tmp_path / "opt.snib"
        assert main(["emit", "Sieve", "-o", str(out_path), "--strategy", "cu"]) == 0
        out = capsys.readouterr().out
        assert "mode=optimized" in out

    def test_figures_single_workload(self, capsys):
        assert main([
            "figures", "--suite", "awfy", "--builds", "1", "--runs", "1",
            "--only", "Sieve",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 5" in out and "Sieve" in out

    def test_overhead_subset(self, capsys):
        assert main(["overhead", "--only", "Sieve"]) == 0
        out = capsys.readouterr().out
        assert "Sieve" in out and "micronaut" in out

    @pytest.mark.parametrize("name, message", [
        ("micronaut", "'micronaut' is a microservice"),
        ("Bogus", "unknown workload 'Bogus'"),
    ])
    def test_overhead_only_names_awfy_benchmarks(self, name, message):
        with pytest.raises(SystemExit) as exc:
            main(["overhead", "--only", name])
        assert message in str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    def test_chaos_recoverable_sweep(self, capsys):
        assert main([
            "chaos", "--only", "Sieve", "--strategy", "cu",
            "--seed", "3", "--rate", "1.0",
            "--fault-classes", "oversized_result",
        ]) == 0
        out = capsys.readouterr().out
        assert "identity: OK" in out
        assert "oversized_result" in out

    def test_chaos_json_report(self, capsys):
        import json as _json
        assert main([
            "chaos", "--only", "Sieve", "--strategy", "cu",
            "--seed", "3", "--rate", "1.0",
            "--fault-classes", "cache_io", "--json",
        ]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["ok"] and report["identity"]["ok"]
        assert report["health"]["injected"] == {"cache_io": 1}

    def test_chaos_persistent_exits_nonzero(self, capsys):
        assert main([
            "chaos", "--only", "Sieve", "--strategy", "cu",
            "--seed", "3", "--rate", "1.0", "--persistent",
            "--max-attempts", "2",
            "--fault-classes", "worker_crash", "--workers", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "quarantined: Sieve/cu" in out


class TestFiguresSelection:
    """`repro figures --only` routing, on the committed sweep's cells."""

    @pytest.fixture
    def swept(self, monkeypatch):
        payload = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
        results = json.loads(payload.read_text())["results"]
        calls = []

        def fake_sweep(workloads, builds, runs):
            names = [w.name for w in workloads]
            calls.append((names, builds, runs))
            return [dict(c) for c in results if c["workload"] in names]

        monkeypatch.setattr("repro.cli.sweep_figure_cells", fake_sweep)
        return calls

    def test_names_go_to_their_own_suites(self, swept, capsys):
        assert main(["figures", "--only", "Bounce", "micronaut"]) == 0
        assert swept == [(["Bounce", "micronaut"], 1, 1)]
        charts = capsys.readouterr().out.split("Figure ")[1:]
        assert [chart[0] for chart in charts] == ["2", "5", "3", "4"]
        for chart in charts:
            micro = chart[0] in "34"
            assert ("micronaut" in chart) == micro
            assert ("Bounce" in chart) != micro

    def test_suite_filter_skips_the_other_suite(self, swept, capsys):
        assert main(["figures", "--suite", "micro",
                     "--only", "Bounce", "micronaut"]) == 0
        assert swept == [(["micronaut"], 1, 1)]
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 4" in out
        assert "Figure 2" not in out and "Bounce" not in out

    def test_unknown_name_exits_with_one_line(self, swept):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--suite", "micro", "--only", "Bogus"])
        assert str(exc.value.code).startswith("unknown workload 'Bogus'")
        assert "\n" not in str(exc.value.code)
        assert swept == []

    def test_no_workload_of_the_suite_exits(self, swept):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--suite", "awfy", "--only", "micronaut"])
        assert "no workload of --suite awfy" in str(exc.value.code)
        assert swept == []

    def test_failed_cell_exits_nonzero_and_names_it(self, monkeypatch, capsys):
        def failing_sweep(workloads, builds, runs):
            return [{"workload": "Bounce", "strategy": "cu", "seed": 1,
                     "fault_factor": 1.0, "speedup": 1.0,
                     "error": "RuntimeError: boom"}]

        monkeypatch.setattr("repro.cli.sweep_figure_cells", failing_sweep)
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--only", "Bounce"])
        assert "Bounce/cu: RuntimeError: boom" in str(exc.value.code)
        assert "Figure" not in capsys.readouterr().out

    def test_rejects_zero_builds(self):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--only", "Bounce", "--builds", "0"])
        assert "must be >= 1" in str(exc.value.code)
