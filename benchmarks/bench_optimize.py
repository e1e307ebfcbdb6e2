"""Search-based layout optimizer vs the paper's first-use ``cu`` strategy.

Not a paper figure: the paper *replays* first-use order, this bench runs
the greedy chain-merging search against it and renders the
``cu-opt``-vs-``cu`` measured ``.text`` fault table.  Two invariants are
asserted per workload:

* never-worse — the optimizer layout's measured faults are <= ``cu``'s
  (the seed order is always a search candidate);
* exactness — the search's predicted cost equals the measured faults of
  the actually-built binary (the cost model replays the executor's own
  touches).
"""

from conftest import save_figure

from repro.eval.pipeline import WorkloadPipeline
from repro.ordering.optimize import optimize_workload
from repro.workloads import awfy_workload, microservice_workload

#: small-but-representative slice: two AWFY benchmarks + one microservice;
#: Json is one where the search beats first-use order
BENCH_WORKLOADS = ("Bounce", "Json", "quarkus")


def _run_all():
    reports = []
    for name in BENCH_WORKLOADS:
        workload = (microservice_workload(name) if name == "quarkus"
                    else awfy_workload(name))
        reports.append(optimize_workload(WorkloadPipeline(workload)))
    return reports


def _render(reports):
    header = (f"{'workload':<12} {'section':<6} {'seed':>6} {'opt':>6} "
              f"{'delta':>6}  via")
    lines = ["Optimizer vs seed strategy (measured .text faults)",
             header, "-" * len(header)]
    for report in reports:
        for section in report.sections:
            if section.skipped:
                continue
            delta = section.optimized_faults - section.seed_faults
            lines.append(
                f"{report.workload:<12} {section.section:<6} "
                f"{section.seed_faults:>6} {section.optimized_faults:>6} "
                f"{delta:>+6}  {section.best_optimizer}"
            )
    return "\n".join(lines)


def test_optimize_matrix(benchmark):
    reports = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    table = _render(reports)
    print("\n" + table)
    save_figure("optimize_vs_seed.txt", table)
    for report in reports:
        assert report.ok, report.describe()
        for section in report.sections:
            if section.skipped:
                continue
            assert section.optimized_faults <= section.seed_faults
            assert section.predicted_faults == section.optimized_faults
            assert section.verified and section.differential_ok
    # the search must strictly beat first-use order somewhere in the slice
    assert any(r.improved_sections for r in reports)
