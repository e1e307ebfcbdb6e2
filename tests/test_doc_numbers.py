"""The docs' paper-figure numbers come from the committed sweep.

EXPERIMENTS.md's Fig. 2-5 geomeans, its optimizer table and README's
headline speedup are recomputed here from ``BENCH_pipeline.json`` with
:func:`repro.eval.figures.aggregate_cells`, the aggregation ``repro
figures`` renders, so a doc number that drifts from the payload fails
tier-1.  The artifact-appendix B.3 shape claims that
``benchmarks/bench_fig{2,3,4,5}`` assert are checked on the same
geomeans, which needs no runs, and the payload itself must pass
``repro bench --check``'s gates.
"""

import json
import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.eval.bench import check_payload
from repro.eval.figures import aggregate_cells
from repro.eval.pipeline import ALL_STRATEGY_SPECS
from repro.obs.history import matrix_hash
from repro.workloads.awfy.suite import AWFY_NAMES
from repro.workloads.microservices.suite import MICROSERVICE_NAMES

ROOT = Path(__file__).resolve().parent.parent

#: EXPERIMENTS.md section -> the (suite, cell field) its table aggregates
FIGURE_TABLES = {
    "Fig. 2": ("awfy", "fault_factor"),
    "Fig. 3": ("micro", "fault_factor"),
    "Fig. 4": ("micro", "speedup"),
    "Fig. 5": ("awfy", "speedup"),
}


def _section(text: str, heading: str) -> str:
    """The body of the ``## <heading>...`` section."""
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _table(section: str) -> List[Dict[str, str]]:
    """The section's first markdown table, one dict per row, with
    emphasis and code marks stripped from headers and cells."""
    rows = []
    for line in section.splitlines():
        if line.startswith("|"):
            cells = [re.sub(r"[*`]", "", c).strip()
                     for c in line.strip().strip("|").split("|")]
            rows.append(cells)
        elif rows:
            break
    header, body = rows[0], rows[2:]  # rows[1] is the |---| rule
    return [dict(zip(header, row)) for row in body]


@pytest.fixture(scope="module")
def payload():
    data = json.loads((ROOT / "BENCH_pipeline.json").read_text())
    config = data["config"]
    full = {
        "workloads": AWFY_NAMES + MICROSERVICE_NAMES,
        "strategies": [spec.name for spec in ALL_STRATEGY_SPECS],
        "base_seed": 1,
        "iterations": 1,
    }
    found = {key: config.get(key) for key in full}
    assert found == full and len(data["results"]) == 17 * 7, (
        f"BENCH_pipeline.json is not the committed full-matrix sweep "
        f"(17 workloads x 7 strategies, base seed 1, one iteration): it has "
        f"{len(config.get('workloads', []))} workload(s) x "
        f"{len(config.get('strategies', []))} strateg(ies), base seed "
        f"{config.get('base_seed')}, {config.get('iterations')} iteration(s). "
        f"A local `repro bench --quick`/`--only`/`--seed` run overwrote it; "
        f"restore it with `git checkout BENCH_pipeline.json`"
    )
    return data


@pytest.fixture(scope="module")
def geomeans(payload):
    return {
        (suite, metric): aggregate_cells(payload["results"], metric, suite)[1]
        for suite, metric in FIGURE_TABLES.values()
    }


@pytest.fixture(scope="module")
def experiments():
    return (ROOT / "EXPERIMENTS.md").read_text()


class TestExperimentsDoc:
    def test_names_the_committed_matrix(self, payload, experiments):
        preamble = experiments.split("\n## ")[0]
        assert matrix_hash(payload["config"]) in preamble

    def test_figure_geomeans_match_payload(self, geomeans, experiments):
        checked, wrong = 0, []
        for heading, key in FIGURE_TABLES.items():
            for row in _table(_section(experiments, heading)):
                documented = row["measured"].rstrip("×")
                computed = f"{geomeans[key][row['strategy']]:.2f}"
                checked += 1
                if documented != computed:
                    wrong.append(f"{heading} {row['strategy']}: "
                                 f"doc {documented}, payload {computed}")
        assert checked == 24
        assert not wrong, wrong

    def test_optimizer_table_matches_payload(self, payload, experiments):
        text = {}
        for cell in payload["results"]:
            runs = cell["optimized"]
            text[cell["workload"], cell["strategy"]] = (
                sum(run["text_faults"] for run in runs) / len(runs))
        rows = _table(_section(experiments, "Search-based optimizer"))
        assert [row["workload"] for row in rows] == (AWFY_NAMES
                                                    + MICROSERVICE_NAMES)
        wrong = [
            f"{row['workload']} {strategy}: doc {row[column]}, "
            f"payload {text[row['workload'], strategy]:g}"
            for row in rows
            for column, strategy in ((".text: cu", "cu"),
                                     ("cu-opt", "cu-opt"))
            if row[column] != f"{text[row['workload'], strategy]:g}"
        ]
        assert not wrong, wrong


def test_committed_payload_passes_its_check(payload):
    """The committed payload passes the gates ``repro bench --check``
    applies to a fresh run, so the numbers the docs quote come from a
    run that passed them."""
    assert check_payload(payload) == []


def test_readme_headline_matches_payload(geomeans):
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"\*\*(\d+\.\d\d)× measured vs 1\.59× in the paper\*\*",
                      readme)
    assert match, "README lost its headline AWFY cu+heap path speedup"
    assert match.group(1) == f"{geomeans['awfy', 'speedup']['cu+heap path']:.2f}"


class TestPaperShapeClaims:
    """Artifact appendix B.3 on the committed sweep's geomeans: the same
    inequalities ``benchmarks/bench_fig{2,3,4,5}`` assert."""

    def test_fig2_awfy_faults(self, geomeans):
        g = geomeans["awfy", "fault_factor"]
        assert g["cu"] > 1.2
        assert g["cu"] >= g["method"] - 0.05
        assert g["heap path"] >= g["incremental id"]
        assert g["cu+heap path"] > 1.2

    def test_fig3_micro_faults(self, geomeans):
        g = geomeans["micro", "fault_factor"]
        assert g["cu"] > g["method"]
        assert g["heap path"] > g["incremental id"]
        assert g["cu"] > 1.3

    def test_fig4_micro_speedups(self, geomeans):
        g = geomeans["micro", "speedup"]
        assert g["cu"] >= 1.0 and g["method"] >= 1.0
        assert g["cu"] >= g["method"]
        assert g["cu+heap path"] >= g["cu"] - 0.05

    def test_fig5_awfy_speedups(self, geomeans):
        g = geomeans["awfy", "speedup"]
        heap = max(g["incremental id"], g["structural hash"], g["heap path"])
        assert g["cu"] >= 1.0 and g["method"] >= 1.0
        assert g["cu"] > heap
        assert g["cu+heap path"] >= g["cu"] - 0.05
