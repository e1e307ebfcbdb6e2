"""Pinned run behaviour: exact metrics of real programs, op-budget and
error-location semantics, and binaries left unchanged by a run.

The pinned values are the seed-1 matrix runs of four programs chosen for
what they exercise: Queens and Json (interpreter-heavy loops and field
access), Towers (deep recursion) and quarkus (threads, stop at first
response).  Every :class:`RunMetrics` field of the regular run, the traced
instrumented run and the ``cu+heap path`` run must match exactly.
"""

import dataclasses
import pickle

import pytest

from repro.eval.pipeline import STRATEGY_COMBINED, WorkloadPipeline
from repro.eval.scheduler import task_seed
from repro.minijava import compile_source
from repro.runtime.executor import RunMetrics, run_binary
from repro.vm import Interpreter, OpsBudgetError, VMError
from repro.workloads import awfy_workload, microservice_workload


def _run(ops, faults, time_s, output, result, pages, response=None,
         counts=None):
    """The expected :class:`RunMetrics` fields of one run."""
    first_ops, first_faults, first_time = response or (None, None, None)
    return {
        "ops": ops,
        "faults": faults,
        "time_s": time_s,
        "output": output,
        "result": result,
        "first_response_ops": first_ops,
        "first_response_faults": first_faults,
        "first_response_time_s": first_time,
        "trace_event_counts": counts or {},
        "faulted_pages": pages,
        # no fault-around: every resident page was faulted in
        "resident_pages": pages,
        "fault_events": None,
    }


PINS = {
    "Queens": {
        "digest": "9b5da17a7ecaf1db6309fa472ea53b3b8f15aca2e9cd5e12aafbb915eeb7ad7a",
        "regular": _run(
            166656, {".svm_heap": 6, ".text": 15}, 0.0023733120000000003,
            ["Queens: 505"], 505,
            pages={".svm_heap": [0, 1, 4, 10, 13, 14],
                   ".text": [0, 4, 8, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20,
                             21, 22]},
        ),
        "traced": _run(
            166656, {".svm_heap": 6, ".text": 15}, 0.015150519999999999,
            ["Queens: 505"], 505,
            pages={".svm_heap": [12, 13, 16, 22, 25, 26],
                   ".text": [0, 1, 6, 11, 15, 19, 20, 21, 22, 23, 24, 25, 26,
                             27, 28]},
            counts={"blocks": 45811, "cu_entries": 5489, "dumps": 3,
                    "heap_ids": 22742, "method_entries": 6051,
                    "mmap_writes": 0, "path_records": 16584},
        ),
        "combined": _run(
            166656, {".svm_heap": 2, ".text": 9}, 0.001473312,
            ["Queens: 505"], 505,
            pages={".svm_heap": [0, 2],
                   ".text": [0, 15, 16, 17, 18, 19, 20, 21, 22]},
        ),
    },
    "Towers": {
        "digest": "5f01946058a85a762f02e2f85dcfbc5ffec889c571ca7bb16101cfb0de692dd1",
        "regular": _run(
            82777, {".svm_heap": 4, ".text": 14}, 0.0019355540000000001,
            ["Towers: 1023"], 1023,
            pages={".svm_heap": [6, 7, 8, 10],
                   ".text": [5, 6, 7, 10, 12, 13, 15, 16, 17, 18, 19, 20, 21,
                             22]},
        ),
        "traced": _run(
            82777, {".svm_heap": 4, ".text": 15}, 0.008899114,
            ["Towers: 1023"], 1023,
            pages={".svm_heap": [18, 19, 20, 23],
                   ".text": [8, 9, 10, 11, 14, 15, 18, 21, 22, 23, 24, 25, 26,
                             27, 28]},
            counts={"blocks": 13510, "cu_entries": 2067, "dumps": 2,
                    "heap_ids": 15376, "method_entries": 4125,
                    "mmap_writes": 0, "path_records": 8294},
        ),
        "combined": _run(
            82777, {".svm_heap": 1, ".text": 9}, 0.0012155540000000002,
            ["Towers: 1023"], 1023,
            pages={".svm_heap": [0],
                   ".text": [0, 15, 16, 17, 18, 19, 20, 21, 22]},
        ),
    },
    "Json": {
        "digest": "064abf18d972f71c114af1f80fbae32d5e0ffffaf99047563050dfa6fcc64b09",
        "regular": _run(
            64348, {".svm_heap": 6, ".text": 15}, 0.0021686960000000003,
            ["Json: 621"], 621,
            pages={".svm_heap": [0, 1, 7, 10, 11, 12],
                   ".text": [0, 6, 7, 8, 11, 12, 14, 16, 17, 18, 19, 20, 21,
                             22, 23]},
        ),
        "traced": _run(
            64348, {".svm_heap": 5, ".text": 16}, 0.0100994,
            ["Json: 621"], 621,
            pages={".svm_heap": [12, 13, 19, 23, 24],
                   ".text": [0, 1, 9, 10, 11, 16, 17, 19, 22, 23, 24, 25, 26,
                             27, 28, 29]},
            counts={"blocks": 19178, "cu_entries": 3174, "dumps": 2,
                    "heap_ids": 13293, "method_entries": 3908,
                    "mmap_writes": 0, "path_records": 13196},
        ),
        "combined": _run(
            64348, {".svm_heap": 2, ".text": 12}, 0.001538696,
            ["Json: 621"], 621,
            pages={".svm_heap": [0, 2],
                   ".text": [0, 1, 2, 3, 17, 18, 19, 20, 21, 22, 23, 24]},
        ),
    },
    "quarkus": {
        "digest": "f49a3a2fb9b9248cc6c51ffe83bbbc844ee12d42bb56505485667cda5ec487f4",
        "regular": _run(
            10000, {".svm_heap": 8, ".text": 19}, 0.0026000000000000003,
            [], None,
            pages={".svm_heap": [1, 2, 6, 7, 9, 11, 12, 13],
                   ".text": [0, 1, 2, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 18,
                             19, 20, 21, 22, 23]},
            response=(9997, {".svm_heap": 8, ".text": 19},
                      0.0025999940000000004),
        ),
        "traced": _run(
            10000, {".svm_heap": 9, ".text": 23}, 0.004155456, [], None,
            pages={".svm_heap": [13, 14, 18, 19, 21, 22, 23, 24, 25],
                   ".text": [0, 1, 2, 3, 8, 9, 11, 12, 14, 15, 16, 17, 18,
                             19, 20, 24, 25, 26, 27, 28, 29, 30, 31]},
            response=(9997, {".svm_heap": 9, ".text": 23}, 0.00415545),
            counts={"blocks": 2412, "cu_entries": 44, "dumps": 0,
                    "heap_ids": 1432, "method_entries": 95,
                    "mmap_writes": 1382, "path_records": 1243},
        ),
        "combined": _run(
            10000, {".svm_heap": 5, ".text": 11}, 0.00161, [], None,
            pages={".svm_heap": [0, 1, 2, 3, 4],
                   ".text": [0, 1, 2, 16, 17, 18, 19, 20, 21, 22, 23]},
            response=(9997, {".svm_heap": 5, ".text": 11}, 0.001609994),
        ),
    },
}


def _fields(metrics: RunMetrics):
    """Every field of ``metrics``, with page sets as sorted lists."""
    fields = {}
    for field in dataclasses.fields(metrics):
        value = getattr(metrics, field.name)
        if field.name in ("faulted_pages", "resident_pages"):
            value = {section: sorted(pages) for section, pages in value.items()}
        fields[field.name] = value
    return fields


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_runs(name):
    workload = (microservice_workload(name) if name == "quarkus"
                else awfy_workload(name))
    seed = task_seed(1, name)
    pipeline = WorkloadPipeline(workload)
    baseline = pipeline.build_baseline(seed=seed)
    outcome = pipeline.profile(seed=seed)
    optimized = pipeline.build_optimized(outcome.profiles, STRATEGY_COMBINED,
                                         seed=seed)
    pins = PINS[name]
    assert _fields(run_binary(baseline, pipeline.exec_config)) == pins["regular"]
    assert _fields(outcome.instrumented_metrics) == pins["traced"]
    assert outcome.profiles.digest() == pins["digest"]
    assert _fields(run_binary(optimized, pipeline.exec_config)) == pins["combined"]


def test_running_a_binary_leaves_its_pickle_unchanged():
    """No decoded code or memo leaks into the binary (and so into cache
    entries): its pickle has the same size after runs as before."""
    workload = awfy_workload("Towers")
    pipeline = WorkloadPipeline(workload)
    binary = pipeline.build_baseline(seed=task_seed(1, "Towers"))
    before = len(pickle.dumps(binary))
    run_binary(binary, pipeline.exec_config)
    run_binary(binary, pipeline.exec_config)
    assert len(pickle.dumps(binary)) == before


LOOP = "class Main { static int main() { int i = 0; while (true) { i++; } return i; } }"


@pytest.mark.parametrize("max_ops,quantum", [(1000, 1000), (1000, 300),
                                             (999, 1000)])
def test_ops_budget_error_fires_at_max_ops(max_ops, quantum):
    program = compile_source(LOOP)
    interp = Interpreter(program, max_ops=max_ops, quantum=quantum)
    interp.spawn_main()
    with pytest.raises(OpsBudgetError) as info:
        interp.run()
    assert info.value.max_ops == max_ops
    assert interp.ops_executed == max_ops


def test_null_dereference_in_callee_names_callee_and_line():
    source = "\n".join([
        "class Node { int value; }",
        "class Reader {",
        "    static int read(Node node) {",
        "        int bias = 1;",
        "        return node.value + bias;",
        "    }",
        "}",
        "class Main {",
        "    static int main() {",
        "        int unused = 0;",
        "        return Reader.read(null);",
        "    }",
        "}",
    ])
    program = compile_source(source)
    with pytest.raises(VMError) as info:
        Interpreter(program).run_single(program.entry_method())
    assert str(info.value) == ("null dereference (GETFIELD) in "
                               "Reader.read(Node) (line 5)")
