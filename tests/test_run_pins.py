"""Pinned run behaviour: exact metrics of real programs, op-budget and
error-location semantics, binaries left unchanged by a run, and the
output of the commands that explain runs.

The pinned values are the seed-1 matrix runs of four programs chosen for
what they exercise: Queens and Json (interpreter-heavy loops and field
access), Towers (deep recursion) and quarkus (threads, stop at first
response).  Every :class:`RunMetrics` field of the regular run, the traced
instrumented run and the ``cu+heap path`` run must match exactly: the
touch stream by its SHA-256, and the faulted and resident pages as
replayed from it at fault-around 0.  The profiling path is pinned for all
17 programs: the bytes of the seed-1 trace files and the digest of the
profiles post-processed from them.
"""

import dataclasses
import hashlib
import pickle

import pytest

from repro.cli import main
from repro.eval.pipeline import STRATEGY_COMBINED, WorkloadPipeline
from repro.eval.scheduler import task_seed
from repro.image.sections import HEAP_SECTION, TEXT_SECTION
from repro.minijava import compile_source
from repro.postproc.framework import build_profiles
from repro.profiling.tracebuf import TraceSession
from repro.profiling.tracefile import (
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    pack_traces,
)
from repro.profiling.tracer import PathTracer
from repro.runtime.executor import RunMetrics, replay_touches, run_binary
from repro.vm import Interpreter, OpsBudgetError, VMError
from repro.vm.interpreter import ThreadState
from repro.workloads import (
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)


def _run(ops, faults, time_s, output, result, pages, touches,
         response=None, response_touches=None, counts=None):
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
        "touches": touches,
        "response_touches": response_touches,
        "faulted_pages": pages,
        # no fault-around: every resident page was faulted in
        "resident_pages": pages,
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
            touches="24f514b87a1724f5c5301c4f1e14797ca6ff14bc30dacf38f1f8528b03bb175a",
        ),
        "traced": _run(
            166656, {".svm_heap": 6, ".text": 15}, 0.015150519999999999,
            ["Queens: 505"], 505,
            pages={".svm_heap": [12, 13, 16, 22, 25, 26],
                   ".text": [0, 1, 6, 11, 15, 19, 20, 21, 22, 23, 24, 25, 26,
                             27, 28]},
            touches="d3f9e3540c1fdb5d649a45451dda3ae1f3e33408ef90ba31e2a89012857a8580",
            counts={"blocks": 45811, "cu_entries": 5489, "dumps": 3,
                    "heap_ids": 22742, "method_entries": 6051,
                    "mmap_writes": 0, "path_records": 16584},
        ),
        "combined": _run(
            166656, {".svm_heap": 2, ".text": 9}, 0.001473312,
            ["Queens: 505"], 505,
            pages={".svm_heap": [0, 2],
                   ".text": [0, 15, 16, 17, 18, 19, 20, 21, 22]},
            touches="52ab8e00035bf2cafb7b0ddd2b28138d94a46a18a3ba3d30c6040dbe6d45f978",
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
            touches="2ab1fc58ef04a9371f1f8b557d5bc3260d724e630a68eac970a71fa48f2a2ab1",
        ),
        "traced": _run(
            82777, {".svm_heap": 4, ".text": 15}, 0.008899114,
            ["Towers: 1023"], 1023,
            pages={".svm_heap": [18, 19, 20, 23],
                   ".text": [8, 9, 10, 11, 14, 15, 18, 21, 22, 23, 24, 25, 26,
                             27, 28]},
            touches="15696b9f4acdaa301014666d95bf88861d3bdf8024599a6ae60c63d9a48f94c8",
            counts={"blocks": 13510, "cu_entries": 2067, "dumps": 2,
                    "heap_ids": 15376, "method_entries": 4125,
                    "mmap_writes": 0, "path_records": 8294},
        ),
        "combined": _run(
            82777, {".svm_heap": 1, ".text": 9}, 0.0012155540000000002,
            ["Towers: 1023"], 1023,
            pages={".svm_heap": [0],
                   ".text": [0, 15, 16, 17, 18, 19, 20, 21, 22]},
            touches="45d7c379cc5b2ee3c50ea2a26315d69df74256ee081449a5e2eb3cf6eb2955ff",
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
            touches="ed45c221b3806fe24bd28d6dd18b6c2cb6d45f0e9d75b0d5f4dbf933c3a2325c",
        ),
        "traced": _run(
            64348, {".svm_heap": 5, ".text": 16}, 0.0100994,
            ["Json: 621"], 621,
            pages={".svm_heap": [12, 13, 19, 23, 24],
                   ".text": [0, 1, 9, 10, 11, 16, 17, 19, 22, 23, 24, 25, 26,
                             27, 28, 29]},
            touches="5c1e2095789889b43806c099bf8165a025a805b255452d4ed8f0970802923f95",
            counts={"blocks": 19178, "cu_entries": 3174, "dumps": 2,
                    "heap_ids": 13293, "method_entries": 3908,
                    "mmap_writes": 0, "path_records": 13196},
        ),
        "combined": _run(
            64348, {".svm_heap": 2, ".text": 12}, 0.001538696,
            ["Json: 621"], 621,
            pages={".svm_heap": [0, 2],
                   ".text": [0, 1, 2, 3, 17, 18, 19, 20, 21, 22, 23, 24]},
            touches="a13111be8f01c27ffe23cb1d0c3add05d041b1fe1875c35d11e6caa33ea7837c",
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
            touches="332ec61d1a9200a3c3dd87052d7e345ab415769e0a409dfaaaa2418fd0c5a239",
            response=(9997, {".svm_heap": 8, ".text": 19},
                      0.0025999940000000004),
            response_touches=133,
        ),
        "traced": _run(
            10000, {".svm_heap": 9, ".text": 23}, 0.004155456, [], None,
            pages={".svm_heap": [13, 14, 18, 19, 21, 22, 23, 24, 25],
                   ".text": [0, 1, 2, 3, 8, 9, 11, 12, 14, 15, 16, 17, 18,
                             19, 20, 24, 25, 26, 27, 28, 29, 30, 31]},
            touches="b79fa1c60eb0a440814b5057f9e702c1703b732b79880205a3c777b7a6d41064",
            response=(9997, {".svm_heap": 9, ".text": 23}, 0.00415545),
            response_touches=142,
            counts={"blocks": 2412, "cu_entries": 44, "dumps": 0,
                    "heap_ids": 1432, "method_entries": 95,
                    "mmap_writes": 1382, "path_records": 1243},
        ),
        "combined": _run(
            10000, {".svm_heap": 5, ".text": 11}, 0.00161, [], None,
            pages={".svm_heap": [0, 1, 2, 3, 4],
                   ".text": [0, 1, 2, 16, 17, 18, 19, 20, 21, 22, 23]},
            touches="255e23b218bdd6d4e51ca10a72f31678f0d970efcc879135ed5f4ee1aa03f0ea",
            response=(9997, {".svm_heap": 5, ".text": 11}, 0.001609994),
            response_touches=133,
        ),
    },
}


def _touch_digest(touches):
    """SHA-256 over one ``section offset size`` line per touch."""
    lines = "\n".join(f"{section} {offset} {size}"
                      for section, offset, size in touches)
    return hashlib.sha256(lines.encode()).hexdigest()


def _fields(metrics: RunMetrics, binary, config):
    """Every field of ``metrics``, the touch stream as its digest, plus
    the page sets its replay faults and maps, as sorted lists."""
    fields = {field.name: getattr(metrics, field.name)
              for field in dataclasses.fields(metrics)}
    fields["touches"] = _touch_digest(metrics.touches)
    cache = replay_touches(binary, config, metrics.touches)
    sections = (HEAP_SECTION, TEXT_SECTION)
    fields["faulted_pages"] = {section: sorted(cache.faulted(section))
                               for section in sections}
    fields["resident_pages"] = {section: sorted(cache.resident_pages(section))
                                for section in sections}
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
    instrumented = pipeline.build_instrumented(seed=seed)
    pins = PINS[name]
    config = pipeline.exec_config
    assert _fields(run_binary(baseline, config), baseline, config) \
        == pins["regular"]
    assert _fields(outcome.instrumented_metrics, instrumented, config) \
        == pins["traced"]
    assert outcome.profiles.digest() == pins["digest"]
    assert _fields(run_binary(optimized, config), optimized, config) \
        == pins["combined"]


#: program -> (SHA-256 of its seed-1 trace files packed in thread-creation
#: order, ``ProfileBundle.digest()`` of the profiles post-processed from
#: them): the profiling path pinned byte for byte, for every program.  A
#: trace header holds its thread's id, which counts the interpreter
#: threads the process started before, so the pins are the files a fresh
#: process writes.
PROFILING_PINS = {
    "Bounce": (
        "65d640e5c15448c5005c067f669d04cbaa04d26f322afd99494b0375325b0e54",
        "ffbf8c5298cd64eb1c4fb5d2fca2ddaf037f6a3a603c50b4cde72b3318416b5d"),
    "CD": (
        "c4576ddb0062f2000fed1781c6950f1579d36fc09459f3eaa443559213f890fa",
        "7df586184cad29099b130050bb55fdb0b4d5ca98b561850355c19460cac25741"),
    "DeltaBlue": (
        "4f04adcadf691eae16df397fb885064d22a2b5cb2e0016d64573c340e6822cd5",
        "5407f73377dc9be9c8eb61e1eef30eb7c4351937726d52960dc4935ff248c3af"),
    "Havlak": (
        "c3377ae020d4909ced643dc795138696bffb5d75bf88f3db52bed83cfc59e642",
        "5ff707ac194f1c00072f6924c14ab3b943d27880fb439c5716df94aaa28942ed"),
    "Json": (
        "ea7bc312306ef7c791e5f0b2b25d6a2b7ebfc08610520628214f3031430b46ac",
        "064abf18d972f71c114af1f80fbae32d5e0ffffaf99047563050dfa6fcc64b09"),
    "List": (
        "31ddb916cdab42d57b55ebb2b26e1250d9f7bdc53470aac8539c361980cf2b62",
        "9e3df4baa63a059979b4d8807c054850dc955a8d18d2011690e79e3f6e27bed4"),
    "Mandelbrot": (
        "577843e599e9fbd076b71eab38e42855eca8c671e7620cc1e346fde34a332755",
        "2fdbf97e81e2d17accc65e951044d1858767879d9c8d2583596d65b5ec2c99c7"),
    "micronaut": (
        "9a2f6612863e4dc0e95443bcc3022d154b56a559020ab4d6f41fea9ede42657f",
        "4004c9a36ca56783a4115949b8d0f6ba0f17f2756c391e9407077069bdc327d5"),
    "NBody": (
        "cf7649d38e93f97bf83056b65bb0649dc0e8a9dbea818514ee06e9679070069b",
        "7bd8a22467cb355bf30e22a08d78e4f4186d75805643d7cdf6a3f4849cae92d7"),
    "Permute": (
        "e0f5d74c9e8cfba1e61b1a18d3a4eecce8dc82374ccb659c0ddeba28c0f28bb9",
        "d4858c3f3386ea028683c4b1b59b6cbd0fd64f884501d4d8d255759d47a5a29d"),
    "quarkus": (
        "41529c775f625eeddba367f20b700ab73c4b1b5d21cea4a3e4d6a07ad821f12f",
        "f49a3a2fb9b9248cc6c51ffe83bbbc844ee12d42bb56505485667cda5ec487f4"),
    "Queens": (
        "0d0553ce569e90d25ad119181eac9fcb3db7c0e1eff9a9cd5026669a6415756f",
        "9b5da17a7ecaf1db6309fa472ea53b3b8f15aca2e9cd5e12aafbb915eeb7ad7a"),
    "Richards": (
        "c2788eab8f26b9a315c2b678c052591c19a11cb877dfa98c056eb3ad9e078d60",
        "d59ee403a443a0503fa73e8973269271517b7ac350f47d8e90cfaaae14deb6cc"),
    "Sieve": (
        "b50314900cee7df9f4da23681263c9ce145db7a9d42e412ebc0529c206650670",
        "194e7059cced5003b86c9bcf30416af106d8dab7aada7fa3409141ad3cb71867"),
    "spring": (
        "11c8821df3069a4e858e043da4568a51f7b7622da61b4fc7db309925c342a373",
        "3af50e4d6323f9349014d9e87a52a9f3338b1d536543ef22135be1b427f932fe"),
    "Storage": (
        "93d04428a5a6f10c3241cb6289b68aa7b072fec2326f3bf755029feaf1a77c64",
        "fb282c300870686f175586b7b2408bca0ed6ce36072a405897b38edec36f6538"),
    "Towers": (
        "88f7b9bd0b0a3dccb6ba15abc62d69421f5de511ae62d0d375ac6988aff473a1",
        "5f01946058a85a762f02e2f85dcfbc5ffec889c571ca7bb16101cfb0de692dd1"),
}


@pytest.mark.parametrize("name", sorted(PROFILING_PINS))
def test_profiling_path_is_pinned(name, monkeypatch):
    monkeypatch.setattr(ThreadState, "_next_id", 0)
    workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                else awfy_workload(name))
    pipeline = WorkloadPipeline(workload)
    instrumented = pipeline.build_instrumented(seed=task_seed(1, name))
    mode = MODE_MMAP if workload.microservice else MODE_DUMP_ON_FULL
    session = TraceSession(mode=mode)
    run_binary(instrumented, pipeline.exec_config,
               tracer=PathTracer(instrumented.manifest, session))
    files = session.trace_files()
    trace_sha, profile_digest = PROFILING_PINS[name]
    assert hashlib.sha256(pack_traces(files)).hexdigest() == trace_sha
    assert build_profiles(instrumented.manifest, files).digest() \
        == profile_digest


#: SHA-256 of the stdout of commands that explain runs (``repro why``
#: attributes one run per side, ``repro pagemap`` draws two page maps)
CLI_SHA256 = {
    "why-Queens": ("why --workload Queens --strategy cu --seed 1 --json",
                   "4d3725f719e294206cd4221d33a1e24b55a22f53ff789a9072bb1620bceaa594"),
    "why-quarkus": ("why --workload quarkus --strategy cu --seed 1 --json",
                    "31cdc3919d8be8de1b1b515f1fea389271e2e2255772f26ca35dba9072ca13c2"),
    "pagemap-Bounce": ("pagemap Bounce",
                       "a522c7343bfa021f80a9b828c7a3e4f51a25588973358bd45579c03c09234754"),
    "pagemap-Bounce-heap": ("pagemap Bounce --heap",
                            "2480866e653b3e07ae7d36714554aeb62461a422552df35f0e3b106935822b8b"),
}


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_output_is_unchanged(name, capsys):
    argv, digest = CLI_SHA256[name]
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
