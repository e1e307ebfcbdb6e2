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
    HEADER_FIXED_BYTES,
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    pack_traces,
)
from repro.profiling.tracer import PathTracer
from repro.robustness import (
    FAULT_DROP_FLUSH,
    FAULT_KILL_AT_RECORD,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.executor import RunMetrics, replay_touches, run_binary
from repro.util.varint import decode_uvarint
from repro.vm import Interpreter, OpsBudgetError, VMError
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
#: them): the profiling path pinned byte for byte, for every program.
PROFILING_PINS = {
    "Bounce": (
        "44180bd6ddad76490ad70ea0fbe991d9da02f36ed6fdc8775616227f4d9c73e8",
        "ffbf8c5298cd64eb1c4fb5d2fca2ddaf037f6a3a603c50b4cde72b3318416b5d"),
    "CD": (
        "f52a14caf4bc1d1e6a5afa713a1eea1b2fce3e3d9501e25e749fa67eb85472ff",
        "7df586184cad29099b130050bb55fdb0b4d5ca98b561850355c19460cac25741"),
    "DeltaBlue": (
        "890bb9442542fcc273a1f957b269b907d5c1abae112f67db0a542b98b1b6d5b8",
        "5407f73377dc9be9c8eb61e1eef30eb7c4351937726d52960dc4935ff248c3af"),
    "Havlak": (
        "e7eae2f5d662e6f823a9455561c37fd65aa1fb9d0e086b5560e945ff58c65821",
        "5ff707ac194f1c00072f6924c14ab3b943d27880fb439c5716df94aaa28942ed"),
    "Json": (
        "9e222d9249cf2047cce2a5ee3038bd6cfec9d12bcf0d00c7ec1eb233233fea28",
        "064abf18d972f71c114af1f80fbae32d5e0ffffaf99047563050dfa6fcc64b09"),
    "List": (
        "a4e5f52fd63ac6670cb556466821da6a800db7c8058b987f243ce0befdd1d3ce",
        "9e3df4baa63a059979b4d8807c054850dc955a8d18d2011690e79e3f6e27bed4"),
    "Mandelbrot": (
        "ae627fea2b1366c7cb70c9aed01cf227a7bdcb6a387a33cd387595fa3945f577",
        "2fdbf97e81e2d17accc65e951044d1858767879d9c8d2583596d65b5ec2c99c7"),
    "micronaut": (
        "a1cd55a99097f1ce06db0163b0fe1f0824c49f414998feaddeebc8d35a3997ad",
        "4004c9a36ca56783a4115949b8d0f6ba0f17f2756c391e9407077069bdc327d5"),
    "NBody": (
        "ddc4b048bdee9dd8dfbbb39d9454d63c862acb6104bd86f2ad910b5912820b28",
        "7bd8a22467cb355bf30e22a08d78e4f4186d75805643d7cdf6a3f4849cae92d7"),
    "Permute": (
        "28524d86faf1bf4501ef4fdb2e8a031549e87ad2818284b13b08af42a2949577",
        "d4858c3f3386ea028683c4b1b59b6cbd0fd64f884501d4d8d255759d47a5a29d"),
    "quarkus": (
        "6e5b5a1f329eee716213e4ed58f29e18387872b3b3db82a67ebd8542ebae954c",
        "f49a3a2fb9b9248cc6c51ffe83bbbc844ee12d42bb56505485667cda5ec487f4"),
    "Queens": (
        "1722b033f9931860fb7a9f0d6004b710adcdc6d16323b7cced27bab44c11864a",
        "9b5da17a7ecaf1db6309fa472ea53b3b8f15aca2e9cd5e12aafbb915eeb7ad7a"),
    "Richards": (
        "07b4ca097b0a4ccdc7222d36a81060ef746856646e182d9c06a178ce707ed2db",
        "d59ee403a443a0503fa73e8973269271517b7ac350f47d8e90cfaaae14deb6cc"),
    "Sieve": (
        "a670e687dcdb00542d8a85ec2154842085c693fc7a5a44bb9f05d697f3942a8c",
        "194e7059cced5003b86c9bcf30416af106d8dab7aada7fa3409141ad3cb71867"),
    "spring": (
        "673efb08eb67973eeed149b210b5efaabcabce8fbc62d188eba101d13e693081",
        "3af50e4d6323f9349014d9e87a52a9f3338b1d536543ef22135be1b427f932fe"),
    "Storage": (
        "ebb2924197568dbfd903900cef9b374818016906817f151dfb5973d5092a0c3c",
        "fb282c300870686f175586b7b2408bca0ed6ce36072a405897b38edec36f6538"),
    "Towers": (
        "d25e4a3cc7ebf9b0cf0ee9e934bb1f7f06bf138bcb4f48e427b49826bee47084",
        "5f01946058a85a762f02e2f85dcfbc5ffec889c571ca7bb16101cfb0de692dd1"),
}


def _traced(name):
    """The seed-1 instrumented build's manifest and its run's trace files."""
    workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                else awfy_workload(name))
    pipeline = WorkloadPipeline(workload)
    instrumented = pipeline.build_instrumented(seed=task_seed(1, name))
    mode = MODE_MMAP if workload.microservice else MODE_DUMP_ON_FULL
    session = TraceSession(mode=mode)
    run_binary(instrumented, pipeline.exec_config,
               tracer=PathTracer(instrumented.manifest, session))
    return instrumented.manifest, session.trace_files()


@pytest.mark.parametrize("name", sorted(PROFILING_PINS))
def test_profiling_path_is_pinned(name):
    manifest, files = _traced(name)
    trace_sha, profile_digest = PROFILING_PINS[name]
    assert hashlib.sha256(pack_traces(files)).hexdigest() == trace_sha
    assert build_profiles(manifest, files).digest() == profile_digest


def test_trace_bytes_do_not_depend_on_process_history():
    """A trace header holds its thread's id, which an interpreter counts
    from 0: the build-time <clinit> threads of the same or another
    program do not shift it."""
    _manifest, first = _traced("CD")
    WorkloadPipeline(awfy_workload("Bounce")).profile(
        seed=task_seed(1, "Bounce"))
    _manifest, again = _traced("CD")
    assert pack_traces(again) == pack_traces(first)


def _body_sha(data):
    """SHA-256 of a trace file's bytes after its header."""
    _thread_id, body = decode_uvarint(data, HEADER_FIXED_BYTES)
    return hashlib.sha256(data[body:]).hexdigest()


#: fault-injected profiling sessions of the seed-1 instrumented builds:
#: (program, dump mode, fault) -> (SHA-256 of each trace file's bytes
#: after its header, the session's :class:`TraceStats`).  Queens is
#: killed at record 20,000, after one dump, and has its second flush
#: dropped; quarkus writes through and is killed after its first response.
FAULT_PINS = {
    "Queens-kill": (
        "Queens", MODE_DUMP_ON_FULL, FaultSpec(FAULT_KILL_AT_RECORD, at=20000),
        ["f323c2e618245c6acfd4df081c6e1b8557455dec17753fc754afb7e11e31afd0"],
        {"records": 19999, "bytes_written": 65541, "dumps": 1,
         "lost_records": 8270, "oversized_records": 0, "faulted_records": 0}),
    "Queens-drop-flush": (
        "Queens", MODE_DUMP_ON_FULL, FaultSpec(FAULT_DROP_FLUSH, at=1),
        ["bd989d9ed12e41fb9dd89cb326f890eb413ce1bb6a369260e1ed006b842e16ae"],
        {"records": 28124, "bytes_written": 91355, "dumps": 2,
         "lost_records": 11751, "oversized_records": 0,
         "faulted_records": 11751}),
    "quarkus-mmap": (
        "quarkus", MODE_MMAP, None,
        ["393b686352a69274585354ffebfcf2d5306e2daf29a108cb00d4c1904f01c1d3"],
        {"records": 1382, "bytes_written": 16518, "dumps": 0,
         "lost_records": 0, "oversized_records": 0, "faulted_records": 0}),
}


@pytest.mark.parametrize("label", sorted(FAULT_PINS))
def test_fault_injected_sessions_are_pinned(label):
    name, mode, fault, body_shas, stats = FAULT_PINS[label]
    workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                else awfy_workload(name))
    pipeline = WorkloadPipeline(workload)
    instrumented = pipeline.build_instrumented(seed=task_seed(1, name))
    hook = FaultInjector(FaultPlan.of(fault)) if fault is not None else None
    session = TraceSession(mode=mode, fault_hook=hook)
    run_binary(instrumented, pipeline.exec_config,
               tracer=PathTracer(instrumented.manifest, session))
    assert [_body_sha(data) for data in session.trace_files()] == body_shas
    assert dataclasses.asdict(session.total_stats()) == stats


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
