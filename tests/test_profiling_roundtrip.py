"""Property test: path tracing losslessly encodes the event stream.

Random structured programs are generated, executed under the tracer, and
the trace files are decoded back.  The method-entry records must match
ground truth observed directly from the interpreter, so must the method
order and call counts post-processing folds from them, and every path
record's object-ID count must match its decoded heap-access site count
(post-processing raises otherwise — this validates the whole Ball–Larus
pipeline).
"""

from collections import Counter
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minijava import compile_source
from repro.minijava.bytecode import HEAP_ACCESS_OPS
from repro.postproc.framework import build_profiles
from repro.profiling.instrument import plan_instrumentation
from repro.profiling.tracebuf import TraceSession
from repro.profiling.tracefile import (
    MODE_DUMP_ON_FULL,
    MethodEntryRecord,
    PathRecord,
    parse_trace,
)
from repro.profiling.tracer import PathTracer
from repro.vm.interpreter import Interpreter, RuntimeHooks


# -- random structured program generation -----------------------------------


@st.composite
def statements(draw, depth: int = 0) -> List[str]:
    choices = ["assign", "static", "incr"]
    if depth < 2:
        choices += ["if", "ifelse", "while", "call"]
    out: List[str] = []
    for _ in range(draw(st.integers(1, 3 if depth else 4))):
        kind = draw(st.sampled_from(choices))
        if kind == "assign":
            out.append(f"x = x + {draw(st.integers(1, 9))};")
        elif kind == "static":
            out.append("State.counter = State.counter + x;")
        elif kind == "incr":
            out.append("x++;")
        elif kind == "call":
            out.append(f"x = Helper.twist(x + {draw(st.integers(0, 3))});")
        elif kind == "if":
            body = " ".join(draw(statements(depth=depth + 1)))
            out.append(f"if (x % {draw(st.integers(2, 4))} == 0) {{ {body} }}")
        elif kind == "ifelse":
            a = " ".join(draw(statements(depth=depth + 1)))
            b = " ".join(draw(statements(depth=depth + 1)))
            out.append(f"if (x > {draw(st.integers(0, 20))}) {{ {a} }} else {{ {b} }}")
        elif kind == "while":
            body = " ".join(draw(statements(depth=depth + 1)))
            bound = draw(st.integers(1, 3))
            out.append(
                f"{{ int guard{depth} = 0; "
                f"while (guard{depth} < {bound}) {{ guard{depth}++; {body} }} }}"
            )
    return out


@st.composite
def programs(draw) -> str:
    body = " ".join(draw(statements()))
    return f"""
    class State {{ static int counter; }}
    class Helper {{
        static int twist(int v) {{
            if (v % 2 == 0) return v / 2;
            return 3 * v + 1;
        }}
    }}
    class Main {{
        static int main() {{
            int x = 7;
            {body}
            return x + State.counter;
        }}
    }}
    """


class _GroundTruth(RuntimeHooks):
    """Directly observed reference events."""

    def __init__(self, tracer: PathTracer) -> None:
        self._tracer = tracer
        self.method_entries: List[str] = []
        self.heap_accesses = 0

    def on_method_enter(self, frame, caller, thread):
        self.method_entries.append(frame.method.signature)
        self._tracer.on_method_enter(frame, caller, None, thread)

    def on_method_exit(self, frame, thread):
        self._tracer.on_method_exit(frame, thread)

    def on_object_access(self, obj, op, thread):
        if op in HEAP_ACCESS_OPS:
            self.heap_accesses += 1
        self._tracer.on_object_access(obj, op, thread)

    def leaders_for(self, method):
        return self._tracer.leaders_for(method)

    def on_block(self, frame, pc, thread):
        self._tracer.on_block(frame, pc, thread)


@settings(max_examples=30, deadline=None)
@given(programs())
def test_trace_roundtrip_matches_ground_truth(source: str) -> None:
    program = compile_source(source)
    methods = [
        m for m in program.all_methods() if m.name != "<clinit>"
    ]
    manifest = plan_instrumentation(program, methods)
    session = TraceSession(MODE_DUMP_ON_FULL)
    tracer = PathTracer(manifest, session)
    truth = _GroundTruth(tracer)

    interp = Interpreter(program, hooks=truth)
    thread = interp.spawn_main()
    interp.run()
    assert thread.done
    tracer.terminate(interp)

    files = session.trace_files()
    assert len(files) == 1

    records = parse_trace(files[0]).records
    decoded_entries = [
        manifest.method_signatures[record.method_id]
        for record in records
        if isinstance(record, MethodEntryRecord)
    ]
    assert decoded_entries == truth.method_entries

    # Post-processing raises TraceDecodeError on any path/site-count
    # inconsistency.
    profiles = build_profiles(manifest, files)
    assert profiles.code["method"].signatures \
        == list(dict.fromkeys(truth.method_entries))
    assert profiles.calls.counts == Counter(truth.method_entries)

    # Every traced object ID (all sentinel 0 here: no image heap) must be
    # accounted for: total IDs in path records == ground-truth access count.
    total_ids = sum(
        len(r.object_ids)
        for r in records
        if isinstance(r, PathRecord)
    )
    assert total_ids == truth.heap_accesses
