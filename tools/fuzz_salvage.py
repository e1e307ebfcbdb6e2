#!/usr/bin/env python3
"""Fuzz the salvage parser: feed seeded random/mutated byte strings through
``parse_trace_lenient`` and assert it never raises.

The mutated cases start from a reference trace, from the same trace with
its version byte set to 1 (a format no longer read), which by itself must
salvage to an empty trace, or from a real trace (quarkus at seed 1,
written through: one chunk per record).  The reference mixes one-byte
fields with method ids, path values and object ids either side of the
one/two- and two/three-byte varint boundaries, so damage lands in both
decode paths; undamaged, it must salvage to exactly the records the strict
parser reads.

Each case also goes through lenient post-processing, ``build_profiles``
against the real trace's instrumented manifest, which must not raise
either, and whose ``ProfileCompleteness`` must agree with the salvage
report of the same bytes on records recovered, records unverified, corrupt
chunks and bytes dropped: the two layers count salvaged records alike.

Run:  python tools/fuzz_salvage.py [--count 500] [--seed 1]

Used by the CI fuzz job; exits non-zero on the first crash, printing the
offending seed/case so the failure is reproducible with
``--count 1 --only <case>``.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.pipeline import WorkloadPipeline  # noqa: E402
from repro.eval.scheduler import task_seed  # noqa: E402
from repro.postproc.framework import build_profiles  # noqa: E402
from repro.profiling.tracebuf import ThreadTraceBuffer, TraceSession  # noqa: E402
from repro.profiling.tracefile import (  # noqa: E402
    MODE_DUMP_ON_FULL,
    MODE_MMAP,
    encode_method_entry,
    encode_path,
    parse_trace,
    parse_trace_lenient,
)
from repro.profiling.tracer import PathTracer  # noqa: E402
from repro.runtime.executor import run_binary  # noqa: E402
from repro.workloads import microservice_workload  # noqa: E402

#: field values either side of the one/two- and two/three-byte boundaries
BOUNDARY_VALUES = (127, 128, 16383, 16384)


def reference_trace() -> bytes:
    buffer = ThreadTraceBuffer(thread_id=1, mode=MODE_DUMP_ON_FULL,
                               capacity=96)
    for index in range(40):
        buffer.append(encode_method_entry(index))
        if index % 4 == 0:
            buffer.append(encode_path(index, 0, 2, [index, 0, index + 1]))
    for value in BOUNDARY_VALUES:
        buffer.append(encode_method_entry(value))
        buffer.append(encode_path(value, 1, value, [value - 1, 0, value]))
    buffer.terminate()
    return buffer.data


def real_trace():
    """quarkus's seed-1 instrumented manifest and its run's trace file."""
    pipeline = WorkloadPipeline(microservice_workload("quarkus"))
    instrumented = pipeline.build_instrumented(seed=task_seed(1, "quarkus"))
    session = TraceSession(mode=MODE_MMAP)
    run_binary(instrumented, pipeline.exec_config,
               tracer=PathTracer(instrumented.manifest, session))
    return instrumented.manifest, session.trace_files()[0]


#: the counts a salvage report and a lenient profile's completeness share
SHARED_COUNTS = ("records_recovered", "records_unverified", "corrupt_chunks",
                 "bytes_dropped")


def disagreement(manifest, blob: bytes, report) -> str:
    """Why lenient post-processing of ``blob`` disagrees with ``report``,
    its salvage report ("" when they agree)."""
    completeness = build_profiles(manifest, [blob], lenient=True).completeness
    return ", ".join(
        f"{name} {getattr(completeness, name)} vs {getattr(report, name)}"
        for name in SHARED_COUNTS
        if getattr(completeness, name) != getattr(report, name))


def make_case(rng: random.Random, bases) -> bytes:
    kind = rng.randrange(3)
    if kind == 0:  # pure noise
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 600)))
    blob = bytearray(rng.choice(bases))
    for _ in range(rng.randrange(1, 10)):
        action = rng.randrange(4)
        if action == 0 and blob:
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        elif action == 1 and blob:
            del blob[rng.randrange(len(blob)):]
        elif action == 2 and blob:
            start = rng.randrange(len(blob))
            del blob[start:start + rng.randrange(1, 12)]
        else:
            pos = rng.randrange(len(blob) + 1)
            noise = bytes(rng.randrange(256)
                          for _ in range(rng.randrange(1, 16)))
            blob[pos:pos] = noise
    return bytes(blob)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", type=int, help="run a single case index")
    args = parser.parse_args()

    reference = reference_trace()
    salvaged = parse_trace_lenient(reference)
    if (not salvaged.report.complete
            or salvaged.trace.records != parse_trace(reference).records):
        print("FAIL: the undamaged reference salvages to other records "
              "than the strict parse reads")
        return 1
    version_1 = reference[:4] + bytes([1]) + reference[5:]
    if parse_trace_lenient(version_1).trace.records:
        print("FAIL: the version-1 trace salvaged records")
        return 1
    manifest, real = real_trace()
    bases = [reference, version_1, real]
    failures = 0
    recovered_total = 0
    for case in range(args.count):
        rng = random.Random((args.seed << 20) | case)
        blob = make_case(rng, bases)
        if args.only is not None and case != args.only:
            continue
        try:
            salvaged = parse_trace_lenient(blob)
            disagree = disagreement(manifest, blob, salvaged.report)
        except Exception as exc:  # the one thing that must never happen
            failures += 1
            print(f"FAIL case {case} (seed {args.seed}, {len(blob)} bytes): "
                  f"{type(exc).__name__}: {exc}")
            continue
        if disagree:
            failures += 1
            print(f"FAIL case {case} (seed {args.seed}, {len(blob)} bytes): "
                  f"post-processing and salvage disagree: {disagree}")
            continue
        assert salvaged.report.records_recovered == len(salvaged.trace.records)
        recovered_total += salvaged.report.records_recovered
    if failures:
        print(f"{failures}/{args.count} cases failed")
        return 1
    print(f"ok: {args.count} cases, 0 crashes, 0 disagreements, "
          f"{recovered_total} records salvaged in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
