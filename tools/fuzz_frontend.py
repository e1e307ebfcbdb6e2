#!/usr/bin/env python3
"""Fuzz the MiniJava front end: compile seeded mutations of workload sources
and assert that each one compiles or raises a typed ``MiniJavaError``.

Each case takes one of the 17 workload sources (AWFY programs with one
ballast subsystem, so a case compiles in milliseconds), deletes random
spans and inserts junk (a hex prefix with no digit, non-ASCII characters,
an unclosed comment, lone quotes and brackets), then runs
``compile_source``.

Run:  python tools/fuzz_frontend.py [--count 200] [--seed 1]

Used by the CI fuzz job; exits 1 on the first exception that is not a
``MiniJavaError``, printing the case's seed, workload and mutations so it
can be replayed.
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.minijava import MiniJavaError, compile_source  # noqa: E402
from repro.workloads import (  # noqa: E402
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)

JUNK = ("0x", "0X", "0x;", "²", "٣", "é", "/*", "*/", "//",
        '"', "'", "\\", "(", ")", "{", "}", "[", "]", ";", ",", ".", "1e",
        "1.", "#", "\t", "\n")


def bases():
    """``(name, main_class, source)`` of every workload."""
    workloads = [awfy_workload(name, ballast_subsystems=1) for name in AWFY_NAMES]
    workloads += [microservice_workload(name) for name in MICROSERVICE_NAMES]
    return [(w.name, w.main_class, w.source) for w in workloads]


def mutate(rng: random.Random, source: str):
    """Returns the mutated source and a list describing each mutation."""
    edits = []
    for _ in range(rng.randrange(1, 4)):
        pos = rng.randrange(len(source) + 1)
        if rng.randrange(3) == 0:
            end = min(len(source), pos + rng.randrange(1, 40))
            edits.append(f"delete [{pos}:{end}] {source[pos:end]!r}")
            source = source[:pos] + source[end:]
        else:
            junk = rng.choice(JUNK)
            edits.append(f"insert {junk!r} at {pos}")
            source = source[:pos] + junk + source[pos:]
    return source, edits


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    programs = bases()
    compiled = typed = 0
    for case in range(args.count):
        rng = random.Random((args.seed << 20) | case)
        name, main_class, source = rng.choice(programs)
        mutated, edits = mutate(rng, source)
        try:
            compile_source(mutated, main_class=main_class)
            compiled += 1
        except MiniJavaError:
            typed += 1
        except Exception:  # the one thing that must never happen
            print(f"FAIL case {case} (seed {args.seed}, workload {name}):")
            for edit in edits:
                print(f"  {edit}")
            traceback.print_exc(file=sys.stdout)
            return 1
    print(f"ok: {args.count} cases, {compiled} compiled, "
          f"{typed} raised MiniJavaError")
    return 0


if __name__ == "__main__":
    sys.exit(main())
