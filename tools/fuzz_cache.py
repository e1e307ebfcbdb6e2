#!/usr/bin/env python3
"""Fuzz the artifact cache's self-healing read path.

Each case stores a known payload, damages the on-disk entry the way
storage actually fails — bit flips, truncation, appended garbage, a
swapped payload, sidecar rot, a flipped bit in a sidecar key name with a
swapped payload, or a deleted file half — and then reads it
back through a fresh (memo-free) :class:`ArtifactCache`.  Two things must
hold on every case:

1. the cache never raises and never returns a wrong value: the read is
   either the intact payload (damage the checksum cannot distinguish from
   a faithful write, e.g. an appended-noise case the CRC still covers) or
   a clean miss, and
2. after the miss, the entry is evicted and a recompute (``put`` +
   ``get``) round-trips the true value again — detect, evict, recompute.

Run:  python tools/fuzz_cache.py [--count 200] [--seed 1]

Used by the CI chaos job; exits non-zero on the first violation, printing
the offending case so it reproduces with ``--only <case>``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache.store import ALL_KINDS, ArtifactCache  # noqa: E402


def make_payload(rng: random.Random):
    """A pickle-friendly value with some volume to flip bits in."""
    shape = rng.randrange(3)
    if shape == 0:
        return {f"k{i}": rng.random() for i in range(rng.randrange(4, 40))}
    if shape == 1:
        return [rng.randrange(1 << 30)
                for _ in range(rng.randrange(8, 120))]
    return {"blob": bytes(rng.randrange(256)
                          for _ in range(rng.randrange(64, 512))),
            "meta": {"n": rng.randrange(1000)}}


def damage(rng: random.Random, pkl: Path, meta: Path) -> str:
    """Apply one random damage shape; returns its name for reporting."""
    mode = rng.randrange(7)
    blob = bytearray(pkl.read_bytes())
    if mode == 0 and blob:
        for _ in range(rng.randrange(1, 8)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        pkl.write_bytes(bytes(blob))
        return "bit flips"
    if mode == 1:
        pkl.write_bytes(bytes(blob[:rng.randrange(len(blob))]))
        return "truncation"
    if mode == 2:
        noise = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        pkl.write_bytes(bytes(blob) + noise)
        return "appended garbage"
    if mode == 3:
        pkl.write_bytes(bytes(rng.randrange(256)
                              for _ in range(rng.randrange(0, 256))))
        return "payload swap"
    if mode == 4:
        doc = json.loads(meta.read_text())
        doc["crc32"] = rng.randrange(1 << 32)
        meta.write_text(json.dumps(doc))
        return "sidecar rot"
    if mode == 5:
        # One flipped bit in one key name keeps the JSON valid but loses
        # that key; the payload is swapped for another valid pickle, so a
        # read that skips the checksum returns a wrong value.
        doc = json.loads(meta.read_text())
        name = rng.choice(sorted(doc))
        at = rng.randrange(len(name))
        flipped = chr(ord(name[at]) ^ (1 << rng.randrange(7)))
        doc[name[:at] + flipped + name[at + 1:]] = doc.pop(name)
        meta.write_text(json.dumps(doc))
        pkl.write_bytes(pickle.dumps(make_payload(rng)))
        return f"sidecar key rot ({name})"
    if rng.randrange(2):
        pkl.unlink()
        return "payload deleted"
    meta.unlink()
    return "sidecar deleted"


def run_case(case: int, seed: int, root: Path) -> str:
    """One fuzz case; returns an error string ('' = clean)."""
    rng = random.Random((seed << 20) | case)
    kind = rng.choice(ALL_KINDS)
    key = "".join(rng.choice("0123456789abcdef") for _ in range(64))
    value = make_payload(rng)

    writer = ArtifactCache(root, memo_entries=0)
    if not writer.put(kind, key, value):
        return "put refused a pickle-friendly payload"
    pkl = root / kind / key[:2] / f"{key}.pkl"
    meta = pkl.with_suffix(".json")
    shape = damage(rng, pkl, meta)

    reader = ArtifactCache(root, memo_entries=0)
    try:
        got = reader.get(kind, key)
    except Exception as exc:  # the one thing that must never happen
        return f"{shape}: get raised {type(exc).__name__}: {exc}"
    if got is not None and got != value:
        return f"{shape}: get returned a WRONG value"
    if got is None:
        # detect-evict-recompute: the damaged entry must be gone, and the
        # caller's recompute must restore a clean round-trip
        if reader.contains(kind, key) and shape != "sidecar deleted":
            return f"{shape}: damaged entry left in place after the miss"
        if not reader.put(kind, key, value):
            return f"{shape}: recompute put was refused"
        try:
            healed = reader.get(kind, key)
        except Exception as exc:
            return f"{shape}: post-heal get raised {type(exc).__name__}: {exc}"
        if healed != value:
            return f"{shape}: post-heal get did not round-trip"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", type=int, help="run a single case index")
    args = parser.parse_args()

    failures = 0
    for case in range(args.count):
        if args.only is not None and case != args.only:
            continue
        scratch = Path(tempfile.mkdtemp(prefix="repro-fuzz-cache-"))
        try:
            error = run_case(case, args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if error:
            failures += 1
            print(f"FAIL case {case} (seed {args.seed}): {error}")
    if failures:
        print(f"{failures}/{args.count} cases violated the healing contract")
        return 1
    print(f"ok: {args.count} cases, every damaged entry was detected, "
          "evicted, and recomputed (or served intact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
