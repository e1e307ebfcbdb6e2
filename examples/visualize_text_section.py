#!/usr/bin/env python3
"""Render the paper's Fig. 6 page maps for any AWFY benchmark.

Shows the ``.text`` section as one character per 4 KiB page for the regular
binary and the cu-ordered binary: '#' = page faulted, 'o' = mapped by
fault-around without a fault, '.' = never mapped, 'N' = the statically
linked native blob (not reorderable — the paper leaves it to future work).

Run:  python examples/visualize_text_section.py [BenchmarkName]
"""

import sys

from repro.eval.pagemap import compare_page_maps, layout_page_maps
from repro.workloads.awfy.suite import AWFY_NAMES, awfy_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Bounce"
    if name not in AWFY_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}; choose from {AWFY_NAMES}")

    # the regular build at seed 1, the cu-ordered one at seed 2
    regular_map, optimized_map = layout_page_maps(awfy_workload(name))

    print(f".text page map for AWFY {name} (cu strategy)\n")
    print(compare_page_maps(regular_map, optimized_map))
    print(
        f"\nfront-quarter fault density: regular "
        f"{regular_map.front_density:.0%} -> cu-ordered "
        f"{optimized_map.front_density:.0%}"
    )


if __name__ == "__main__":
    main()
