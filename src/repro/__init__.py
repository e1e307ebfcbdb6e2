"""repro — reproduction of "Improving Native-Image Startup Performance" (CGO '25).

A simulated GraalVM-Native-Image toolchain in pure Python: a Java-like
front-end (MiniJava), a Graal-style mid-end (RTA reachability, inlining into
compilation units, PGO folding), an image builder with heap snapshotting,
the paper's profile-guided code- and heap-ordering strategies with all three
object-identity algorithms, a Ball–Larus path-tracing profiler, and a
demand-paging runtime that measures startup page faults and time.

Entry points:

* :class:`repro.api.NativeImageToolchain` — build/profile/optimize one app;
* :mod:`repro.eval.figures` — regenerate every figure of the paper;
* :mod:`repro.workloads` — the AWFY suite and microservice workloads.
"""

# defined before the imports below: repro.cache.keys reads it while this
# module is still initializing (version is part of every cache key)
__version__ = "1.1.0"

from .api import STRATEGIES, ComparisonReport, NativeImageToolchain
from .eval.pipeline import Workload

__all__ = [
    "STRATEGIES",
    "ComparisonReport",
    "NativeImageToolchain",
    "Workload",
    "__version__",
]
