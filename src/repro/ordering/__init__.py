"""Ordering strategies: object identities, code order, heap order, search."""

from .coaccess import (
    CoAccessGraph,
    DEFAULT_WINDOW,
    build_coaccess_graph,
    layout_objective,
)
from .code_order import default_order, order_compilation_units
from .errors import OrderingError
from .heap_order import MatchReport, match_and_order
from .ids import (
    ALL_STRATEGIES,
    HEAP_PATH,
    INCREMENTAL_ID,
    STRUCTURAL_HASH,
    StructuralHasher,
    assign_incremental_ids,
    heap_path_hash,
    structural_hash,
)
from .optimize import (
    CU_OPT_ORDERING,
    OptimizationReport,
    SearchResult,
    optimize_workload,
    search_order,
    synthesize_optimizer_profiles,
)
from .profiles import (
    CallCountProfile,
    CodeOrderProfile,
    HeapOrderProfile,
    ProfileBundle,
    load_bundle,
    save_bundle,
)

__all__ = [
    "CoAccessGraph", "DEFAULT_WINDOW", "build_coaccess_graph",
    "layout_objective",
    "default_order", "order_compilation_units", "OrderingError",
    "MatchReport", "match_and_order",
    "ALL_STRATEGIES", "HEAP_PATH", "INCREMENTAL_ID",
    "STRUCTURAL_HASH", "StructuralHasher",
    "assign_incremental_ids", "heap_path_hash", "structural_hash",
    "CU_OPT_ORDERING", "OptimizationReport", "SearchResult",
    "optimize_workload", "search_order", "synthesize_optimizer_profiles",
    "CallCountProfile", "CodeOrderProfile", "HeapOrderProfile",
    "ProfileBundle", "load_bundle", "save_bundle",
]
