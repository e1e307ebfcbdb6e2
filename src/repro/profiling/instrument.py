"""Instrumentation planning for the profiling build.

The instrumented binary carries extra code: a method-entry probe, one
path-increment probe per basic block, and an identifier-append probe per
heap-access site (paper Sec. 3/6).  Two artifacts come out of planning:

* an :class:`InstrumentationManifest` — the static side tables (method IDs,
  CFGs with path numbering, per-block heap-access sites, CU IDs) that the
  post-processing framework needs to decode raw traces; in the real system
  this information lives in the compiler and the binary's metadata;
* a **size function** that inflates method sizes by the probe bytes, which
  is what makes the instrumented build's inliner diverge from the regular
  and optimized builds (Sec. 2: "instrumentation code may make the inliner
  behave differently").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..minijava.bytecode import CompiledMethod, Program
from .cfg import MethodCfg, build_cfg

#: Simulated probe sizes in bytes.
METHOD_ENTRY_PROBE_BYTES = 12
BLOCK_PROBE_BYTES = 6
HEAP_ACCESS_PROBE_BYTES = 8
CU_ENTRY_PROBE_BYTES = 10  # lives in the CU prologue


@dataclass
class InstrumentationManifest:
    """Static decode tables for one instrumented build."""

    method_ids: Dict[str, int] = field(default_factory=dict)  # signature -> id
    method_signatures: List[str] = field(default_factory=list)  # id -> signature
    cfgs: Dict[str, MethodCfg] = field(default_factory=dict)  # signature -> cfg
    cu_ids: Dict[str, int] = field(default_factory=dict)  # cu root signature -> id
    cu_signatures: List[str] = field(default_factory=list)  # id -> root signature
    #: snapshot object index -> per-strategy 64-bit IDs (the identifiers
    #: "associated to each object instance" stored in the instrumented image)
    object_ids: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def method_id(self, signature: str) -> int:
        return self.method_ids[signature]

    def cfg_for_id(self, method_id: int) -> MethodCfg:
        return self.cfgs[self.method_signatures[method_id]]

    def register_cus(self, root_signatures: List[str]) -> None:
        for signature in root_signatures:
            if signature not in self.cu_ids:
                self.cu_ids[signature] = len(self.cu_signatures)
                self.cu_signatures.append(signature)


def plan_instrumentation(
    program: Program, methods: List[CompiledMethod]
) -> InstrumentationManifest:
    """Build the manifest for the given (reachable) methods."""
    manifest = InstrumentationManifest()
    for method in sorted(methods, key=lambda m: m.signature):
        if method.signature in manifest.method_ids:
            continue
        manifest.method_ids[method.signature] = len(manifest.method_signatures)
        manifest.method_signatures.append(method.signature)
        manifest.cfgs[method.signature] = build_cfg(method)
    return manifest


def instrumented_size_fn(
    manifest: InstrumentationManifest,
) -> Callable[[CompiledMethod], int]:
    """Machine-code size including probe bytes, for the instrumented build."""

    cache: Dict[str, int] = {}

    def size_of(method: CompiledMethod) -> int:
        signature = method.signature
        cached = cache.get(signature)
        if cached is not None:
            return cached
        base = method.code_size()
        cfg = manifest.cfgs.get(signature)
        if cfg is None:
            cfg = build_cfg(method)
            manifest.cfgs[signature] = cfg
        size = (
            base
            + METHOD_ENTRY_PROBE_BYTES
            + BLOCK_PROBE_BYTES * cfg.block_count
            + HEAP_ACCESS_PROBE_BYTES * cfg.heap_site_count
        )
        cache[signature] = size
        return size

    return size_of

