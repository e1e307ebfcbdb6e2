"""Quarantine registry: ordering profiles proven to produce bad layouts.

When the verification oracle convicts a (workload, strategy) combination —
a structural invariant breach or a behavioral divergence — the combination
is quarantined: subsequent optimized builds of that workload skip the
ordering and keep the default layout until the profile is regenerated.
This is the rung *below* the degradation ladder's match-rate floor: the
floor catches profiles that look wrong, quarantine catches profiles that
were proven wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class QuarantineEntry:
    """One convicted (workload, strategy) combination."""

    workload: str
    strategy: str
    reason: str
    #: layout fingerprint of the convicted binary (0 = not applicable)
    layout_digest: int = 0

    def describe(self) -> str:
        digest = (f" (layout {self.layout_digest:#018x})"
                  if self.layout_digest else "")
        return f"[{self.workload} / {self.strategy}]{digest}: {self.reason}"


@dataclass
class QuarantineRegistry:
    """All quarantined combinations of one pipeline (or toolchain)."""

    entries: Dict[Tuple[str, str], QuarantineEntry] = field(default_factory=dict)

    def quarantine(self, workload: str, strategy: str, reason: str,
                   layout_digest: int = 0) -> QuarantineEntry:
        entry = QuarantineEntry(workload=workload, strategy=strategy,
                                reason=reason, layout_digest=layout_digest)
        if (workload, strategy) not in self.entries:
            from ..obs import get_event_log, metrics
            metrics().counter("validation.quarantines")
            get_event_log().emit("quarantine", workload=workload,
                                 strategy=strategy, reason=reason)
        self.entries[(workload, strategy)] = entry
        return entry

    def is_quarantined(self, workload: str, strategy: str) -> bool:
        return (workload, strategy) in self.entries

    def entry_for(self, workload: str,
                  strategy: str) -> Optional[QuarantineEntry]:
        return self.entries.get((workload, strategy))

    def release(self, workload: str, strategy: str) -> bool:
        """Lift a quarantine (e.g. after the profile was regenerated)."""
        return self.entries.pop((workload, strategy), None) is not None

    def __len__(self) -> int:
        return len(self.entries)

    def describe(self) -> str:
        if not self.entries:
            return "quarantine: empty"
        lines = [f"quarantine: {len(self.entries)} entr" +
                 ("y" if len(self.entries) == 1 else "ies")]
        for entry in self.entries.values():
            lines.append(f"  {entry.describe()}")
        return "\n".join(lines)
