"""Profile lifecycle: versioned ordering-profile artifacts with provenance.

Production PGO treats profiles as long-lived inputs, not one-shot
by-products: a layout deployed today was built from traces collected days
ago, under a traffic mix that may no longer exist.  The
:class:`ProfileStore` makes that lifecycle explicit — every profile that
feeds a build is *published* as an immutable :class:`ProfileVersion`
carrying full :class:`ProfileProvenance` (which traces, at what weights,
under which toolchain, at which epoch), and the *deployed* pointer names
the version the live layout actually stands on.  Age is therefore a
first-class question (``store.age(now)``), and the drift detector can
always recover exactly the profile a stale layout was built from.

Stores are in-memory by default and serialize to a directory of CSV
bundles + JSON provenance (:meth:`ProfileStore.save` /
:meth:`ProfileStore.load`) so a simulated fleet can hand profiles between
processes the way a real profile service ships iprof files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cache.keys import TOOLCHAIN_VERSION
from ..ordering.errors import OrderingError
from ..ordering.profiles import ProfileBundle, load_bundle, save_bundle


@dataclass(frozen=True)
class TraceSource:
    """One weighted trace (or pre-merged bundle) behind a published profile."""

    label: str
    weight: float
    #: content digest of the source's post-processed bundle
    digest: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "weight": self.weight,
            "digest": self.digest,
        }


@dataclass(frozen=True)
class ProfileProvenance:
    """Where a published profile came from, and when."""

    workload: str
    #: logical collection time (scenario epoch / deployment cycle number)
    epoch: int
    sources: Tuple[TraceSource, ...] = ()
    toolchain: str = TOOLCHAIN_VERSION
    notes: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "epoch": self.epoch,
            "toolchain": self.toolchain,
            "sources": [source.as_dict() for source in self.sources],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProfileProvenance":
        return cls(
            workload=payload["workload"],
            epoch=payload["epoch"],
            toolchain=payload.get("toolchain", TOOLCHAIN_VERSION),
            sources=tuple(
                TraceSource(**source) for source in payload.get("sources", [])
            ),
            notes=tuple(payload.get("notes", [])),
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{source.label}×{source.weight:g}" for source in self.sources
        )
        return (f"{self.workload} profile @ epoch {self.epoch} "
                f"[{parts or 'no sources'}]")


@dataclass(frozen=True)
class ProfileVersion:
    """One immutable published profile: bundle + provenance + digest."""

    version: int
    digest: str
    bundle: ProfileBundle
    provenance: ProfileProvenance

    def describe(self) -> str:
        return (f"v{self.version} ({self.digest[:12]}…) — "
                f"{self.provenance.describe()}")


@dataclass(frozen=True)
class DeployedLayout:
    """The layout a (simulated) fleet is currently running.

    ``baseline_faults`` is the replayed expected first-touch fault count
    under the traffic mix the layout was *built for*, recorded at
    deployment time — the drift detector's fixed reference point.
    """

    profile_version: int
    strategy: str
    layout_digest: int
    baseline_faults: float
    #: epoch the layout was deployed at (age = now - epoch)
    epoch: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "profile_version": self.profile_version,
            "strategy": self.strategy,
            "layout_digest": self.layout_digest,
            "baseline_faults": self.baseline_faults,
            "epoch": self.epoch,
        }


class ProfileStore:
    """Versioned profiles of one workload plus the deployed pointer.

    Versions are append-only and 1-indexed; :meth:`publish` never mutates
    or replaces an existing version (a re-collected profile with identical
    content still gets a fresh version — age and provenance differ even
    when bytes do not).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.versions: List[ProfileVersion] = []
        self.deployed_version: Optional[int] = None

    # -- publishing ---------------------------------------------------------

    def publish(self, bundle: ProfileBundle,
                provenance: ProfileProvenance) -> ProfileVersion:
        """Append ``bundle`` as the next version; returns the new version."""
        if provenance.workload != self.workload:
            raise OrderingError(
                f"provenance names workload {provenance.workload!r} but this "
                f"store holds {self.workload!r}", kind="profile-store",
            )
        version = ProfileVersion(
            version=len(self.versions) + 1,
            digest=bundle.digest(),
            bundle=bundle,
            provenance=provenance,
        )
        self.versions.append(version)
        return version

    # -- lookup -------------------------------------------------------------

    def version(self, number: int) -> ProfileVersion:
        if not 1 <= number <= len(self.versions):
            raise KeyError(
                f"no profile version {number} (store has "
                f"{len(self.versions)} version(s))"
            )
        return self.versions[number - 1]

    def latest(self) -> ProfileVersion:
        if not self.versions:
            raise KeyError(f"profile store for {self.workload!r} is empty")
        return self.versions[-1]

    def __len__(self) -> int:
        return len(self.versions)

    # -- the deployed pointer ----------------------------------------------

    def deploy(self, number: int) -> ProfileVersion:
        """Mark ``number`` as the version the live layout stands on."""
        version = self.version(number)  # validates
        self.deployed_version = number
        return version

    def deployed(self) -> Optional[ProfileVersion]:
        if self.deployed_version is None:
            return None
        return self.version(self.deployed_version)

    def age(self, epoch: int) -> Optional[int]:
        """Epochs elapsed since the deployed profile was collected."""
        deployed = self.deployed()
        if deployed is None:
            return None
        return max(0, epoch - deployed.provenance.epoch)

    # -- persistence --------------------------------------------------------

    def save(self, directory: Path) -> None:
        """Write every version (CSV bundle + provenance JSON) + the pointer."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for version in self.versions:
            vdir = directory / f"v{version.version:04d}"
            vdir.mkdir(parents=True, exist_ok=True)
            save_bundle(version.bundle, vdir)
            (vdir / "provenance.json").write_text(
                json.dumps(version.provenance.as_dict(), indent=2) + "\n"
            )
        (directory / "store.json").write_text(json.dumps({
            "workload": self.workload,
            "versions": len(self.versions),
            "deployed_version": self.deployed_version,
        }, indent=2) + "\n")

    @classmethod
    def load(cls, directory: Path) -> "ProfileStore":
        directory = Path(directory)
        meta = json.loads((directory / "store.json").read_text())
        store = cls(meta["workload"])
        for number in range(1, meta["versions"] + 1):
            vdir = directory / f"v{number:04d}"
            provenance = ProfileProvenance.from_dict(
                json.loads((vdir / "provenance.json").read_text())
            )
            store.publish(load_bundle(vdir), provenance)
        if meta.get("deployed_version") is not None:
            store.deploy(meta["deployed_version"])
        return store

    def describe(self) -> str:
        lines = [f"profile store [{self.workload}]: {len(self.versions)} "
                 f"version(s), deployed="
                 + (f"v{self.deployed_version}" if self.deployed_version
                    else "none")]
        for version in self.versions:
            marker = " *" if version.version == self.deployed_version else "  "
            lines.append(marker + version.describe())
        return "\n".join(lines)
