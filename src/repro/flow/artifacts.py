"""Typed flow artifacts, content digests and the content-addressed store.

The staged flow graph (:mod:`repro.flow.graph`) re-runs a stage only when
the content hash of its inputs changed.  This module supplies the three
ingredients:

* **Content digests** — deterministic hashes of the domain objects a stage
  consumes (netlists, placements, power reports, power maps, thermal maps,
  workloads, packages).  Digests hash *content*, never object identity:
  a :meth:`~repro.netlist.netlist.Netlist.copy` or a canonical-spec
  re-parse produces the same digest, while any mutation through a netlist
  mutator, a cell move, a strategy-parameter change or a solver-method
  change produces a new one.  Netlist and placement digests are memoised
  against the :class:`~repro.netlist.netlist.Netlist` structural version
  counter and the process-wide
  :attr:`~repro.netlist.cell.CellInstance.placement_epoch`, so unchanged
  objects are hashed once, not once per stage.

* **Artifact dataclasses** — the frozen, typed value each stage produces
  (:class:`PlacementArtifact`, :class:`PowerArtifact`,
  :class:`WhitespaceArtifact`, :class:`LegalizedArtifact`,
  :class:`ThermalArtifact`, :class:`StaArtifact`), each carrying the stage
  input ``key`` it was computed for.

* **:class:`ArtifactStore`** — a thread-safe content-addressed store on
  the keyed-store core (:mod:`repro.flow.keyed`): an in-memory LRU tier
  and an optional on-disk tier.  Disk entries embed
  a SHA-256 of their payload; a truncated or corrupted entry fails the
  check, is evicted, and the stage recomputes — a stale or damaged
  artifact is never deserialized blindly.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from ..netlist import Netlist
from ..placement import Placement
from ..power.power_map import PowerMap
from ..power.power_model import PowerReport
from ..thermal import Package, ThermalGrid, ThermalMap
from ..timing import TimingReport
from .cache import package_fingerprint
from .keyed import BlobIntegrityError, KeyedFront, read_blob, write_blob

#: Bump when a digest encoding or stage semantics change incompatibly, so
#: on-disk stores written by older code can never satisfy new lookups.
FLOW_KEY_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------


def _new_hasher():
    """The digest primitive: BLAKE2b/128 — fast, stable across processes."""
    return hashlib.blake2b(digest_size=16)


def _feed(hasher, value) -> None:
    """Feed one value into ``hasher`` with an unambiguous type-tagged encoding.

    Floats are encoded as raw IEEE-754 bytes so two values hash equal
    exactly when they are bitwise equal — the same strictness the golden
    equivalence suite demands of the flow outputs.
    """
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        data = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        hasher.update(b"I" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, float):
        hasher.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        hasher.update(b"S" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, bytes):
        hasher.update(b"Y" + len(value).to_bytes(4, "little") + value)
    elif isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        hasher.update(b"A")
        _feed(hasher, str(contiguous.dtype))
        _feed(hasher, contiguous.shape and tuple(int(n) for n in contiguous.shape))
        hasher.update(contiguous.tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"T" + len(value).to_bytes(4, "little"))
        for item in value:
            _feed(hasher, item)
    elif isinstance(value, dict):
        hasher.update(b"D" + len(value).to_bytes(4, "little"))
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
    elif isinstance(value, (np.integer,)):
        _feed(hasher, int(value))
    elif isinstance(value, (np.floating,)):
        _feed(hasher, float(value))
    else:
        raise TypeError(f"cannot hash {type(value).__name__} into a flow key")


def hash_parts(*parts) -> str:
    """Digest of a sequence of primitive values (see :func:`_feed`)."""
    hasher = _new_hasher()
    for part in parts:
        _feed(hasher, part)
    return hasher.hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Content digest of one array (dtype + shape + raw bytes)."""
    return hash_parts(np.asarray(array))


# ---------------------------------------------------------------------------
# Domain-object digests
# ---------------------------------------------------------------------------


def netlist_digest(netlist: Netlist) -> str:
    """Structural content digest of a netlist (placement-independent).

    Covers cells (in insertion order — iteration order is observable
    through the placer), masters, units, connectivity with sink order, and
    ports.  Memoised against the netlist's structural version counter, so
    repeated stage-key computations on an unchanged design hash once.
    """
    version = netlist._version
    memo = getattr(netlist, "_content_digest_memo", None)
    if memo is not None and memo[0] == version:
        return memo[1]
    hasher = _new_hasher()
    _feed(hasher, ("netlist", netlist.name))
    for cell in netlist.cells.values():
        _feed(hasher, (cell.name, cell.master.name, cell.unit, cell.fixed))
    for port in netlist.ports.values():
        _feed(hasher, (port.name, port.direction))
    for net in netlist.nets.values():
        _feed(hasher, net.name)
        _feed(hasher, net.driver_pin.full_name if net.driver_pin is not None else None)
        _feed(hasher, net.driver_port.name if net.driver_port is not None else None)
        # Sink order is content: it shapes compiled gather order and the
        # floating-point association of every downstream reduction.
        _feed(hasher, [pin.full_name for pin in net.sink_pins])
        _feed(hasher, [p.name for p in net.sink_ports])
    digest = hasher.hexdigest()
    netlist._content_digest_memo = (version, digest)
    return digest


def placement_digest(placement: Placement) -> str:
    """Content digest of a placed design: structure + geometry + coordinates.

    Memoised against ``(netlist version, placement epoch)``; the epoch is
    process-wide, so *any* cell move anywhere invalidates the memo — a
    conservative over-invalidation that costs a re-hash, never a stale key.
    """
    from ..netlist.cell import CellInstance

    netlist = placement.netlist
    state = (netlist._version, CellInstance.placement_epoch)
    memo = getattr(placement, "_content_digest_memo", None)
    if memo is not None and memo[0] == state:
        return memo[1]
    floorplan = placement.floorplan
    hasher = _new_hasher()
    _feed(hasher, ("placement", netlist_digest(netlist)))
    _feed(hasher, (
        floorplan.core_width, floorplan.core_height, floorplan.row_height,
        floorplan.site_width, floorplan.die_margin,
    ))
    for cell in netlist.cells.values():
        _feed(hasher, (cell.x, cell.y, cell.row))
    for port in netlist.ports.values():
        _feed(hasher, (port.x, port.y))
    for unit in sorted(placement.regions):
        rect = placement.regions[unit]
        _feed(hasher, (unit, rect.x0, rect.y0, rect.x1, rect.y1))
    digest = hasher.hexdigest()
    placement._content_digest_memo = (state, digest)
    return digest


def power_digest(power: PowerReport) -> str:
    """Content digest of a per-cell power report.

    Hashes the per-cell component breakdown (switching, internal, leakage)
    plus the model's frequency and temperature, in cell order.  Memoised on
    the report instance — reports are immutable once built.
    """
    memo = getattr(power, "_content_digest_memo", None)
    if memo is not None:
        return memo
    hasher = _new_hasher()
    _feed(hasher, ("power", power.frequency_hz, power.temperature))
    names = power.cell_names
    switching = getattr(power, "_switching", None)
    if names is not None and switching is not None:
        _feed(hasher, list(names))
        _feed(hasher, switching)
        _feed(hasher, power._internal)
        _feed(hasher, power._leakage)
    else:
        for name, cell_power in power.cell_powers.items():
            _feed(hasher, (
                name, cell_power.switching, cell_power.internal, cell_power.leakage,
            ))
    digest = hasher.hexdigest()
    power._content_digest_memo = digest
    return digest


def power_map_digest(power_map: PowerMap) -> str:
    """Content digest of a binned power map (values + bin geometry)."""
    return hash_parts(
        "power_map",
        power_map.power_w,
        power_map.bin_width_um,
        power_map.bin_height_um,
        tuple(power_map.origin_um),
    )


def thermal_map_digest(thermal_map: ThermalMap) -> str:
    """Content digest of a solved thermal map (field + warm-start vector)."""
    return hash_parts(
        "thermal_map",
        thermal_map.temperatures,
        thermal_map.ambient,
        thermal_map.package_temperature,
        thermal_map.grid_rises if thermal_map.grid_rises is not None else None,
    )


def package_digest(package: Package) -> str:
    """Content digest of a thermal package stack."""
    return hash_parts("package", repr(package_fingerprint(package)))


def grid_digest(grid: ThermalGrid) -> str:
    """Content digest of a thermal-mesh geometry (including its package)."""
    return hash_parts(
        "grid", grid.width_um, grid.height_um, grid.nx, grid.ny,
        repr(package_fingerprint(grid.package)),
    )


def workload_digest(workload, netlist: Netlist) -> str:
    """Content digest of a workload *as applied to* a netlist.

    The flow consumes a workload only through its per-port toggle
    probabilities, so that resolved mapping — not the workload's own
    attribute soup — is the content.
    """
    return hash_parts(
        "workload",
        workload.name,
        workload.port_toggle_probabilities(netlist),
    )


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementArtifact:
    """``synth`` output: the design placed at the baseline utilization."""

    key: str
    placement: Placement


@dataclass(frozen=True)
class PowerArtifact:
    """``power`` output: the cell-by-cell power report."""

    key: str
    power: PowerReport


@dataclass(frozen=True)
class WhitespaceArtifact:
    """``whitespace`` output: the strategy-transformed placement.

    Carries exactly the fields downstream stages and the outcome
    extraction read (the strategy-specific ``details`` object and detected
    hotspots of :class:`~repro.core.area_manager.AreaManagementResult` are
    deliberately dropped: they are unused downstream and would drag
    arbitrary strategy internals into the serialized store).
    """

    key: str
    placement: Placement
    strategy_spec: str
    requested_overhead: float
    actual_overhead: float
    inserted_rows: int
    num_fillers: int


@dataclass(frozen=True)
class LegalizedArtifact:
    """``legalize`` output: the physical database ready for the solve —
    the transformed placement's power binned onto the thermal grid, plus
    the grid covering its die outline."""

    key: str
    power_map: PowerMap
    grid: ThermalGrid


@dataclass(frozen=True)
class ThermalArtifact:
    """``thermal`` output: the solved temperature field."""

    key: str
    thermal_map: ThermalMap
    method: str


@dataclass(frozen=True)
class StaArtifact:
    """``sta`` output: the timing report at the solved temperature."""

    key: str
    timing: TimingReport


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------


class ArtifactStore(KeyedFront):
    """Thread-safe content-addressed artifact store (memory + optional disk).

    A :class:`~repro.flow.keyed.KeyedStore` keyed by ``(stage, key)``, where
    ``key`` is the stage's input content hash (never interpreted here).
    With ``root``, every insert is also persisted, best-effort, to
    ``<root>/<stage>/<key>.art`` so later processes resume sweeps
    incrementally; truncated, bit-flipped or garbage entries fail the
    sha256 check, are deleted, and the stage recomputes.

    Args:
        root: Directory of the on-disk tier; ``None`` keeps the store
            memory-only.
        maxsize: In-memory LRU bound (``None`` = unbounded).
    """

    def _path(self, entry: Tuple[str, str]) -> Path:
        stage, key = entry
        return self.root / stage / f"{key}.art"

    def get(self, stage: str, key: str):
        """The stored artifact for ``(stage, key)``, or ``None`` on a miss."""
        return self._store.get((stage, key))

    def put(self, stage: str, key: str, artifact) -> None:
        """Insert an artifact (memory, and disk when configured)."""
        self._store.put((stage, key), artifact)

    def get_or_build(self, stage: str, key: str, build, publish_if=None):
        """The artifact for ``(stage, key)``, built once on a miss (see
        :meth:`~repro.flow.keyed.KeyedStore.get_or_build`)."""
        return self._store.get_or_build((stage, key), build, publish_if)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries and counters are kept).

        A cleared store followed by re-lookups exercises the disk tier —
        which is exactly what the corruption tests do.
        """
        self._store.clear_memory()


__all__ = [
    "FLOW_KEY_VERSION",
    "hash_parts",
    "array_digest",
    "netlist_digest",
    "placement_digest",
    "power_digest",
    "power_map_digest",
    "thermal_map_digest",
    "package_digest",
    "grid_digest",
    "workload_digest",
    "PlacementArtifact",
    "PowerArtifact",
    "WhitespaceArtifact",
    "LegalizedArtifact",
    "ThermalArtifact",
    "StaArtifact",
    "ArtifactStore",
    "BlobIntegrityError",
    "write_blob",
    "read_blob",
]
