"""Persistent campaign-result store: resumable, shareable, single-flight.

:class:`ResultStore` persists one :class:`~repro.flow.runner.CampaignRecord`
per evaluated grid point, keyed by the content of everything the record
depends on — the experiment baseline (netlist, placement, power, thermal
map, package, grid resolution, timing reference), the canonical strategy
spec, the requested overhead, the *resolved* thermal-solver backend, the
active execution engine and whether timing was analysed.  Two consequences:

* **Incremental sweeps** — a repeated campaign against the same store
  recomputes nothing; a sweep extended with new strategies or overheads
  computes only the new points.
* **Free resume** — records are published as each point completes, so an
  interrupted run (Ctrl-C, crash, OOM-kill) leaves every finished point on
  disk and a rerun picks up exactly where it stopped.

Entries use the same verified on-disk format as the artifact store
(``magic + sha256(payload) + payload``, atomically published), so damaged
or truncated entries are detected, evicted and recomputed — never
deserialized blindly.  The store is safe to share between threads,
sharded worker processes and the ``repro serve`` daemon simultaneously:
writers racing on one key all publish the same content through atomic
renames, and :meth:`ResultStore.compute_if_missing` adds *cross-process*
single-flight via ``O_EXCL`` claim files, so exactly one process computes
a missing point while the others wait and then hit.

The module also houses the disk-usage helpers behind ``repro cache``:
:func:`scan_store` and :func:`prune_store` operate uniformly on artifact
stores and result stores (both lay entries out as ``<root>/<shard>/<key>``
files).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..faults import inject
from .artifacts import (
    FLOW_KEY_VERSION,
    hash_parts,
    netlist_digest,
    package_digest,
    placement_digest,
    power_digest,
    thermal_map_digest,
)
from .keyed import KeyedFront

#: Filename suffix of result entries (artifact stores use ``.art``).
RESULT_SUFFIX = ".res"

#: A single-flight claim older than this is considered abandoned (its
#: owner crashed without unlinking) and is broken by the next writer.
STALE_CLAIM_S = 600.0


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def setup_digest(setup) -> str:
    """Content digest of everything an evaluation reads from its baseline.

    Covers the placed design (structure + coordinates), the per-cell power
    report, the baseline thermal map (both the outcome's reduction
    reference and the warm-start field), the package stack, the grid
    resolution, the baseline utilization and the timing reference the
    overhead is measured against.  Anything that could change a
    :class:`~repro.flow.experiment.StrategyOutcome` changes this digest.
    """
    return hash_parts(
        "setup",
        netlist_digest(setup.placement.netlist),
        placement_digest(setup.placement),
        power_digest(setup.power),
        thermal_map_digest(setup.thermal_map),
        package_digest(setup.package),
        setup.grid_nx,
        setup.grid_ny,
        setup.base_utilization,
        setup.timing.clock_period_ps,
        setup.timing.critical_path_ps,
    )


def result_key(
    setup_fingerprint: str,
    strategy_spec: str,
    overhead: float,
    method: str,
    engine: str,
    analyze_timing: bool,
) -> str:
    """The store key of one campaign point.

    Args:
        setup_fingerprint: :func:`setup_digest` of the experiment baseline.
        strategy_spec: *Canonical* strategy spec string (``"eri"``,
            ``"hw:ring_um=8.0"``) — canonicalise with
            :func:`~repro.core.resolve_strategy` first so spelling variants
            share an entry.
        overhead: Requested area-overhead fraction (hashed as raw IEEE-754
            bits, so hash-equal means bitwise-equal).
        method: *Resolved* thermal-solver backend (``"lu"`` or
            ``"multigrid"``, never ``"auto"``) — the two backends agree to
            tolerance, not bitwise, so they must not share records.
        engine: Active execution engine (``"compiled"``/``"reference"``).
        analyze_timing: Whether the record carries a timing overhead.
    """
    return hash_parts(
        FLOW_KEY_VERSION, "result",
        setup_fingerprint, strategy_spec, overhead, method, engine,
        analyze_timing,
    )


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class ResultStore(KeyedFront):
    """Persistent, shareable store of evaluated campaign records.

    Layout: ``<root>/<key[:2]>/<key>.res`` — the two-character shard keeps
    directories small for million-record stores.  With ``root=None`` the
    store is memory-only (still single-flight across threads), which is
    what short-lived in-process campaigns use.  Memory LRU, verified disk
    tier, best-effort writes and counters are the keyed-store core's
    (:class:`~repro.flow.keyed.KeyedStore`); this class adds the
    cross-process claim loop of :meth:`compute_if_missing`.

    Instances pickle by configuration (root + bound), not contents: a
    sharded worker process that receives one attaches to the same on-disk
    tier with fresh counters, which is exactly how workers publish
    completed records the parent (and any concurrent reader) then sees.

    Args:
        root: Directory of the on-disk tier, created on first write.
        maxsize: In-memory LRU bound (``None`` = unbounded).
    """

    # -- pickling (for sharded workers) --------------------------------------

    def __getstate__(self):
        return {"root": self.root, "maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(root=state["root"], maxsize=state["maxsize"])

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{RESULT_SUFFIX}"

    def _claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.lock"

    # -- lookup / publish ----------------------------------------------------

    def get(self, key: str):
        """The stored record for ``key``, or ``None`` on a miss."""
        return self._store.get(key)

    def put(self, key: str, record) -> None:
        """Publish a record (memory, and disk when configured).

        Concurrent writers of the same key are safe: both publish the same
        content through an atomic rename, so readers see one intact entry.
        The disk tier is best-effort: an I/O failure (disk full, permission
        flip, injected ``store.write`` fault) is counted and logged, and
        the record stays served from memory — a later run just recomputes.
        """
        self._store.put(key, record)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries and counters are kept)."""
        self._store.clear_memory()

    def _read_disk(self, key: str):
        return self._store.read_disk(key)

    # -- single-flight -------------------------------------------------------

    def compute_if_missing(
        self,
        key: str,
        compute: Callable[[], object],
        poll_s: float = 0.02,
        wait_timeout_s: float = 300.0,
    ) -> Tuple[object, bool]:
        """Return the record for ``key``, computing it at most once globally.

        Single-flight spans both threads (the core's per-key build slot)
        and processes (an ``O_CREAT | O_EXCL`` claim file next to the
        entry, held until the record is published): the first caller to
        claim computes and publishes; everyone else polls until the entry
        appears.  A claim left behind by a crashed owner goes stale after
        :data:`STALE_CLAIM_S` and is broken.  A call counts one hit, or one
        miss; a miss another process answered also counts one
        ``single_flight_waits``.

        Args:
            key: The result key.
            compute: Zero-argument callable producing the record.
            poll_s: Wait-side polling interval.
            wait_timeout_s: After this long waiting on another computer,
                give up and compute locally anyway (the claim holder may be
                livelocked); correctness is unaffected since both publish
                identical content.

        Returns:
            ``(record, computed)`` where ``computed`` says whether *this*
            call ran ``compute``.
        """
        computed = False
        claims: List[Path] = []

        def build():
            nonlocal computed
            if self.root is not None:
                record = self._claim_or_wait(key, claims, poll_s, wait_timeout_s)
                if record is not None:
                    return record
            computed = True
            return compute()

        try:
            record = self._store.get_or_build(key, build, lambda _record: computed)
        finally:
            for claim in claims:
                try:
                    claim.unlink()
                except OSError:
                    pass
        return record, computed

    def _claim_or_wait(
        self, key: str, claims: List[Path], poll_s: float, wait_timeout_s: float
    ):
        """Take ``key``'s cross-process claim, or wait out its holder.

        Returns the record when another process published it first;
        ``None`` when this process should compute — holding the claim
        (appended to ``claims``, released by the caller after publication)
        or, past ``wait_timeout_s``, without it.
        """
        claim = self._claim_path(key)
        claim.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + wait_timeout_s
        waited = False
        while True:
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                # Someone else is computing: wait for their publication.
                waited = True
                record = self._read_disk(key)
                if record is not None:
                    self._store.count("single_flight_waits")
                    return record
                try:
                    age = time.time() - claim.stat().st_mtime
                except OSError:
                    continue  # claim released between open and stat: retry
                if age > STALE_CLAIM_S:
                    try:
                        claim.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    return None  # claim holder livelocked: compute locally
                time.sleep(poll_s)
                continue
            # Claimed: we are the one computer for this key.
            os.close(fd)
            claims.append(claim)
            # Crash seam: an injected ``kind="exit"`` here simulates a
            # kill -9 between claiming and publishing — the orphaned claim
            # file is exactly what ``repro fsck`` must repair (an ordinary
            # raise still unlinks it in the caller's finally).
            inject("store.claim", {"key": key})
            record = self._read_disk(key)
            if record is not None and waited:
                self._store.count("single_flight_waits")
            return record


# ---------------------------------------------------------------------------
# Disk usage & pruning (``repro cache``)
# ---------------------------------------------------------------------------

#: Entry suffixes the scanner recognises, with human labels.
_ENTRY_SUFFIXES = (".art", RESULT_SUFFIX)


@dataclass
class StoreUsage:
    """Disk usage of one on-disk store.

    Attributes:
        root: The scanned directory.
        entries: Number of valid-looking entry files.
        total_bytes: Their cumulative size.
        by_group: ``group -> (entries, bytes)``; the group is the
            artifact-store stage directory (``synth``, ``thermal``, ...)
            or ``"results"`` for result-store shards.
        stray_files: Leftover ``.tmp.*`` / ``.lock`` files found (these are
            cleaned by :func:`prune_store`).
    """

    root: Path
    entries: int = 0
    total_bytes: int = 0
    by_group: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    stray_files: int = 0


@dataclass
class PruneReport:
    """What one :func:`prune_store` pass removed.

    Attributes:
        removed: Entry files deleted.
        freed_bytes: Bytes reclaimed (entries only).
        kept: Entry files remaining.
        strays_removed: Stale ``.tmp.*`` / ``.lock`` files deleted.
    """

    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    strays_removed: int = 0


def _store_group(root: Path, path: Path) -> str:
    """Display group of one entry: stage directory or ``results``."""
    parent = path.parent
    if parent == root:
        return "results" if path.suffix == RESULT_SUFFIX else parent.name
    name = parent.name
    # Result-store shards are two-hex-character directories.
    if path.suffix == RESULT_SUFFIX and len(name) == 2:
        return "results"
    return name


def _iter_store_files(root: Path):
    """Every regular file under ``root``, quarantine excluded."""
    for path in sorted(root.rglob("*")):
        if path.is_file() and ".quarantine" not in path.parts:
            yield path


def _iter_entries(root: Path):
    """Yield ``(path, stat)`` for every entry file under ``root``."""
    for path in _iter_store_files(root):
        if path.suffix in _ENTRY_SUFFIXES:
            try:
                yield path, path.stat()
            except OSError:
                continue


def _iter_strays(root: Path):
    """Yield leftover temp/claim files (crashed writers leave these)."""
    for path in _iter_store_files(root):
        if path.suffix == ".lock" or ".tmp." in path.name:
            yield path


def scan_store(root: Union[str, Path]) -> StoreUsage:
    """Measure the disk usage of an artifact or result store."""
    root = Path(root)
    usage = StoreUsage(root=root)
    if not root.exists():
        return usage
    for path, stat in _iter_entries(root):
        usage.entries += 1
        usage.total_bytes += stat.st_size
        group = _store_group(root, path)
        count, size = usage.by_group.get(group, (0, 0))
        usage.by_group[group] = (count + 1, size + stat.st_size)
    usage.stray_files = sum(1 for _ in _iter_strays(root))
    return usage


def prune_store(
    root: Union[str, Path],
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    now: Optional[float] = None,
    dry_run: bool = False,
    min_age_s: float = 60.0,
) -> PruneReport:
    """Prune an on-disk store by age and/or total size.

    Entries older than ``max_age_days`` are removed first; if the store is
    still larger than ``max_size_mb``, the oldest remaining entries (by
    mtime) go next until it fits.  Stale ``.tmp.*`` and ``.lock`` files
    older than :data:`STALE_CLAIM_S` are always cleaned up.  Pruning is
    safe against live stores: entries younger than ``min_age_s`` are never
    touched (so a blob a concurrent writer just published, or a claim it
    just took, cannot be deleted out from under it), and a concurrently
    re-inserted entry simply reappears on the next run's write.

    Args:
        root: Store directory.
        max_age_days: Remove entries older than this many days.
        max_size_mb: Shrink the store below this size (megabytes).
        now: Reference time (``time.time()`` when omitted; injectable for
            tests).
        dry_run: Report what would be removed without deleting anything.
        min_age_s: Live-writer guard — entries newer than this survive any
            age or size pressure.
    """
    root = Path(root)
    report = PruneReport()
    if not root.exists():
        return report
    reference = time.time() if now is None else now
    fresh_after = reference - min_age_s

    entries: List[Tuple[Path, float, int]] = [
        (path, stat.st_mtime, stat.st_size) for path, stat in _iter_entries(root)
    ]
    entries.sort(key=lambda item: item[1])  # oldest first

    doomed: List[Tuple[Path, int]] = []
    survivors: List[Tuple[Path, float, int]] = []
    if max_age_days is not None:
        cutoff = reference - max_age_days * 86400.0
        for path, mtime, size in entries:
            if mtime < cutoff and mtime <= fresh_after:
                doomed.append((path, size))
            else:
                survivors.append((path, mtime, size))
    else:
        survivors = entries

    if max_size_mb is not None:
        budget = max_size_mb * 1024.0 * 1024.0
        total = sum(size for _path, _mtime, size in survivors)
        index = 0
        while total > budget and index < len(survivors):
            path, mtime, size = survivors[index]
            if mtime > fresh_after:
                # Oldest-first order: everything from here on is fresher
                # still, so nothing else is prunable under the guard.
                break
            doomed.append((path, size))
            total -= size
            index += 1
        survivors = survivors[index:]

    for path, size in doomed:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.removed += 1
        report.freed_bytes += size
    report.kept = len(survivors)

    for path in _iter_strays(root):
        try:
            if reference - path.stat().st_mtime <= STALE_CLAIM_S:
                continue
        except OSError:
            continue
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        report.strays_removed += 1
    return report


__all__ = [
    "ResultStore",
    "setup_digest",
    "result_key",
    "scan_store",
    "prune_store",
    "StoreUsage",
    "PruneReport",
    "RESULT_SUFFIX",
    "STALE_CLAIM_S",
]
