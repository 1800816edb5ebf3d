"""The keyed-store core under every memoising layer of the flow.

:class:`~repro.flow.cache.SolverCache` (solvers by die geometry),
:class:`~repro.flow.artifacts.ArtifactStore` (stage outputs by input hash)
and :class:`~repro.flow.store.ResultStore` (records by grid point) each
wrap one :class:`KeyedStore`: a memory LRU, an optional verified disk tier
with best-effort writes, per-key single-flight and one :class:`StoreStats`
counter shape.  Every lookup counts exactly one hit or one miss.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, Optional, Union

from ..faults import InjectedFault, inject

logger = logging.getLogger(__name__)

#: On-disk entry header magic; the version participates so format changes
#: invalidate old entries instead of misparsing them.
_MAGIC = b"repro-artifact/1\n"


class BlobIntegrityError(Exception):
    """An on-disk entry exists but its payload failed verification.

    Raised by :func:`read_blob` for truncated, bit-flipped or otherwise
    damaged entries — anything whose SHA-256 does not match its header, or
    that matches but does not deserialize.  Callers evict and recompute.
    """


def write_blob(path: Path, obj) -> None:
    """Atomically publish ``obj`` to ``path`` as a verified pickle blob.

    The entry is ``magic + sha256(payload) + payload``, written to a
    process/thread-unique temp file and :func:`os.replace`d into place — a
    concurrent reader sees the old entry or the new one, never a
    half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    blob = _MAGIC + hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_bytes(blob)
    # Crash seam: an injected ``kind="exit"`` here simulates a kill -9
    # between staging and publication — the ``.tmp.*`` debris left behind
    # is what ``repro fsck`` audits and repairs.
    inject("store.publish", {"path": path.name})
    os.replace(tmp, path)


def read_blob(path: Path):
    """Read and verify a blob written by :func:`write_blob`.

    Returns:
        The deserialized object.

    Raises:
        OSError: The entry does not exist (or cannot be read).
        BlobIntegrityError: The entry exists but fails the integrity check
            or does not unpickle.
    """
    blob = path.read_bytes()
    if not blob.startswith(_MAGIC):
        raise BlobIntegrityError(f"{path}: bad magic")
    header_end = len(_MAGIC) + 64 + 1
    expected = blob[len(_MAGIC):header_end - 1].decode("ascii", "replace")
    payload = blob[header_end:]
    if hashlib.sha256(payload).hexdigest() != expected:
        raise BlobIntegrityError(f"{path}: payload digest mismatch")
    try:
        return pickle.loads(payload)
    except Exception as error:
        # A payload that hashes correctly but does not deserialize (e.g.
        # written by an incompatible code version despite the magic) is
        # treated exactly like corruption.
        raise BlobIntegrityError(f"{path}: payload does not deserialize") from error


@dataclass(frozen=True)
class StoreStats:
    """Store counters at one point in time.

    ``hits`` counts lookups answered from memory or disk (``disk_hits`` is
    the disk subset), ``misses`` the rest.  ``evictions`` are memory-tier
    LRU drops, ``corrupt_evictions`` damaged disk entries deleted,
    ``write_errors`` failed disk writes (the entry stayed in memory), and
    ``single_flight_waits`` misses another process's computation answered.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt_evictions: int = 0
    write_errors: int = 0
    single_flight_waits: int = 0
    memory_size: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for JSON metadata."""
        return {**asdict(self), "hit_rate": self.hit_rate}


class KeyedStore:
    """Thread-safe memory LRU, optional verified disk tier, single-flight.

    Args:
        maxsize: Memory-tier bound, least recently used evicted first;
            ``None`` is unbounded, ``0`` retains nothing.
        path_for: Disk entry path of a key; ``None`` keeps the store
            memory-only.  The ``store.read``/``store.write`` fault seams
            report the entry's file stem as ``key``.
    """

    def __init__(
        self,
        maxsize: Optional[int] = None,
        path_for: Optional[Callable[[Hashable], Path]] = None,
    ) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None or >= 0")
        self.maxsize = maxsize
        self.path_for = path_for
        self._lock = threading.Lock()
        self._memory: "OrderedDict[Hashable, object]" = OrderedDict()
        self._building: Dict[Hashable, threading.Lock] = {}
        self._counts: Counter = Counter()

    def get(self, key: Hashable):
        """The entry for ``key``, or ``None`` on a miss."""
        value = self._find(key)
        if value is None:
            self.count("misses")
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert an entry in memory and, best-effort, on disk.

        A failed disk write (full disk, a root under a file, an injected
        ``store.write`` fault) is logged and counted in ``write_errors``;
        the entry stays served from memory.
        """
        with self._lock:
            self._counts["writes"] += 1
            self._retain(key, value)
        if self.path_for is None:
            return
        path = self.path_for(key)
        try:
            inject("store.write", {"key": path.stem})
            write_blob(path, value)
        except (OSError, InjectedFault) as error:
            self.count("write_errors")
            logger.warning("failed to persist %s (%r); kept in memory only", path, error)

    def get_or_build(
        self,
        key: Hashable,
        build: Callable[[], object],
        publish_if: Optional[Callable[[object], bool]] = None,
    ):
        """The entry for ``key``, running ``build`` once per key on a miss.

        Concurrent callers for one key wait for the first one's build and
        then hit; a build that raises releases the slot.  A built value
        ``publish_if`` rejects is returned but not stored.
        """
        value = self._find(key)
        if value is not None:
            return value
        with self._single_flight(key):
            value = self._find(key)
            if value is not None:
                return value
            self.count("misses")
            value = build()
            if publish_if is None or publish_if(value):
                self.put(key, value)
            return value

    def read_disk(self, key: Hashable):
        """Verified read of ``key``'s disk entry, counting no hit or miss.

        Returns ``None`` when absent; a damaged entry (or an injected
        ``store.read`` fault) is deleted and counted, never returned.
        """
        path = self.path_for(key)
        try:
            inject("store.read", {"key": path.stem})
            return read_blob(path)
        except OSError:
            return None
        except (BlobIntegrityError, InjectedFault):
            self.count("corrupt_evictions")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def count(self, counter: str) -> None:
        """Increment one :class:`StoreStats` counter."""
        with self._lock:
            self._counts[counter] += 1

    def _find(self, key: Hashable):
        """Memory, then disk; counts a hit when found."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._counts["hits"] += 1
                self._memory.move_to_end(key)
                return value
        if self.path_for is None:
            return None
        value = self.read_disk(key)
        if value is not None:
            with self._lock:
                self._counts["hits"] += 1
                self._counts["disk_hits"] += 1
                self._retain(key, value)
        return value

    @contextmanager
    def _single_flight(self, key: Hashable):
        with self._lock:
            gate = self._building.setdefault(key, threading.Lock())
        try:
            with gate:
                yield
        finally:
            # Whoever leaves first drops the gate; a later caller may
            # already have installed a new one, which must stay.
            with self._lock:
                if self._building.get(key) is gate:
                    del self._building[key]

    def _retain(self, key: Hashable, value) -> None:
        """Insert under the held lock, enforcing the LRU bound."""
        if self.maxsize == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        if self.maxsize is not None:
            self._evict_to(self.maxsize)

    def _evict_to(self, limit: int) -> int:
        evicted = 0
        while len(self._memory) > limit:
            self._memory.popitem(last=False)
            evicted += 1
        self._counts["evictions"] += evicted
        return evicted

    def shrink(self, max_entries: int) -> int:
        """Evict LRU entries down to ``max_entries``; returns how many.

        Leaves the disk tier and ``maxsize`` alone (set ``maxsize`` to stop
        re-growth) — the service governor's memory-pressure hook.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        with self._lock:
            return self._evict_to(max_entries)

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries and counters are kept)."""
        with self._lock:
            self._memory.clear()

    def stats(self) -> StoreStats:
        """Snapshot of the counters."""
        with self._lock:
            return StoreStats(memory_size=len(self._memory), **self._counts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._memory


class KeyedFront:
    """What every store wrapping a :class:`KeyedStore` in ``_store`` shares.

    The default constructor gives a disk tier under ``root`` laid out by
    the subclass's ``_path``.  ``maxsize`` reads and writes through, so the
    service governor can cap and restore a store's memory tier in place.
    """

    def __init__(
        self, root: Optional[Union[str, Path]] = None, maxsize: Optional[int] = None
    ) -> None:
        self.root = Path(root) if root is not None else None
        self._store = KeyedStore(maxsize, self._path if self.root is not None else None)

    @property
    def maxsize(self) -> Optional[int]:
        return self._store.maxsize

    @maxsize.setter
    def maxsize(self, value: Optional[int]) -> None:
        self._store.maxsize = value

    def stats(self) -> StoreStats:
        return self._store.stats()

    def shrink(self, max_entries: int) -> int:
        return self._store.shrink(max_entries)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key) -> bool:
        return key in self._store


__all__ = [
    "KeyedStore",
    "KeyedFront",
    "StoreStats",
    "BlobIntegrityError",
    "write_blob",
    "read_blob",
]
