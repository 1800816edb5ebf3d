"""The keyed-store contract, checked through every store built on it.

:class:`SolverCache`, :class:`ArtifactStore` and :class:`ResultStore` are
thin wrappers around one :class:`~repro.flow.keyed.KeyedStore`; each must
show the same LRU, single-flight and counter behaviour through its own
public lookup (``solver``, ``get_or_build``, ``compute_if_missing``).
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.flow.cache as cache_module
from repro.flow import ArtifactStore, ResultStore, SolverCache
from repro.thermal import ThermalGrid, default_package


class _SolverCacheAdapter:
    """Keys are small grids; ``build`` stands in for the factorisation."""

    disk = False

    def __init__(self, monkeypatch):
        self._builds = {}
        monkeypatch.setattr(
            cache_module, "ThermalSolver", lambda grid, **_kw: self._builds[grid.nx]()
        )

    def make(self, maxsize=None, root=None):
        return SolverCache(maxsize=maxsize, method="lu")

    @staticmethod
    def _grid(key):
        return ThermalGrid(100.0, 100.0, 3 + ord(key) - ord("a"), 3, default_package())

    def lookup(self, store, key, build):
        grid = self._grid(key)
        self._builds[grid.nx] = build
        return store.solver(grid)

    def contains(self, store, key):
        return store.key_for(self._grid(key)) in store


class _ArtifactStoreAdapter:
    disk = True

    def __init__(self, monkeypatch):
        pass

    def make(self, maxsize=None, root=None):
        return ArtifactStore(root=root, maxsize=maxsize)

    def lookup(self, store, key, build):
        return store.get_or_build("stage", key, build)

    def contains(self, store, key):
        return ("stage", key) in store


class _ResultStoreAdapter:
    disk = True

    def __init__(self, monkeypatch):
        pass

    def make(self, maxsize=None, root=None):
        return ResultStore(root=root, maxsize=maxsize)

    def lookup(self, store, key, build):
        return store.compute_if_missing(key, build)[0]

    def contains(self, store, key):
        return key in store


@pytest.fixture(
    params=[_SolverCacheAdapter, _ArtifactStoreAdapter, _ResultStoreAdapter],
    ids=["solver_cache", "artifact_store", "result_store"],
)
def adapter(request, monkeypatch):
    return request.param(monkeypatch)


def _recording(built, key):
    def build():
        built.append(key)
        return {"key": key}
    return build


def _disk_entries(root):
    return sorted(p.name for p in root.rglob("*") if p.suffix in (".art", ".res"))


def test_lru_order_and_get_refresh(adapter):
    store = adapter.make(maxsize=2)
    built = []
    for key in "ab":
        adapter.lookup(store, key, _recording(built, key))
    adapter.lookup(store, "a", _recording(built, "a"))  # hit: "a" is most recent
    adapter.lookup(store, "c", _recording(built, "c"))  # so "b" is the victim
    assert built == ["a", "b", "c"]
    assert [adapter.contains(store, key) for key in "abc"] == [True, False, True]
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.writes) == (1, 3, 3)
    assert (stats.evictions, stats.memory_size) == (1, 2)


def test_maxsize_zero_retains_nothing(adapter):
    store = adapter.make(maxsize=0)
    built = []
    first = adapter.lookup(store, "a", _recording(built, "a"))
    second = adapter.lookup(store, "a", _recording(built, "a"))
    assert built == ["a", "a"]
    assert first is not second
    assert len(store) == 0
    stats = store.stats()
    assert (stats.hits, stats.misses) == (0, 2)


def test_shrink_returns_evicted_and_leaves_disk(adapter, tmp_path):
    root = tmp_path / "store" if adapter.disk else None
    store = adapter.make(root=root)
    built = []
    for key in "abc":
        adapter.lookup(store, key, _recording(built, key))
    entries = _disk_entries(root) if root is not None else []
    assert store.shrink(1) == 2
    assert store.shrink(1) == 0
    assert len(store) == 1 and adapter.contains(store, "c")
    assert store.stats().evictions == 2
    if root is not None:
        assert len(entries) == 3
        assert _disk_entries(root) == entries
        # The evicted entries are still served, from disk, without a build.
        adapter.lookup(store, "a", _recording(built, "a"))
        assert built == ["a", "b", "c"]
        assert store.stats().disk_hits == 1
    with pytest.raises(ValueError):
        store.shrink(-1)


def test_raising_build_releases_its_slot(adapter):
    store = adapter.make()

    def failing():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError, match="build failed"):
        adapter.lookup(store, "a", failing)
    built = []
    outcome = []
    # Run the retry on a thread so a leaked (still held) slot shows up as
    # a timeout instead of hanging the suite.
    retry = threading.Thread(
        target=lambda: outcome.append(adapter.lookup(store, "a", _recording(built, "a"))),
        daemon=True,
    )
    retry.start()
    retry.join(timeout=10)
    assert not retry.is_alive(), "the failed build's slot was never released"
    assert outcome == [{"key": "a"}] and built == ["a"]
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.writes) == (0, 2, 1)


def test_eight_threads_on_one_key_build_once(adapter):
    store = adapter.make()
    built = []
    results = []
    barrier = threading.Barrier(8)

    def slow_build():
        built.append(threading.get_ident())
        time.sleep(0.05)
        return {"key": "a"}

    def worker():
        barrier.wait()
        results.append(adapter.lookup(store, "a", slow_build))

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(built) == 1
    assert len(results) == 8 and all(result is results[0] for result in results)
    stats = store.stats()
    assert (stats.hits, stats.misses, stats.writes) == (7, 1, 1)
    assert stats.memory_size == 1
