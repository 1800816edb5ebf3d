"""Solver-cache correctness: reuse, bitwise identity and invalidation.

The cache must be a pure memoisation: cached and uncached paths produce
bitwise-identical thermal maps, and any change to the die outline (an ERI
row insertion, a Default/HW re-placement) or the package produces a new
cache key so a stale factorisation can never be returned.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.core import apply_default_spread, apply_empty_row_insertion, detect_hotspots
from repro.flow import (
    ExperimentSetup,
    SolverCache,
    geometry_key,
    package_fingerprint,
    sweep_overheads,
)
from repro.power import PowerModel
from repro.thermal import (
    ThermalSolver,
    default_package,
    grid_for_placement,
    low_cost_package,
    simulate_placement,
    simulate_with_leakage_feedback,
)

#: Coarse grid so each factorisation stays cheap in the unit tests.
NX = NY = 16


@pytest.fixture(scope="module")
def cached_setup():
    """A prepared small-benchmark baseline on the coarse test grid."""
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


class TestSolverReuse:
    def test_same_geometry_hits_once_factorised(self, small_placement):
        cache = SolverCache()
        first = cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        second = cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.memory_size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_cached_map_bitwise_identical_to_uncached(self, small_placement, small_power):
        cache = SolverCache()
        uncached = simulate_placement(small_placement, small_power, nx=NX, ny=NY)
        cached_cold = simulate_placement(
            small_placement, small_power, nx=NX, ny=NY, cache=cache
        )
        cached_warm = simulate_placement(
            small_placement, small_power, nx=NX, ny=NY, cache=cache
        )
        assert cached_cold.temperatures.tobytes() == uncached.temperatures.tobytes()
        assert cached_warm.temperatures.tobytes() == uncached.temperatures.tobytes()
        assert cache.hits == 1

    def test_explicit_solver_bypasses_cache(self, small_placement, small_power):
        solver = ThermalSolver(grid_for_placement(small_placement, nx=NX, ny=NY))
        cache = SolverCache()
        result = simulate_placement(
            small_placement, small_power, nx=NX, ny=NY, solver=solver, cache=cache
        )
        assert cache.stats().misses == 0
        assert result.peak_rise > 0.0

    def test_leakage_feedback_cache_matches_uncached(
        self, small_placement, small_activity
    ):
        """The feedback loop's geometry is fixed: one factorisation total."""
        cache = SolverCache()
        with_cache = simulate_with_leakage_feedback(
            small_placement, small_activity, PowerModel(),
            nx=NX, ny=NY, iterations=2, cache=cache,
        )
        without = simulate_with_leakage_feedback(
            small_placement, small_activity, PowerModel(),
            nx=NX, ny=NY, iterations=2,
        )
        assert with_cache.temperatures.tobytes() == without.temperatures.tobytes()
        assert cache.stats().misses == 1

    def test_concurrent_requests_factorise_once(self, small_placement):
        cache = SolverCache()
        solvers = []

        def fetch():
            solvers.append(cache.solver_for_placement(small_placement, nx=NX, ny=NY))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stats().misses == 1
        assert all(solver is solvers[0] for solver in solvers)


class TestInvalidation:
    def test_eri_outline_change_misses(self, cached_setup):
        """Empty row insertion grows the core, so the key must change."""
        setup = cached_setup
        cache = SolverCache()
        cache.solver_for_placement(setup.placement, nx=NX, ny=NY)
        hotspots = detect_hotspots(
            setup.thermal_map, setup.placement, power=setup.power
        )
        eri = apply_empty_row_insertion(setup.placement, hotspots, num_rows=4)
        assert (
            eri.placement.floorplan.core_height
            > setup.placement.floorplan.core_height
        )

        cached = simulate_placement(
            eri.placement, setup.power, nx=NX, ny=NY, cache=cache
        )
        assert cache.stats().misses == 2  # new outline -> new factorisation
        uncached = simulate_placement(eri.placement, setup.power, nx=NX, ny=NY)
        assert cached.temperatures.tobytes() == uncached.temperatures.tobytes()

    def test_default_spread_outline_change_misses(self, cached_setup):
        """The Default/HW relaxation re-places at a larger outline."""
        setup = cached_setup
        cache = SolverCache()
        cache.solver_for_placement(setup.placement, nx=NX, ny=NY)
        spread = apply_default_spread(setup.placement, 0.2)
        cached = simulate_placement(
            spread.placement, setup.power, nx=NX, ny=NY, cache=cache
        )
        assert cache.stats().misses == 2
        uncached = simulate_placement(spread.placement, setup.power, nx=NX, ny=NY)
        assert cached.temperatures.tobytes() == uncached.temperatures.tobytes()

    def test_key_depends_on_package_and_resolution(self, small_placement):
        base = grid_for_placement(small_placement, nx=NX, ny=NY)
        finer = grid_for_placement(small_placement, nx=NX * 2, ny=NY * 2)
        cheap = grid_for_placement(
            small_placement, package=low_cost_package(), nx=NX, ny=NY
        )
        keys = {geometry_key(base), geometry_key(finer), geometry_key(cheap),
                geometry_key(base, keep_full_field=True)}
        assert len(keys) == 4
        assert package_fingerprint(default_package()) == package_fingerprint(
            default_package()
        )


class TestSweepEquivalence:
    def test_cached_sweep_outcomes_bitwise_identical(self, cached_setup):
        """The acceptance check: cached and uncached sweeps agree exactly."""
        overheads = (0.1, 0.2)
        cache = SolverCache()
        cached = sweep_overheads(cached_setup, overheads=overheads, cache=cache)
        uncached = sweep_overheads(
            cached_setup, overheads=overheads, cache=SolverCache(maxsize=0)
        )
        assert cache.stats().hits > 0  # hw reuses the default outline
        assert len(cached) == len(uncached) == 6
        for fast, slow in zip(cached, uncached):
            assert fast == slow  # dataclass equality covers every metric


class TestBounds:
    def test_lru_eviction(self, small_placement):
        cache = SolverCache(maxsize=1)
        cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        cache.solver_for_placement(small_placement, nx=NX // 2, ny=NY // 2)
        stats = cache.stats()
        assert stats.memory_size == 1
        assert stats.evictions == 1

    def test_maxsize_zero_retains_nothing(self, small_placement):
        cache = SolverCache(maxsize=0)
        first = cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        second = cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        assert first is not second
        assert len(cache) == 0
        assert cache.stats().misses == 2

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            SolverCache(maxsize=-1)

    def test_clear_drops_entries_but_keeps_counters(self, small_placement):
        cache = SolverCache()
        cache.solver_for_placement(small_placement, nx=NX, ny=NY)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1


class TestCounterExactness:
    """Hit/miss counters are exact under concurrency, not approximate.

    Every increment and every read happens under the cache lock, so after
    N threads each perform R requests over G geometries the counters must
    satisfy ``misses == G`` and ``hits == N * R - G`` *exactly* — the kind
    of assertion a torn or racy counter read would fail intermittently.
    """

    def test_exact_counts_across_threads_and_geometries(self, small_placement):
        cache = SolverCache()
        grids = [
            grid_for_placement(small_placement, package=default_package(), nx=n, ny=n)
            for n in (8, 10, 12)
        ]
        num_threads, rounds = 8, 6
        barrier = threading.Barrier(num_threads)
        errors = []

        def worker():
            try:
                barrier.wait()
                for round_index in range(rounds):
                    for grid in grids:
                        assert cache.solver(grid) is not None
                        # Interleave locked property reads with lookups: a
                        # torn snapshot would let hits outrun total requests.
                        assert cache.hits <= num_threads * rounds * len(grids)
                        assert cache.misses <= len(grids)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        total_requests = num_threads * rounds * len(grids)
        assert cache.misses == len(grids)
        assert cache.hits == total_requests - len(grids)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (cache.hits, cache.misses)
        assert stats.hits + stats.misses == total_requests
