"""Geometry-keyed cache of factorised thermal solvers.

The dominant cost of one experiment point is the sparse LU factorisation of
the thermal conductance matrix (roughly a quarter second for the paper's
40 x 40 x 9 grid, versus milliseconds for the triangular solves).  The
matrix depends only on the die geometry, the grid resolution and the
package stack — not on the power map — so every placement that shares a die
outline can share one :class:`~repro.thermal.solver.ThermalSolver`.

That happens constantly during the paper's evaluation: the hotspot wrapper
starts from the Default solution's outline at the same overhead, leakage
feedback iterates on a fixed placement, and campaign grids revisit the same
(strategy, overhead) core sizes across workloads.  :class:`SolverCache`
memoises the factorisation behind a geometry key and is safe to share
between the worker threads of a :class:`~repro.flow.runner.Campaign`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..placement import Placement
from ..thermal import Package, ThermalGrid, ThermalSolver, default_package
from ..thermal.solver import grid_for_placement, resolve_thermal_method
from .keyed import KeyedFront, KeyedStore


def package_fingerprint(package: Package) -> Tuple:
    """Hashable fingerprint of everything in a package that shapes the matrix.

    Two packages with equal fingerprints produce identical conductance
    matrices on the same grid; any change to the layer stack, the boundary
    coefficients or the lumped package resistance changes the fingerprint
    and therefore the cache key.
    """
    return (
        tuple(
            (layer.name, layer.thickness_um, layer.conductivity)
            for layer in package.layers
        ),
        package.active_layer,
        package.ambient_celsius,
        package.bottom_htc,
        package.top_htc,
        package.lateral_htc,
        package.package_resistance,
    )


#: Cache key: (die width, die height, nx, ny, keep_full_field, resolved
#: solver method, package).
GeometryKey = Tuple[float, float, int, int, bool, str, Tuple]


def geometry_key(
    grid: ThermalGrid, keep_full_field: bool = False, method: str = "auto"
) -> GeometryKey:
    """The :class:`SolverCache` key for a thermal grid.

    The *resolved* solver method is part of the key: a cached LU
    factorisation must never be handed to a multigrid request (or vice
    versa), even when both were asked for as ``"auto"`` under different
    conditions.
    """
    return (
        grid.width_um,
        grid.height_um,
        grid.nx,
        grid.ny,
        keep_full_field,
        resolve_thermal_method(method, grid),
        package_fingerprint(grid.package),
    )


class SolverCache(KeyedFront):
    """Thread-safe LRU cache of factorised :class:`ThermalSolver` objects.

    One instance is typically shared across a whole sweep or campaign; any
    two experiment points whose transformed placements have the same die
    outline (and grid resolution and package) then pay the LU factorisation
    once between them.  Geometry changes — an ERI row insertion growing the
    core, a Default relaxation re-placing at a larger outline — produce a
    different key, so stale factorisations can never be returned.  The
    cache is a memory-only :class:`~repro.flow.keyed.KeyedStore` keyed by
    :func:`geometry_key`.

    Args:
        maxsize: Maximum number of prepared solvers to retain (least
            recently used evicted first).  ``None`` means unbounded; ``0``
            disables retention entirely, turning the cache into a plain
            solver factory (useful for baseline timing comparisons).
        method: Solver backend every cached solver is built with —
            ``"lu"``, ``"multigrid"`` or ``"auto"`` (per-grid size
            heuristic).  Overridable per request via :meth:`solver`'s
            ``method`` argument; the *resolved* method is always part of
            the cache key.
        **solver_kwargs: Extra keyword arguments forwarded to every
            :class:`ThermalSolver` built by this cache (e.g. ``permc_spec``).
    """

    def __init__(
        self, maxsize: Optional[int] = None, method: str = "auto", **solver_kwargs
    ) -> None:
        self._store = KeyedStore(maxsize)
        self.method = method
        self._solver_kwargs = dict(solver_kwargs)

    # -- lookup --------------------------------------------------------------

    def key_for(
        self,
        grid: ThermalGrid,
        keep_full_field: bool = False,
        method: Optional[str] = None,
    ) -> GeometryKey:
        """The cache key this cache would use for ``grid``.

        Exposed so callers (e.g. the campaign runner's batched-solve
        grouping) can group work by solver identity without building one.
        """
        return geometry_key(
            grid,
            keep_full_field=keep_full_field,
            method=self.method if method is None else method,
        )

    def solver(
        self,
        grid: ThermalGrid,
        keep_full_field: bool = False,
        method: Optional[str] = None,
    ) -> ThermalSolver:
        """Return the prepared solver for ``grid``, building it on a miss.

        Concurrent requests for the same geometry wait on one build, so
        the solver setup runs once; requests for different geometries
        build in parallel.

        Args:
            grid: The thermal mesh.
            keep_full_field: Keep 3-D fields on results.
            method: Per-request override of the cache's solver method.
        """
        resolved = resolve_thermal_method(
            self.method if method is None else method, grid
        )
        key = geometry_key(grid, keep_full_field=keep_full_field, method=resolved)
        return self._store.get_or_build(
            key,
            lambda: ThermalSolver(
                grid, keep_full_field=keep_full_field, method=resolved,
                **self._solver_kwargs,
            ),
        )

    def solver_for_placement(
        self,
        placement: Placement,
        package: Optional[Package] = None,
        nx: int = 40,
        ny: int = 40,
        keep_full_field: bool = False,
        method: Optional[str] = None,
    ) -> ThermalSolver:
        """Solver for a placement's die outline (see :meth:`solver`)."""
        pkg = package if package is not None else default_package()
        grid = grid_for_placement(placement, package=pkg, nx=nx, ny=ny)
        return self.solver(grid, keep_full_field=keep_full_field, method=method)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups answered from the cache so far (a locked snapshot)."""
        return self._store.stats().hits

    @property
    def misses(self) -> int:
        """Lookups that built a new factorisation so far (a locked snapshot)."""
        return self._store.stats().misses

    def clear(self) -> None:
        """Drop every retained factorisation (counters are kept)."""
        self._store.clear_memory()
