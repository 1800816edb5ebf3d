"""The three benchmark workloads, their seeded inputs and output checks.

Each workload runs through the call path a user of the program takes:

* ``sweep_full`` and ``sweep_fine_grid`` run exactly what ``repro sweep``
  runs — a :class:`~repro.flow.FlowGraph` over an in-memory
  :class:`~repro.flow.ArtifactStore`, ``batch_solves=True``, the thread
  executor — against an on-disk :class:`~repro.flow.ResultStore` that
  starts empty, then resume the same grid from fresh stores over that root.
* ``serve_mixed`` runs a :class:`~repro.service.SweepServer` as
  ``repro serve`` builds it and drives it with a closed loop of
  :class:`~repro.service.SweepClient` connections.

The seed picks the logic-simulation vectors of every baseline and, for
``serve_mixed``, the request stream.  The program sees only those inputs.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import struct
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from layers import STRATEGIES

#: Requested overheads of the sweep grid (the paper's Figure-6 range).
SWEEP_OVERHEADS = (0.05, 0.10, 0.15, 0.20)

#: Sweep workloads: circuit function, hotspot workload, thermal grid per axis.
SWEEPS = {
    "sweep_full": ("build_synthetic_circuit", "scattered_hotspots_workload", 40),
    "sweep_fine_grid": ("small_synthetic_circuit", "concentrated_hotspot_workload", 128),
}

#: Resume passes per run (fresh-store sweeps or replays the store
#: answers); ``resume_s`` is the median pass.
RESUME_PASSES = 5

#: ``serve_mixed``: baselines served, grid, closed-loop clients.
SERVE_WORKLOADS = ("scattered_hotspots_workload", "concentrated_hotspot_workload")
SERVE_GRID = 40
SERVE_CLIENTS = 2
#: Equal windows of the closed loop; ``points_per_s`` is their median.
SERVE_WINDOWS = 5
#: Completed requests each client re-sends in the resume pass.
REPLAY_REQUESTS = 20

#: Share of requested points drawn from the small hot overhead set.
HOT_SHARE = 0.6
HOT_OVERHEADS = (0.10, 0.15)
#: Range of the wide overheads: each is drawn afresh, so every wide point
#: is a miss.
WIDE_RANGE = (0.02, 0.30)

WORKLOADS = tuple(SWEEPS) + ("serve_mixed",)


@dataclass(frozen=True)
class Request:
    """One served request: one strategy at one to three overheads."""

    workload: int  # index into the served baselines
    strategy: str
    overheads: Tuple[float, ...]


def _wide(rng: random.Random, count: int) -> List[float]:
    """``count`` fresh wide overheads, one from each of ``count`` equal strata."""
    low, high = WIDE_RANGE
    step = (high - low) / count
    values = [low + (stratum + rng.random()) * step for stratum in range(count)]
    rng.shuffle(values)
    return values


def request_stream(seed: int, client: int) -> Iterator[Request]:
    """The endless request sequence client ``client`` sends for ``seed``.

    Requests come in blocks of 15 that hold every (strategy, size) pair
    once, with exactly :data:`HOT_SHARE` of the block's points hot and
    the two baselines asked for in turn.  A request of two points has one
    hot and one wide point; one of three has two hot and one wide; three
    of the five one-point requests are hot, the strategies taking turns
    at the two wide ones.  Wide overheads are drawn afresh, one from each
    of twelve equal strata of :data:`WIDE_RANGE` per block, so each is a
    miss and every block costs about the same whatever the seed.  The
    seed orders each block and the strategies' turns, and draws every
    overhead.
    """
    rng = random.Random(f"serve_mixed:{seed}:{client}")
    block = [(strategy, size) for strategy in STRATEGIES for size in (1, 2, 3)]
    singles = len(STRATEGIES)
    points = sum(size for _strategy, size in block)
    hot_singles = round(HOT_SHARE * points) - sum(size - 1 for _s, size in block)
    workload = itertools.cycle(range(len(SERVE_WORKLOADS)))
    # Strategies take turns at the wide one-point requests.
    wide_singles = itertools.cycle(rng.sample(STRATEGIES, singles))
    while True:
        rng.shuffle(block)
        wide_now = {next(wide_singles) for _ in range(singles - hot_singles)}
        hots = [
            int(strategy not in wide_now) if size == 1 else size - 1
            for strategy, size in block
        ]
        wide = iter(_wide(rng, points - sum(hots)))
        for (strategy, size), hot in zip(block, hots):
            overheads = rng.sample(HOT_OVERHEADS, hot) + [next(wide) for _ in range(size - hot)]
            yield Request(
                workload=next(workload),
                strategy=strategy,
                overheads=tuple(sorted(overheads)),
            )


def warm_up_requests(seed: int) -> List[Request]:
    """Requests sent before timing: every hot point, and one wide point
    per baseline and strategy, so that the timed loop finds hot points in
    the store and lazy set-up done."""
    rng = random.Random(f"serve_mixed:{seed}:warm-up")
    pairs = [(w, s) for w in range(len(SERVE_WORKLOADS)) for s in STRATEGIES]
    return [
        Request(workload=w, strategy=s, overheads=tuple(sorted(HOT_OVERHEADS + (wide,))))
        for (w, s), wide in zip(pairs, _wide(rng, len(pairs)))
    ]


def bits(value):
    """A form of ``value`` whose equality is bitwise equality of its floats."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return tuple(sorted((key, bits(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(bits(item) for item in value)
    return value


#: Served records are batched with whatever other points share their
#: gather window, and the program guarantees batched multigrid solves
#: only to 1e-12 relative across groupings, not bit for bit.
SERVED_TOLERANCE = 1e-12


def close(a: dict, b: dict) -> bool:
    """Equal fields, floats within :data:`SERVED_TOLERANCE`."""
    return a.keys() == b.keys() and all(
        math.isclose(a[k], b[k], rel_tol=SERVED_TOLERANCE, abs_tol=SERVED_TOLERANCE)
        if isinstance(a[k], float) and isinstance(b[k], float)
        else a[k] == b[k]
        for k in a
    )


@dataclass
class RunResult:
    """What one measuring process reports back.

    Attributes:
        setup_s: Baseline build and preparation (plus server start).
        sweep_s: Wall time of the cold pass against an empty result store.
        resume_s: Wall time of the warm pass the result store answers.
        points: Grid points the cold pass delivered.
        attempted: Operations attempted: grid points of every sweep pass,
            or requests of both served passes.
        failed: Failed operations plus output-check mismatches.
        problems: One line per failure, for the report.
        latencies: Per-request latency of the cold pass (``None`` for a
            failed request).  A sweep's request is one grid point, and the
            batched sweep delivers every record when the pass returns, so
            each point's latency is the pass's wall time.
        rates: Points delivered per second: the cold pass's, or for the
            served loop one value per :data:`SERVE_WINDOWS` equal windows.
        facts: Counts read from the program's stats for the layer report.
        strategies: Strategies the run asked for.
    """

    setup_s: float = 0.0
    sweep_s: float = 0.0
    resume_s: float = 0.0
    points: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    latencies: List[Optional[float]] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)
    strategies: List[str] = field(default_factory=list)


def _resume_passes(run_pass) -> List[float]:
    """Seconds of each of :data:`RESUME_PASSES` ``run_pass()`` calls."""
    times: List[float] = []
    for _ in range(RESUME_PASSES):
        start = time.perf_counter()
        run_pass()
        times.append(time.perf_counter() - start)
    return times


def _repro():
    from repro import bench, flow

    return bench, flow


def _flow_graph():
    """The flow graph ``repro sweep``/``serve`` build (in-memory artifacts)."""
    _bench, flow = _repro()
    return flow.FlowGraph(
        store=flow.ArtifactStore(), solver_cache=flow.SolverCache(method="auto")
    )


def _sweep_setup(workload: str, seed: int):
    """Build the circuit and prepare its baseline, as ``repro sweep`` does."""
    bench, flow = _repro()
    circuit, hotspots, grid = SWEEPS[workload]
    graph = _flow_graph()
    netlist = getattr(bench, circuit)()
    setup = flow.ExperimentSetup.prepare(
        netlist, getattr(bench, hotspots)(netlist),
        grid_nx=grid, grid_ny=grid, seed=seed, flow=graph,
    )
    return graph, setup


def _serve_setup(seed: int, workers: int, work_dir: str):
    """Prepare both baselines and start the server, as ``repro serve`` does.

    Each baseline gets its own circuit: preparation places the design.
    """
    bench, flow = _repro()
    from repro.service import SweepServer

    graph = _flow_graph()
    setups = {}
    for hotspots in SERVE_WORKLOADS:
        netlist = bench.small_synthetic_circuit()
        setup = flow.ExperimentSetup.prepare(
            netlist, getattr(bench, hotspots)(netlist),
            grid_nx=SERVE_GRID, grid_ny=SERVE_GRID, seed=seed, flow=graph,
        )
        setups[setup.workload.name] = setup
    server = SweepServer(
        setups,
        result_store=flow.ResultStore(root=tempfile.mkdtemp(dir=work_dir)),
        cache=graph.solver_cache,
        max_workers=workers,
        artifact_store=graph.store,
    )
    server.start()
    return graph, server


def setup_only(workload: str, seed: int, work_dir: str) -> float:
    """Seconds to build and prepare ``workload``'s baselines (and server)."""
    start = time.perf_counter()
    if workload == "serve_mixed":
        _graph, server = _serve_setup(seed, None, work_dir)
        elapsed = time.perf_counter() - start
        server.shutdown()
        return elapsed
    _sweep_setup(workload, seed)
    return time.perf_counter() - start


def run_sweep(workload: str, seed: int, workers: int, work_dir: str) -> RunResult:
    """Cold sweep of the grid, then ``RESUME_PASSES`` resumes from disk."""
    _bench, flow = _repro()
    from repro.faults import RetryPolicy

    out = RunResult(strategies=list(STRATEGIES))
    start = time.perf_counter()
    graph, setup = _sweep_setup(workload, seed)
    out.setup_s = time.perf_counter() - start

    root = tempfile.mkdtemp(dir=work_dir)

    def campaign():
        # The configuration `repro sweep --timing --result-store DIR` runs.
        return flow.Campaign(
            setup,
            strategies=STRATEGIES,
            overheads=SWEEP_OVERHEADS,
            analyze_timing=True,
            cache=graph.solver_cache,
            name="figure6-sweep",
            batch_solves=True,
            flow=graph,
            result_store=flow.ResultStore(root=root),
            executor="thread",
            retry_policy=RetryPolicy(max_attempts=1),
        )

    cold_campaign = campaign()
    start = time.perf_counter()
    cold = cold_campaign.run(max_workers=workers)
    out.sweep_s = time.perf_counter() - start
    num_points = len(cold_campaign.points)
    out.attempted += num_points
    out.failed += cold.metadata["num_failed"]
    if cold.metadata["num_failed"]:
        out.problems.append(f"{cold.metadata['num_failed']} point(s) quarantined")
    cold_store = cold_campaign.result_store.stats()

    store_hits, store_misses = cold_store.hits, cold_store.misses
    resumed = []

    def resume_pass():
        resume_campaign = campaign()
        resumed.append((resume_campaign.run(max_workers=workers), resume_campaign))

    resume_times = _resume_passes(resume_pass)
    expected = [bits(record.to_dict()) for record in cold.records]
    for result, resume_campaign in resumed:
        stats = resume_campaign.result_store.stats()
        store_hits += stats.hits
        store_misses += stats.misses
        out.attempted += num_points
        got = [bits(record.to_dict()) for record in result.records]
        mismatched = num_points - sum(a == b for a, b in zip(got, expected))
        if mismatched or len(got) != len(expected):
            out.failed += max(mismatched, 1)
            out.problems.append(f"resume: {mismatched} record(s) differ from the cold sweep")
    out.resume_s = statistics.median(resume_times)
    out.points = num_points
    # `repro sweep`'s batched path publishes and returns every record when
    # the pass ends: that is when the user has each point.
    out.latencies = [out.sweep_s] * num_points
    out.rates = [num_points / out.sweep_s]

    eri = [r for r in cold.records if r.point.strategy == "eri"]
    bad = [r.point.overhead for r in eri if not r.outcome.temperature_reduction > 0]
    if len(eri) != len(SWEEP_OVERHEADS) or bad:
        out.failed += max(len(bad), 1)
        out.problems.append(f"eri: temperature_reduction <= 0 at overheads {bad}")

    graph_stats = graph.stats()
    cache = graph.solver_cache.stats()
    out.facts = {
        "stage_runs": sum(graph_stats["stage_executions"].values()),
        "stage_hits": sum(graph_stats["stage_hits"].values()),
        "solver_cache_hits": cache.hits,
        "solver_cache_misses": cache.misses,
        "solve_groups": cold.metadata["num_solve_groups"],
        "points_evaluated": cold.metadata["num_evaluated"],
        "retries": cold.metadata["retries"],
        "store_hits": store_hits,
        "store_misses": store_misses,
        "fallback_points": cold.metadata["degraded_points"],
    }
    return out


def _closed_loop(host, port, names, streams, deadline):
    """Each stream's requests sent back to back by its own client thread.

    A client sends its next request when the previous reply arrives and
    stops at ``deadline`` (``None``: at the end of its stream).

    Returns:
        ``(client, request, result, latency, done)`` per request sent,
        ``done`` being the ``perf_counter`` instant the reply arrived.  A
        failed or refused request has the error text as ``result`` and
        ``None`` as latency: it misses every latency target.
    """
    from repro.service import SweepClient

    lock = threading.Lock()
    sent: List[tuple] = []

    def loop(index: int, stream) -> None:
        client = SweepClient(host=host, port=port, timeout=120.0,
                             client_id=f"perfbench-{index}")
        for request in stream:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            began = time.perf_counter()
            try:
                result, _stats = client.sweep(
                    names[request.workload], [request.strategy], request.overheads
                )
            except Exception as error:  # a failed or refused request is data
                entry = (index, request, f"{type(error).__name__}: {error}", None,
                         time.perf_counter())
            else:
                done = time.perf_counter()
                entry = (index, request, result, done - began, done)
            with lock:
                sent.append(entry)

    threads = [
        threading.Thread(target=loop, args=(index, stream))
        for index, stream in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent


def run_serve(seed: int, seconds: float, workers: int, work_dir: str):
    """Closed loop of ``SERVE_CLIENTS`` clients against a served store.

    Returns:
        ``(result, served, setups, cache)``: the measurements, every
        completed ``(request, CampaignResult)`` pair, the served baselines
        by name and the server's solver cache, for :func:`check_served`.
    """
    out = RunResult()
    start = time.perf_counter()
    graph, server = _serve_setup(seed, workers, work_dir)
    out.setup_s = time.perf_counter() - start
    names = list(server.setups)

    host, port = server.address
    try:
        requests = warm_up_requests(seed)
        warm = _closed_loop(
            host, port, names,
            [requests[i::SERVE_CLIENTS] for i in range(SERVE_CLIENTS)],
            deadline=None,
        )
        start = time.perf_counter()
        cold = _closed_loop(
            host, port, names,
            [request_stream(seed, i) for i in range(SERVE_CLIENTS)],
            deadline=start + seconds,
        )
        out.sweep_s = time.perf_counter() - start
        # Resume: each client re-sends its first completed requests, which
        # the result store now answers, RESUME_PASSES times.
        again = [
            [r for c, r, res, *_t in cold if c == i and not isinstance(res, str)][
                :REPLAY_REQUESTS
            ]
            for i in range(SERVE_CLIENTS)
        ]
        replay = []
        out.resume_s = statistics.median(_resume_passes(
            lambda: replay.extend(_closed_loop(host, port, names, again, deadline=None))
        ))
        stats = server.stats()
    finally:
        server.shutdown()

    served_by = [(c, r, res) for c, r, res, *_t in cold if not isinstance(res, str)]
    served = [(r, res) for _c, r, res in served_by]
    out.latencies = [latency for _c, _r, _res, latency, _d in cold]
    # Throughput in equal windows of the loop, so that a stall of the
    # shared host in one window does not set the run's figure.
    window = out.sweep_s / SERVE_WINDOWS
    delivered = [0] * SERVE_WINDOWS
    for _c, _r, result, _l, done in cold:
        if not isinstance(result, str):
            slot = min(int((done - start) / window), SERVE_WINDOWS - 1)
            delivered[slot] += len(result.records)
    out.rates = [count / window for count in delivered]
    out.points = sum(len(result.records) for _request, result in served)
    out.attempted = len(warm) + len(cold) + len(replay)
    errors = [result for _c, _r, result, *_t in warm + cold + replay if isinstance(result, str)]
    out.failed = len(errors)
    out.problems.extend(errors[:5])
    first = {}
    for client, request, result in served_by:
        first.setdefault((client, request), [bits(r.to_dict()) for r in result.records])
    for client, request, result, *_t in replay:
        if not isinstance(result, str) and [
            bits(r.to_dict()) for r in result.records
        ] != first[(client, request)]:
            out.failed += 1
            out.problems.append(f"serve: replayed {request} differs from its first answer")
    out.strategies = sorted({request.strategy for request, _result in served})
    rejected = sum(
        value for key, value in stats.items()
        if key.endswith("_total") and key != "admitted_total"
    )
    cache = graph.solver_cache.stats()
    graph_stats = graph.stats()
    out.facts = {
        "stage_runs": sum(graph_stats["stage_executions"].values()),
        "stage_hits": sum(graph_stats["stage_hits"].values()),
        "solver_cache_hits": cache.hits,
        "solver_cache_misses": cache.misses,
        "solve_groups": stats["num_solve_groups"],
        "points_evaluated": stats["points_solved"],
        "store_hits": stats["result_store"]["hits"],
        "store_misses": stats["result_store"]["misses"],
        "fallback_points": sum(
            record.degraded for _request, result in served for record in result.records
        ),
        "service_points_requested": stats["points_requested"],
        "service_store_hits": stats["store_hits"],
        "service_inflight_joins": stats["inflight_joins"],
        "service_points_solved": stats["points_solved"],
        "service_solve_groups": stats["num_solve_groups"],
        "service_batches": stats["batches"],
        "service_rejected": rejected,
    }
    return out, served, server.setups, graph.solver_cache


def check_served(out: RunResult, served, setups, cache) -> None:
    """Served records must equal an in-process Campaign evaluation.

    Runs after the timed region, sharing the server's factorised solvers
    as an in-process campaign on the same flow graph would.  Every
    mismatching record counts as one failed operation.
    """
    _bench, flow = _repro()
    names = list(setups)
    points: Dict[Tuple[str, str, float], None] = {}
    for request, result in served:
        for overhead in request.overheads:
            points[(names[request.workload], request.strategy, overhead)] = None
    grid = [flow.CampaignPoint(workload=w, strategy=s, overhead=o) for w, s, o in points]
    if not grid:
        out.failed += 1
        out.problems.append("serve: no request completed")
        return
    reference_campaign = flow.Campaign(
        setups, strategies=STRATEGIES, overheads=SWEEP_OVERHEADS,
        name="perfbench-reference", batch_solves=True, cache=cache,
    )
    reference = {
        (p.workload, p.strategy, p.overhead): (
            asdict(record.outcome) if isinstance(record, flow.CampaignRecord) else None
        )
        for p, record in zip(grid, reference_campaign.evaluate_points(grid))
    }
    for request, result in served:
        expected = [(names[request.workload], request.strategy, o) for o in request.overheads]
        got = [(r.point.workload, r.point.strategy, r.point.overhead) for r in result.records]
        if got != expected:
            out.failed += 1
            out.problems.append(f"serve: request {request} answered points {got}")
            continue
        for key, record in zip(expected, result.records):
            if reference[key] is None or not close(asdict(record.outcome), reference[key]):
                out.failed += 1
                out.problems.append(f"serve: record {key} differs from Campaign")
