"""The repository benchmark: one workload, end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_full``, ``sweep_fine_grid``, ``serve_mixed`` (see
``perfbench/README.md``).  Every measurement runs in a fresh interpreter
(``measure.py``) so peak memory and lazy set-up are those of one user
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload once untraced and once traced, both with one worker,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is nonzero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from layers import PER_LAYER_UNITS, layer_groups
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics reported for every workload, with units.  The
#: resume pass is printed but not among them: it takes milliseconds, and
#: its median moved by up to half between runs on a shared 2-core host,
#: more than any bound a regression gate can use.
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "points_per_s": "points/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-ups timed per run (the measuring processes' own, topped up by
#: set-up-only processes); ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock budget of one run; every child process is killed past it.
RUN_LIMIT_S = 170.0

#: Workers of the end-to-end runs (``repro sweep``'s default on 2 CPUs).
WORKERS = 2


class ChildFailed(RuntimeError):
    """A measuring process crashed or overran the run's budget."""


def calibration_s() -> float:
    """Median time of a fixed NumPy kernel, to read runs against the machine."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(10):
            a @ a
        np.sort(b)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_child(job: dict, deadline: float) -> dict:
    """Run ``measure.py`` on ``job`` in a fresh interpreter."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("run budget exhausted")
    env = dict(os.environ, TMPDIR=job["work_dir"])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{job['kind']} of {job['workload']} overran the run budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise ChildFailed(f"{job['kind']} of {job['workload']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies) -> tuple:
    """Latency at the highest percentile with at least ten samples above it.

    Failed requests (``None``) count as infinitely slow.

    Returns:
        ``(value, percentile, samples)``.
    """
    values = sorted(math.inf if v is None else v for v in latencies)
    n = len(values)
    if n <= 10:
        return values[-1], 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(results: list, setups: list) -> dict:
    """The end-to-end metrics from the measuring processes' reports."""
    latencies = [v for r in results for v in r["latencies"]]
    tail_value, _q, _n = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(r["sweep_s"] for r in results),
        "points_per_s": statistics.median(v for r in results for v in r["rates"]),
        "request_p50_s": statistics.median(
            math.inf if v is None else v for v in latencies
        ),
        "request_tail_s": tail_value,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def measure(args, work_dir: str, deadline: float) -> tuple:
    """Run the children for one benchmark run; return (results, metrics)."""
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "work_dir": work_dir}
    if args.trace:
        plain = run_child(dict(job, kind="measure", workers=1, trace=False), deadline)
        traced = run_child(dict(job, kind="measure", workers=1, trace=True), deadline)
        if args.workload == "serve_mixed":
            cost = lambda r: r["sweep_s"] / max(r["points"], 1)  # noqa: E731
        else:
            cost = lambda r: r["setup_s"] + r["sweep_s"] + r["resume_s"]  # noqa: E731
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = cost(traced) / cost(plain)
        return [plain, traced], metrics

    results = []
    started = time.monotonic()
    # A sweep is a fixed grid; repeat it while the run has time left.  The
    # served workload's closed loop itself lasts --seconds.
    while not results or (
        args.workload != "serve_mixed" and time.monotonic() - started < args.seconds
    ):
        results.append(run_child(dict(job, kind="measure", workers=WORKERS,
                                      trace=False), deadline))
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(dict(job, kind="setup"), deadline)["setup_s"])
    return results, end_to_end(results, setups)


def report(args, results: list, metrics: dict, calibration: float) -> None:
    """Human-readable lines ahead of the JSON result."""
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"calibration: numpy kernel {calibration * 1e3:.3f} ms")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        for name, value in layer_groups(metrics).items():
            print(f"  [{name} = {value:.6g} s]")
    else:
        value, percentile, samples = tail([v for r in results for v in r["latencies"]])
        print(f"  request_tail_s is p{percentile:.1f} of {samples} samples")
        resume = statistics.median(r["resume_s"] for r in results)
        print(f"  resume_s = {resume:.6g} s (printed, not gated)")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"  failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted})")
    for r in results:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so a running child is killed and waited
    # for (subprocess.run does that on any exception) and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    calibration = calibration_s()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        results, metrics = measure(args, work_dir, deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report(args, results, metrics, calibration)
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
