"""One measurement in a fresh interpreter; ``run.py`` starts this script.

Usage: ``python3 perfbench/measure.py '<job json>'`` where the job holds
``kind`` ("setup" or "measure"), ``workload``, ``seed``, ``seconds``,
``workers``, ``trace`` and ``work_dir``.  The last line of standard output
is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(job: dict) -> dict:
    import_program()
    import layers
    import workloads
    from spans import Patcher, Tracer

    workload, seed = job["workload"], job["seed"]
    if job["kind"] == "setup":
        return {"setup_s": workloads.setup_only(workload, seed, job["work_dir"])}

    tracer = Tracer() if job["trace"] else None
    check = None
    with Patcher() as patcher:
        if tracer is not None:
            layers.install(tracer, patcher)
        start = time.perf_counter()
        if workload == "serve_mixed":
            out, *check = workloads.run_serve(
                seed, job["seconds"], job["workers"], job["work_dir"]
            )
        else:
            out = workloads.run_sweep(workload, seed, job["workers"], job["work_dir"])
        end = time.perf_counter()
    # Peak memory of the measured work, before the output check adds its own.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if check is not None:
        workloads.check_served(out, *check)
    result = dict(asdict(out), rss_mb=rss_mb)
    if tracer is not None:
        kind = "serve" if workload == "serve_mixed" else "sweep"
        missing = [
            name for name in layers.required_spans(kind, out.strategies)
            if tracer.calls.get(name, 0) == 0
        ]
        if missing:
            result["failed"] += len(missing)
            result["problems"].append(f"trace: no calls recorded for {missing}")
        facts = dict(out.facts, resume_s=out.resume_s,
                     coverage=tracer.covered_s(start, end) / (end - start))
        result["layers"] = layers.layer_metrics(tracer, facts)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
