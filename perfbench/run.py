"""Host-time benchmark of the SpMV model pipeline.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: ``figures``, ``warm_sweep``, ``validate_exact``, ``serve_mix``
(see ``README.md`` here).  With ``--trace 0`` the last line of standard
output is one JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced
run.  Every run works in its own directory under ``.perfbench_work/``
in the checkout — content store, server data, temporary files — and
removes it on exit, so it never reads a user's ``~/.cache/repro``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: modules each workload imports; their import time is part of ``setup_s``.
MODULES = {
    "figures": ("repro.core.figures",),
    "warm_sweep": ("repro.core.experiment",),
    "validate_exact": ("repro.core.trace", "repro.scc.tracegen", "repro.sparse"),
    "serve_mix": ("repro.serve.server", "repro.serve.client", "repro.predict.train"),
}

E2E_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "accesses_per_s": "accesses/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("per_s"):
        return "points/s"
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def _parse(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _hermetic_env(work: Path) -> Dict[str, str]:
    """Confine the run to ``work``; returns the settings it recorded."""
    tmp = work / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(work / "store-initial")
    dropped = [
        name
        for name in ("REPRO_NO_DISK_CACHE", "REPRO_FAULT_STORE_ENOSPC")
        if os.environ.pop(name, None) is not None
    ]
    return {
        "REPRO_CHECKS": os.environ.get("REPRO_CHECKS", ""),
        "dropped": ",".join(dropped),
    }


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(args: argparse.Namespace, work: Path) -> Tuple[dict, List[str]]:
    env = _hermetic_env(work)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    for module in MODULES[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0

    from repro.predict.artifact import clear_predictor_cache
    from repro.sparse.suite import build_matrix

    from hostspeed import HostSpeed
    from layers import Layers, per_layer_metrics
    from workloads import WORKLOADS, fresh_store

    speed = HostSpeed(WORKLOADS[args.workload].speed_kernel)
    speed.refresh(force=True)
    import_s = speed.scale(import_s)
    clear_matrix_memo = build_matrix.cache_clear
    layers = Layers()
    if args.trace:
        layers.install()
    workload = WORKLOADS[args.workload](work, speed)
    setup_times: List[float] = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            workload.close()
            fresh_store(work)
            clear_predictor_cache()
            clear_matrix_memo()
            speed.refresh(force=True)
            layers.phase = "setup"
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(speed.scale(time.perf_counter() - t0))
            layers.phase = None
        before = workload.counters()
        layers.phase = "body"
        t0 = time.perf_counter()
        workload.body(args.seconds)
        body_s = time.perf_counter() - t0
        layers.phase = None
        after = workload.counters()
        checks, checks_failed = workload.check()
    finally:
        layers.phase = None
        workload.close()
        layers.uninstall()
        speed.close()

    attempted = workload.attempted + checks
    failed = workload.failed + checks_failed
    summary = workload.summary()
    notes = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"REPRO_CHECKS={env['REPRO_CHECKS']!r}  dropped env: {env['dropped'] or '-'}",
        f"body {body_s:.3f} s  passes {workload.passes}  points {summary['points']:.0f}  "
        f"latency samples {summary['jobs']:.0f} (beyond p90: {int(summary['jobs']) // 10})",
        f"attempted {attempted}  failed {failed}  (output checks {checks}, failed {checks_failed})",
        f"set-up: imports {import_s:.3f} s + median of {[round(t, 3) for t in setup_times]} s",
        f"host speed: {len(speed.estimates)} timings of the {speed.kernel!r} kernel, median "
        f"{statistics.median(speed.estimates) * 1e3:.3f} ms (nominal {speed.nominal_s * 1e3:.3f} "
        "ms); times below are nominal-host seconds",
    ]
    if args.trace:
        values = per_layer_metrics(layers)
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        dedup = delta.get("serve.dedup_hits", 0.0)
        enqueued = delta.get("serve.points_enqueued", 0.0)
        values["serve.dedup_ratio"] = dedup / (dedup + enqueued) if dedup + enqueued else 0.0
        values["serve.simulations"] = delta.get("serve.simulations", 0.0)
        values["supervise.retries"] = delta.get("supervise.retries", 0.0)
        values["trace.characterize_share"] = values["trace.characterize_s"] / body_s
        values["bench.body_s"] = body_s
        values["bench.points_per_s"] = summary["points_per_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "points_per_s": summary["points_per_s"],
            "accesses_per_s": summary["accesses_per_s"],
            "job_p50_s": summary["job_p50_s"],
            "job_p90_s": summary["job_p90_s"],
            "peak_rss_mb": _peak_rss_mb(),
            "success_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        notes.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The workloads are serial.  On one CPU, the serve threads and worker
    # hand off without waking a second vCPU, which on a VM waits for the
    # hypervisor and swung serve latencies by 2x from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result, notes = run(args, work)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
