"""``repro chaos``: OS-level chaos harness for the supervised runtime.

This harness attacks the reproduction pipeline itself with the
failures a long campaign meets on a real machine:

- **SIGKILL** of live pool workers — transiently (first attempt only)
  and persistently (every attempt: a *poison point*);
- **SIGSTOP** of a live worker, hanging it until the supervisor's
  ``task_timeout`` SIGKILLs it;
- **store corruption** — bit-flipped and truncated content-store
  entries, which integrity verification must quarantine, not trust;
- **ENOSPC** on store writes, which must warn once and degrade to
  recomputation, never crash or silently drop.

The schedule is drawn from ``--seed`` (deterministic per seed) and
injected through :data:`repro.core.supervise.CHAOS_ENV`, the
supervisor's one worker-fault hook.  The harness then asserts the supervised runtime's core invariant:

1. the campaign completes — no exception escapes ``Campaign.run``;
2. every surviving record is **bitwise identical** to the clean serial
   run's record for the same point;
3. the quarantined set is **exactly** the injected poison set — no
   healthy point is quarantined, no poison point sneaks a record in;
4. ``supervise.*`` metrics account for the injected faults (timeouts
   cover the SIGSTOPs, quarantines equal the poison count);
5. corrupt store entries read as misses and land in ``corrupt/``;
   ENOSPC surfaces exactly one warning.

Exit status is non-zero on any violation; CI runs seeds 0..2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

import numpy as np

from .cliutil import (
    add_json_flag,
    add_output_flag,
    int_list,
    open_output,
    resolve_format,
    str_list,
)

__all__ = [
    "build_chaos_schedule",
    "build_chaos_parser",
    "configure_chaos_parser",
    "run_chaos",
    "chaos_main",
]


def configure_chaos_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro chaos`` arguments to an existing parser."""
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the fault schedule (default 0); every seed is a "
        "different deterministic mix of kills, stops and poison points",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="supervised pool width for the chaos campaign (default 2)",
    )
    p.add_argument(
        "--ids",
        type=str,
        default="24,30",
        help="comma-separated Table I matrix ids (default: 24,30)",
    )
    p.add_argument(
        "--cores",
        type=str,
        default="1,4",
        help="comma-separated core counts of the campaign grid (default: 1,4)",
    )
    p.add_argument(
        "--configs",
        type=str,
        default="conf0,conf1",
        help="comma-separated chip configs of the grid (default: conf0,conf1)",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="matrix-size scale of the campaign (default 0.05)",
    )
    p.add_argument(
        "--iterations", type=int, default=2, help="SpMV repetitions (default 2)"
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=10.0,
        help="per-attempt wall-clock budget; bounds how long a SIGSTOPped "
        "worker can hang (default 10.0)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="in-pool retries before quarantine (default 2)",
    )
    p.add_argument(
        "--machine",
        type=str,
        default="scc-48",
        help="machine model the chaos campaign runs on (default scc-48; "
        "see docs/MACHINES.md)",
    )
    p.add_argument(
        "--skip-store-leg",
        action="store_true",
        help="skip the store corruption / ENOSPC leg",
    )
    p.add_argument(
        "--serve",
        action="store_true",
        help="also attack a live campaign server: SIGKILL/SIGSTOP its "
        "pool workers mid-job, poison points, then bit-flip a store "
        "entry and resubmit — the server must survive it all "
        "(docs/SERVING.md)",
    )
    p.add_argument(
        "--quarantine-records",
        type=str,
        default="",
        metavar="JSONL",
        help="write the quarantined records to this file (CI artifact)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    add_json_flag(p)
    add_output_flag(p)


def build_chaos_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro chaos",
        description="Inject OS-level faults (SIGKILL/SIGSTOP of workers, "
        "store corruption, ENOSPC) into a supervised campaign and verify "
        "the self-healing invariants.",
    )
    configure_chaos_parser(p)
    return p


def build_chaos_schedule(
    keys: List[str], seed: int
) -> Tuple[Dict[str, dict], List[str], List[str]]:
    """The seeded fault schedule over campaign point keys.

    Returns ``(spec, transient_keys, poison_keys)`` where ``spec`` is
    the :data:`~repro.core.supervise.CHAOS_ENV` JSON object: a couple
    of transient SIGKILLs (first attempt only), one transient SIGSTOP,
    and one or two persistent poison kills.  All targets are distinct;
    a pure function of ``(keys, seed)``.
    """
    rng = random.Random(seed)
    n_transient_kills = min(2, max(0, len(keys) - 3))
    n_stops = 1 if len(keys) >= 4 else 0
    n_poison = 2 if len(keys) >= 8 else 1
    picked = rng.sample(sorted(keys), n_transient_kills + n_stops + n_poison)
    spec: Dict[str, dict] = {}
    transient: List[str] = []
    poison: List[str] = []
    for key in picked[:n_transient_kills]:
        spec[key] = {"action": "kill", "attempts": [1]}
        transient.append(key)
    for key in picked[n_transient_kills : n_transient_kills + n_stops]:
        spec[key] = {"action": "stop", "attempts": [1]}
        transient.append(key)
    for key in picked[n_transient_kills + n_stops :]:
        spec[key] = {"action": "kill", "attempts": "all"}
        poison.append(key)
    return spec, transient, poison


@contextmanager
def _env(name: str, value: Optional[str]) -> Iterator[None]:
    """Set/unset one environment variable, restoring the old value."""
    old = os.environ.get(name)
    try:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def _grid_args(args: argparse.Namespace) -> Tuple[List[int], List[int], Tuple[str, ...]]:
    """``--ids``/``--cores``/``--configs``; an empty id or core list exits."""
    ids, cores = int_list(args.ids, "--ids"), int_list(args.cores, "--cores")
    for flag, vals in (("--ids", ids), ("--cores", cores)):
        if not vals:
            raise SystemExit(f"{flag} selected nothing")
    return ids, cores, tuple(str_list(args.configs))


def _campaign_lines(path: Path) -> Dict[str, str]:
    """Raw record line per resume key (the bitwise-comparison unit)."""
    lines: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            rec = json.loads(line)
            lines[rec["_key"]] = line
    return lines


def _run_worker_leg(args: argparse.Namespace, workdir: Path) -> dict:
    """Clean serial reference vs supervised run under the chaos schedule."""
    from .core.campaign import Campaign
    from .core.supervise import CHAOS_ENV, SupervisePolicy

    ids, cores, configs = _grid_args(args)
    points = Campaign.grid(ids, cores, configs=configs)
    keys = [pt.key() for pt in points]
    spec, transient, poison = build_chaos_schedule(keys, args.seed)

    common = dict(
        output_dir=workdir,
        scale=args.scale,
        iterations=args.iterations,
        mode="model",
        machine=getattr(args, "machine", "scc-48"),
    )
    with _env(CHAOS_ENV, None):
        reference = Campaign("chaos_reference", **common)
        reference.run(points, workers=1)
    ref_lines = _campaign_lines(reference.path)

    policy = SupervisePolicy(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        backoff_base=0.01,
        seed=args.seed,
        on_failure="quarantine",
    )
    chaos = Campaign("chaos_run", **common)
    violations: List[str] = []
    with _env(CHAOS_ENV, json.dumps(spec)):
        try:
            chaos.run(points, workers=args.workers, policy=policy)
        except Exception as exc:  # noqa: BLE001 - invariant 1
            violations.append(
                f"{type(exc).__name__} escaped the supervisor: {exc}"
            )
    metrics = getattr(chaos, "last_supervise", {})

    chaos_lines = _campaign_lines(chaos.path) if chaos.path.exists() else {}
    quarantined = {
        key
        for key, line in chaos_lines.items()
        if json.loads(line).get("status") == "quarantined"
    }

    # invariant 2: surviving records bitwise identical to the reference.
    for key, line in sorted(chaos_lines.items()):
        if key in quarantined:
            continue
        if key not in ref_lines:
            violations.append(f"chaos run produced an unknown point {key!r}")
        elif line != ref_lines[key]:
            violations.append(
                f"surviving record for {key!r} differs from the clean "
                f"serial run:\n  ref:   {ref_lines[key]}\n  chaos: {line}"
            )
    missing = set(ref_lines) - set(chaos_lines)
    if missing:
        violations.append(f"chaos run is missing points: {sorted(missing)}")

    # invariant 3: quarantined set == injected poison set.
    if quarantined != set(poison):
        violations.append(
            f"quarantined set {sorted(quarantined)} != injected poison "
            f"set {sorted(poison)}"
        )

    # invariant 4: the metrics account for the injected faults.
    stops = sum(1 for entry in spec.values() if entry["action"] == "stop")
    if metrics.get("supervise.timeouts", 0) < stops:
        violations.append(
            f"supervise.timeouts={metrics.get('supervise.timeouts', 0)} "
            f"does not cover the {stops} injected SIGSTOP(s)"
        )
    if metrics.get("supervise.quarantines", 0) != len(poison):
        violations.append(
            f"supervise.quarantines={metrics.get('supervise.quarantines', 0)} "
            f"!= {len(poison)} poison point(s)"
        )
    if transient and metrics.get("supervise.retries", 0) < len(transient):
        violations.append(
            f"supervise.retries={metrics.get('supervise.retries', 0)} cannot "
            f"cover {len(transient)} transient fault(s)"
        )

    quarantine_records = [
        json.loads(line) for key, line in sorted(chaos_lines.items()) if key in quarantined
    ]
    return {
        "schedule": spec,
        "transient": sorted(transient),
        "poison": sorted(poison),
        "points": len(points),
        "survivors_checked": len(chaos_lines) - len(quarantined),
        "quarantined": sorted(quarantined),
        "quarantine_records": quarantine_records,
        "metrics": metrics,
        "violations": violations,
    }


def _run_store_leg(args: argparse.Namespace, workdir: Path) -> dict:
    """Bit-flip / truncate / ENOSPC the content store; expect quarantines."""
    from .store import STORE_ENOSPC_ENV, ContentStore, digest_parts

    rng = random.Random(args.seed)
    violations: List[str] = []
    store = ContentStore(root=workdir / "cache", namespace="chaos")

    with _env("REPRO_NO_DISK_CACHE", None):
        # bit-flipped JSON entry -> miss + quarantined, never trusted.
        key = digest_parts("chaos", "json", args.seed)
        store.put_json(key, {"answer": 42, "seed": args.seed})
        path = store.path_for(key, "json")
        blob = bytearray(path.read_bytes())
        pos = rng.randrange(len(blob))
        blob[pos] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(blob))
        if store.get_json(key) is not None:
            violations.append("bit-flipped JSON entry was served as valid")
        if path.exists():
            violations.append("bit-flipped JSON entry was not removed from the store")
        if not (store.corrupt_dir / path.name).exists():
            violations.append("bit-flipped JSON entry was not quarantined to corrupt/")

        # truncated array bundle -> miss + quarantined.
        akey = digest_parts("chaos", "npz", args.seed)
        store.put_arrays(akey, data=np.arange(256, dtype=np.float64))
        apath = store.path_for(akey, "npz")
        raw = apath.read_bytes()
        apath.write_bytes(raw[: max(1, len(raw) // 2)])
        if store.get_arrays(akey) is not None:
            violations.append("truncated npz entry was served as valid")
        if not (store.corrupt_dir / apath.name).exists():
            violations.append("truncated npz entry was not quarantined to corrupt/")

        # bit-flipped array payload -> rejected (zip CRC or sha256 seal).
        bkey = digest_parts("chaos", "npz-flip", args.seed)
        store.put_arrays(bkey, data=np.arange(64, dtype=np.int64))
        bpath = store.path_for(bkey, "npz")
        blob = bytearray(bpath.read_bytes())
        blob[len(blob) // 2] ^= 1 << rng.randrange(8)
        bpath.write_bytes(bytes(blob))
        if store.get_arrays(bkey) is not None:
            violations.append("bit-flipped npz entry was served as valid")
        if not (store.corrupt_dir / bpath.name).exists():
            violations.append("bit-flipped npz entry was not quarantined to corrupt/")

        # ENOSPC: exactly one warning, no crash, entry absent.
        ekey = digest_parts("chaos", "enospc", args.seed)
        with _env(STORE_ENOSPC_ENV, "1"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                store.put_json(ekey, {"doomed": True})
                store.put_json(ekey, {"doomed": True})
        enospc_warnings = [
            w for w in caught if "no space left" in str(w.message).lower()
        ]
        if len(enospc_warnings) != 1:
            violations.append(
                f"expected exactly one ENOSPC warning, saw {len(enospc_warnings)}"
            )
        if store.get_json(ekey) is not None:
            violations.append("ENOSPC-failed write still produced an entry")

    return {
        "corrupt_quarantined": sorted(
            p.name for p in store.corrupt_dir.glob("*")
        ) if store.corrupt_dir.exists() else [],
        "violations": violations,
    }


def _run_serve_leg(args: argparse.Namespace, workdir: Path) -> dict:
    """Chaos against a live campaign server (``repro chaos --serve``).

    The same schedule the worker leg injects — transient SIGKILLs, one
    SIGSTOP, persistent poison kills — lands on the *server's* pool
    workers mid-job, then a sealed store entry is bit-flipped and the
    job resubmitted.  Invariants:

    1. the submitted job completes (in-flight points finish or
       quarantine per the PR 7 ladder) and the server process answers
       ``/healthz`` throughout — it never dies;
    2. surviving records are bitwise-identical (canonical JSON) to a
       clean serial campaign of the same grid;
    3. the job's quarantined point set is exactly the poison set, and
       quarantines are *not* persisted to the store;
    4. after the bit flip, resubmission quarantines the corrupt entry,
       re-simulates exactly the flipped point plus the (retryable)
       poison points, and serves every other point from the store.
    """
    with _env("REPRO_NO_DISK_CACHE", None):
        return _serve_leg_impl(args, workdir)


def _serve_leg_impl(args: argparse.Namespace, workdir: Path) -> dict:
    from .core.campaign import Campaign
    from .core.supervise import CHAOS_ENV, SupervisePolicy
    from .serve.client import ServeClient
    from .serve.protocol import CampaignSpec, point_store_key
    from .serve.server import STORE_NAMESPACE, CampaignServer
    from .store import ContentStore

    ids, cores, configs = _grid_args(args)
    violations: List[str] = []

    spec = CampaignSpec(
        ids=tuple(ids),
        core_counts=tuple(cores),
        configs=configs,
        machine=getattr(args, "machine", "scc-48"),
        scale=args.scale,
        iterations=args.iterations,
        mode="model",
    )
    points = spec.points()
    ctx = spec.context()
    keys = [pt.key() for pt in points]
    schedule, transient, poison = build_chaos_schedule(keys, args.seed)

    # Clean serial reference (no chaos, no server).
    with _env(CHAOS_ENV, None):
        reference = Campaign(
            "serve_reference",
            output_dir=workdir,
            scale=args.scale,
            iterations=args.iterations,
            mode="model",
            machine=spec.machine,
        )
        reference.run(points, workers=1)
    ref_records = {}
    for key, line in _campaign_lines(reference.path).items():
        rec = json.loads(line)
        rec.pop("_key", None)
        ref_records[key] = json.dumps(rec, sort_keys=True)

    store_root = workdir / "serve-cache"
    policy = SupervisePolicy(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        backoff_base=0.01,
        seed=args.seed,
        on_failure="quarantine",
    )
    server = CampaignServer(
        data_dir=workdir / "serve-data",
        workers=args.workers,
        policy=policy,
        store_root=store_root,
    )
    quarantined_keys: List[str] = []
    resubmit_counts: Dict[str, object] = {}
    client: Optional[ServeClient] = None
    try:
        with _env(CHAOS_ENV, json.dumps(schedule)):
            server.start()
            client = ServeClient(server.url)
            if not client.healthz().get("ok"):
                violations.append("healthz not ok before submission")
            job = client.submit(spec)
            try:
                result = client.wait(str(job["job_id"]), timeout=300.0)
            except TimeoutError as exc:
                violations.append(f"job did not complete under chaos: {exc}")
                result = {"records": [], "origins": []}
            if not client.healthz().get("ok"):
                violations.append("healthz not ok right after the chaos job")

        records = result.get("records") or []
        origins = result.get("origins") or []
        for pt, key, rec, origin in zip(points, keys, records, origins):
            if origin == "quarantined":
                quarantined_keys.append(key)
                continue
            got = json.dumps(rec, sort_keys=True)
            if got != ref_records.get(key):
                violations.append(
                    f"surviving served record for {key!r} differs from the "
                    f"clean serial run:\n  ref:   {ref_records.get(key)}"
                    f"\n  serve: {got}"
                )
        if sorted(quarantined_keys) != sorted(poison):
            violations.append(
                f"served quarantined set {sorted(quarantined_keys)} != "
                f"injected poison set {sorted(poison)}"
            )
        store = ContentStore(root=store_root, namespace=STORE_NAMESPACE)
        for pt, key in zip(points, keys):
            stored = store.get_json(point_store_key(pt, ctx)) is not None
            if key in poison and stored:
                violations.append(f"quarantined point {key!r} was persisted")
            if key not in poison and not stored:
                violations.append(f"surviving point {key!r} was not persisted")

        # Bit-flip one survivor's sealed entry, clear the chaos schedule,
        # resubmit: the flip must quarantine + re-simulate, everything
        # else must dedup, and the server must still be standing.
        flipped_key = None
        rng = random.Random(args.seed)
        for pt, key in zip(points, keys):
            if key not in poison:
                flipped_key = key
                path = store.path_for(point_store_key(pt, ctx), "json")
                blob = bytearray(path.read_bytes())
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                path.write_bytes(bytes(blob))
                break
        with _env(CHAOS_ENV, None):
            job2 = client.submit(spec)
            try:
                result2 = client.wait(str(job2["job_id"]), timeout=300.0)
            except TimeoutError as exc:
                violations.append(f"resubmitted job did not complete: {exc}")
                result2 = {}
            resubmit_counts = {
                k: result2.get(k)
                for k in ("points", "dedup_hits", "simulated", "quarantined")
            }
            expected_simulated = 1 + len(poison)
            if result2.get("simulated") != expected_simulated:
                violations.append(
                    f"resubmission after the bit flip simulated "
                    f"{result2.get('simulated')} point(s), expected "
                    f"{expected_simulated} (flipped + retryable poison)"
                )
            if result2.get("quarantined"):
                violations.append(
                    "resubmission without chaos still quarantined "
                    f"{result2.get('quarantined')} point(s)"
                )
            for key, rec in zip(keys, result2.get("records") or []):
                if json.dumps(rec, sort_keys=True) != ref_records.get(key):
                    violations.append(
                        f"post-flip record for {key!r} differs from the "
                        f"clean serial run"
                    )
            health = client.healthz()
            if not health.get("ok"):
                violations.append("healthz not ok after the store bit flip leg")
            if flipped_key is not None and not health.get("store_corrupt"):
                violations.append(
                    "bit-flipped entry was not quarantined to corrupt/"
                )
    finally:
        if client is not None:
            client.close()
        server.stop()

    return {
        "schedule": schedule,
        "transient": sorted(transient),
        "poison": sorted(poison),
        "points": len(points),
        "quarantined": sorted(quarantined_keys),
        "resubmit": resubmit_counts,
        "violations": violations,
    }


def run_chaos(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro chaos`` from a parsed namespace."""
    from .core.report import banner

    fmt = resolve_format(args)
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.task_timeout <= 0:
        raise SystemExit(f"--task-timeout must be > 0, got {args.task_timeout}")
    with open_output(args, out) as stream:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            workdir = Path(tmp)
            worker_leg = _run_worker_leg(args, workdir)
            store_leg = (
                {"violations": [], "skipped": True}
                if args.skip_store_leg
                else _run_store_leg(args, workdir)
            )
            serve_leg = (
                _run_serve_leg(args, workdir)
                if getattr(args, "serve", False)
                else {"violations": [], "skipped": True}
            )
        violations = (
            worker_leg["violations"]
            + store_leg["violations"]
            + serve_leg["violations"]
        )
        report = {
            "seed": args.seed,
            "workers": args.workers,
            "worker_leg": {
                k: v for k, v in worker_leg.items() if k != "violations"
            },
            "store_leg": {k: v for k, v in store_leg.items() if k != "violations"},
            "serve_leg": {k: v for k, v in serve_leg.items() if k != "violations"},
            "violations": violations,
            "ok": not violations,
        }
        if args.quarantine_records:
            with open(args.quarantine_records, "w", encoding="utf-8") as fh:
                for rec in worker_leg["quarantine_records"]:
                    fh.write(json.dumps(rec) + "\n")
        if fmt == "json":
            print(json.dumps(report, indent=2, sort_keys=True), file=stream)
        else:
            print(banner(f"Chaos harness (seed {args.seed})"), file=stream)
            sched = worker_leg["schedule"]
            for key in sorted(sched):
                entry = sched[key]
                print(
                    f"  inject {entry['action']:<5s} attempts="
                    f"{entry['attempts']} -> {key}",
                    file=stream,
                )
            print(
                f"\npoints: {worker_leg['points']}  "
                f"survivors bitwise-checked: {worker_leg['survivors_checked']}  "
                f"quarantined: {len(worker_leg['quarantined'])}",
                file=stream,
            )
            metrics = worker_leg["metrics"]
            if metrics:
                from .obs.metrics import summary_prefix

                shown = ", ".join(
                    f"{k}={v:g}"
                    for k, v in summary_prefix(metrics, "supervise").items()
                )
                print(f"supervise: {shown}", file=stream)
            if not store_leg.get("skipped"):
                print(
                    f"store: quarantined {store_leg['corrupt_quarantined']}",
                    file=stream,
                )
            if not serve_leg.get("skipped"):
                print(
                    f"serve: {serve_leg['points']} points, quarantined "
                    f"{len(serve_leg['quarantined'])}, resubmit "
                    f"{serve_leg['resubmit']}",
                    file=stream,
                )
            if violations:
                print("\nINVARIANT VIOLATIONS:", file=stream)
                for v in violations:
                    print(f"  - {v}", file=stream)
            else:
                print(
                    "\nall invariants hold: survivors bitwise-identical to "
                    "the clean serial run; quarantined set == injected "
                    "poison set",
                    file=stream,
                )
        return 0 if not violations else 1


def chaos_main(
    argv: Optional[List[str]] = None, out: Optional[TextIO] = None
) -> int:
    """Entry point for ``repro chaos``; returns a process exit code."""
    return run_chaos(build_chaos_parser().parse_args(argv), out=out)
