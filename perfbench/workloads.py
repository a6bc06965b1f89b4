"""The four benchmark workloads.

Each workload follows one protocol:

* ``setup(seed)`` gets ready — builds the suite matrices and does any
  workload-specific warm-up.  The runner calls it after pointing the
  store at a fresh directory and emptying the in-process matrix and
  predictor memos, possibly several times; each call starts over.
* ``body(seconds)`` runs whole passes until ``seconds`` have elapsed,
  timing every job (:meth:`Workload.job`).
* ``check()`` recomputes a seeded sample of the outputs another way,
  in the same run, and returns ``(checks attempted, checks failed)``.
* ``summary()`` turns the job timings into the end-to-end figures.
* ``close()`` stops whatever ``setup`` started.

Sizes, grids and the serve job mix are fixed here; ``README.md`` in
this directory records why.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from hostspeed import HostSpeed

#: the generator seed ``build_matrix`` uses by default; a run's seed is
#: added to it, so every seed gets its own matrices of the same sizes.
BASE_MATRIX_SEED = 20120101

#: agreement required between ``mode="model"`` and ``mode="sim"``
#: (docs/PERFORMANCE.md).
REL_TOL = 1e-9

FIGURES_SCALE = 0.02
FIGURES_SIM_CHECKS = 6

SWEEP_SCALE = 0.05
SWEEP_IDS = (7, 13, 24, 30)
SWEEP_CORE_COUNTS = (1, 2, 4, 8, 16, 32, 48)
SWEEP_MAPPINGS = ("standard", "distance_reduction")
SWEEP_KERNELS = ("csr", "no_x_miss")
#: model answers per sim answer of a grid cell, so that both tiers take
#: a real share of the body (a sim point costs 10-25 model points).
SWEEP_MODEL_REPEATS = 8

EXACT_SCALE = 0.02
EXACT_ITERATIONS = 16
#: rows of the small slice replayed on both the scalar oracle and the
#: vectorized engine.
EXACT_ORACLE_ROWS = 200

SERVE_SCALE = 0.02
#: ten suite matrices of 1.0-2.3 M nonzeros at full scale (block,
#: banded, power-law and random families): similar sizes keep the cost
#: of a job from hanging on which matrix the stream happens to pick.
SERVE_IDS = tuple(range(10, 20))
SERVE_TRAIN_IDS = (3, 7, 13, 18, 24, 27, 30, 32)
SERVE_POLL_S = 0.001
#: core counts of fresh jobs, cycled (disjoint pairs, so no fresh point
#: repeats another); fresh and predict jobs also cycle through a seeded
#: permutation of ``SERVE_IDS``, so every run's stream costs about the
#: same whatever the seed.
SERVE_CORE_PAIRS = ((2, 4), (6, 8), (12, 16), (24, 32), (40, 48))
SERVE_ITERATIONS = 16
SERVE_CONFIGS = ("conf0", "conf1", "conf2")
SERVE_KERNELS = ("csr", "no_x_miss")
SERVE_MAPPINGS = ("distance_reduction", "standard")
SERVE_PREDICT_CORES = (4, 8, 16, 48)
#: one block of the job stream; the seed shuffles each block.
SERVE_MIX = ("resubmit",) * 4 + ("predict",) * 3 + ("fresh",) * 3
SERVE_SEED_JOBS = 3
SERVE_CHECKS = 8


def _accesses(a, iterations: int) -> int:
    """Memory accesses of ``iterations`` CSR SpMVs (3 per row, 3 per nonzero)."""
    return (3 * a.n_rows + 3 * a.nnz) * iterations


def _close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def new_dir(root: Path, tag: str) -> Path:
    """A new empty directory under ``root``."""
    path = root / f"{tag}-{time.perf_counter_ns()}"
    path.mkdir(parents=True)
    return path


def fresh_store(root: Path) -> None:
    """Point the content store at a new empty directory under ``root``."""
    os.environ["REPRO_CACHE_DIR"] = str(new_dir(root, "store"))


def _deciles(samples: List[float]) -> Tuple[float, float]:
    """(p50, p90) by ``statistics.quantiles(n=10)``."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value
    q = statistics.quantiles(samples, n=10)
    return q[4], q[8]


class Workload:
    """Pass-based workload: every pass runs the same jobs.

    Job times are in nominal-host seconds (:mod:`hostspeed`).  The first
    pass fills process-wide memos (mappings, barrier schedules, solver
    arrays) that every later pass reuses, so when a run has more than
    one pass it is a warm-up.  A job's time is its median over the
    other passes, so a burst of host noise during one pass moves no
    figure; a pass's time is the sum of its jobs' median times.
    """

    name = ""
    #: the :mod:`hostspeed` kernel that tracks this workload's host speed.
    speed_kernel = "array"

    def __init__(self, work_dir: Path, speed: HostSpeed) -> None:
        self.work_dir = work_dir
        self.speed = speed
        self.seed = 0
        self._reset()

    def _reset(self) -> None:
        #: job key -> [points, accesses, [seconds per pass]]
        self.jobs: Dict[object, list] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def job(self, key: object, points: int, accesses: int, fn: Callable[[], object]) -> object:
        """Run and time one job (in nominal-host seconds); a raising job
        counts as failed."""
        self.attempted += 1
        self.speed.refresh()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            self.failed += 1
            return None
        elapsed = self.speed.scale(time.perf_counter() - t0)
        self.jobs.setdefault(key, [points, accesses, []])[2].append(elapsed)
        return out

    def run_passes(self, seconds: float, one_pass: Callable[[], None]) -> None:
        self._reset()
        start = time.perf_counter()
        while True:
            one_pass()
            self.passes += 1
            if time.perf_counter() - start >= seconds:
                return

    def latency_key(self, key: object) -> object:
        """The user-visible job a timed job belongs to (itself by default)."""
        return key

    def summary(self) -> Dict[str, float]:
        latency: Dict[object, float] = {}
        for key, (_p, _a, times) in self.jobs.items():
            k = self.latency_key(key)
            latency[k] = latency.get(k, 0.0) + statistics.median(times[1:] or times)
        pass_s = sum(latency.values())
        p50, p90 = _deciles(list(latency.values()))
        return {
            "points_per_s": sum(p for p, _a, _t in self.jobs.values()) / pass_s,
            "accesses_per_s": sum(a for _p, a, _t in self.jobs.values()) / pass_s,
            "job_p50_s": p50,
            "job_p90_s": p90,
            "points": float(sum(p * len(t) for p, _a, t in self.jobs.values())),
            "jobs": float(len(latency)),
        }

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def body(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def counters(self) -> Dict[str, float]:
        """Program-side counters read before and after the body."""
        return {}


def _seeded_matrices(scale: float, ids, seed: int) -> List[Tuple[int, str, object]]:
    """(id, name, matrix) of the suite entries in ``ids``, generator seed set."""
    from repro.sparse.suite import SUITE, build_matrix

    return [
        (e.mid, e.name, build_matrix(e.mid, scale, BASE_MATRIX_SEED + seed))
        for e in SUITE
        if ids is None or e.mid in ids
    ]


def _experiments(matrices) -> List[Tuple[int, object]]:
    """``suite_experiments`` over already-built matrices: fresh experiments."""
    from repro.core.experiment import SpMVExperiment

    return [(mid, SpMVExperiment(a, name=name)) for mid, name, a in matrices]


# -- figures ---------------------------------------------------------------


class Figures(Workload):
    """Cold model-mode regeneration of Table I and Figs. 3, 5-10.

    A pass runs every figure over every matrix on fresh experiments, so
    stream characterization is cold each pass.  Each figure is timed
    one matrix at a time (``figN_data([(mid, exp)])`` runs exactly the
    points the suite-wide call runs for that matrix), which keeps the
    host-speed estimate fresh; a job's latency is one figure over the
    whole suite, the sum of its matrices' times.
    """

    name = "figures"

    def setup(self, seed: int) -> None:
        from repro.core import figures as F
        from repro.machine.registry import get_machine

        self.seed = seed
        self.matrices = _seeded_matrices(FIGURES_SCALE, None, seed)
        presets = get_machine().presets
        self.figures: List[Tuple[str, Callable, int]] = [
            ("table1", F.table1_data, 0),
            ("fig3", F.fig3_data, len(F.FIG3_HOPS)),
            ("fig5", F.fig5_data, 2 * len(F.FIG5_CORE_COUNTS)),
            ("fig6", F.fig6_data, len(F.FIG6_CORE_COUNTS)),
            ("fig7", F.fig7_data, 2 * len(F.FIG7_CORE_COUNTS)),
            ("fig8", F.fig8_data, 2 * len(F.FIG6_CORE_COUNTS)),
            ("fig9", F.fig9_data, len(presets) * len(F.FIG9_CORE_COUNTS)),
            ("fig10", F.fig10_data, 2),
        ]
        keys = [(fig, mid) for fig, _fn, n in self.figures if n for mid, _nm, _a in self.matrices]
        self.sample = set(random.Random(seed).sample(keys, FIGURES_SIM_CHECKS))
        self.outputs: Dict[Tuple[str, int], object] = {}

    def body(self, seconds: float) -> None:
        from repro.core.experiment import DEFAULT_ITERATIONS

        def one_pass() -> None:
            exps = _experiments(self.matrices)
            for fig, fn, n_points in self.figures:
                for mid, exp in exps:
                    accesses = n_points * _accesses(exp.a, DEFAULT_ITERATIONS)
                    out = self.job((fig, mid), n_points, accesses, lambda: fn([(mid, exp)]))
                    if (fig, mid) in self.sample and out is not None:
                        self.outputs[(fig, mid)] = (exp, out)

        self.run_passes(seconds, one_pass)

    def latency_key(self, key: object) -> object:
        return key[0]  # type: ignore[index]

    def check(self) -> Tuple[int, int]:
        fns = {fig: fn for fig, fn, _n in self.figures}
        failed = len(self.sample) - len(self.outputs)
        for (fig, mid), (exp, model_out) in sorted(self.outputs.items()):
            sim_out = fns[fig]([(mid, exp)], mode="sim")
            a, b = _flatten(model_out), _flatten(sim_out)
            failed += not a or len(a) != len(b) or not all(map(_close_enough, a, b))
        return len(self.sample), failed


def _flatten(obj) -> List[float]:
    """Every number in a figure's output, in a stable order."""
    if isinstance(obj, dict):
        return [v for k in sorted(obj, key=str) for v in _flatten(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _flatten(item)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    if hasattr(obj, "makespan"):
        return [float(obj.makespan)]
    return []


# -- warm_sweep --------------------------------------------------------------


class WarmSweep(Workload):
    """Model and sim tiers over a grid whose characterization is warm.

    One job is one grid cell: one sim answer and ``SWEEP_MODEL_REPEATS``
    model answers, each model answer checked against the sim one.
    """

    name = "warm_sweep"
    speed_kernel = "event"

    def setup(self, seed: int) -> None:
        from repro.machine.registry import get_machine

        self.seed = seed
        exps = _experiments(_seeded_matrices(SWEEP_SCALE, SWEEP_IDS, seed))
        for _mid, exp in exps:
            for n in SWEEP_CORE_COUNTS:
                exp.traces(n)
        machine = get_machine()
        configs = [machine.presets[name] for name in sorted(machine.presets)]
        configs.append(machine.default_config.with_l2(False))
        self.cells = [
            (exp, dict(n_cores=n, config=cfg, mapping=mapping, kernel=kernel))
            for _mid, exp in exps
            for cfg in configs
            for mapping in SWEEP_MAPPINGS
            for kernel in SWEEP_KERNELS
            for n in SWEEP_CORE_COUNTS
        ]

    def body(self, seconds: float) -> None:
        from repro.core.experiment import DEFAULT_ITERATIONS

        self.compared = self.mismatches = 0

        def answer(exp, kw) -> Tuple[float, List[float]]:
            sim = exp.run(mode="sim", **kw).makespan
            return sim, [exp.run(mode="model", **kw).makespan for _ in range(SWEEP_MODEL_REPEATS)]

        def one_pass() -> None:
            points = 1 + SWEEP_MODEL_REPEATS
            for i, (exp, kw) in enumerate(self.cells):
                accesses = points * _accesses(exp.a, DEFAULT_ITERATIONS)
                out = self.job(i, points, accesses, lambda: answer(exp, kw))
                if out is not None:
                    sim, model = out
                    self.compared += 1
                    self.mismatches += not all(_close_enough(m, sim) for m in model)

        self.run_passes(seconds, one_pass)

    def check(self) -> Tuple[int, int]:
        # The body compared every cell it answered.
        return self.compared, self.mismatches


# -- validate_exact ----------------------------------------------------------


class ValidateExact(Workload):
    """``repro run --validate-exact`` over the suite, fresh store per pass.

    One job is one matrix: the model's single-UE miss count against the
    vectorized exact replay at the same scale and iteration count.
    """

    name = "validate_exact"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.matrices = _seeded_matrices(EXACT_SCALE, None, seed)

    def body(self, seconds: float) -> None:
        from repro.core.trace import access_summary, characterize_partition
        from repro.scc.tracegen import replay_trace
        from repro.sparse import partition_rows_balanced

        def validate(a) -> Tuple[float, object]:
            [trace] = characterize_partition(a, partition_rows_balanced(a, 1))
            model = access_summary(trace, iterations=EXACT_ITERATIONS).l2_misses
            return model, replay_trace(a, iterations=EXACT_ITERATIONS, engine="vectorized")

        def one_pass() -> None:
            fresh_store(self.work_dir)
            self.rows = []
            for mid, _name, a in self.matrices:
                accesses = _accesses(a, EXACT_ITERATIONS)
                out = self.job(mid, 1, accesses, lambda: validate(a))
                if out is not None:
                    self.rows.append((a, out[1]))

        self.run_passes(seconds, one_pass)

    def check(self) -> Tuple[int, int]:
        from repro.scc.tracegen import replay_trace

        # Every replay accounts for exactly the kernel's accesses ...
        failed = sum(exact.accesses != _accesses(a, EXACT_ITERATIONS) for a, exact in self.rows)
        # ... and the vectorized engine matches the scalar oracle bitwise.
        rng = random.Random(self.seed)
        _mid, _name, a = rng.choice(self.matrices)
        r0 = rng.randrange(max(1, a.n_rows - EXACT_ORACLE_ROWS))
        r1 = min(a.n_rows, r0 + EXACT_ORACLE_ROWS)
        scalar = replay_trace(a, r0, r1, iterations=2, engine="scalar")
        vector = replay_trace(a, r0, r1, iterations=2, engine="vectorized", use_disk_cache=False)
        failed += scalar != vector
        return len(self.rows) + 1, failed


# -- serve_mix ---------------------------------------------------------------


class ServeMix(Workload):
    """A closed-loop client against an in-process one-worker server.

    One job is one submission, timed from submit to result.  The stream
    repeats shuffled blocks of ``SERVE_MIX``: resubmitted specs (answered
    from the store), ``mode="predict"`` jobs (answered at admission) and
    fresh model-mode jobs (simulated by the supervised worker).  Jobs
    never repeat, so throughput is the median over blocks (a block's
    time is the sum of its jobs' latencies), and the latency deciles
    are taken over every job of the run.
    """

    name = "serve_mix"
    speed_kernel = "http"

    def __init__(self, work_dir: Path, speed: HostSpeed) -> None:
        super().__init__(work_dir, speed)
        self.server = None

    def setup(self, seed: int) -> None:
        from repro.machine.registry import get_machine
        from repro.predict.train import train_predictor
        from repro.serve.client import ServeClient
        from repro.serve.server import CampaignServer
        from repro.sparse.suite import build_matrix

        self.seed = seed
        self.rng = random.Random(seed)
        # Served specs carry no matrix seed: the default-seed matrices.
        for mid in sorted(set(SERVE_IDS) | set(SERVE_TRAIN_IDS)):
            build_matrix(mid, scale=SERVE_SCALE)
        train_predictor(get_machine(), ids=SERVE_TRAIN_IDS, scale=SERVE_SCALE)
        self.server = CampaignServer(new_dir(self.work_dir, "serve"), workers=1)
        self.server.start()
        self.client = ServeClient(self.server.url)
        self.order = self.rng.sample(SERVE_IDS, len(SERVE_IDS))
        self.fresh_seq = self.predict_seq = 0
        self.done_fresh: List = []
        for _ in range(SERVE_SEED_JOBS):
            spec = self._fresh_spec()
            self._run_job(spec)
            self.done_fresh.append(spec)

    def _fresh_spec(self):
        from repro.serve.protocol import CampaignSpec

        k = self.fresh_seq
        self.fresh_seq += 1
        # Mixed radix over (core pair, config, kernel, mapping), with the
        # matrix shifted once per cycle of 60: every 600 specs are
        # distinct, and each further 600 add one iteration, so every
        # point is a new store key.
        combo, cycle = k % 60, k // 60
        return CampaignSpec(
            ids=(self.order[(k + cycle) % len(self.order)],),
            core_counts=SERVE_CORE_PAIRS[combo % 5],
            configs=(SERVE_CONFIGS[combo // 5 % 3],),
            kernels=(SERVE_KERNELS[combo // 15 % 2],),
            mappings=(SERVE_MAPPINGS[combo // 30],),
            scale=SERVE_SCALE,
            iterations=SERVE_ITERATIONS + k // 600,
            mode="model",
        )

    def _predict_spec(self):
        from repro.serve.protocol import CampaignSpec

        k = 2 * self.predict_seq
        self.predict_seq += 1
        n = len(self.order)
        return CampaignSpec(
            ids=(self.order[k % n], self.order[(k + 1) % n]),
            core_counts=SERVE_PREDICT_CORES,
            scale=SERVE_SCALE,
            mode="predict",
        )

    def _run_job(self, spec) -> dict:
        summary = self.client.submit(spec)
        return self.client.wait(str(summary["job_id"]), timeout=120.0, poll_s=SERVE_POLL_S)

    def body(self, seconds: float) -> None:
        from repro.serve.client import ServeError

        self._reset()
        self.latencies: List[float] = []
        self.blocks: List[Tuple[int, int, float]] = []
        self.served: List[Tuple[object, dict]] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            kinds = list(SERVE_MIX)
            self.rng.shuffle(kinds)
            points = accesses = 0
            block_s = 0.0
            for kind in kinds:
                if kind == "resubmit":
                    spec = self.rng.choice(self.done_fresh)
                elif kind == "predict":
                    spec = self._predict_spec()
                else:
                    spec = self._fresh_spec()
                self.attempted += 1
                self.speed.refresh()
                t0 = time.perf_counter()
                try:
                    result = self._run_job(spec)
                except (ServeError, OSError, TimeoutError):
                    self.failed += 1
                    block_s += self.speed.scale(time.perf_counter() - t0)
                    continue
                latency = self.speed.scale(time.perf_counter() - t0)
                block_s += latency
                self.latencies.append(latency)
                records = result["records"]
                if result["quarantined"] or any(r.get("status") != "ok" for r in records):
                    self.failed += 1
                    continue
                if kind == "fresh":
                    self.done_fresh.append(spec)
                self.served.append((spec, result))
                points += len(records)
                accesses += sum((3 * r["n"] + 3 * r["nnz"]) * r["iterations"] for r in records)
            self.blocks.append((points, accesses, block_s))
            self.passes += 1

    def summary(self) -> Dict[str, float]:
        p50, p90 = _deciles(self.latencies)
        return {
            "points_per_s": statistics.median(p / s for p, _a, s in self.blocks),
            "accesses_per_s": statistics.median(a / s for _p, a, s in self.blocks),
            "job_p50_s": p50,
            "job_p90_s": p90,
            "points": float(sum(p for p, _a, _s in self.blocks)),
            "jobs": float(len(self.latencies)),
        }

    def check(self) -> Tuple[int, int]:
        from repro.core.campaign import Campaign

        rng = random.Random(self.seed)
        sample = rng.sample(self.served, min(SERVE_CHECKS, len(self.served)))
        failed = 0
        for i, (spec, result) in enumerate(sample):
            campaign = Campaign(
                f"check{i}",
                output_dir=new_dir(self.work_dir, "check"),
                scale=spec.scale,
                iterations=spec.iterations,
                mode=spec.mode,
                machine=spec.machine,
            )
            campaign.run(spec.points(), workers=1)
            want = [json.dumps(r, sort_keys=True) for r in campaign.load()]
            got = [json.dumps(r, sort_keys=True) for r in result["records"]]
            failed += want != got
        return len(sample), failed

    def counters(self) -> Dict[str, float]:
        view = self.client.metrics()
        serve, supervise = view["serve"], view["supervise"]
        return {
            "serve.dedup_hits": float(serve.get("dedup_hits", 0)),
            "serve.points_enqueued": float(serve.get("points_enqueued", 0)),
            "serve.simulations": float(serve.get("simulations", 0)),
            "supervise.retries": float(supervise.get("retries", 0)),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {w.name: w for w in (Figures, WarmSweep, ValidateExact, ServeMix)}
