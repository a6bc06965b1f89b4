"""Library-level generation of every table/figure of the paper.

Each ``figN_data`` function reproduces one artifact of the evaluation
section from a list of (name, :class:`SpMVExperiment`) pairs, returning
plain data (dicts/lists) that the benchmark harness asserts on and the
CLI renders.  Keeping these in the library — rather than in the
benchmark files — makes the reproduction scriptable:

    from repro.core.figures import suite_experiments, fig5_data
    exps = suite_experiments(scale=0.2)
    std, dr = fig5_data(exps)

Figure sweeps default to the analytic fast path
(``mode="model"``, see ``docs/PERFORMANCE.md``); pass ``mode="sim"`` —
or ``repro run --exact`` — to replay every point on the event-driven
runtime instead, and ``workers=N`` to shard a sweep's runs over forked
worker processes (results are identical either way).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..machine.base import DEFAULT_MACHINE, MachineConfig
from ..machine.registry import get_machine
from ..sparse.stats import working_set_mbytes
from ..sparse.suite import SUITE, build_matrix
from .comparison import comparison_table
from .experiment import DEFAULT_ITERATIONS, ExperimentResult, SpMVExperiment
from .mapping import single_core_at_distance
from .metrics import average_gflops, average_mflops_per_watt
from .supervise import SupervisePolicy, supervised_parallel_map

__all__ = [
    "suite_experiments",
    "table1_data",
    "fig3_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig10_data",
    "machine_comparison_data",
    "DEFAULT_MODE",
    "FIG5_CORE_COUNTS",
    "FIG6_CORE_COUNTS",
    "FIG7_CORE_COUNTS",
    "FIG9_CORE_COUNTS",
]

#: figure sweeps run on the analytic fast path unless told otherwise.
DEFAULT_MODE = "model"

FIG3_HOPS = [0, 1, 2, 3]
FIG5_CORE_COUNTS = [1, 2, 4, 8, 16, 24, 32, 48]
FIG6_CORE_COUNTS = [8, 24, 48]
FIG7_CORE_COUNTS = [1, 8, 16, 24, 32, 48]
FIG9_CORE_COUNTS = [8, 16, 24, 32, 48]

Experiments = Sequence[Tuple[int, SpMVExperiment]]


def suite_experiments(
    scale: float = 1.0,
    ids: Optional[Sequence[int]] = None,
    machine: Optional[str] = None,
) -> List[Tuple[int, SpMVExperiment]]:
    """(matrix id, experiment) pairs over the Table I suite.

    ``machine`` selects the modeled target
    (:func:`repro.machine.get_machine`); the default is the SCC.
    """
    out = []
    machine_id = get_machine(machine or DEFAULT_MACHINE).machine_id
    for e in SUITE:
        if ids is not None and e.mid not in ids:
            continue
        exp = SpMVExperiment(build_matrix(e.mid, scale=scale), name=e.name, machine=machine_id)
        out.append((e.mid, exp))
    return out


def _batch_run(
    experiments: Experiments,
    jobs: Sequence[Tuple[int, dict]],
    mode: str,
    workers: int,
    policy: Optional[SupervisePolicy] = None,
) -> List[ExperimentResult]:
    """Run ``jobs`` — ``(experiment index, run kwargs)`` — preserving order.

    The workhorse behind every ``figN_data``: the jobs are grouped by
    experiment (one task per matrix, the natural shard — its partition
    and trace caches serve all of that matrix's runs) and handed to the
    sweep executor (:mod:`repro.core.supervise`).  ``workers=1`` without
    a policy runs every group in place, so the caller's experiments keep
    their caches; otherwise forked workers inherit the experiments and
    run the groups under the supervisor.  Results come back aligned
    with ``jobs`` and identical either way.

    Under supervision crashed or hung workers are retried per policy
    and, when ``policy.on_failure`` requests it, a failing group is
    rerun serially in the parent and then on ``mode="model"``.  A figure
    sweep cannot tolerate holes — a group surviving neither retries nor
    the ladder raises :class:`~repro.core.supervise.QuarantinedTaskError`.
    """
    by_exp: Dict[int, List[int]] = {}
    for j, (i, _kw) in enumerate(jobs):
        by_exp.setdefault(i, []).append(j)

    def run_group(group: Tuple[int, List[int]], mode: str = mode) -> List[ExperimentResult]:
        i, job_ids = group
        exp = experiments[i][1]
        return [exp.run(mode=mode, **jobs[j][1]) for j in job_ids]

    def identity(group: Tuple[int, List[int]]) -> str:
        mid, exp = experiments[group[0]]
        return f"suite:{mid}:{exp.name}"

    on_failure = policy.on_failure if policy is not None else "quarantine"
    fallbacks: List[Tuple[str, Callable]] = []
    if on_failure in ("serial", "model"):
        fallbacks.append(("serial", run_group))
    if on_failure == "model" and mode != "model":
        fallbacks.append(("model", partial(run_group, mode="model")))
    batches = supervised_parallel_map(
        run_group, list(by_exp.items()), workers, policy,
        identity=identity, fallbacks=fallbacks,
    )
    out: List[ExperimentResult] = [None] * len(jobs)  # type: ignore[list-item]
    for job_ids, batch in zip(by_exp.values(), batches):
        for j, result in zip(job_ids, batch):
            out[j] = result
    return out


def table1_data(experiments: Experiments) -> List[dict]:
    """Table I rows for the given experiments."""
    rows = []
    by_id = {e.mid: e for e in SUITE}
    for mid, exp in experiments:
        a = exp.a
        rows.append(
            {
                "id": mid,
                "name": exp.name,
                "n": a.n_rows,
                "nnz": a.nnz,
                "nnz_per_row": a.nnz_per_row,
                "ws_mbytes": working_set_mbytes(a.n_rows, a.nnz),
                "family": by_id[mid].family,
            }
        )
    return rows


def fig3_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> Dict[int, float]:
    """Suite-average MFLOPS/s of one core at each hop distance."""
    jobs, hops = [], []
    for i, (_mid, exp) in enumerate(experiments):
        for h in FIG3_HOPS:
            jobs.append(
                (
                    i,
                    dict(
                        n_cores=1,
                        mapping=single_core_at_distance(h, exp.topology),
                        iterations=iterations,
                    ),
                )
            )
            hops.append(h)
    perf: Dict[int, List[ExperimentResult]] = {h: [] for h in FIG3_HOPS}
    for h, r in zip(hops, _batch_run(experiments, jobs, mode, workers, policy)):
        perf[h].append(r)
    return {h: average_gflops(rs) * 1000 for h, rs in perf.items()}


def fig5_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    core_counts: Sequence[int] = tuple(FIG5_CORE_COUNTS),
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> Tuple[List[float], List[float]]:
    """(standard, distance-reduction) suite-average MFLOPS/s per count."""
    jobs, slots = [], []
    std: Dict[int, List[ExperimentResult]] = {n: [] for n in core_counts}
    dr: Dict[int, List[ExperimentResult]] = {n: [] for n in core_counts}
    for i, _ in enumerate(experiments):
        for n in core_counts:
            for mapping, dest in (("standard", std), ("distance_reduction", dr)):
                jobs.append((i, dict(n_cores=n, mapping=mapping, iterations=iterations)))
                slots.append(dest[n])
    for dest, r in zip(slots, _batch_run(experiments, jobs, mode, workers, policy)):
        dest.append(r)
    return (
        [average_gflops(std[n]) * 1000 for n in core_counts],
        [average_gflops(dr[n]) * 1000 for n in core_counts],
    )


def fig6_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    core_counts: Sequence[int] = tuple(FIG6_CORE_COUNTS),
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> List[dict]:
    """Per-matrix performance and per-core working set at each count."""
    jobs = [
        (i, dict(n_cores=n, iterations=iterations))
        for i, _ in enumerate(experiments)
        for n in core_counts
    ]
    results = iter(_batch_run(experiments, jobs, mode, workers, policy))
    rows = []
    for mid, exp in experiments:
        row: dict = {"id": mid, "name": exp.name}
        for n in core_counts:
            r = next(results)
            row[f"MFLOPS@{n}"] = r.mflops
            row[f"wsKB/core@{n}"] = r.ws_per_core_bytes / 1024
        rows.append(row)
    return rows


def fig7_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    core_counts: Sequence[int] = tuple(FIG7_CORE_COUNTS),
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> Tuple[Dict[int, List[ExperimentResult]], Dict[int, List[ExperimentResult]]]:
    """Per-count result lists with L2 enabled and disabled."""
    machine = experiments[0][1].machine if experiments else get_machine()
    no_l2 = machine.default_config.with_l2(False)
    with_l2: Dict[int, List[ExperimentResult]] = {n: [] for n in core_counts}
    without_l2: Dict[int, List[ExperimentResult]] = {n: [] for n in core_counts}
    jobs, slots = [], []
    for i, _ in enumerate(experiments):
        for n in core_counts:
            jobs.append((i, dict(n_cores=n, iterations=iterations)))
            slots.append(with_l2[n])
            jobs.append((i, dict(n_cores=n, config=no_l2, iterations=iterations)))
            slots.append(without_l2[n])
    for dest, r in zip(slots, _batch_run(experiments, jobs, mode, workers, policy)):
        dest.append(r)
    return with_l2, without_l2


def fig8_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    core_counts: Sequence[int] = tuple(FIG6_CORE_COUNTS),
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> List[dict]:
    """Per-matrix no-x-miss speedups at each core count."""
    jobs = []
    for i, _ in enumerate(experiments):
        for n in core_counts:
            jobs.append((i, dict(n_cores=n, iterations=iterations)))
            jobs.append((i, dict(n_cores=n, kernel="no_x_miss", iterations=iterations)))
    results = iter(_batch_run(experiments, jobs, mode, workers, policy))
    rows = []
    for mid, exp in experiments:
        row: dict = {"id": mid, "name": exp.name}
        for n in core_counts:
            base = next(results)
            nox = next(results)
            row[f"speedup@{n}"] = base.makespan / nox.makespan
            row[f"MFLOPS@{n}"] = base.mflops
        rows.append(row)
    return rows


def fig9_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    core_counts: Sequence[int] = tuple(FIG9_CORE_COUNTS),
    configs: Optional[Sequence[MachineConfig]] = None,
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> Dict[str, Dict[int, List[ExperimentResult]]]:
    """Per-config, per-count result lists (default: the machine's presets)."""
    if configs is None:
        machine = experiments[0][1].machine if experiments else get_machine()
        configs = tuple(machine.presets.values())
    results: Dict[str, Dict[int, List[ExperimentResult]]] = {
        cfg.name: {n: [] for n in core_counts} for cfg in configs
    }
    jobs, slots = [], []
    for i, _ in enumerate(experiments):
        for cfg in configs:
            for n in core_counts:
                jobs.append((i, dict(n_cores=n, config=cfg, iterations=iterations)))
                slots.append(results[cfg.name][n])
    for dest, r in zip(slots, _batch_run(experiments, jobs, mode, workers, policy)):
        dest.append(r)
    return results


def fig9_summary(
    results: Dict[str, Dict[int, List[ExperimentResult]]],
    core_counts: Sequence[int] = tuple(FIG9_CORE_COUNTS),
) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """(per-config MFLOPS/s series, per-config 48-core MFLOPS/W)."""
    perf = {
        name: [average_gflops(by_n[n]) * 1000 for n in core_counts]
        for name, by_n in results.items()
    }
    eff = {
        name: average_mflops_per_watt(by_n[max(core_counts)])
        for name, by_n in results.items()
    }
    return perf, eff


def fig10_data(
    experiments: Experiments,
    iterations: int = DEFAULT_ITERATIONS,
    mode: str = DEFAULT_MODE,
    workers: int = 1,
    policy: Optional[SupervisePolicy] = None,
) -> List[dict]:
    """The Fig. 10 comparison table with measured entries for the
    experiments' machine (SCC in the paper's original figure)."""
    machine = experiments[0][1].machine if experiments else get_machine()
    label = machine.comparison_label or machine.machine_id
    conf0 = machine.presets["conf0"]
    conf1 = machine.presets.get("conf1", conf0)
    n_cores = machine.topology.n_cores
    jobs = []
    for i, _ in enumerate(experiments):
        jobs.append((i, dict(n_cores=n_cores, config=conf0, iterations=iterations)))
        jobs.append((i, dict(n_cores=n_cores, config=conf1, iterations=iterations)))
    results = _batch_run(experiments, jobs, mode, workers, policy)
    m0, m1 = results[0::2], results[1::2]
    return comparison_table(
        {
            f"{label} conf0": (average_gflops(m0), machine.chip_power(conf0)),
            f"{label} conf1": (average_gflops(m1), machine.chip_power(conf1)),
        },
        source="scc-model" if machine.machine_id == DEFAULT_MACHINE else "machine-model",
    )


def machine_comparison_data(records: Sequence[dict]) -> List[dict]:
    """Cross-architecture Fig-10-style rows from campaign records.

    ``records`` are campaign result dicts (see
    :meth:`repro.core.experiment.ExperimentResult.to_record`); records
    without a ``"machine"`` field belong to the default machine.  Each
    machine contributes one row — suite-average GFLOPS/s, full-chip
    watts at its ``conf0`` preset, and the resulting MFLOPS/W — in
    registry order.
    """
    by_machine: Dict[str, List[dict]] = {}
    for rec in records:
        if "error" in rec:
            continue
        by_machine.setdefault(rec.get("machine", DEFAULT_MACHINE), []).append(rec)
    rows = []
    for machine_id in sorted(by_machine, key=lambda m: (m != DEFAULT_MACHINE, m)):
        machine = get_machine(machine_id)
        recs = by_machine[machine_id]
        gflops = sum(r["mflops"] for r in recs) / len(recs) / 1000.0
        watts = machine.chip_power(machine.default_config)
        rows.append(
            {
                "machine": machine_id,
                "label": machine.comparison_label or machine_id,
                "n_cores": machine.topology.n_cores,
                "runs": len(recs),
                "gflops": gflops,
                "watts": watts,
                "mflops_per_watt": gflops * 1000.0 / watts if watts else 0.0,
            }
        )
    return rows
