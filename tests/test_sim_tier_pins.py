"""Bitwise pins of the ``sim`` and ``exact-trace`` tiers.

The event engine and the RCCE runtime may be restructured for speed,
but never so that one dispatched event moves.  The schedules below were
captured before the engine's heap held plain ``(time, seq, item)``
tuples and queued ``schedule()`` thunks directly; every later engine
must dispatch the same ``(time, seq, name)`` list.  The per-core times
of ``mode="sim"`` must equal ``solve_core_times`` over the batched cache
fold that ``mode="model"`` reads too, exactly; the fold is pinned in
``tests/test_core_trace.py`` and the solver in
``tests/test_core_timing.py``, both in ``float.hex``.  The per-core
times of ``mode="exact-trace"`` are pinned in ``float.hex`` below.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np
import pytest

from repro.analysis import RuntimeChecker
from repro.apps.cg import _cg_ue, make_spd
from repro.core.experiment import DEFAULT_ITERATIONS, SpMVExperiment, _ue_body
from repro.core.mapping import distance_reduction_mapping
from repro.core.timing import solve_core_times
from repro.core.trace import summary_list
from repro.machine.registry import get_machine
from repro.rcce import RCCEDeadlockError, collectives
from repro.rcce.runtime import RCCERuntime
from repro.sparse import partition_rows_balanced
from repro.sparse.fastpath import batch_access_summaries
from repro.sparse.suite import build_matrix

#: the full schedule of the verified barrier/compute/barrier/gather loop
#: on 5 UEs.
SCHEDULE_5_UES = [
    (0.0, 0, 'scheduled'),
    (0.0, 1, 'scheduled'),
    (0.0, 2, 'scheduled'),
    (0.0, 3, 'scheduled'),
    (0.0, 4, 'scheduled'),
    (5.625e-09, 5, 'timeout'),
    (5.625e-09, 6, 'timeout'),
    (5.625e-09, 8, 'scheduled'),
    (5.625e-09, 10, 'scheduled'),
    (1.0625000000000001e-08, 7, 'timeout'),
    (3.125e-08, 9, 'timeout'),
    (3.125e-08, 11, 'scheduled'),
    (3.125e-08, 12, 'scheduled'),
    (4.1874999999999996e-08, 13, 'timeout'),
    (4.1874999999999996e-08, 15, 'scheduled'),
    (6.749999999999999e-08, 16, 'timeout'),
    (6.749999999999999e-08, 18, 'scheduled'),
    (7.312499999999999e-08, 17, 'timeout'),
    (7.312499999999999e-08, 19, 'timeout'),
    (7.312499999999999e-08, 21, 'scheduled'),
    (7.312499999999999e-08, 23, 'scheduled'),
    (0.000100073125, 25, 'timeout'),
    (0.000200073125, 20, 'timeout'),
    (0.00020007875, 26, 'timeout'),
    (0.00030007312500000003, 22, 'timeout'),
    (0.00030007875000000005, 27, 'timeout'),
    (0.00030007875000000005, 28, 'scheduled'),
    (0.00040004187500000004, 14, 'timeout'),
    (0.00040005250000000003, 29, 'timeout'),
    (0.000500073125, 24, 'timeout'),
    (0.000500073125, 30, 'scheduled'),
    (0.00050009875, 31, 'timeout'),
    (0.00050009875, 32, 'scheduled'),
    (0.00050009875, 33, 'scheduled'),
    (0.000500109375, 34, 'timeout'),
    (0.000500109375, 36, 'scheduled'),
    (0.000500135, 37, 'timeout'),
    (0.000500135, 39, 'scheduled'),
    (0.0005001406249999999, 38, 'timeout'),
    (0.0005001406249999999, 40, 'timeout'),
    (0.0005001406249999999, 42, 'scheduled'),
    (0.0005001406249999999, 44, 'scheduled'),
    (0.000500230625, 35, 'timeout'),
    (0.0005002506249999999, 41, 'timeout'),
    (0.0005002506249999999, 43, 'timeout'),
    (0.0005002506249999999, 46, 'scheduled'),
    (0.0005002506249999999, 47, 'scheduled'),
    (0.0005004856249999999, 45, 'timeout'),
    (0.0005004856249999999, 48, 'scheduled'),
    (0.0005004856249999999, 49, 'scheduled'),
]

#: (event count, sha256 of ``repr(trace)``) of the larger schedules.
SCHEDULE_DIGESTS = {
    1: (2, "3fc8188a917c23489767c3f49be0b5d73edcee85b441bca1f339b04b55324390"),
    48: (566, "c7670700d78e46cc4c7fe94a1c10f790e99c7fa89f400e02f6597f7fc6a063d3"),
    "cg": (1386, "58df3f984884c2180e9e7cfe1a40e2a36bf4e7c0370271c9650216dae67ed535"),
}


def _spmv_schedule(n_ues: int) -> list:
    """Dispatched events of ``_ue_body`` (with the verify gather) on n UEs."""
    a = build_matrix(7, 0.02)
    rt = RCCERuntime(distance_reduction_mapping(n_ues), record_trace=True, checks=False)
    durations = [1e-4 * (1 + (i * 7) % 5) for i in range(n_ues)]
    ranges = partition_rows_balanced(a, n_ues).ranges()
    rt.run(_ue_body, durations, ranges, a, np.ones(a.n_cols), "csr", True)
    return rt.sim.trace


def _cg_schedule() -> list:
    """Dispatched events of 20 distributed-CG iterations on 6 UEs."""
    a = make_spd(build_matrix(13, 0.01))
    n_ues = 6
    rt = RCCERuntime(distance_reduction_mapping(n_ues), record_trace=True, checks=False)
    out: list = [None] * n_ues
    b = np.ones(a.n_rows)
    rt.run(_cg_ue, a, b, partition_rows_balanced(a, n_ues), 1e-8, 20, 7.0, out)
    return rt.sim.trace


def _digest(trace: list) -> tuple:
    return len(trace), hashlib.sha256(repr(trace).encode()).hexdigest()


class TestEventSchedulePins:
    def test_five_ue_schedule_is_literal(self):
        assert _spmv_schedule(5) == SCHEDULE_5_UES

    @pytest.mark.parametrize("n_ues", [1, 48])
    def test_spmv_schedule_digest(self, n_ues):
        assert _digest(_spmv_schedule(n_ues)) == SCHEDULE_DIGESTS[n_ues]

    def test_cg_schedule_digest(self):
        assert _digest(_cg_schedule()) == SCHEDULE_DIGESTS["cg"]


def _configs():
    machine = get_machine()
    presets = [machine.presets[name] for name in sorted(machine.presets)]
    return presets + [machine.default_config.with_l2(False)]


@pytest.fixture(scope="module")
def exp():
    return SpMVExperiment(build_matrix(24, 0.02), name="pin")


def _fold_times(exp, n_cores, core_map, config, kernel, iterations):
    """``solve_core_times`` over a fresh batched fold of the traces."""
    summaries = batch_access_summaries(
        exp.batched_traces(n_cores),
        iterations,
        l2_enabled=config.l2_enabled,
        no_x_miss=(kernel == "no_x_miss"),
        l2_bytes=exp.machine.cache.l2_bytes,
    )
    mem = exp.machine.memory_system(config, topology=exp.topology)
    return solve_core_times(summary_list(summaries), core_map, config, mem, exp.timing)


class TestSimTierSolver:
    """``mode="sim"`` per-core times equal ``solve_core_times`` over
    the batched fold, bit for bit: sim and model share one fold."""

    @pytest.mark.parametrize("config", _configs(), ids=lambda c: f"{c.name}-l2{c.l2_enabled:d}")
    @pytest.mark.parametrize("kernel", ["csr", "no_x_miss"])
    def test_equals_scalar_solver_at_every_core_count(self, exp, config, kernel):
        for n in range(1, 49):
            got = exp.run(n_cores=n, config=config, kernel=kernel, iterations=4, mode="sim")
            core_map = exp._core_map("distance_reduction", n)[0]
            assert got.per_core == _fold_times(exp, n, core_map, config, kernel, 4), n

    def test_explicit_core_list(self, exp):
        cores = [47, 0, 23, 12, 5, 30]
        config = _configs()[1]
        got = exp.run(n_cores=len(cores), config=config, mapping=cores, mode="sim")
        assert got.mapping == "explicit"
        assert got.per_core == _fold_times(
            exp, len(cores), cores, config, "csr", DEFAULT_ITERATIONS
        )



#: (config, kernel, n_cores) -> each core's ``float.hex`` (time,
#: line_time, mem_lines) of ``mode="exact-trace"`` at 4 iterations,
#: captured when the tier still solved a per-element summary list.
EXACT_TRACE_PINS = {
    ("conf0", "csr", 1): [
        ("0x1.18ece8cf02179p-11", "0x1.1ca46e6710742p-23", "0x1.0280000000000p+10"),
    ],
    ("conf0", "csr", 5): [
        ("0x1.d8bab383bf1ccp-14", "0x1.1ca46e6710742p-23", "0x1.2400000000000p+8"),
        ("0x1.d236715f4996ep-14", "0x1.1ca46e6710742p-23", "0x1.2a00000000000p+8"),
        ("0x1.cda9172bca39fp-14", "0x1.1ca46e6710742p-23", "0x1.2000000000000p+8"),
        ("0x1.d070b23fcbe32p-14", "0x1.1ca46e6710742p-23", "0x1.2500000000000p+8"),
        ("0x1.cdfc2a1bca3d4p-14", "0x1.1ca46e6710742p-23", "0x1.2500000000000p+8"),
    ],
    ("conf0", "no_x_miss", 1): [
        ("0x1.11969e302db60p-11", "0x1.1ca46e6710742p-23", "0x1.c800000000000p+9"),
    ],
    ("conf0", "no_x_miss", 5): [
        ("0x1.9667015cbfa36p-14", "0x1.1ca46e6710742p-23", "0x1.7400000000000p+7"),
        ("0x1.93f27938bdfd8p-14", "0x1.1ca46e6710742p-23", "0x1.7400000000000p+7"),
        ("0x1.946602f60e6a9p-14", "0x1.1ca46e6710742p-23", "0x1.7200000000000p+7"),
        ("0x1.9582a764757b0p-14", "0x1.1ca46e6710742p-23", "0x1.7600000000000p+7"),
        ("0x1.90d4d663a5b44p-14", "0x1.1ca46e6710742p-23", "0x1.6e00000000000p+7"),
    ],
    ("l2off", "csr", 1): [
        ("0x1.9d721a2618e3ap-11", "0x1.1ca46e6710742p-23", "0x1.cdc0000000000p+11"),
    ],
    ("l2off", "csr", 5): [
        ("0x1.eb76245a8c0e1p-14", "0x1.1ca46e6710742p-23", "0x1.5300000000000p+8"),
        ("0x1.d236715f4996ep-14", "0x1.1ca46e6710742p-23", "0x1.2a00000000000p+8"),
        ("0x1.cda9172bca39fp-14", "0x1.1ca46e6710742p-23", "0x1.2000000000000p+8"),
        ("0x1.d070b23fcbe32p-14", "0x1.1ca46e6710742p-23", "0x1.2500000000000p+8"),
        ("0x1.cdfc2a1bca3d4p-14", "0x1.1ca46e6710742p-23", "0x1.2500000000000p+8"),
    ],
    ("l2off", "no_x_miss", 1): [
        ("0x1.98ff886c7ca1cp-11", "0x1.1ca46e6710742p-23", "0x1.c5c0000000000p+11"),
    ],
    ("l2off", "no_x_miss", 5): [
        ("0x1.9667015cbfa36p-14", "0x1.1ca46e6710742p-23", "0x1.7400000000000p+7"),
        ("0x1.93f27938bdfd8p-14", "0x1.1ca46e6710742p-23", "0x1.7400000000000p+7"),
        ("0x1.946602f60e6a9p-14", "0x1.1ca46e6710742p-23", "0x1.7200000000000p+7"),
        ("0x1.9582a764757b0p-14", "0x1.1ca46e6710742p-23", "0x1.7600000000000p+7"),
        ("0x1.90d4d663a5b44p-14", "0x1.1ca46e6710742p-23", "0x1.6e00000000000p+7"),
    ],
}


class TestExactTracePins:
    """``mode="exact-trace"`` per-core times, bit for bit."""

    @pytest.mark.parametrize("case", sorted(EXACT_TRACE_PINS), ids=str)
    def test_per_core_hex(self, exp, case):
        config_name, kernel, n = case
        config = _configs()[0] if config_name == "conf0" else _configs()[-1]
        got = exp.run(n_cores=n, config=config, kernel=kernel, iterations=4, mode="exact-trace")
        hexed = [(c.time.hex(), c.line_time.hex(), c.mem_lines.hex()) for c in got.per_core]
        assert hexed == EXACT_TRACE_PINS[case]

# -- the flat barrier ----------------------------------------------------------


def _reference_barrier(comm):
    """The barrier as the nested collectives it flattens."""
    token = yield from collectives.reduce(comm, 0, operator.add, root=0)
    yield from collectives.bcast(comm, token, root=0)


def _barrier_loop(comm, barrier):
    """Skewed compute between three barriers, as the SpMV loop does."""
    for step in range(3):
        yield from comm.compute(1e-6 * (1 + (comm.ue * 5 + step) % 7))
        yield from barrier(comm)
    return comm.wtime()


def _barrier_schedule(n_ues: int, barrier) -> tuple:
    rt = RCCERuntime(distance_reduction_mapping(n_ues), record_trace=True, checks=False)
    results = rt.run(_barrier_loop, barrier)
    return rt.sim.trace, [(r.value, r.finish_time) for r in results]


def _mixed_program(comm):
    """allreduce, a payload gather, user-tag send/recv and barriers."""
    n, ue = comm.num_ues, comm.ue
    yield from comm.compute(1e-6 * (1 + ue % 3))
    yield from comm.allreduce(float(ue))
    yield from comm.barrier()
    yield from comm.gather(np.arange(4.0 * (ue + 1)), root=n - 1)
    if ue % 2 == 0 and ue + 1 < n:
        yield from comm.send(np.full(3, ue), ue + 1, tag=5)
        yield from comm.recv(ue + 1, tag=6)
    elif ue % 2 == 1:
        yield from comm.recv(ue - 1, tag=5)
        yield from comm.send((ue, [1.0, 2.0]), ue - 1, tag=6)
    yield from comm.barrier()


def _mixed_schedule(n_ues: int) -> list:
    rt = RCCERuntime(distance_reduction_mapping(n_ues), record_trace=True, checks=False)
    rt.run(_mixed_program)
    return rt.sim.trace


#: (event count, sha256 of ``repr(trace)``) of ``_mixed_program``,
#: captured with ``barrier`` still the nested reduce + bcast.
MIXED_DIGESTS = {
    7: (110, "8bd335337206809761fe46878df209c6381ca11e9b1064f9307771f2c3d26fa9"),
    48: (850, "8606a3f0283964a8bb34a5842c55765df842bc6f14774466b90cebc39d431e13"),
}


class TestFlatBarrierPins:
    """``collectives.barrier`` is one generator; its messages did not move."""

    @pytest.mark.parametrize("n_ues", range(1, 49))
    def test_schedule_equals_reduce_then_bcast(self, n_ues):
        flat = _barrier_schedule(n_ues, lambda comm: comm.barrier())
        assert flat == _barrier_schedule(n_ues, _reference_barrier)

    @pytest.mark.parametrize("n_ues", sorted(MIXED_DIGESTS))
    def test_mixed_program_digest(self, n_ues):
        assert _digest(_mixed_schedule(n_ues)) == MIXED_DIGESTS[n_ues]

    def test_checker_sees_one_entry_per_barrier(self):
        rt = RCCERuntime(list(range(6)), checker=RuntimeChecker())
        rt.run(_barrier_loop, lambda comm: comm.barrier())
        assert rt.checker.findings == []
        for ue in range(6):
            assert [e.kind for e in rt.checker.collective_log[ue]] == ["barrier"] * 3

    def test_barrier_against_bcast_is_a_kind_mismatch(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.barrier()
            else:
                yield from comm.bcast(1.0)

        rt = RCCERuntime(list(range(4)), checker=RuntimeChecker())
        with pytest.raises(RCCEDeadlockError):
            rt.run(fn)
        mismatch = [f for f in rt.checker.findings if f.rule == "RT804"]
        assert len(mismatch) == 3
        assert all("'bcast'" in f.message and "'barrier'" in f.message for f in mismatch)

    def test_size_mismatch_after_a_barrier(self):
        """A barrier takes one collective position, so the allreduce after it
        is compared at position 1."""

        def fn(comm):
            yield from comm.barrier()
            total = yield from comm.allreduce([1.0] * (2 + (comm.ue == 1)))
            return total

        rt = RCCERuntime(list(range(3)), checker=RuntimeChecker())
        rt.run(fn)
        (finding,) = [f for f in rt.checker.findings if f.rule == "RT805"]
        assert "position 1" in finding.message
