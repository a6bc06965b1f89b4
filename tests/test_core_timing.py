"""Tests for the contention-aware core-time solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_core_times
from repro.core.mapping import get_mapping
from repro.machine import TableMemorySystem, get_machine
from repro.scc import CONF0, CONF1, AccessSummary, SCCTopology
from repro.scc.params import DEFAULT_TIMING
from repro.sparse.fastpath import equilibrium_line_times, memory_latencies


def summaries(n, nnz=100_000, mem_lines=40_000.0):
    return [
        AccessSummary(nnz=nnz, rows=nnz // 10, iterations=1, l2_hits=0.0, l2_misses=mem_lines)
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def mem():
    return get_machine("scc-48").memory_system(CONF0)


def eq1_latencies(mem, config, cores):
    """Uncontended Eq. 1 latency of each core (seconds)."""
    return memory_latencies(
        np.array([mem.topology.hops_to_mc(c) for c in cores], dtype=np.float64),
        np.array([config.core_mhz_of_core(c) for c in cores], dtype=np.float64),
        config.mesh_mhz,
        mem.mem_mhz,
        mem.lat_core_cycles,
        mem.lat_mesh_cycles_per_hop,
        mem.lat_mem_cycles,
    ).tolist()


def one_controller(base, lines, lat, capacity):
    """Per-core line times of one controller's members."""
    n = len(base)
    return equilibrium_line_times(
        np.array(base, dtype=np.float64),
        np.array(lines, dtype=np.float64),
        np.array(lat, dtype=np.float64),
        np.zeros(n, dtype=np.int64),
        [capacity],
    )


class TestControllerEquilibrium:
    def test_unsaturated_returns_latency(self):
        [t] = one_controller([1.0], [100.0], [1e-7], capacity=1e9)
        assert t == 1e-7

    def test_saturated_meets_capacity(self):
        # 4 identical cores, each wanting ~1e7 lines/s against 1e6 cap.
        base, lines, lat = [0.0001] * 4, [10_000.0] * 4, [1e-7] * 4
        cap = 1e6
        times = one_controller(base, lines, lat, cap)
        demand = sum(m / (b + m * t) for b, m, t in zip(base, lines, times))
        assert demand == pytest.approx(cap, rel=1e-3)
        assert all(t > 1e-7 for t in times)

    def test_zero_demand_cores_ignored(self):
        times = one_controller([1.0, 1.0], [0.0, 0.0], [1e-7, 1e-7], 10.0)
        assert times.tolist() == [1e-7, 1e-7]

    def test_each_core_floors_at_its_latency(self):
        # Saturated group: the far core's latency exceeds T*.
        times = one_controller([0.0] * 3, [1e4] * 3, [1e-7, 1e-7, 1e-3], 1e6)
        assert times[0] == times[1] > 1e-7
        assert times[2] == 1e-3


class TestSolveCoreTimes:
    def test_length_mismatch_rejected(self, mem):
        with pytest.raises(ValueError):
            solve_core_times(summaries(2), [0], CONF0, mem)

    def test_clock_mismatch_rejected(self):
        mem1066 = get_machine("scc-48").memory_system(CONF1)
        with pytest.raises(ValueError):
            solve_core_times(summaries(1), [0], CONF0, mem1066)

    def test_mixed_iteration_counts_rejected(self, mem):
        s = summaries(2)
        s[1] = AccessSummary(nnz=100_000, rows=10_000, iterations=4, l2_hits=0.0, l2_misses=40_000.0)
        with pytest.raises(ValueError, match="iterations"):
            solve_core_times(s, [0, 1], CONF0, mem)

    def test_single_core_pays_latency(self, mem):
        [t] = solve_core_times(summaries(1), [0], CONF0, mem)
        [lat] = eq1_latencies(mem, CONF0, [0])
        assert t.line_time == pytest.approx(lat)
        assert t.time > 0

    def test_distance_penalty(self, mem):
        topo = SCCTopology()
        near = topo.cores_at_distance(0)[0]
        far = topo.cores_at_distance(3)[0]
        [tn] = solve_core_times(summaries(1), [near], CONF0, mem)
        [tf] = solve_core_times(summaries(1), [far], CONF0, mem)
        assert tf.time > tn.time

    def test_contention_slows_colocated_cores(self, mem):
        topo = SCCTopology()
        quad0 = list(topo.cores_of_quadrant(0))
        spread = [topo.cores_of_quadrant(q)[0] for q in range(4)] + [
            topo.cores_of_quadrant(q)[1] for q in range(4)
        ]
        heavy = summaries(8, mem_lines=500_000.0)
        t_packed = max(t.time for t in solve_core_times(heavy, quad0[:8], CONF0, mem))
        t_spread = max(t.time for t in solve_core_times(heavy, spread, CONF0, mem))
        assert t_packed > t_spread

    def test_saturated_mc_throughput_capped(self, mem):
        """12 heavy cores on one quadrant can't beat the MC bandwidth."""
        topo = SCCTopology()
        cores = list(topo.cores_of_quadrant(0))
        heavy = summaries(12, mem_lines=1_000_000.0)
        times = solve_core_times(heavy, cores, CONF0, mem)
        total_lines = sum(t.mem_lines for t in times)
        makespan = max(t.time for t in times)
        capacity = mem.controllers[0].bandwidth / 32
        assert total_lines / makespan <= capacity * 1.01

    def test_compute_only_ignores_memory(self, mem):
        s = [AccessSummary(nnz=10_000, rows=100, iterations=1, l2_hits=0, l2_misses=0)]
        [t] = solve_core_times(s, [0], CONF0, mem)
        assert t.mem_stall_fraction == 0.0

    def test_conf1_faster(self):
        scc = get_machine("scc-48")
        mem0 = scc.memory_system(CONF0)
        mem1 = scc.memory_system(CONF1)
        s = summaries(1)
        [t0] = solve_core_times(s, [0], CONF0, mem0)
        [t1] = solve_core_times(s, [0], CONF1, mem1)
        assert t1.time < t0.time

    def test_deterministic(self, mem):
        s = summaries(12, mem_lines=300_000.0)
        cores = list(range(12))
        a = solve_core_times(s, cores, CONF0, mem)
        b = solve_core_times(s, cores, CONF0, mem)
        assert [x.time for x in a] == [y.time for y in b]

    def test_mem_stall_fraction_bounded(self, mem):
        s = summaries(4, mem_lines=800_000.0)
        for t in solve_core_times(s, [0, 1, 2, 3], CONF0, mem):
            assert 0.0 <= t.mem_stall_fraction <= 1.0


def _varied(n, iterations=1, heavy=1.0, as_int=False):
    """``n`` deterministic, deliberately unequal per-core summaries."""
    out = []
    for i in range(n):
        nnz = 20_000 + (i * 7_919) % 50_000
        hits = (i * 104_729) % 30_000
        misses = heavy * (50_000 + (i * 15_485_863) % 400_000)
        out.append(
            AccessSummary(
                nnz=nnz,
                rows=nnz // (5 + i % 7),
                iterations=iterations,
                l2_hits=hits if as_int else hits + 0.25,
                l2_misses=int(misses) if as_int else misses * 1.5,
            )
        )
    return out


def _starved(machine_id, n_cores, divisor=50.0):
    """A zoo machine's layout and latencies behind starved controllers.

    At their presets neither zoo machine ever saturates a controller:
    with one line in flight per core, a core's demand tops out at
    ``1/latency`` — 1.5% (Xeon Phi) or 4.5% (FT-2000+) of one
    controller's line rate — so their pins divide the bandwidth to make
    the bisection run on those machines' controller groups.
    """
    machine = get_machine(machine_id)
    config = machine.default_config
    real = machine.memory_system(config)
    mem = TableMemorySystem(
        real.topology,
        mem_mhz=config.mem_mhz,
        line_bytes=real.line_bytes,
        bandwidth_per_mc=real.controllers[0].bandwidth / divisor,
        calibration_mem_mhz=config.mem_mhz,
        lat_core_cycles=real.lat_core_cycles,
        lat_mesh_cycles_per_hop=real.lat_mesh_cycles_per_hop,
        lat_mem_cycles=real.lat_mem_cycles,
    )
    return _varied(n_cores), list(range(n_cores)), config, mem, machine.timing


def pin_cases():
    """Case name -> ``solve_core_times`` arguments (summaries, cores, config, mem, timing)."""
    scc = get_machine("scc-48")
    topo = scc.topology

    def on_scc(s, cores, config):
        return s, list(cores), config, scc.memory_system(config), DEFAULT_TIMING

    quad0 = list(topo.cores_of_quadrant(0))
    zero_line = _varied(6, heavy=4.0)
    zero_line[2] = AccessSummary(nnz=30_000, rows=3_000, iterations=1, l2_hits=10.0, l2_misses=0.0)
    return {
        "scc-1core-unsaturated": on_scc(summaries(1), [0], CONF0),
        "scc-quadrant-saturated": on_scc(_varied(12, heavy=4.0), quad0, CONF0),
        "scc-48-standard": on_scc(_varied(48), get_mapping("standard")(48, topo), CONF0),
        "scc-48-distance_reduction": on_scc(
            _varied(48), get_mapping("distance_reduction")(48, topo), CONF1
        ),
        "scc-zero-line-core": on_scc(zero_line, quad0[:6], CONF0),
        "scc-int-counts": on_scc(_varied(8, iterations=4, as_int=True), range(8), CONF0),
        "xeonphi-61-saturated": _starved("xeonphi-61", 16),
        "ft2000plus-64-saturated": _starved("ft2000plus-64", 16),
    }


#: Cases whose controllers must actually saturate (some core's line time
#: above its own latency), so the bisection is what the pin covers.
SATURATED = {
    "scc-quadrant-saturated",
    "scc-48-standard",
    "scc-48-distance_reduction",
    "scc-zero-line-core",
    "xeonphi-61-saturated",
    "ft2000plus-64-saturated",
}

#: Per-core ``(time, line_time)`` as ``float.hex``, recorded from the
#: per-core scalar solver that preceded the batched one.
PINS = {
    "ft2000plus-64-saturated": (
        ("0x1.331452e61c505p-3", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.01d6db96bdd6cp+0", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.5496214d065e8p-1", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.4a91bcea0caf7p-2", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.2e18a9360216bp+0", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.ace3ff78d8fd1p-1", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.fb988ce8c531bp-2", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.39db98a86deefp-3", "0x1.0c42cb70b2bc8p-19"),
        ("0x1.02a8caebe920ap+0", "0x1.0c3b9a9fae320p-19"),
        ("0x1.560903a524ad9p-1", "0x1.0c3b9a9fae320p-19"),
        ("0x1.4dec0c05905afp-2", "0x1.0c3b9a9fae320p-19"),
        ("0x1.2ece8779734eep+0", "0x1.0c3b9a9fae320p-19"),
        ("0x1.ae8a0599df16ap-1", "0x1.0c3b9a9fae320p-19"),
        ("0x1.fe6f79ead819fp-2", "0x1.0c3b9a9fae320p-19"),
        ("0x1.409a4c8977d3dp-3", "0x1.0c3b9a9fae320p-19"),
        ("0x1.0366d3c557435p+0", "0x1.0c3b9a9fae320p-19"),
    ),
    "scc-1core-unsaturated": (
        ("0x1.18d3c97a5502cp-7", "0x1.1ca46e6710742p-23"),
    ),
    "scc-48-distance_reduction": (
        ("0x1.75d2615b0866cp-6", "0x1.3fe2c45780e84p-22"),
        ("0x1.35739d147a174p-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.996979ca41944p-4", "0x1.3db4d61dd57bap-22"),
        ("0x1.920ed0c692e1ap-5", "0x1.3db4d61dd57bap-22"),
        ("0x1.6c5ea6a5d2297p-3", "0x1.404e9a2f04ff6p-22"),
        ("0x1.0353003fa3ce5p-3", "0x1.404e9a2f04ff6p-22"),
        ("0x1.3750a2b1771f1p-4", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.85025c2bf6577p-6", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.375486ef60571p-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.9cda5d62a9042p-4", "0x1.3fe2c45780e84p-22"),
        ("0x1.9983874ad1e2ep-5", "0x1.3db4d61dd57bap-22"),
        ("0x1.69c47d2a79bdap-3", "0x1.3db4d61dd57bap-22"),
        ("0x1.04da6b4568760p-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.33765acfb621cp-4", "0x1.3fe2c45780e84p-22"),
        ("0x1.91628d719adb2p-6", "0x1.3db4d61dd57bap-22"),
        ("0x1.3590c9cfbda5ep-3", "0x1.3db4d61dd57bap-22"),
        ("0x1.a123f0ef8c577p-4", "0x1.404e9a2f04ff6p-22"),
        ("0x1.9e16f85fed083p-5", "0x1.404e9a2f04ff6p-22"),
        ("0x1.6e32e118432d4p-3", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.030783a70fc82p-3", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.3797d88184868p-4", "0x1.404e9a2f04ff6p-22"),
        ("0x1.97499f2b9f582p-6", "0x1.404e9a2f04ff6p-22"),
        ("0x1.39a3e20292e85p-3", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.a16508230fb94p-4", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.a50b063021044p-5", "0x1.3fe2c45780e84p-22"),
        ("0x1.6e6d4715bce1fp-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.030f6418902ebp-3", "0x1.3db4d61dd57bap-22"),
        ("0x1.35bf2c4554801p-4", "0x1.3db4d61dd57bap-22"),
        ("0x1.a5db2c3d69e88p-6", "0x1.3fe2c45780e84p-22"),
        ("0x1.39e4da9b1d083p-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.a2352d037b765p-4", "0x1.3db4d61dd57bap-22"),
        ("0x1.a397f9de882a1p-5", "0x1.3db4d61dd57bap-22"),
        ("0x1.6e86d6519483fp-3", "0x1.404e9a2f04ff6p-22"),
        ("0x1.057e117229511p-3", "0x1.404e9a2f04ff6p-22"),
        ("0x1.3ba9799ce7df3p-4", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.a8c3bb701bda4p-6", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.3c2efe55aba4ap-3", "0x1.404e9a2f04ff6p-22"),
        ("0x1.a63f6237d2c66p-4", "0x1.404e9a2f04ff6p-22"),
        ("0x1.a4e49c9dc8d05p-5", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.6e7bd6a5a4e40p-3", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.070435f0cc916p-3", "0x1.3fe2c45780e84p-22"),
        ("0x1.3c3a9ce1ddbfbp-4", "0x1.3fe2c45780e84p-22"),
        ("0x1.b4ec715374110p-6", "0x1.3db4d61dd57bap-22"),
        ("0x1.39fb61c216353p-3", "0x1.3db4d61dd57bap-22"),
        ("0x1.a9ff7c5f9dcb5p-4", "0x1.404e9a2f04ff6p-22"),
        ("0x1.a6a9541fbdeaep-5", "0x1.404e9a2f04ff6p-22"),
        ("0x1.705a0f624c071p-3", "0x1.3ffa359c9d9f6p-22"),
        ("0x1.076bbd3f5570dp-3", "0x1.3ffa359c9d9f6p-22"),
    ),
    "scc-48-standard": (
        ("0x1.f1a04149b6142p-6", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.9b2f6cb3a9b34p-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.122699392a32ap-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.0d9bf6d7bc42dp-4", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.e3c420c712e4dp-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.5869b19ed38d8p-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.9e875c227d0a2p-4", "0x1.a8786ceb0d974p-22"),
        ("0x1.035918ed796a8p-5", "0x1.a8786ceb0d974p-22"),
        ("0x1.9da386617ebf1p-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.125c285390591p-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.12c3a705fbd56p-4", "0x1.a8786ceb0d974p-22"),
        ("0x1.e3dd18cbacb5dp-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.5b0c40909f878p-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.98be283c202f2p-4", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.0e2078b888267p-5", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.9e305525030a1p-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.1523f41ba80bfp-3", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.13914db2e931ep-4", "0x1.a8adcbbfc0ea4p-22"),
        ("0x1.e68056192b4f6p-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.57dde2598ff77p-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.9dced85b06d43p-4", "0x1.a8786ceb0d974p-22"),
        ("0x1.0f6f65f75d063p-5", "0x1.a8786ceb0d974p-22"),
        ("0x1.a0a41d705c7cep-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.155931d392996p-3", "0x1.a8786ceb0d974p-22"),
        ("0x1.19616f1e8d98ap-4", "0x1.a98347128e36ap-22"),
        ("0x1.e804246f764c5p-3", "0x1.a98347128e36ap-22"),
        ("0x1.5b57eaa597044p-3", "0x1.a98347128e36ap-22"),
        ("0x1.9f76dde0d6cc6p-4", "0x1.a98347128e36ap-22"),
        ("0x1.1abc5f58c2756p-5", "0x1.a98347128e36ap-22"),
        ("0x1.a200ebc38a541p-3", "0x1.a98347128e36ap-22"),
        ("0x1.17a89295f78aep-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.190f38e3782fdp-4", "0x1.a7f2ffd74d478p-22"),
        ("0x1.e5816360ff8f1p-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.5a6846b9de9c7p-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.a3380af703583p-4", "0x1.a7f2ffd74d478p-22"),
        ("0x1.1b3175a71cd29p-5", "0x1.a7f2ffd74d478p-22"),
        ("0x1.a4a919ade8a91p-3", "0x1.a98347128e36ap-22"),
        ("0x1.19037917f54d3p-3", "0x1.a98347128e36ap-22"),
        ("0x1.18875451b2973p-4", "0x1.a98347128e36ap-22"),
        ("0x1.e79e94dcf3611p-3", "0x1.a98347128e36ap-22"),
        ("0x1.5e502039a86cbp-3", "0x1.a98347128e36ap-22"),
        ("0x1.a5648f008cb40p-4", "0x1.a98347128e36ap-22"),
        ("0x1.25d760f28e827p-5", "0x1.a7f2ffd74d478p-22"),
        ("0x1.a37b50c77ceb8p-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.1aa4cd1942f50p-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.183059515f382p-4", "0x1.a7f2ffd74d478p-22"),
        ("0x1.e878e125d0fcap-3", "0x1.a7f2ffd74d478p-22"),
        ("0x1.5d5e19eb5109cp-3", "0x1.a7f2ffd74d478p-22"),
    ),
    "scc-int-counts": (
        ("0x1.724be8b70d505p-7", "0x1.6b843ebebf934p-23"),
        ("0x1.f5dc7517596b8p-5", "0x1.6b843ebebf934p-23"),
        ("0x1.644e11b5963afp-5", "0x1.6b843ebebf934p-23"),
        ("0x1.92dab34d36b22p-6", "0x1.6b843ebebf934p-23"),
        ("0x1.313170ce274d4p-4", "0x1.6b843ebebf934p-23"),
        ("0x1.c76513de1f566p-5", "0x1.6b843ebebf934p-23"),
        ("0x1.1ef45af7c96eep-5", "0x1.47978c2b718c9p-23"),
        ("0x1.85518a8e393adp-7", "0x1.47978c2b718c9p-23"),
    ),
    "scc-quadrant-saturated": (
        ("0x1.f0f6aa7a2a7a2p-4", "0x1.afb70c4a651e6p-22"),
        ("0x1.9f9ddb2e43f71p-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.130d38e4490d8p-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.0bd1480b35ff7p-2", "0x1.afb70c4a651e6p-22"),
        ("0x1.e7665a18ca1c3p-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.5a4150e35f3cfp-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.9b5f6189bf42dp-2", "0x1.afb70c4a651e6p-22"),
        ("0x1.fe0c6ff879296p-4", "0x1.afb70c4a651e6p-22"),
        ("0x1.a13ff4579a67ep-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.141b5403c65ccp-1", "0x1.afb70c4a651e6p-22"),
        ("0x1.0f13ebfe929f2p-2", "0x1.afb70c4a651e6p-22"),
        ("0x1.e873dda0782bep-1", "0x1.afb70c4a651e6p-22"),
    ),
    "scc-zero-line-core": (
        ("0x1.9f61357a3b5b6p-5", "0x1.65e33e4fd5cffp-23"),
        ("0x1.59739db89561fp-2", "0x1.65e33e4fd5cffp-23"),
        ("0x1.01d0e010739dcp-10", "0x1.65e33e4fd5cffp-23"),
        ("0x1.c0d113c85fcb6p-4", "0x1.65e33e4fd5cffp-23"),
        ("0x1.95b91c63c6d2cp-2", "0x1.65e33e4fd5cffp-23"),
        ("0x1.208494be5b53fp-2", "0x1.65e33e4fd5cffp-23"),
    ),
    "xeonphi-61-saturated": (
        ("0x1.0284524830f52p-4", "0x1.c336378fe051ap-21"),
        ("0x1.b2032c8eb8eeep-2", "0x1.c336378fe051ap-21"),
        ("0x1.1f060c31fef11p-2", "0x1.c336378fe051ap-21"),
        ("0x1.16ba5723a081ap-3", "0x1.c336378fe051ap-21"),
        ("0x1.fcbeb81798a6fp-2", "0x1.c336378fe051ap-21"),
        ("0x1.f93dd900cb3bap-2", "0x1.3bcd7039af9c4p-20"),
        ("0x1.2b5814acd0aa1p-2", "0x1.3bcd7039af9c4p-20"),
        ("0x1.7284e5da16cebp-4", "0x1.3bcd7039af9c4p-20"),
        ("0x1.30c63366eb69ap-1", "0x1.3bcd7039af9c4p-20"),
        ("0x1.92fb46e035539p-2", "0x1.3bcd7039af9c4p-20"),
        ("0x1.8a2b3c00b734fp-3", "0x1.3bcd7039af9c4p-20"),
        ("0x1.64aa68704b1e6p-1", "0x1.3bcd7039af9c4p-20"),
        ("0x1.218e14a5864e7p-2", "0x1.67f8ac0090e50p-21"),
        ("0x1.570c077cd7ba4p-3", "0x1.67f8ac0090e50p-21"),
        ("0x1.b2cb82e2f3d5dp-5", "0x1.67f8ac0090e50p-21"),
        ("0x1.5c7036bf4e111p-2", "0x1.67f8ac0090e50p-21"),
    ),
}


class TestSolverPins:
    @pytest.mark.parametrize("case", sorted(PINS))
    def test_times_bitwise(self, case):
        timings = solve_core_times(*pin_cases()[case])
        got = tuple((t.time.hex(), t.line_time.hex()) for t in timings)
        assert got == PINS[case]

    @pytest.mark.parametrize("case", sorted(SATURATED))
    def test_case_saturates(self, case):
        s, cores, config, mem, timing = pin_cases()[case]
        timings = solve_core_times(s, cores, config, mem, timing)
        lat = eq1_latencies(mem, config, cores)
        assert any(t.line_time > la for t, la in zip(timings, lat))
