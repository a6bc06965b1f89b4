"""The machine zoo: registry, SCC drift-freedom, Phi/FT calibration.

The ``repro.machine`` package puts every modeled many-core target
behind one :class:`~repro.machine.base.MachineModel` interface.  These
tests pin the three contracts that make the zoo trustworthy:

* the **registry** is a stable public API (ids, suggestions on typos,
  deprecated aliases still importable with a warning);
* the **SCC** re-expressed as a machine is bitwise identical to the
  pre-zoo code path (the golden fixture tests cover campaign bytes;
  here we cover the experiment/figure layer);
* the **Xeon Phi** and **FT-2000+** models land in the bands their
  source papers report and respond to ablations in the right
  direction (bandwidth-bound scaling, panel locality).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core import Campaign, SpMVExperiment
from repro.core.figures import machine_comparison_data, suite_experiments
from repro.machine import (
    DEFAULT_MACHINE,
    MACHINE_REGISTRY,
    CacheGeometry,
    FT2000PlusMachine,
    MachineModel,
    SCCMachine,
    XeonPhiMachine,
    get_machine,
    list_machines,
)
from repro.scc.chip import CONF0, PRESETS
from repro.scc.topology import SCCTopology
from repro.sparse import build_matrix


class TestRegistry:
    def test_all_three_machines_registered(self):
        assert set(MACHINE_REGISTRY) == {"scc-48", "xeonphi-61", "ft2000plus-64"}
        assert list_machines()[0] == DEFAULT_MACHINE == "scc-48"

    def test_get_machine_returns_singletons(self):
        assert get_machine("xeonphi-61") is get_machine("xeonphi-61")
        assert isinstance(get_machine("ft2000plus-64"), FT2000PlusMachine)
        assert isinstance(get_machine(), SCCMachine)

    def test_instances_pass_through(self):
        m = get_machine("xeonphi-61")
        assert get_machine(m) is m

    def test_unknown_machine_suggests_close_ids(self):
        with pytest.raises(KeyError) as exc:
            get_machine("xeonphi")
        msg = str(exc.value)
        assert "registered machines" in msg
        assert "xeonphi-61" in msg
        with pytest.raises(KeyError):
            get_machine("not-a-machine-at-all")

    def test_modes_error_names_machine_and_valid_modes(self):
        exp = SpMVExperiment(build_matrix(24, scale=0.02), machine="xeonphi-61")
        with pytest.raises(ValueError, match=r"mode must be one of .*xeonphi-61"):
            exp.run(n_cores=4, mode="bogus")
        with pytest.raises(ValueError, match="supports modes"):
            exp.run(n_cores=4, mode="sim")

    def test_machine_params_are_provenanced(self):
        for machine_id in list_machines():
            p = get_machine(machine_id).params()
            assert p.machine_id == machine_id
            assert p.n_cores >= 48
            assert p.source
            assert isinstance(p.cache, CacheGeometry)


class TestDeprecatedAliases:
    def test_unknown_attr_still_raises(self):
        """The expired SCC aliases are gone like any unknown name."""
        import repro.core.experiment as experiment

        for name in ("NoSuchThing", "SCCConfig", "CONF0"):
            with pytest.raises(AttributeError):
                getattr(experiment, name)


class TestSCCDriftFree:
    """The SCC behind the MachineModel interface is the old SCC."""

    def test_default_machine_matches_explicit_scc(self):
        a = build_matrix(24, scale=0.05)
        implicit = SpMVExperiment(a).run(n_cores=4, mode="model", iterations=2)
        explicit = SpMVExperiment(a, machine="scc-48").run(
            n_cores=4, mode="model", iterations=2
        )
        assert implicit.to_record() == explicit.to_record()
        assert "machine" not in implicit.to_record()

    def test_scc_machine_delegates_to_scc_modules(self):
        scc = get_machine("scc-48")
        assert scc.presets is PRESETS
        assert scc.default_config is CONF0
        assert isinstance(scc.topology, SCCTopology)
        assert scc.supported_modes == ("sim", "model", "exact-trace", "predict")
        assert scc.cache_key() == "scc-48"

    def test_sim_and_model_agree_on_scc_only(self):
        a = build_matrix(24, scale=0.02)
        exp = SpMVExperiment(a, machine="scc-48")
        sim = exp.run(n_cores=2, mode="sim", iterations=1)
        model = exp.run(n_cores=2, mode="model", iterations=1)
        assert model.makespan == pytest.approx(sim.makespan, rel=1e-9)


class TestXeonPhi:
    """Calibration vs Saule, Kaya & Catalyurek (arXiv:1302.1078)."""

    def test_aggregate_bandwidth_is_152_gbs(self):
        phi = get_machine("xeonphi-61")
        bw = phi.aggregate_bandwidth(phi.default_config)
        assert bw == pytest.approx(8 * 19.0e9)

    def test_full_chip_mflops_in_bandwidth_bound_band(self):
        """The paper measures roughly 7-22 GFLOPS/s for CSR SpMV across
        matrices on 60 cores; suite-average full-chip throughput of the
        model must land in that bandwidth-bound band."""
        exps = suite_experiments(scale=0.25, ids=(7, 24, 30), machine="xeonphi-61")
        mflops = [
            exp.run(n_cores=61, mode="model", iterations=4).mflops
            for _mid, exp in exps
        ]
        avg = sum(mflops) / len(mflops)
        assert 4_000 <= avg <= 24_000, mflops

    def test_scaling_sensitivity_saturates(self):
        """Adding cores past the bandwidth knee must sublinearly help:
        61 cores gains over 32 but less than the 1.9x core ratio
        (ring + GDDR5 saturation)."""
        a = build_matrix(7, scale=0.25)
        exp = SpMVExperiment(a, machine="xeonphi-61")
        at32 = exp.run(n_cores=32, mode="model", iterations=2).mflops
        at61 = exp.run(n_cores=61, mode="model", iterations=2).mflops
        assert at61 > at32
        assert at61 < (61 / 32) * at32

    def test_memory_clock_ablation_moves_throughput(self):
        """The model is bandwidth-bound at full chip: halving the GDDR5
        clock must cut throughput materially; raising core clock at
        fixed memory must not help proportionally."""
        from repro.machine.base import UniformMachineConfig

        a = build_matrix(7, scale=0.25)
        exp = SpMVExperiment(a, machine="xeonphi-61")
        base = exp.run(n_cores=61, mode="model", iterations=2).mflops
        conf = exp.machine.default_config
        half_mem = UniformMachineConfig(
            "halfmem", conf.core_mhz, conf.mesh_mhz, conf.mem_mhz / 2,
            power_watts=conf.power_watts,
        )
        halved = exp.run(n_cores=61, config=half_mem, mode="model", iterations=2).mflops
        assert halved < 0.85 * base
        fast_core = UniformMachineConfig(
            "fastcore", conf.core_mhz * 2, conf.mesh_mhz, conf.mem_mhz,
            power_watts=conf.power_watts,
        )
        fast = exp.run(n_cores=61, config=fast_core, mode="model", iterations=2).mflops
        assert fast < 1.5 * base


class TestFT2000Plus:
    """Calibration vs the FT-2000+ SpMV study (arXiv:1911.08779)."""

    def test_panel_topology_shape(self):
        ft = get_machine("ft2000plus-64")
        topo = ft.topology
        assert topo.n_cores == 64
        assert topo.n_controllers == 8
        assert topo.distance_histogram() == {0: 16, 1: 16, 2: 16, 3: 16}
        assert len(topo.cores_of_controller(0)) == 8

    def test_panel_locality_ratio_in_band(self):
        """Remote-panel vs local-panel access latency ratio: the paper
        reports NUMA penalties in the 1.3-2.2x range."""
        ft = get_machine("ft2000plus-64")
        ratio = ft.panel_locality_ratio()
        assert 1.3 <= ratio <= 2.2, ratio

    def test_panel_ablation_degrades_locality(self):
        """Doubling the inter-panel hop cost must widen the locality
        ratio — the ablation direction the source paper reports."""
        from repro.machine.ft2000plus import FT2000PlusMachine as FT

        base = FT().panel_locality_ratio()
        stretched = FT(inter_panel_hop_cost=4).panel_locality_ratio()
        assert stretched > base

    def test_full_chip_beats_single_panel(self):
        a = build_matrix(30, scale=0.25)
        exp = SpMVExperiment(a, machine="ft2000plus-64")
        one_panel = exp.run(n_cores=8, mode="model", iterations=2).mflops
        full = exp.run(n_cores=64, mode="model", iterations=2).mflops
        assert full > 2.0 * one_panel


class TestStoreKeys:
    def test_replay_keys_distinct_per_machine(self):
        from repro.scc.tracegen import DEFAULT_LAYOUT, _replay_cache_key

        a = build_matrix(24, scale=0.02)
        keys = {
            _replay_cache_key(a, 0, a.n_rows, 1, False, True, DEFAULT_LAYOUT, mk)
            for mk in ("scc-48", "xeonphi-61", "ft2000plus-64")
        }
        assert len(keys) == 3

    def test_campaign_records_distinct_per_machine(self, tmp_path):
        points = Campaign.grid(
            (24,), (4,), machines=("scc-48", "xeonphi-61", "ft2000plus-64")
        )
        campaign = Campaign("zoo", tmp_path, scale=0.02, iterations=1, mode="model")
        ran, skipped = campaign.run(points)
        assert (ran, skipped) == (3, 0)
        raw = [
            json.loads(line)
            for line in campaign.path.read_text().splitlines()
            if line.strip()
        ]
        assert len({rec["_key"] for rec in raw}) == 3
        records = campaign.load()
        by_machine = {rec.get("machine", DEFAULT_MACHINE) for rec in records}
        assert by_machine == {"scc-48", "xeonphi-61", "ft2000plus-64"}
        # resume: a second run skips everything
        again = Campaign("zoo", tmp_path, scale=0.02, iterations=1, mode="model")
        ran, skipped = again.run(points)
        assert (ran, skipped) == (0, 3)


class TestExperimentAPI:
    def test_sweep_cores_machine_kwarg(self):
        a = build_matrix(24, scale=0.02)
        exp = SpMVExperiment(a)
        results = exp.sweep_cores([1, 4], mode="model", iterations=1,
                                  machine="ft2000plus-64")
        assert [r.machine for r in results] == ["ft2000plus-64"] * 2
        scc = exp.sweep_cores([1], mode="model", iterations=1)
        assert scc[0].machine == "scc-48"

    def test_record_machine_field_only_off_default(self):
        a = build_matrix(24, scale=0.02)
        default = SpMVExperiment(a).run(n_cores=1, mode="model", iterations=1)
        phi = SpMVExperiment(a, machine="xeonphi-61").run(
            n_cores=1, mode="model", iterations=1
        )
        assert "machine" not in default.to_record()
        assert phi.to_record()["machine"] == "xeonphi-61"

    def test_machine_instance_accepted(self):
        a = build_matrix(24, scale=0.02)
        exp = SpMVExperiment(a, machine=XeonPhiMachine())
        assert isinstance(exp.machine, MachineModel)
        assert exp.topology.n_cores == 61

    def test_machine_comparison_data_rows(self, tmp_path):
        points = []
        for machine_id in list_machines():
            n = get_machine(machine_id).topology.n_cores
            points += Campaign.grid((24,), (n,), machines=(machine_id,))
        campaign = Campaign("cmp", tmp_path, scale=0.05, iterations=1, mode="model")
        campaign.run(points)
        rows = machine_comparison_data(campaign.load())
        assert [r["machine"] for r in rows] == [
            "scc-48", "ft2000plus-64", "xeonphi-61"
        ]
        for row in rows:
            assert row["gflops"] > 0
            assert row["mflops_per_watt"] > 0


class TestCLIMachine:
    def test_run_fig10_on_phi(self, capsys):
        from repro.cli import main

        code = main([
            "run", "fig10", "--scale", "0.02", "--ids", "24",
            "--machine", "xeonphi-61",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Xeon Phi conf0" in out

    def test_exact_rejected_off_scc(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="event-driven"):
            main([
                "run", "fig5", "--scale", "0.02", "--ids", "24",
                "--machine", "ft2000plus-64", "--exact",
            ])

    def test_validate_exact_rejected_off_scc(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="validate-exact"):
            main([
                "run", "--validate-exact", "--scale", "0.02",
                "--machine", "xeonphi-61",
            ])


def test_zoo_machines_survive_json_round_trip(tmp_path):
    """Records with the machine field are plain JSON (campaign contract)."""
    exp = SpMVExperiment(build_matrix(24, scale=0.02), machine="ft2000plus-64")
    rec = exp.run(n_cores=4, mode="model", iterations=1).to_record()
    assert json.loads(json.dumps(rec)) == rec


def test_no_deprecation_warnings_from_plain_import():
    """Importing the core package must not touch deprecated aliases."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import repro.core  # noqa: F401
        import repro.machine  # noqa: F401
