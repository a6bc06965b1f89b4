"""Wiring tests: components publish trace events and metrics when given
a tracer, and the unified Result/Campaign API carries them."""

from __future__ import annotations

import pytest

from repro.core.campaign import Campaign
from repro.core.experiment import ExperimentResult, SpMVExperiment
from repro.core.metrics import parallel_efficiency
from repro.obs import TID_SCHED, TID_SIM, Tracer
from repro.scc.cache import CacheHierarchy
from repro.sparse.suite import build_matrix, entry_by_id

MID = 24  # rajat09


@pytest.fixture(scope="module")
def experiment():
    return SpMVExperiment(build_matrix(MID, scale=0.04), name=entry_by_id(MID).name)


@pytest.fixture(scope="module")
def traced(experiment):
    tracer = Tracer()
    result = experiment.run(n_cores=4, iterations=2, tracer=tracer)
    return tracer, result


class TestExperimentWiring:
    def test_rcce_spans_per_ue(self, traced):
        tracer, _ = traced
        begins = {(e.name, e.tid) for e in tracer.events if e.ph == "B"}
        for ue in range(4):
            assert ("ue.run", ue) in begins

    def test_sim_and_sched_lanes(self, traced):
        tracer, _ = traced
        tids = {e.tid for e in tracer.events}
        assert TID_SIM in tids and TID_SCHED in tids

    def test_communication_metrics(self, traced):
        tracer, _ = traced
        flat = tracer.metrics.flat_summary()
        assert any(k.startswith("mesh.link_bytes") for k in flat)
        assert any(k.startswith("mpb.delivered") for k in flat)

    def test_model_metrics(self, traced):
        tracer, _ = traced
        flat = tracer.metrics.flat_summary()
        # keyed by physical core id (mapping-dependent), one per UE
        mem_lines = [v for k, v in flat.items() if k.startswith("model.mem_lines{")]
        core_times = [v for k, v in flat.items() if k.startswith("model.core_time_s{")]
        assert len(mem_lines) == 4 and all(v > 0 for v in mem_lines)
        assert len(core_times) == 4 and all(v > 0 for v in core_times)
        assert flat["model.mem_stall_fraction"]["count"] == 4

    def test_untraced_run_matches_traced(self, experiment, traced):
        _, with_tracer = traced
        without = experiment.run(n_cores=4, iterations=2)
        assert without.makespan == with_tracer.makespan


class TestCacheWiring:
    def test_publish_metrics(self):
        hier = CacheHierarchy()
        for addr in range(0, 4096, 32):
            hier.access(addr)
        tracer = Tracer()
        hier.publish_metrics(tracer, core=3)
        snap = tracer.metrics.snapshot()["counters"]
        assert snap["cache.misses{core=3,level=L1D}"] > 0
        assert any(k.startswith("cache.hits{") for k in snap)

    def test_publish_is_noop_without_tracer(self):
        CacheHierarchy().publish_metrics(None)  # must not raise


class TestResultAPI:
    def test_to_record_shape(self, traced):
        _, result = traced
        assert isinstance(result, ExperimentResult)
        rec = result.to_record()
        # record shape: key order and content preserved
        assert list(rec)[:4] == ["status", "matrix", "n", "nnz"]
        assert rec["status"] == "ok"
        assert rec["kernel"] == "csr"
        assert rec["mflops"] == pytest.approx(result.mflops)
        assert "mflops_per_watt" in rec


class TestCampaignMetrics:
    def test_collect_metrics_adds_metrics_key(self, tmp_path):
        camp = Campaign(
            "obswire", tmp_path, scale=0.04, iterations=2, collect_metrics=True
        )
        # 4 UEs span two tiles, so mesh links actually carry traffic
        camp.run(Campaign.grid([MID], [4]))
        (rec,) = camp.load()
        assert rec["status"] == "ok"
        assert any(k.startswith("mesh.link_bytes") for k in rec["metrics"])

    def test_default_campaign_has_no_metrics_key(self, tmp_path):
        camp = Campaign("plain", tmp_path, scale=0.04, iterations=2)
        camp.run(Campaign.grid([MID], [2]))
        (rec,) = camp.load()
        assert "metrics" not in rec


class TestSweepAndEfficiency:
    def test_sweep_cores(self, experiment):
        results = experiment.sweep_cores([1, 2, 4], iterations=2)
        assert [r.n_cores for r in results] == [1, 2, 4]
        # more cores never slows the model down on this matrix
        assert results[0].makespan >= results[-1].makespan

    def test_parallel_efficiency(self, experiment):
        results = {n: experiment.run(n_cores=n, iterations=2) for n in (1, 2, 4)}
        eff = parallel_efficiency(results)
        assert set(eff) == {1, 2, 4}
        assert eff[1] == pytest.approx(1.0)
        assert all(0 < e <= 1.5 for e in eff.values())

    def test_parallel_efficiency_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            parallel_efficiency({})

    def test_parallel_efficiency_missing_baseline(self, experiment):
        results = {2: experiment.run(n_cores=2, iterations=2)}
        with pytest.raises(ValueError, match="1-core"):
            parallel_efficiency(results)


class TestDeferredSeriesUpdates:
    """The registry's deferred series write path: reads see exactly the
    state eager updates would have produced, in call order."""

    def _registry(self):
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_series_update_materializes_on_read(self):
        m = self._registry()
        m.series_update("c.lines", "c.time", "core", [(0, 10, 1.5), (1, 20, 2.5)])
        flat = m.flat_summary()
        assert flat["c.lines{core=0}"] == 10.0
        assert flat["c.lines{core=1}"] == 20.0
        assert flat["c.time{core=1}"] == 2.5

    def test_updates_apply_in_call_order(self):
        m = self._registry()
        m.series_update("c", "g", "core", [(0, 1, 5.0)])
        m.series_update("c", "g", "core", [(0, 2, 3.0)])
        flat = m.flat_summary()
        assert flat["c{core=0}"] == 3.0  # counter accumulates
        assert flat["g{core=0}"] == 3.0  # gauge: last write wins
        assert m.gauge("g", core=0).high_water == 5.0

    def test_negative_increment_raises_at_the_call_site(self):
        m = self._registry()
        with pytest.raises(ValueError, match="negative increment"):
            m.series_update("c", "g", "core", [(0, -1, 0.0)])
        assert m.flat_summary() == {}  # nothing was buffered

    def test_kind_mismatch_raises_on_drain(self):
        m = self._registry()
        m.counter("g", core=0)  # claim the gauge's (name, labels) as a counter
        m.series_update("c", "g", "core", [(0, 1, 1.0)])
        with pytest.raises(TypeError, match="requested as Gauge"):
            m.snapshot()

    def test_histogram_observe_many_equals_singles(self):
        m_batch, m_single = self._registry(), self._registry()
        values = [1e-9, 0.5, 3.0, 1e6]
        m_batch.histogram_observe_many("h", values)
        h = m_single.histogram("h")
        for v in values:
            h.observe(v)
        assert m_batch.snapshot() == m_single.snapshot()

    def test_pending_cap_drains_inline(self):
        m = self._registry()
        m._PENDING_CAP = 4
        for i in range(10):
            m.series_update("c", "g", "core", [(0, 1, float(i))])
        assert len(m._pending) < 4
        assert m.flat_summary()["c{core=0}"] == 10.0
