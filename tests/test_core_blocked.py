"""Tests for the BCSR timing model (repro.core.blocked)."""

from __future__ import annotations

import pytest

from repro.core import SpMVExperiment
from repro.core.blocked import BCSRTimingResult, run_bcsr_timing
from repro.scc import CONF0, CONF1
from repro.sparse import fem_blocks, random_uniform
from repro.sparse.bcsr import BCSRMatrix


@pytest.fixture(scope="module")
def blocky():
    return fem_blocks(4000, 4, 24.0, seed=17)


@pytest.fixture(scope="module")
def scattered():
    return random_uniform(4000, 24.0, seed=18)


class TestBasics:
    def test_result_fields(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 4, 4)
        r = run_bcsr_timing(b, n_cores=8, iterations=4)
        assert isinstance(r, BCSRTimingResult)
        assert r.makespan > 0
        assert r.flops == 2 * b.nnz_stored * 4
        assert r.fill_ratio >= 1.0
        assert r.mflops > 0

    def test_validation(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 2, 2)
        with pytest.raises(ValueError):
            run_bcsr_timing(b, n_cores=0)
        with pytest.raises(ValueError):
            run_bcsr_timing(b, iterations=0)
        with pytest.raises(ValueError):
            run_bcsr_timing(b, n_cores=4, mapping=[0, 1])

    @pytest.mark.parametrize("fraction", [-1.0, 0.0, 1.5])
    def test_x_capacity_fraction_validated(self, pin_matrices, fraction):
        b = BCSRMatrix.from_csr(pin_matrices["blocky"], 2, 2)
        with pytest.raises(ValueError, match="x_capacity_fraction"):
            run_bcsr_timing(b, n_cores=4, x_capacity_fraction=fraction)

    def test_full_x_capacity_fraction_accepted(self, pin_matrices):
        b = BCSRMatrix.from_csr(pin_matrices["blocky"], 2, 2)
        assert run_bcsr_timing(b, n_cores=4, x_capacity_fraction=1.0).makespan > 0

    def test_explicit_mapping(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 2, 2)
        r = run_bcsr_timing(b, n_cores=2, mapping=[0, 47])
        assert r.n_cores == 2

    def test_deterministic(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 2, 2)
        r1 = run_bcsr_timing(b, n_cores=8)
        r2 = run_bcsr_timing(b, n_cores=8)
        assert r1.makespan == r2.makespan


class TestModelBehaviour:
    def test_blocking_helps_dense_blocks(self, blocky):
        csr = SpMVExperiment(blocky, name="blocky").run(n_cores=8)
        b = BCSRMatrix.from_csr(blocky, 4, 4)
        assert b.fill_ratio() < 1.1  # the generator makes dense 4x4 tiles
        bcsr = run_bcsr_timing(b, n_cores=8)
        assert bcsr.mflops > csr.mflops

    def test_blocking_hurts_scattered(self, scattered):
        csr = SpMVExperiment(scattered, name="scattered").run(n_cores=8)
        b = BCSRMatrix.from_csr(scattered, 4, 4)
        assert b.fill_ratio() > 4.0
        bcsr = run_bcsr_timing(b, n_cores=8)
        assert bcsr.mflops < csr.mflops

    def test_fill_in_costs_time(self, scattered):
        small = run_bcsr_timing(BCSRMatrix.from_csr(scattered, 2, 2), n_cores=8)
        big = run_bcsr_timing(BCSRMatrix.from_csr(scattered, 4, 4), n_cores=8)
        assert big.fill_ratio > small.fill_ratio
        assert big.makespan > small.makespan

    def test_more_cores_faster(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 4, 4)
        r8 = run_bcsr_timing(b, n_cores=8)
        r24 = run_bcsr_timing(b, n_cores=24)
        assert r24.makespan < r8.makespan

    def test_conf1_faster(self, blocky):
        b = BCSRMatrix.from_csr(blocky, 4, 4)
        r0 = run_bcsr_timing(b, n_cores=8, config=CONF0)
        r1 = run_bcsr_timing(b, n_cores=8, config=CONF1)
        assert r1.makespan < r0.makespan

    def test_1x1_blocking_close_to_csr(self, blocky):
        """1x1 BCSR is CSR with per-'block'-row overhead on every row;
        the models should land within ~25% of each other."""
        csr = SpMVExperiment(blocky, name="blocky").run(n_cores=8)
        b = BCSRMatrix.from_csr(blocky, 1, 1)
        bcsr = run_bcsr_timing(b, n_cores=8)
        assert bcsr.mflops == pytest.approx(csr.mflops, rel=0.25)


# --- bitwise pins -------------------------------------------------------------

#: matrix -> (r, config) -> ``float.hex`` makespans at
#: (1 iteration, 1 core), (1, 8), (4, 1), (4, 8), captured before the
#: BCSR model read its cache regimes from the batched fold.  One core
#: streams from memory; eight cores are L2-resident.
MAKESPAN_PINS = {
    "blocky": {
        (1, "conf0"): ("0x1.fb2b13c6499fap-9", "0x1.0352079ed3de0p-11", "0x1.fb2b13c6499fap-7", "0x1.5694048bc79e5p-10"),
        (1, "conf1"): ("0x1.5d95beeb6e3ffp-9", "0x1.6582018d3b207p-12", "0x1.5d95beeb6e3ffp-7", "0x1.ce779598a732ep-11"),
        (1, "l2off"): ("0x1.fb2b13c6499fap-9", "0x1.0352079ed3de0p-11", "0x1.fb2b13c6499fap-7", "0x1.0352079ed3de0p-9"),
        (2, "conf0"): ("0x1.ab0a4c5b36617p-9", "0x1.b60435ad021ebp-12", "0x1.ab0a4c5b36617p-7", "0x1.2f4f8968fb7cap-10"),
        (2, "conf1"): ("0x1.2565dfa51c202p-9", "0x1.2cfe3617d6816p-12", "0x1.2565dfa51c202p-7", "0x1.98bb4645d4f9ep-11"),
        (2, "l2off"): ("0x1.ab0a4c5b36617p-9", "0x1.b60435ad021ebp-12", "0x1.ab0a4c5b36617p-7", "0x1.b60435ad021ebp-10"),
        (4, "conf0"): ("0x1.9599aadeeb160p-9", "0x1.a1f7d9d5d92fap-12", "0x1.9599aadeeb160p-7", "0x1.2578066dcc86ep-10"),
        (4, "conf1"): ("0x1.1664a58750c5ap-9", "0x1.1eee530a7ea80p-12", "0x1.1664a58750c5ap-7", "0x1.8b46ee291dc00p-11"),
        (4, "l2off"): ("0x1.9599aadeeb160p-9", "0x1.a1f7d9d5d92fap-12", "0x1.9599aadeeb160p-7", "0x1.a1f7d9d5d92fap-10"),
    },
    "scattered": {
        (1, "conf0"): ("0x1.414f8fe0ec02ep-8", "0x1.5ba1150995900p-11", "0x1.414f8fe0ec02ep-6", "0x1.e39fe2fa6bf6cp-10"),
        (1, "conf1"): ("0x1.b84d3adcf431ep-9", "0x1.dd98aad50b2dep-12", "0x1.b84d3adcf431ep-7", "0x1.45cf59cddf248p-10"),
        (1, "l2off"): ("0x1.d2a0e5339bed5p-8", "0x1.de41a119f1851p-11", "0x1.d2a0e5339bed5p-6", "0x1.de41a119f1851p-9"),
        (2, "conf0"): ("0x1.c06c2e94e9569p-7", "0x1.d079517180f16p-10", "0x1.c06c2e94e9569p-5", "0x1.4945034115763p-8"),
        (2, "conf1"): ("0x1.3352f411fc46bp-7", "0x1.3ea48e598d622p-10", "0x1.3352f411fc46bp-5", "0x1.bb586223edef7p-9"),
        (2, "l2off"): ("0x1.040baedf93ff5p-6", "0x1.07d296a5aa616p-9", "0x1.040baedf93ff5p-4", "0x1.07d296a5aa616p-7"),
        (4, "conf0"): ("0x1.795c7e43b1c88p-5", "0x1.7fcf95e06ee3cp-8", "0x1.795c7e43b1c88p-3", "0x1.7fcf95e06ee3cp-6"),
        (4, "conf1"): ("0x1.02a10599a676cp-5", "0x1.072152b62ea20p-8", "0x1.02a10599a676cp-3", "0x1.072152b62ea20p-6"),
        (4, "l2off"): ("0x1.8c2ddaca1d7e2p-5", "0x1.9056ab4ef9d76p-8", "0x1.8c2ddaca1d7e2p-3", "0x1.9056ab4ef9d76p-6"),
    },
}

PIN_CONFIGS = {"conf0": CONF0, "conf1": CONF1, "l2off": CONF0.with_l2(False)}


@pytest.fixture(scope="module")
def pin_matrices():
    return {
        "blocky": fem_blocks(2000, 4, 24.0, seed=17),
        "scattered": random_uniform(2000, 24.0, seed=18),
    }


class TestMakespanPins:
    @pytest.mark.parametrize("name", sorted(MAKESPAN_PINS))
    @pytest.mark.parametrize("rc", [1, 2, 4])
    @pytest.mark.parametrize("config", sorted(PIN_CONFIGS))
    def test_makespan_hex(self, pin_matrices, name, rc, config):
        b = BCSRMatrix.from_csr(pin_matrices[name], rc, rc)
        got = tuple(
            run_bcsr_timing(
                b, n_cores=n, config=PIN_CONFIGS[config], iterations=it
            ).makespan.hex()
            for it in (1, 4)
            for n in (1, 8)
        )
        assert got == MAKESPAN_PINS[name][(rc, config)]
