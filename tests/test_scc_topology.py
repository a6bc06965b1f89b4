"""Tests for the SCC chip topology."""

from __future__ import annotations

import pytest

from repro.scc import CORES_PER_TILE, GRID_X, GRID_Y, N_CORES, N_TILES


class TestGeometry:
    def test_chip_dimensions(self):
        assert GRID_X == 6 and GRID_Y == 4
        assert N_TILES == 24
        assert CORES_PER_TILE == 2
        assert N_CORES == 48

    def test_tiles_enumerated_row_major(self, topology):
        t = topology.tile(7)
        assert (t.x, t.y) == (1, 1)
        assert topology.tile_at(1, 1) is t

    def test_tile_cores(self, topology):
        assert topology.tile(0).cores == (0, 1)
        assert topology.tile(5).cores == (10, 11)
        assert topology.tile(23).cores == (46, 47)

    def test_tile_of_core(self, topology):
        for core in range(N_CORES):
            t = topology.tile_of_core(core)
            assert core in t.cores

    def test_bad_indices_raise(self, topology):
        with pytest.raises(ValueError):
            topology.tile(24)
        with pytest.raises(ValueError):
            topology.tile_at(6, 0)
        with pytest.raises(ValueError):
            topology.tile_of_core(48)
        with pytest.raises(ValueError):
            topology.tile_of_core(-1)


class TestMemoryControllers:
    def test_mc_coordinates_match_paper(self, topology):
        # Paper Sec. II: routers of tiles at (0,0), (2,0), (0,5), (2,5)
        # in (y, x) notation == (x, y) of (0,0), (0,2), (5,0), (5,2).
        assert set(topology.mc_coords) == {(0, 0), (5, 0), (0, 2), (5, 2)}

    def test_four_quadrants_of_twelve_cores(self, topology):
        for q in range(4):
            assert len(topology.cores_of_quadrant(q)) == 12

    def test_paper_quadrant_example(self, topology):
        """Paper: 'the lower left quadrant contains cores 0-5 and 12-17'."""
        assert topology.cores_of_quadrant(0) == tuple(range(6)) + tuple(range(12, 18))

    def test_quadrants_partition_all_cores(self, topology):
        seen = set()
        for q in range(4):
            cores = set(topology.cores_of_quadrant(q))
            assert not (seen & cores)
            seen |= cores
        assert seen == set(range(N_CORES))

    def test_mc_of_core_is_quadrant_controller(self, topology):
        for q in range(4):
            for core in topology.cores_of_quadrant(q):
                assert topology.mc_coord_of_core(core) == topology.mc_coords[q]
                assert topology.mc_index_of_core(core) == q

    def test_bad_quadrant_raises(self, topology):
        with pytest.raises(ValueError):
            topology.cores_of_quadrant(4)


class TestDistances:
    def test_hops_between_is_manhattan(self, topology):
        assert topology.hops_between((0, 0), (5, 3)) == 8
        assert topology.hops_between((2, 1), (2, 1)) == 0

    def test_distance_histogram_matches_paper(self, topology):
        """All distances 0..3 occur (Fig. 3 covers 'all possible distances')."""
        hist = topology.distance_histogram()
        assert hist == {0: 8, 1: 16, 2: 16, 3: 8}

    def test_mc_tiles_have_zero_hops(self, topology):
        for x, y in topology.mc_coords:
            for core in topology.tile_at(x, y).cores:
                assert topology.hops_to_mc(core) == 0

    def test_paper_distance_reduction_example(self, topology):
        """Paper Sec. IV-A: with 4 UEs the nearest cores are 0, 1, 10, 11."""
        assert topology.cores_by_distance()[:4] == (0, 1, 10, 11)

    def test_cores_by_distance_is_complete_permutation(self, topology):
        order = topology.cores_by_distance()
        assert sorted(order) == list(range(N_CORES))

    def test_cores_by_distance_monotone_in_hops(self, topology):
        hops = [topology.hops_to_mc(c) for c in topology.cores_by_distance()]
        assert hops == sorted(hops)

    def test_cores_at_distance(self, topology):
        for h in range(4):
            cores = topology.cores_at_distance(h)
            assert all(topology.hops_to_mc(c) == h for c in cores)
        assert topology.cores_at_distance(9) == ()
