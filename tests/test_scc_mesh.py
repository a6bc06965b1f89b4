"""Tests for the mesh network model (XY routing, loads, timing)."""

from __future__ import annotations

import pytest

from repro.scc import MeshNetwork, SCCTopology, xy_route
from repro.scc.mesh import LINK_BYTES_PER_CYCLE, ROUTER_CYCLES


class TestXYRoute:
    def test_straight_x(self):
        assert xy_route((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_straight_y(self):
        assert xy_route((2, 0), (2, 3)) == [(2, 0), (2, 1), (2, 2), (2, 3)]

    def test_x_before_y(self):
        path = xy_route((0, 0), (2, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_negative_directions(self):
        path = xy_route((3, 2), (1, 0))
        assert path == [(3, 2), (2, 2), (1, 2), (1, 1), (1, 0)]

    def test_self_route(self):
        assert xy_route((4, 1), (4, 1)) == [(4, 1)]

    def test_route_length_is_manhattan_plus_one(self):
        topo = SCCTopology()
        for src in ((0, 0), (5, 3), (2, 1)):
            for dst in ((0, 0), (5, 0), (3, 3)):
                assert len(xy_route(src, dst)) == topo.hops_between(src, dst) + 1

    def test_out_of_mesh_raises(self):
        with pytest.raises(ValueError):
            xy_route((0, 0), (6, 0))
        with pytest.raises(ValueError):
            xy_route((-1, 0), (0, 0))


class TestMeshNetwork:
    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            MeshNetwork(mesh_mhz=0)

    def test_link_bandwidth_scales_with_clock(self):
        slow = MeshNetwork(mesh_mhz=800)
        fast = MeshNetwork(mesh_mhz=1600)
        assert fast.link_bandwidth == pytest.approx(2 * slow.link_bandwidth)
        assert slow.link_bandwidth == LINK_BYTES_PER_CYCLE * 800e6

    def test_message_time_header_only(self):
        mesh = MeshNetwork(mesh_mhz=800)
        t = mesh.message_time((0, 0), (3, 0), 0)
        assert t == pytest.approx(3 * ROUTER_CYCLES / 800e6)

    def test_message_time_grows_with_size(self):
        mesh = MeshNetwork(mesh_mhz=800)
        t1 = mesh.message_time((0, 0), (1, 0), 64)
        t2 = mesh.message_time((0, 0), (1, 0), 6400)
        assert t2 > t1

    def test_message_time_grows_with_distance(self):
        mesh = MeshNetwork(mesh_mhz=800)
        near = mesh.message_time((0, 0), (1, 0), 256)
        far = mesh.message_time((0, 0), (5, 3), 256)
        assert far > near

    def test_local_message_pays_one_router(self):
        mesh = MeshNetwork(mesh_mhz=800)
        t = mesh.message_time((2, 2), (2, 2), 0)
        assert t == pytest.approx(ROUTER_CYCLES / 800e6)

    def test_negative_size_raises(self):
        mesh = MeshNetwork()
        with pytest.raises(ValueError):
            mesh.message_time((0, 0), (1, 0), -1)

    def test_core_message_time_uses_tiles(self):
        mesh = MeshNetwork()
        # cores 0 and 1 share tile (0,0): local message
        assert mesh.core_message_time(0, 1, 0) == pytest.approx(ROUTER_CYCLES / 800e6)
        # core 47 sits at tile (5,3): 8 hops from tile (0,0)
        t = mesh.core_message_time(0, 47, 0)
        assert t == pytest.approx(8 * ROUTER_CYCLES / 800e6)

    def test_faster_mesh_is_faster(self):
        slow = MeshNetwork(mesh_mhz=800)
        fast = MeshNetwork(mesh_mhz=1600)
        assert fast.message_time((0, 0), (3, 2), 1024) < slow.message_time((0, 0), (3, 2), 1024)


class TestCoreMessageTimeTable:
    """The shared per-pair header table behind ``core_message_time``."""

    def _tiles(self, mesh, a, b):
        ta, tb = mesh.topology.tile_of_core(a), mesh.topology.tile_of_core(b)
        return (ta.x, ta.y), (tb.x, tb.y)

    @pytest.mark.parametrize("mhz", [800, 1600])
    def test_bitwise_equal_to_message_time(self, mhz):
        mesh = MeshNetwork(mesh_mhz=mhz)
        for a in range(0, 48, 5):
            for b in range(48):
                for size in (0, 8, 100, 8192):
                    expected = mesh.message_time(*self._tiles(mesh, a, b), size)
                    assert mesh.core_message_time(a, b, size) == expected

    def test_bounded_by_core_pairs_not_payload_sizes(self, monkeypatch):
        monkeypatch.setattr(MeshNetwork, "_shared_header_tables", {})
        mesh = MeshNetwork(mesh_mhz=533)
        for size in range(0, 5000, 7):
            mesh.core_message_time(3, 40, size)
            mesh.core_message_time(40, 3, size)
        assert set(mesh._core_headers) == {(3, 40), (40, 3)}
        assert MeshNetwork(mesh_mhz=533)._core_headers is mesh._core_headers

    def test_invalid_core_and_size_still_rejected(self):
        mesh = MeshNetwork()
        with pytest.raises(ValueError, match="core 48 out of range"):
            mesh.core_message_time(0, 48, 0)
        with pytest.raises(ValueError, match="size_bytes must be >= 0"):
            mesh.core_message_time(0, 1, -1)


class TestLinkLoads:
    def test_record_transfer_accumulates(self):
        mesh = MeshNetwork()
        links = mesh.record_transfer((0, 0), (2, 0), 100)
        assert len(links) == 2
        loads = mesh.link_loads()
        assert loads[((0, 0), (1, 0))] == 100
        mesh.record_transfer((0, 0), (2, 0), 50)
        assert mesh.link_loads()[((0, 0), (1, 0))] == 150

    def test_max_link_load(self):
        mesh = MeshNetwork()
        assert mesh.max_link_load() == 0
        mesh.record_transfer((0, 0), (3, 0), 10)
        mesh.record_transfer((1, 0), (2, 0), 5)
        assert mesh.max_link_load() == 15  # the (1,0)->(2,0) link carries both

    def test_reset_loads(self):
        mesh = MeshNetwork()
        mesh.record_transfer((0, 0), (1, 0), 10)
        mesh.reset_loads()
        assert mesh.link_loads() == {}

    def test_routes_through(self):
        mesh = MeshNetwork()
        pairs = [((0, 0), (2, 0)), ((0, 1), (0, 3)), ((5, 3), (5, 0))]
        assert mesh.routes_through((1, 0), pairs) == 1
        assert mesh.routes_through((0, 2), pairs) == 1
        assert mesh.routes_through((3, 3), pairs) == 0
