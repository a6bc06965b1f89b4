"""Tests for the RCCE runtime: mapping, p2p, timing, deadlock detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rcce import Envelope, Mailbox, RCCEError, RCCERuntime
from repro.rcce.errors import RCCEBudgetExceededError, RCCEDeadlockError
from repro.scc import CONF0, CONF1
from repro.sim import ProcessFailure, SimulationError, Simulator


class TestConstruction:
    def test_empty_core_map_rejected(self):
        with pytest.raises(ValueError):
            RCCERuntime([])

    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValueError):
            RCCERuntime([0, 0])

    def test_core_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RCCERuntime([48])

    def test_comm_identity(self):
        rt = RCCERuntime([5, 9, 33])
        assert rt.n_ues == 3
        assert rt.comms[1].ue == 1
        assert rt.comms[1].core == 9
        assert rt.comms[2].num_ues == 3


class TestPointToPoint:
    def test_send_recv_pair(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send(np.arange(10.0), dest=1)
                return "sent"
            data = yield from comm.recv(source=0)
            return data.sum()

        rt = RCCERuntime([0, 1])
        res = rt.run(fn)
        assert res[0].value == "sent"
        assert res[1].value == 45.0

    def test_send_to_self_rejected(self):
        def fn(comm):
            yield from comm.send(1, dest=0)

        rt = RCCERuntime([0])
        with pytest.raises(Exception):
            rt.run(fn)

    def test_tags_matched_in_order(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send("first", dest=1, tag=1)
                yield from comm.send("second", dest=1, tag=2)
                return None
            a = yield from comm.recv(source=0, tag=1)
            b = yield from comm.recv(source=0, tag=2)
            return (a, b)

        rt = RCCERuntime([0, 1])
        res = rt.run(fn)
        assert res[1].value == ("first", "second")

    def test_out_of_order_tags_deadlock_under_rendezvous(self):
        """RCCE sends are synchronous: receiving tags in the wrong order
        blocks the sender on its first unacknowledged message."""
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send("first", dest=1, tag=1)
                yield from comm.send("second", dest=1, tag=2)
                return None
            b = yield from comm.recv(source=0, tag=2)
            a = yield from comm.recv(source=0, tag=1)
            return (a, b)

        rt = RCCERuntime([0, 1])
        with pytest.raises(RuntimeError, match="deadlock"):
            rt.run(fn)

    def test_transfer_time_grows_with_payload(self):
        def fn(comm, size):
            if comm.ue == 0:
                yield from comm.send(np.zeros(size), dest=1)
            else:
                yield from comm.recv(source=0)

        t_small = RCCERuntime([0, 47])
        t_small.run(fn, 10)
        t_big = RCCERuntime([0, 47])
        t_big.run(fn, 1_000_000)
        assert t_big.sim.now > t_small.sim.now

    def test_transfer_time_grows_with_distance(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send(np.zeros(10_000), dest=1)
            else:
                yield from comm.recv(source=0)

        near = RCCERuntime([0, 1])   # same tile
        near.run(fn)
        far = RCCERuntime([0, 47])   # opposite corner
        far.run(fn)
        assert far.sim.now > near.sim.now

    def test_faster_mesh_shrinks_transfers(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send(np.zeros(100_000), dest=1)
            else:
                yield from comm.recv(source=0)

        slow = RCCERuntime([0, 47], config=CONF0)
        slow.run(fn)
        fast = RCCERuntime([0, 47], config=CONF1)
        fast.run(fn)
        assert fast.sim.now < slow.sim.now

    def test_deadlock_detected(self):
        def fn(comm):
            # Everyone receives, nobody sends.
            yield from comm.recv()

        rt = RCCERuntime([0, 1])
        with pytest.raises(RuntimeError, match="deadlock"):
            rt.run(fn)

    def test_deadlock_report_names_the_wait(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.recv(1, 0)
            return None

        with pytest.raises(RCCEDeadlockError) as err:
            RCCERuntime([0, 1]).run(fn)
        assert err.value.wait_for == {0: ("recv", 1, 0)}
        assert "UE 0: waits in recv(source=1, tag=0)" in str(err.value)

    def test_budget_exceeded_lists_running_ues(self):
        def fn(comm):
            yield from comm.compute(1.0)

        with pytest.raises(RCCEBudgetExceededError) as err:
            RCCERuntime([0, 1]).run(fn, until=1e-3)
        assert err.value.budget == 1e-3
        assert set(err.value.running_ues) == {0, 1}
        assert err.value.sim_time == pytest.approx(1e-3)


class TestErrorText:
    """Per-message events are named only when read; errors still name the
    parties."""

    def test_double_ack_names_sender_and_dest(self):
        rt = RCCERuntime([0, 1, 2], checks=False)

        def fn(comm):
            if comm.ue == 2:
                yield from comm.send("x", 1, tag=3)
            elif comm.ue == 1:
                env = yield rt.mailboxes[1].receive(2, 3)
                env.ack.succeed()
                env.ack.succeed()

        with pytest.raises(ProcessFailure) as err:
            rt.run(fn)
        # UE 1 ran inside UE 2's delivery, so its failure arrives wrapped.
        cause = err.value.cause
        while isinstance(cause, ProcessFailure):
            cause = cause.cause
        assert isinstance(cause, SimulationError)
        assert "'ack:2->1' already triggered" in str(cause)

    def test_receive_event_names_its_mailbox(self):
        box = Mailbox(Simulator(), owner=2, n_peers=4)
        assert box.receive(1, 0).name == "mailbox[2].recv"

    @pytest.mark.parametrize(
        "op, source, tag, text",
        [
            ("receive", 9, 0, "mailbox[2].receive: peer rank 9 does not exist (job has UEs 0..3)"),
            ("receive", 1, -3, "mailbox[2].receive: negative tag -3 is invalid"),
            ("deliver", 4, 0, "mailbox[2].deliver: peer rank 4 does not exist"),
            ("deliver", 1, -1, "mailbox[2].deliver: negative tag -1 is invalid"),
        ],
    )
    def test_bad_peer_or_tag_names_the_mailbox(self, op, source, tag, text):
        sim = Simulator()
        box = Mailbox(sim, owner=2, n_peers=4)
        with pytest.raises(RCCEError) as err:
            if op == "receive":
                box.receive(source, tag)
            else:
                box.deliver(Envelope(source, tag, None, sim.event()))
        assert text in str(err.value)

    def test_negative_tag_send_names_the_receiver(self):
        def fn(comm):
            if comm.ue == 0:
                yield from comm.send(1.0, 1, tag=-2)

        with pytest.raises(ProcessFailure) as err:
            RCCERuntime([0, 1], checks=False).run(fn)
        assert "mailbox[1].deliver: negative tag -2" in str(err.value.cause)


class TestTiming:
    def test_compute_advances_clock(self):
        def fn(comm):
            yield from comm.compute(0.25)
            return comm.wtime()

        rt = RCCERuntime([0])
        res = rt.run(fn)
        assert res[0].value == pytest.approx(0.25)

    def test_negative_compute_rejected(self):
        def fn(comm):
            yield from comm.compute(-1.0)

        rt = RCCERuntime([0])
        with pytest.raises(Exception):
            rt.run(fn)

    def test_makespan_is_slowest_ue(self):
        def fn(comm):
            yield from comm.compute(0.1 * (comm.ue + 1))

        rt = RCCERuntime([0, 1, 2])
        res = rt.run(fn)
        assert rt.makespan(res) == pytest.approx(0.3)

    def test_wtime_monotone(self):
        def fn(comm):
            t0 = comm.wtime()
            yield from comm.compute(1e-3)
            t1 = comm.wtime()
            return t1 > t0

        rt = RCCERuntime([0])
        assert rt.run(fn)[0].value is True

    def test_finish_times_recorded_per_ue(self):
        def fn(comm):
            yield from comm.compute(0.1 if comm.ue == 0 else 0.2)

        rt = RCCERuntime([0, 1])
        res = rt.run(fn)
        assert res[0].finish_time == pytest.approx(0.1)
        assert res[1].finish_time == pytest.approx(0.2)


class TestCommMetaDrift:
    """The pure metadata table in ``repro.rcce.comm_meta`` must match the
    real ``RCCEComm`` surface — the linter recognizes comm calls with
    it, so any drift silently blinds the RCCE/SIM rules."""

    def test_table_covers_every_generator_method(self):
        import inspect

        from repro.rcce.api import RCCEComm
        from repro.rcce.comm_meta import COMM_GEN_METHODS

        # p2p/local methods are written as generator functions; the
        # collectives delegate to repro.rcce.collectives generators —
        # both styles must be callable and listed in the table
        direct = {
            name
            for name, member in vars(RCCEComm).items()
            if not name.startswith("_") and inspect.isgeneratorfunction(member)
        }
        assert direct <= set(COMM_GEN_METHODS)
        for name in COMM_GEN_METHODS:
            assert callable(getattr(RCCEComm, name)), name

    def test_kinds_partition_the_api(self):
        from repro.rcce.comm_meta import (
            COLLECTIVE_METHODS,
            COMM_API,
            LOCAL_METHODS,
            P2P_METHODS,
        )

        union = COLLECTIVE_METHODS | P2P_METHODS | LOCAL_METHODS
        assert union == set(COMM_API)
        assert not (COLLECTIVE_METHODS & P2P_METHODS)
        assert not (COLLECTIVE_METHODS & LOCAL_METHODS)
        assert not (P2P_METHODS & LOCAL_METHODS)

    def test_tag_defaults_match_api(self):
        # send defaults to tag=0; recv defaults to wildcard
        import inspect

        from repro.rcce.api import RCCEComm

        assert inspect.signature(RCCEComm.send).parameters["tag"].default == 0
        assert inspect.signature(RCCEComm.recv).parameters["tag"].default is None
        assert inspect.signature(RCCEComm.recv).parameters["source"].default is None
