"""Integration tests for the dynamic pass: deadlock, races, collective
mismatches, determinism replay — each demonstrated by a buggy fixture."""

from __future__ import annotations

import pytest

from repro.analysis import RuntimeChecker, verify_program_determinism
from repro.analysis.check import check_battery, load_program, run_checked
from repro.analysis.determinism import diff_traces
from repro.rcce import RCCEDeadlockError, RCCEError, RCCERuntime
from repro.rcce.onesided import OneSided

from .fixtures import buggy_programs as buggy


def checked_runtime(n_ues: int) -> RCCERuntime:
    return RCCERuntime(list(range(n_ues)), checker=RuntimeChecker())


def rules_fired(checker: RuntimeChecker):
    return {f.rule for f in checker.findings}


class TestDeadlockDetector:
    def test_tag_mismatch_names_ranks_and_tags(self):
        rt = checked_runtime(2)
        with pytest.raises(RCCEDeadlockError) as excinfo:
            rt.run(buggy.deadlock_tag_mismatch)
        err = excinfo.value
        assert err.wait_for[0] == ("send", 1, 5)
        assert err.wait_for[1] == ("recv", 0, 7)
        assert "UE 0: blocked in send to UE 1 (tag=5)" in str(err)
        assert "UE 1: waits in recv(source=0, tag=7)" in str(err)
        assert "RT801" in rules_fired(rt.checker)

    def test_all_recv_graph(self):
        rt = checked_runtime(3)
        with pytest.raises(RCCEDeadlockError) as excinfo:
            rt.run(buggy.deadlock_all_recv)
        graph = excinfo.value.wait_for
        assert set(graph) == {0, 1, 2}
        assert all(info[0] == "recv" for info in graph.values())

    def test_deadlock_is_still_a_runtimeerror(self):
        """Backwards compatibility: older callers catch RuntimeError."""
        rt = RCCERuntime([0, 1])
        with pytest.raises(RuntimeError, match="deadlock"):
            rt.run(buggy.deadlock_all_recv)


class TestCollectiveMismatch:
    def test_kind_mismatch_detected_on_completed_run(self):
        rt = checked_runtime(4)
        rt.run(buggy.collective_kind_mismatch)  # completes: silent corruption
        assert "RT804" in rules_fired(rt.checker)
        msg = next(f for f in rt.checker.findings if f.rule == "RT804").message
        assert "barrier" in msg and "allreduce" in msg

    def test_size_mismatch_detected(self):
        rt = checked_runtime(3)
        rt.run(buggy.collective_size_mismatch)
        assert "RT805" in rules_fired(rt.checker)

    def test_matched_collectives_are_clean(self):
        def fn(comm):
            total = yield from comm.allreduce(float(comm.ue))
            yield from comm.barrier()
            return total

        rt = checked_runtime(4)
        rt.run(fn)
        assert rt.checker.findings == []


class TestRaceDetectors:
    def test_mpb_overwrite_race(self):
        rt = checked_runtime(2)
        onesided = OneSided(rt)
        rt.run(buggy.mpb_overwrite_race, onesided)
        assert "RT803" in rules_fired(rt.checker)
        msg = next(f for f in rt.checker.findings if f.rule == "RT803").message
        assert "offset 0" in msg

    def test_flag_synchronized_protocol_is_clean(self):
        def fn(comm, onesided):
            if comm.ue == 0:
                yield from onesided.put(0, 1, 0, b"one")
                yield from onesided.set_flag(0, 1, flag_id=0)
            else:
                yield from onesided.wait_flag(1, flag_id=0)
                payload = yield from onesided.get(1, 1, 0)
                return payload

        rt = checked_runtime(2)
        rt.run(fn, OneSided(rt))
        assert rt.checker.findings == []

    def test_mailbox_duplicate_envelope_race(self):
        from repro.rcce import Envelope, Mailbox
        from repro.sim import Simulator

        sim = Simulator()
        checker = RuntimeChecker()
        box = Mailbox(sim, owner=0, n_peers=2, checker=checker)
        box.deliver(Envelope(1, 4, "a", sim.event("ack1")))
        box.deliver(Envelope(1, 4, "b", sim.event("ack2")))  # undrained duplicate
        assert {f.rule for f in checker.findings} == {"RT802"}


class TestMailboxValidation:
    """Satellite: structured RCCEError instead of a hang/bare assert."""

    def setup_method(self):
        from repro.rcce import Mailbox
        from repro.sim import Simulator

        self.sim = Simulator()
        self.box = Mailbox(self.sim, owner=0, n_peers=4)

    def test_recv_nonexistent_peer_raises(self):
        with pytest.raises(RCCEError, match="peer rank 9 does not exist"):
            self.box.receive(source=9)

    def test_recv_negative_peer_raises(self):
        with pytest.raises(RCCEError, match="does not exist"):
            self.box.receive(source=-1)

    def test_recv_negative_tag_raises(self):
        with pytest.raises(RCCEError, match="negative tag"):
            self.box.receive(source=1, tag=-3)

    def test_runtime_recv_from_ghost_rank_raises(self):
        def fn(comm):
            data = yield from comm.recv(source=17)
            return data

        rt = RCCERuntime([0, 1])
        from repro.sim import ProcessFailure

        with pytest.raises(ProcessFailure, match="peer rank 17"):
            rt.run(fn)

    def test_valid_recv_unaffected(self):
        ev = self.box.receive(source=3, tag=0)
        assert not ev.triggered


class TestDeterminismVerifier:
    def test_deterministic_program_passes(self):
        def fn(comm):
            yield from comm.compute(1e-6 * (comm.ue + 1))
            yield from comm.barrier()

        report = verify_program_determinism(fn, n_ues=4)
        assert report.deterministic
        assert report.events_compared > 0
        assert report.findings == []

    def test_nondeterministic_program_caught(self):
        report = verify_program_determinism(buggy.nondeterministic_compute, n_ues=2)
        assert not report.deterministic
        assert report.divergence_index is not None
        assert [f.rule for f in report.findings] == ["DET900"]

    def test_diff_traces_length_mismatch(self):
        a = [(0.0, 0, "x"), (1.0, 1, "y")]
        index, desc = diff_traces(a, a[:1])
        assert index == 1 and "extra event" in desc

    def test_runs_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            verify_program_determinism(lambda comm: iter(()), 1, runs=1)


class TestCheckDriver:
    def test_battery_all_ok(self):
        results = check_battery(verify_determinism=False)
        assert len(results) >= 3
        assert all(r.ok for r in results), [
            (r.name, [str(f) for f in r.findings]) for r in results
        ]

    def test_run_checked_flags_buggy_program(self):
        result = run_checked(
            "deadlock", buggy.deadlock_tag_mismatch, 2, verify_determinism=False
        )
        assert not result.ok
        assert not result.completed
        assert "RT801" in {f.rule for f in result.findings}

    def test_load_program(self):
        import os

        path = os.path.join(os.path.dirname(__file__), "fixtures", "buggy_programs.py")
        name, fn = load_program(f"{path}:deadlock_all_recv")
        assert name == "deadlock_all_recv" and callable(fn)
        with pytest.raises(ValueError):
            load_program("no-colon")
        with pytest.raises(AttributeError):
            load_program(f"{path}:missing_function")


class TestChecksEnvGate:
    def test_env_enables_default_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "1")
        rt = RCCERuntime([0, 1])
        assert rt.checker is not None

    def test_env_off_means_no_checker(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        rt = RCCERuntime([0, 1])
        assert rt.checker is None

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "1")
        rt = RCCERuntime([0, 1], checks=False)
        assert rt.checker is None


class TestRuntimeCheckerEdgeCases:
    """Corner cases of checked runs: crashes, degenerate job sizes and
    empty payloads must neither hang the checker nor fire false
    findings."""

    def test_self_send_crashes_cleanly(self):
        def selfsend(comm):
            yield from comm.send(1.0, comm.ue)

        result = run_checked("selfsend", selfsend, 2, verify_determinism=False)
        assert not result.completed and not result.ok
        rules = {f.rule for f in result.findings}
        assert "RT800" in rules
        msg = next(f for f in result.findings if f.rule == "RT800").message
        assert "send to self" in msg

    def test_out_of_range_dest_crashes_cleanly(self):
        def bad_dest(comm):
            yield from comm.send(1.0, comm.num_ues)

        result = run_checked("bad_dest", bad_dest, 2, verify_determinism=False)
        assert not result.completed
        assert "RT800" in {f.rule for f in result.findings}

    def test_single_ue_collectives_complete(self):
        def single(comm):
            yield from comm.barrier()
            total = yield from comm.allreduce(3.0)
            got = yield from comm.gather(comm.ue, root=0)
            data = yield from comm.bcast((1, 2, 3), root=0)
            return total, got, data

        result = run_checked("single", single, 1, verify_determinism=True)
        assert result.completed and result.ok
        assert result.findings == []

    def test_zero_payload_round_trip(self):
        def zero(comm):
            if comm.ue == 0:
                yield from comm.send(b"", 1, tag=1)
                back = yield from comm.recv(source=1, tag=2)
                return back
            back = yield from comm.recv(source=0, tag=1)
            yield from comm.send(b"", 0, tag=2)
            return back

        result = run_checked("zero", zero, 2, verify_determinism=True)
        assert result.completed and result.ok
        assert result.findings == []

    def test_zero_payload_collectives(self):
        def zero_coll(comm):
            data = yield from comm.bcast(None, root=0)
            yield from comm.barrier()
            return data

        result = run_checked("zero_coll", zero_coll, 3, verify_determinism=False)
        assert result.completed and result.ok
