"""Durable serving (repro.durability): journal, recovery, model store.

The contract under test: once ``append_tick`` returns, the tick
survives any crash; a fresh process on the same durable root truncates
torn tails, replays the journals and answers every in-window query
exactly (1e-9) as an uninterrupted process would have; acked ticks are
never lost and never re-acked; durable model artifacts rehydrate a
fresh registry to the bit-identical baseline checkpoint.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    DurableModelStore,
    RecoveryManager,
    TickJournal,
    decode_delta,
    encode_delta,
)
from repro.durability.harness import (
    build_demo_dbn,
    build_schedule,
    oracle_marginal,
    verify_acks,
)
from repro.durability.journal import _frame
from repro.sched.faults import FaultPlan
from repro.serve.streaming import StreamingService

WINDOW = 4
RETIRE = 2
ATOL = 1e-9


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #


class TestTickJournal:
    def test_fresh_journal_is_empty(self, tmp_path):
        journal = TickJournal(str(tmp_path / "j"))
        assert journal.next_seq == 0
        assert journal.records == []
        assert journal.snapshot["state"] is None
        assert journal.torn_bytes == 0
        journal.close()
        reopened = TickJournal(str(tmp_path / "j"))
        assert reopened.next_seq == 0
        assert reopened.records == []
        reopened.close()

    def test_records_round_trip_exactly(self, tmp_path):
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        soft = np.array([0.123456789012345678, 0.7e-200, 1.0])
        journal.append_tick(0, {1: 2})
        journal.append_ack(0, "ok", t=0)
        journal.append_tick(1, {0: soft})
        journal.close()

        reopened = TickJournal(root)
        assert [r["type"] for r in reopened.records] == ["tick", "ack", "tick"]
        assert decode_delta(reopened.records[0]["delta"]) == {1: 2}
        decoded = decode_delta(reopened.records[2]["delta"])
        # repr-based JSON floats are bit-exact for float64
        assert decoded[0].tobytes() == soft.tobytes()
        assert reopened.next_seq == 2
        reopened.close()

    @pytest.mark.parametrize("cut", [1, 9, 10, 11])
    def test_torn_tail_truncated_to_last_whole_record(self, tmp_path, cut):
        """A tail torn anywhere — one byte, mid-header, header-only,
        one payload byte — heals back to the last whole record."""
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        journal.append_tick(1, {1: 2})
        path = journal._file.name
        whole = os.path.getsize(path)
        journal.close()

        torn = _frame({"type": "tick", "seq": 2, "delta": {"1": 3}})[:cut]
        with open(path, "ab") as handle:
            handle.write(torn)

        reopened = TickJournal(root)
        assert reopened.torn_bytes == len(torn)
        assert [r["seq"] for r in reopened.records] == [0, 1]
        assert reopened.next_seq == 2
        assert os.path.getsize(path) == whole  # truncated in place
        reopened.close()
        # The heal is durable: a third open sees nothing torn.
        third = TickJournal(root)
        assert third.torn_bytes == 0
        third.close()

    def test_exactly_torn_last_record_drops_only_that_record(self, tmp_path):
        """The last record torn one byte short of complete is dropped
        whole — never half-applied."""
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        path = journal._file.name
        journal.close()
        frame = _frame({"type": "tick", "seq": 1, "delta": {"1": 0}})
        with open(path, "ab") as handle:
            handle.write(frame[:-1])
        reopened = TickJournal(root)
        assert [r["seq"] for r in reopened.records] == [0]
        assert reopened.next_seq == 1
        reopened.close()

    def test_corrupt_payload_byte_detected_by_crc(self, tmp_path):
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        journal.append_tick(1, {1: 2})
        path = journal._file.name
        journal.close()
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        reopened = TickJournal(root)
        assert [r["seq"] for r in reopened.records] == [0]
        assert reopened.torn_bytes > 0
        reopened.close()

    def test_segment_with_torn_snapshot_is_discarded(self, tmp_path):
        """A newest segment whose snapshot record did not survive is
        unusable; open falls back to the fresh-journal path."""
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        journal.close()
        # A later segment that never got past a torn snapshot write.
        with open(os.path.join(root, "00000002.wal"), "wb") as handle:
            handle.write(b"\xc4W\x99\x99")
        reopened = TickJournal(root)
        assert reopened.segments_discarded == 1
        # Fell back to segment 1, whose records are intact.
        assert [r["seq"] for r in reopened.records] == [0]
        reopened.close()

    def test_rotate_snapshots_state_and_deletes_predecessors(self, tmp_path):
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        journal.append_ack(0, "ok", t=0)
        journal.rotate({"base_t": 2, "x": [1.5]}, next_seq=1)
        journal.append_tick(1, {1: 0})
        journal.close()

        names = sorted(os.listdir(root))
        assert names == ["00000002.wal"]
        reopened = TickJournal(root)
        assert reopened.snapshot["state"] == {"base_t": 2, "x": [1.5]}
        assert reopened.snapshot["next_seq"] == 1
        assert [r["seq"] for r in reopened.records] == [1]
        assert reopened.next_seq == 2
        reopened.close()

    def test_empty_segment_file_recovers_to_fresh(self, tmp_path):
        root = str(tmp_path / "j")
        journal = TickJournal(root)
        journal.append_tick(0, {1: 1})
        path = journal._file.name
        journal.close()
        with open(path, "r+b") as handle:
            handle.truncate(0)
        reopened = TickJournal(root)
        assert reopened.segments_discarded == 1
        assert reopened.next_seq == 0
        assert reopened.records == []
        reopened.close()

    def test_delta_codec_round_trips_hard_and_soft(self):
        rng = np.random.default_rng(3)
        soft = rng.random(5)
        doc = json.loads(json.dumps(encode_delta({2: 1, 4: soft})))
        decoded = decode_delta(doc)
        assert decoded[2] == 1 and isinstance(decoded[2], int)
        assert decoded[4].tobytes() == soft.tobytes()


class TestFaultPlanCrashPoints:
    def test_crash_points_are_one_shot(self):
        plan = FaultPlan(
            crash_after_journal_append=[3],
            crash_before_ack=[5],
            torn_append={7: 12},
        )
        assert plan.take_crash_after_append(2) is False
        assert plan.take_crash_after_append(3) is True
        assert plan.take_crash_after_append(3) is False
        assert plan.take_crash_before_ack(5) is True
        assert plan.take_crash_before_ack(5) is False
        assert plan.take_torn_append(7) == 12
        assert plan.take_torn_append(7) is None

    def test_crash_point_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_after_journal_append=[-1])
        with pytest.raises(ValueError):
            FaultPlan(torn_append={0: 0})


# --------------------------------------------------------------------- #
# Streaming recovery
# --------------------------------------------------------------------- #


def _service(dbn, root, plan=None):
    return StreamingService(
        dbn,
        window=WINDOW,
        retire=RETIRE,
        workers=1,
        max_pending=4,
        durable_root=root,
        fault_plan=plan,
    )


def _drive(service, handle, schedule, start):
    """Push ticks serially; stop at an injected crash.  Returns acks."""
    acks = []
    for seq in range(start, len(schedule)):
        future = service.push_tick(handle, schedule[seq])
        deadline = time.monotonic() + 30.0
        while not future.done() and not service.crashed:
            if time.monotonic() > deadline:  # pragma: no cover
                raise TimeoutError(f"tick {seq} neither resolved nor crashed")
            time.sleep(0.002)
        if not future.done():
            break  # the worker died mid-tick, simulated SIGKILL
        response = future.result(0)
        if response.ok:
            acks.append({"seq": seq, "t": response.t, "m": response.marginals[0]})
        if service.crashed:
            break  # died after resolving (the crash-before-ack window)
    return acks


def _stream_handle(service, name="s"):
    try:
        return service._handle(name)
    except KeyError:
        return service.subscribe(name=name, query_vars=[0])


class TestStreamingRecovery:
    @pytest.mark.parametrize(
        "plan_kw, crashes",
        [
            ({}, False),
            ({"crash_after_journal_append": [3]}, True),
            ({"crash_before_ack": [3]}, True),
            ({"torn_append": {3: 12}}, True),
        ],
        ids=["clean", "after-append", "before-ack", "torn-append"],
    )
    def test_recovery_resumes_exactly(self, tmp_path, plan_kw, crashes):
        """Across every crash point, the recovered stream's answers —
        past and future — match the oracle at 1e-9, and no two acks
        share a sequence number."""
        root = str(tmp_path / "root")
        dbn = build_demo_dbn(11)
        schedule = build_schedule(11, 7)

        service = _service(dbn, root, FaultPlan(**plan_kw) if plan_kw else None)
        handle = _stream_handle(service)
        acks = _drive(service, handle, schedule, 0)
        assert service.crashed is crashes
        service.drain()

        recovered = _service(dbn, root)
        report = recovered.recovery_report
        assert report is not None and len(report.streams) == 1
        handle = _stream_handle(recovered)
        # Every previously acked tick survived the crash: it was either
        # replayed from the segment records or already folded into the
        # segment snapshot by a pre-crash rotation (seq == t here).
        stream = report.streams[0]
        survived = set(stream.applied_seqs) | set(
            range(stream.final_t - len(stream.applied_seqs))
        )
        assert {a["seq"] for a in acks} <= survived
        acks += _drive(recovered, handle, schedule, handle.next_seq)
        recovered.drain()

        seqs = [a["seq"] for a in acks]
        assert sorted(seqs) == sorted(set(seqs))  # never double-acked
        # A tick unacked at the crash is applied by replay (status
        # ``recovered``) and never handed to a client again: client acks
        # plus internal recoveries cover the schedule exactly.
        assert set(seqs) | set(stream.recovered_seqs) == set(
            range(len(schedule))
        )
        assert verify_acks(dbn, schedule, acks, atol=ATOL) == []

    def test_before_ack_crash_replays_without_reack(self, tmp_path):
        """The at-least-once window: the client saw seq 3's answer but
        its ack was never durable — recovery re-applies it internally
        (status ``recovered``) and never hands it to a client again."""
        root = str(tmp_path / "root")
        dbn = build_demo_dbn(5)
        schedule = build_schedule(5, 6)
        service = _service(dbn, root, FaultPlan(crash_before_ack=[3]))
        handle = _stream_handle(service)
        acks = _drive(service, handle, schedule, 0)
        assert [a["seq"] for a in acks] == [0, 1, 2, 3]
        service.drain()

        recovered = _service(dbn, root)
        stream = recovered.recovery_report.streams[0]
        assert stream.recovered_seqs == [3]
        assert 3 in stream.applied_seqs
        assert stream.dropped_unacked == 0
        handle = _stream_handle(recovered)
        assert handle.next_seq == 4  # seq 3 is not re-served
        # The recovered posterior is the one the client was acked.
        want = oracle_marginal(dbn, schedule, 3)
        got = handle.session.posterior(0, t=3)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)
        recovered.drain()

    def test_recovery_is_idempotent(self, tmp_path):
        """Recovering an already-recovered root replays nothing new and
        leaves the posterior untouched (duplicate replay is a no-op:
        the post-replay rotation folded the state into the snapshot)."""
        root = str(tmp_path / "root")
        dbn = build_demo_dbn(7)
        schedule = build_schedule(7, 5)
        service = _service(dbn, root, FaultPlan(crash_after_journal_append=[4]))
        handle = _stream_handle(service)
        _drive(service, handle, schedule, 0)
        service.drain()

        first = _service(dbn, root)
        assert first.recovery_report.replayed_ticks > 0
        want = first._handle("s").session.posterior(0, t=4)
        first.drain()

        second = _service(dbn, root)
        assert second.recovery_report.replayed_ticks == 0
        got = second._handle("s").session.posterior(0, t=4)
        # Restore-from-snapshot reorders float reductions vs. the first
        # recovery's replay; agreement far inside the 1e-9 contract.
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
        second.drain()

    def test_recovery_survives_window_rolls(self, tmp_path):
        """Enough ticks to rotate segments mid-stream: the snapshot
        chain, not the full history, carries recovery."""
        root = str(tmp_path / "root")
        dbn = build_demo_dbn(9)
        schedule = build_schedule(9, 11)
        service = _service(dbn, root, FaultPlan(crash_after_journal_append=[9]))
        handle = _stream_handle(service)
        acks = _drive(service, handle, schedule, 0)
        assert handle.window_rolls > 0  # the snapshot chain was exercised
        service.drain()

        recovered = _service(dbn, root)
        stream = recovered.recovery_report.streams[0]
        handle = _stream_handle(recovered)
        acks += _drive(recovered, handle, schedule, handle.next_seq)
        recovered.drain()
        assert {a["seq"] for a in acks} | set(stream.recovered_seqs) == set(
            range(len(schedule))
        )
        assert verify_acks(dbn, schedule, acks, atol=ATOL) == []

    def test_drain_report_counts_recovery(self, tmp_path):
        root = str(tmp_path / "root")
        dbn = build_demo_dbn(3)
        schedule = build_schedule(3, 4)
        service = _service(dbn, root, FaultPlan(crash_after_journal_append=[2]))
        handle = _stream_handle(service)
        _drive(service, handle, schedule, 0)
        service.drain()

        recovered = _service(dbn, root)
        report = recovered.drain()
        assert report.recoveries == 1
        assert report.replayed_ticks > 0
        assert "recovered" in report.format()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        ticks=st.integers(min_value=2, max_value=8),
        crash_kind=st.sampled_from(["after-append", "before-ack", "torn"]),
        crash_at=st.integers(min_value=0, max_value=7),
        keep=st.integers(min_value=1, max_value=40),
    )
    def test_any_crash_point_recovers_to_the_oracle(
        self, tmp_path_factory, seed, ticks, crash_kind, crash_at, keep
    ):
        """Property: for any schedule and any single crash point, the
        crash-and-recover run acks every tick exactly once with the
        same posteriors (1e-9) as the uninterrupted oracle."""
        crash_at = crash_at % ticks
        if crash_kind == "after-append":
            plan = FaultPlan(crash_after_journal_append=[crash_at])
        elif crash_kind == "before-ack":
            plan = FaultPlan(crash_before_ack=[crash_at])
        else:
            plan = FaultPlan(torn_append={crash_at: keep})
        root = str(
            tmp_path_factory.mktemp("crash")
            / f"{seed}-{ticks}-{crash_kind}-{crash_at}"
        )
        dbn = build_demo_dbn(seed)
        schedule = build_schedule(seed, ticks)

        service = _service(dbn, root, plan)
        handle = _stream_handle(service)
        acks = _drive(service, handle, schedule, 0)
        assert service.crashed
        service.drain()

        recovered = _service(dbn, root)
        stream = recovered.recovery_report.streams[0]
        handle = _stream_handle(recovered)
        acks += _drive(recovered, handle, schedule, handle.next_seq)
        assert not recovered.crashed
        recovered.drain()

        seqs = [a["seq"] for a in acks]
        assert sorted(seqs) == sorted(set(seqs))
        # A torn tick was never durable, so it is re-served and acked
        # normally; a durable-but-unacked tick is applied by replay and
        # never re-acked.  Either way client acks plus internal
        # recoveries cover the schedule with no double delivery.
        assert set(seqs) | set(stream.recovered_seqs) == set(range(ticks))
        assert verify_acks(dbn, schedule, acks, atol=ATOL) == []


# --------------------------------------------------------------------- #
# Model store / registry recovery
# --------------------------------------------------------------------- #


class TestRegistryRecovery:
    def _network(self, seed=21):
        from repro.bn.generation import random_network

        return random_network(
            10, cardinality=2, max_parents=2, edge_probability=0.7, seed=seed
        )

    def test_fresh_registry_adopts_durable_artifacts(self, tmp_path):
        from repro.registry import ModelRegistry

        root = str(tmp_path / "root")
        network = self._network()
        cold = ModelRegistry(durable_root=root)
        cold.register("m", network=network)
        baseline = cold.acquire("m").baseline
        cold.close()

        warm = ModelRegistry(durable_root=root)
        warm.register("m", network=network)
        assert warm.stats()["recovered_models"] == 1
        assert warm.model_recoveries[0].adopted
        # Bit-identical baseline: the warm pool rehydrates the exact
        # calibrated state the cold compile produced.
        assert warm.acquire("m").baseline == baseline
        warm.close()

    def test_corrupt_checkpoint_falls_back_cold(self, tmp_path):
        from repro.registry import ModelRegistry

        root = str(tmp_path / "root")
        network = self._network()
        cold = ModelRegistry(durable_root=root)
        cold.register("m", network=network)
        expected = cold.acquire("m").baseline
        cold.close()

        store = DurableModelStore(root)
        ckpt = os.path.join(store.dir, store.manifest()["m"]["checkpoint"])
        with open(ckpt, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\x00" * 64)

        fresh = ModelRegistry(durable_root=root)
        fresh.register("m", network=network)
        assert fresh.stats()["recovered_models"] == 0
        assert not fresh.model_recoveries[0].adopted
        # Cold recompile still serves, and overwrites the bad artifact.
        assert fresh.acquire("m").baseline == expected
        fresh.close()
        healed = ModelRegistry(durable_root=root)
        healed.register("m", network=network)
        assert healed.stats()["recovered_models"] == 1
        healed.close()

    def test_other_format_checkpoint_falls_back_cold(self, tmp_path):
        """An artifact of another checkpoint format (an older build's pack
        order) is refused whole: the entry stays cold and recompiles."""
        import json

        import numpy as np

        from repro.registry import ModelRegistry

        root = str(tmp_path / "root")
        network = self._network()
        cold = ModelRegistry(durable_root=root)
        cold.register("m", network=network)
        expected = cold.acquire("m").baseline
        cold.close()

        store = DurableModelStore(root)
        ckpt = os.path.join(store.dir, store.manifest()["m"]["checkpoint"])
        with np.load(ckpt, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        manifest = json.loads(str(arrays["__manifest__"][()]))
        manifest["format"] = 1
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        with open(ckpt, "wb") as handle:
            np.savez(handle, **arrays)

        fresh = ModelRegistry(durable_root=root)
        fresh.register("m", network=network)
        assert fresh.stats()["recovered_models"] == 0
        assert not fresh.model_recoveries[0].adopted
        assert "format" in fresh.model_recoveries[0].detail
        assert fresh.acquire("m").baseline == expected
        fresh.close()

    def test_store_slug_is_filesystem_safe_and_collision_proof(self, tmp_path):
        from repro.durability.store import _slug

        assert _slug("plain-id_0.9") == "plain-id_0.9"
        assert "/" not in _slug("../../etc/passwd")
        assert _slug("a/b") != _slug("a_b")
        assert _slug("x" * 200) != _slug("x" * 201)  # truncation-proof


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestRecoverCli:
    def test_stream_demo_then_recover(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "root")
        assert main(
            ["stream-demo", "--streams", "1", "--ticks", "4",
             "--window", "4", "--durable-root", root]
        ) == 0
        capsys.readouterr()
        assert main(["recover", root]) == 0
        out = capsys.readouterr().out
        assert "streams recovered" in out
        assert "ticks replayed" in out

    def test_recover_empty_root(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nothing")]) == 0
        assert "nothing durable" in capsys.readouterr().out
