"""Tests for repro.integrity: torn-write detection and checkpoint/restore.

The contract under test: a worker write torn between checksum stamp and
master read is *detected and refused* (never served — the entries are
finite, so only the crc catches it), a checkpoint round-trips
bit-identically, a checkpoint from a foreign tree or with tampered bytes
is refused with a typed error, and a failed, poisoned or torn serving
tier — or a flight every tier failed, or one that missed its deadline —
leaves the session's cached state bit-identical (the recovery ladder
rolls it back) so the next query is incremental and exact.
"""

from __future__ import annotations

import io
import json
import time
import zipfile

import numpy as np
import pytest

from repro.inference.engine import InferenceEngine
from repro.integrity import (
    CheckpointCorrupt,
    CheckpointMismatch,
    TornWriteError,
    crc32_array,
    crc32_regions,
    read_manifest,
    tree_signature,
)
from repro.jt.generation import synthetic_tree
from repro.sched.faults import FaultPlan
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.serial import SerialExecutor
from repro.serve import EngineSessionPool, InferenceService
from repro.tasks.dag import build_task_graph
from repro.tasks.layout import table_layout
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT, DISTRIBUTE


def _tree(num_cliques=14, width=5, seed=11):
    tree = synthetic_tree(
        num_cliques, clique_width=width, states=2, avg_children=3, seed=seed
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


def _variables(tree, count=8):
    variables = set()
    for clique in tree.cliques:
        variables.update(clique.variables)
    return sorted(variables)[:count]


# --------------------------------------------------------------------- #
# Checksum helpers
# --------------------------------------------------------------------- #


class TestChecksumHelpers:
    def test_crc32_array_slicing_matches_whole(self):
        values = np.arange(20, dtype=np.float64)
        assert crc32_array(values) == crc32_array(values, 0, 20)
        assert crc32_array(values, 5, 9) == crc32_array(values[5:9])

    def test_crc32_regions_is_order_sensitive(self):
        a = np.arange(4, dtype=np.float64)
        b = np.arange(4, 8, dtype=np.float64)
        assert crc32_regions([a, b]) != crc32_regions([b, a])
        assert crc32_regions([a]) == crc32_array(a)

    def test_crc32_detects_single_entry_change(self):
        values = np.random.default_rng(0).random(64)
        before = crc32_array(values)
        values[17] += 1e-12
        assert crc32_array(values) != before


# --------------------------------------------------------------------- #
# Torn-write detection in the process executor
# --------------------------------------------------------------------- #


class TestTornWriteDetection:
    def test_whole_task_torn_write_raises_with_attribution(self):
        tree = _tree(seed=3)
        engine = InferenceEngine(tree)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(torn_write={1: 4}),
        )
        with pytest.raises(TornWriteError) as excinfo:
            engine.propagate(executor=executor, incremental=False)
        err = excinfo.value
        assert err.tid == 1
        assert err.kind is not None
        assert err.chunk is None
        assert "stamped checksum" in str(err)

    def test_chunked_torn_write_attributes_the_chunk(self):
        tree = _tree(seed=3)
        engine = InferenceEngine(tree)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            partition_threshold=4,
            max_chunks=4,
            fault_plan=FaultPlan(torn_write={2: 2}),
        )
        with pytest.raises(TornWriteError) as excinfo:
            engine.propagate(executor=executor, incremental=False)
        assert excinfo.value.chunk is not None
        lo, hi = excinfo.value.chunk
        assert 0 <= lo < hi

    def test_verification_off_serves_the_wrong_finite_answer(self):
        # The hole the checksum closes: with verification disabled the
        # torn write goes through silently — every entry is finite, so
        # the numerical health scan cannot catch it either.
        tree = _tree(seed=3)
        reference = InferenceEngine(tree)
        ref_state = reference.propagate()
        engine = InferenceEngine(tree)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            verify_writes=False,
            fault_plan=FaultPlan(torn_write={1: 4}),
        )
        state = engine.propagate(executor=executor, incremental=False)
        variables = _variables(tree)
        worst = max(
            abs(state.marginal(v) - ref_state.marginal(v)).max()
            for v in variables
        )
        assert worst > 1e-9  # wrong — and nothing raised
        assert np.isfinite(worst)

    def test_clean_run_with_verification_is_exact(self):
        tree = _tree(seed=5)
        reference = InferenceEngine(tree)
        ref_state = reference.propagate()
        engine = InferenceEngine(tree)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, inline_threshold=0, verify_writes=True
        )
        state = engine.propagate(executor=executor, incremental=False)
        for v in _variables(tree):
            np.testing.assert_allclose(
                state.marginal(v), ref_state.marginal(v),
                rtol=1e-9, atol=1e-12,
            )


# --------------------------------------------------------------------- #
# Checkpoint round-trip
# --------------------------------------------------------------------- #


class TestCheckpointRoundTrip:
    def test_state_round_trip_is_bit_identical(self, tmp_path):
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.observe(0, 1).observe_soft(3, [0.7, 0.3])
        engine.propagate()
        path = tmp_path / "state.npz"
        manifest = engine.checkpoint(path)
        assert manifest["tables"] > 0
        assert manifest["tree_signature"] == tree_signature(engine.jt)

        restored = InferenceEngine.from_checkpoint(tree, path)
        for v in _variables(tree):
            a, b = engine.marginal(v), restored.marginal(v)
            assert (a == b).all()  # bit-identical, not merely close

    def test_restore_adopts_the_checkpoint_evidence(self, tmp_path):
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.observe(0, 1)
        engine.propagate()
        path = tmp_path / "state.npz"
        engine.checkpoint(path)

        other = InferenceEngine(tree)
        other.observe(1, 0)  # overwritten by restore
        other.propagate()
        other.restore(path)
        assert other.evidence.as_dict() == {0: 1}

    def test_checkpoint_syncs_pending_evidence_first(self, tmp_path):
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.propagate()
        engine.observe(0, 1)  # not yet propagated
        path = tmp_path / "state.npz"
        manifest = engine.checkpoint(path)
        assert manifest["evidence"] == {"0": 1}
        restored = InferenceEngine.from_checkpoint(tree, path)
        oracle = InferenceEngine(tree)
        oracle.observe(0, 1)
        oracle.propagate()
        for v in _variables(tree):
            np.testing.assert_allclose(
                restored.marginal(v), oracle.marginal(v),
                rtol=1e-9, atol=1e-12,
            )

    def test_read_manifest_without_loading(self, tmp_path):
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.propagate()
        path = tmp_path / "state.npz"
        engine.checkpoint(path)
        manifest = read_manifest(path)
        assert manifest["format"] == 3
        assert "state_checksum" in manifest

    def test_file_like_round_trip(self):
        tree = _tree(seed=9)
        engine = InferenceEngine(tree)
        engine.propagate()
        buf = io.BytesIO()
        engine.checkpoint(buf)
        buf.seek(0)
        state = PropagationState.load(engine.jt, buf)
        for v in _variables(tree):
            assert (state.marginal(v) == engine.marginal(v)).all()

    def test_unwritten_pipelines_stay_absent_across_a_round_trip(self):
        """The buffer has a slot for every intermediate, but only written
        ones are in the table index: a state whose distribute phase reached
        one clique restores with the other messages still absent, bit for
        bit, and finishes the distribute exactly.  (An engine's first
        propagation is always full, so the partial state is built with a
        restricted graph directly.)"""
        from repro.inference.incremental import distribute_edges_for

        tree = _tree(seed=9)
        target = max(range(tree.num_cliques), key=tree.depth_of)
        everyone = set(range(tree.num_cliques)) - {tree.root}
        reached = distribute_edges_for(tree, everyone, {target})
        state = PropagationState(tree, {0: 1})
        SerialExecutor().run(
            build_task_graph(tree, distribute_edges=reached), state
        )
        unwritten = {
            key for key in table_layout(tree).inter if key not in state._inter
        }
        assert unwritten and all(key[0] == DISTRIBUTE for key in unwritten)

        buf = io.BytesIO()
        manifest = state.save(buf)
        assert manifest["tables"] == (
            2 * tree.num_cliques - 1 + len(state._inter)
        )
        buf.seek(0)
        restored = PropagationState.load(tree, buf)
        assert set(restored._inter) == set(state._inter)
        assert np.array_equal(restored.buffer, state.buffer)
        assert not np.shares_memory(restored.buffer, state.buffer)

        rest = {(tree.parent[c], c) for c in everyone} - reached
        finish = build_task_graph(
            tree, collect_edges=(), distribute_edges=rest
        )
        full = PropagationState(tree, {0: 1})
        SerialExecutor().run(build_task_graph(tree), full)
        for resumed in (state, restored):
            SerialExecutor().run(finish, resumed)
            assert set(resumed._inter) == set(full._inter)
            assert np.array_equal(resumed.buffer, full.buffer)

    def test_checkpoint_bytes_do_not_depend_on_buffer_history(self):
        """A partly computed state — here the one a targeted fallback
        leaves, distributed to one clique — saves the same bytes whether
        its buffer is new or reused: the unwritten slots of a reused
        buffer still hold another evidence case's messages, and those
        must not reach the archive."""
        from repro.inference.incremental import distribute_edges_for

        def targeted(tree):
            target = max(range(tree.num_cliques), key=tree.depth_of)
            everyone = set(range(tree.num_cliques)) - {tree.root}
            reached = distribute_edges_for(tree, everyone, {target})
            state = PropagationState(tree, {0: 1})
            SerialExecutor().run(
                build_task_graph(tree, distribute_edges=reached), state
            )
            return state

        def archive(state):
            buf = io.BytesIO()
            state.save(buf)
            buf.seek(0)
            with np.load(buf) as data:
                return (
                    json.loads(str(data["__manifest__"][()])),
                    data["__tables__"].tobytes(),
                )

        fresh_tree, used_tree = _tree(seed=9), _tree(seed=9)
        fresh = targeted(fresh_tree)
        for other in ({1: 0}, {2: 1}):
            previous = PropagationState(used_tree, other)
            SerialExecutor().run(build_task_graph(used_tree), previous)
            del previous
        assert len(table_layout(used_tree).free) == 1
        reused = targeted(used_tree)
        assert len(table_layout(used_tree).free) == 0
        absent = [
            slot for key, slot in table_layout(used_tree).inter.items()
            if key not in reused._inter
        ]
        assert absent
        assert any(
            reused.buffer[s.start:s.start + s.size].any() for s in absent
        )
        manifest, tables = archive(fresh)
        reused_manifest, reused_tables = archive(reused)
        assert reused_tables == tables
        assert reused_manifest["state_checksum"] == manifest["state_checksum"]
        assert reused_manifest == manifest

    def test_checkpoint_before_propagation_raises(self):
        tree = _tree(seed=9)
        engine = InferenceEngine(tree)
        with pytest.raises(RuntimeError, match="no propagation"):
            engine.checkpoint(io.BytesIO())


class TestCheckpointCrashAtomicity:
    def test_kill_mid_save_leaves_previous_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        """A process killed mid-``save_state`` must never tear the
        checkpoint at the target path: the archive is written to a temp
        file and renamed over the target only once fully durable."""
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.observe(0, 1)
        engine.propagate()
        path = tmp_path / "state.npz"
        engine.checkpoint(path)
        original = path.read_bytes()

        engine.observe(2, 0)
        engine.propagate()
        real_savez = np.savez

        def dies_mid_write(target, **entries):
            if hasattr(target, "write"):  # the temp-file handle
                target.write(b"PK\x03\x04 torn half-written archive")
                raise KeyboardInterrupt("simulated kill mid-save")
            return real_savez(target, **entries)

        monkeypatch.setattr(np, "savez", dies_mid_write)
        with pytest.raises(KeyboardInterrupt):
            engine.checkpoint(path)
        monkeypatch.setattr(np, "savez", real_savez)

        # The target is byte-identical to the pre-crash checkpoint, no
        # temp debris survives, and the archive still restores.
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]
        restored = InferenceEngine.from_checkpoint(tree, path)
        assert restored.evidence.as_dict() == {0: 1}

    def test_save_without_npz_suffix_lands_atomically(self, tmp_path):
        """np.savez appends ``.npz`` to bare paths; the atomic-replace
        path must land on that same final name."""
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.propagate()
        bare = tmp_path / "state"
        engine.checkpoint(bare)
        assert (tmp_path / "state.npz").is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


# --------------------------------------------------------------------- #
# Typed refusals
# --------------------------------------------------------------------- #


class TestCheckpointRefusals:
    def _checkpoint_bytes(self, tree):
        engine = InferenceEngine(tree)
        engine.propagate()
        buf = io.BytesIO()
        engine.checkpoint(buf)
        return buf.getvalue()

    def test_foreign_tree_is_refused(self):
        payload = self._checkpoint_bytes(_tree(seed=7))
        other = _tree(seed=8)
        with pytest.raises(CheckpointMismatch, match="different junction tree"):
            InferenceEngine.from_checkpoint(other, io.BytesIO(payload))

    def test_tampered_table_bytes_are_refused(self, tmp_path):
        tree = _tree(seed=7)
        payload = self._checkpoint_bytes(tree)
        # Rewrite the archive with one entry of the packed table vector
        # perturbed but the original manifest kept: the zip stays
        # structurally valid, so only the whole-state checksum can catch
        # the tamper.
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["__tables__"][3] += 1e-9
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, **arrays)
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            InferenceEngine.from_checkpoint(tree, tampered)

    def test_table_vector_of_another_layout_is_refused(self, tmp_path):
        tree = _tree(seed=7)
        payload = self._checkpoint_bytes(tree)
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["__tables__"] = arrays["__tables__"][:-1]
        short = tmp_path / "short.npz"
        np.savez(short, **arrays)
        with pytest.raises(CheckpointCorrupt, match="layout"):
            InferenceEngine.from_checkpoint(tree, short)

    def test_structurally_broken_archive_is_refused(self):
        tree = _tree(seed=7)
        raw = bytearray(self._checkpoint_bytes(tree))
        raw[len(raw) // 2] ^= 0xFF
        with pytest.raises(CheckpointCorrupt):
            InferenceEngine.from_checkpoint(tree, io.BytesIO(bytes(raw)))

    def test_tampered_evidence_record_is_refused(self, tmp_path):
        tree = _tree(seed=7)
        engine = InferenceEngine(tree)
        engine.observe(0, 1)
        engine.propagate()
        buf = io.BytesIO()
        engine.checkpoint(buf)
        with np.load(io.BytesIO(buf.getvalue()), allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        manifest = json.loads(str(arrays["__manifest__"][()]))
        manifest["evidence"] = {"0": 0}  # flip the finding, keep signature
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        tampered = tmp_path / "evidence.npz"
        np.savez(tampered, **arrays)
        with pytest.raises(CheckpointMismatch, match="evidence"):
            InferenceEngine.from_checkpoint(tree, tampered)

    def test_format_version_mismatch_is_refused(self, tmp_path):
        tree = _tree(seed=7)
        payload = self._checkpoint_bytes(tree)
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        manifest = json.loads(str(arrays["__manifest__"][()]))
        manifest["format"] = 999
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        future = tmp_path / "future.npz"
        np.savez(future, **arrays)
        with pytest.raises(CheckpointMismatch, match="format"):
            InferenceEngine.from_checkpoint(tree, future)

    def test_format_2_archive_is_refused(self, tmp_path):
        """Format 2 packed an ``extended`` slot for every pipeline; a tree
        with a wide clique now has none for the pipelines into it, so an
        archive of the old layout is refused by its format, before its
        vector's size is even read."""
        tree = _tree(num_cliques=4, width=12, seed=7)
        engine = InferenceEngine(tree)
        engine.propagate()
        layout = table_layout(engine.jt)
        wide = [slot for slot in layout.potentials if slot.size >= 4096]
        assert wide, "the tree needs a wide clique"
        buf = io.BytesIO()
        engine.checkpoint(buf)
        with np.load(io.BytesIO(buf.getvalue()), allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        manifest = json.loads(str(arrays["__manifest__"][()]))
        manifest["format"] = 2
        # Format 2's vector: every wide target's extended slot put back.
        missing = sum(
            layout.potentials[parent if phase == COLLECT else child].size
            for phase, (parent, child) in layout.pipelines()
            if (phase, (parent, child), "extended") not in layout.inter
        )
        assert missing > 0
        arrays["__tables__"] = np.zeros(layout.size + missing)
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        old = tmp_path / "format2.npz"
        np.savez(old, **arrays)
        with pytest.raises(CheckpointMismatch, match="format 2 "):
            InferenceEngine.from_checkpoint(tree, old)

    def test_checkpoint_is_a_plain_zip(self):
        # Operational property: the artifact is inspectable with stock
        # tooling (the CI recovery job lists it with zipfile).
        payload = self._checkpoint_bytes(_tree(seed=7))
        names = zipfile.ZipFile(io.BytesIO(payload)).namelist()
        assert "__manifest__.npy" in names
        assert "__tables__.npy" in names


# --------------------------------------------------------------------- #
# Acceptance: a failed tier is rolled back, never served, never kept
# --------------------------------------------------------------------- #


class _ScribblingSerial(SerialExecutor):
    """A last tier that scribbles over the state, then dies: every tier
    of the ladder fails."""

    def run(self, graph, state, **kw):
        state.buffer[:] = 1e6
        raise RuntimeError("serial died after scribbling")


class _LateSerial(SerialExecutor):
    """A last tier that scribbles over the state and stalls past the
    deadline; serial's own between-task check then refuses the run."""

    def __init__(self, seconds: float):
        super().__init__()
        self.seconds = seconds

    def run(self, graph, state, **kw):
        state.buffer[:] = 1e6
        time.sleep(self.seconds)
        return super().run(graph, state, **kw)


class _ScribbleThenRaise:
    """A primary that writes garbage over the whole state, then dies."""

    def run(self, graph, state, tracer=None, deadline=None):
        state.buffer[:] = 1e6
        raise RuntimeError("died after scribbling")


class _NaNResult:
    """A primary that completes the run, then poisons a table."""

    def run(self, graph, state, tracer=None, deadline=None):
        stats = SerialExecutor().run(graph, state, deadline=deadline)
        state.potentials[0].values[...] = np.nan
        return stats


def _torn_primary():
    return ProcessSharedMemoryExecutor(
        num_workers=2, inline_threshold=0,
        fault_plan=FaultPlan(torn_write={1: 4}),
    )


class TestLadderLeavesSessionUntouched:
    @pytest.mark.parametrize(
        "make_primary", [_ScribbleThenRaise, _NaNResult, _torn_primary],
        ids=["raises", "nan", "torn-write"],
    )
    def test_failed_primary_never_writes_the_session_state(self, make_primary):
        tree = _tree(num_cliques=16, seed=11)
        pool = EngineSessionPool.from_junction_tree(tree, sessions=1)
        engine = pool.engines[0]
        before = engine._state
        buffer, written = before.buffer.copy(), set(before._inter)
        primary = make_primary()
        service = InferenceService(
            pool, primary=primary, fallback=SerialExecutor(), workers=1
        )
        variables = _variables(tree, count=4)
        oracle = InferenceEngine(tree)

        for delta in ({0: 1}, {0: 0, 2: 1}):
            response = service.query(delta=delta, vars=variables)
            assert response.status == "ok", response.error
            if delta == {0: 1}:
                # The failed primary never served, and the state the
                # flight started from is bit-identical.
                assert response.executor == "SerialExecutor"
                assert np.array_equal(before.buffer, buffer)
                assert set(before._inter) == written
            oracle.set_evidence(delta)
            oracle.propagate(incremental=False)
            for v in variables:
                np.testing.assert_allclose(
                    response.marginals[v], oracle.marginal(v),
                    rtol=1e-9, atol=1e-12,
                )
        report = service.drain()
        assert report.failed == 0
        if isinstance(primary, ProcessSharedMemoryExecutor):
            assert primary.fault_plan._taken_torn  # the torn write fired

    @pytest.mark.parametrize(
        "fallback, deadline, status",
        [
            (_ScribblingSerial, None, "failed"),
            (lambda: _LateSerial(0.3), 0.15, "deadline"),
        ],
        ids=["every-tier-failed", "deadline-missed"],
    )
    def test_unanswered_flight_leaves_the_session_as_it_found_it(
        self, fallback, deadline, status
    ):
        tree = _tree(num_cliques=16, seed=11)
        pool = EngineSessionPool.from_junction_tree(tree, sessions=1)
        engine = pool.engines[0]
        before = engine._state
        buffer, written = before.buffer.copy(), set(before._inter)
        variables = _variables(tree, count=4)

        service = InferenceService(
            pool, primary=_ScribbleThenRaise(), fallback=fallback(), workers=1
        )
        response = service.query(
            delta={0: 1}, vars=variables, deadline=deadline
        )
        assert response.status == status, response.error
        service.drain()
        # No tier's writes reached the session: it kept its state, and
        # that state's bytes and written set are the pre-flight ones.
        assert engine._state is before
        assert np.array_equal(before.buffer, buffer)
        assert set(before._inter) == written

        # The next flight on the one session builds on that state.
        service = InferenceService(pool, fallback=SerialExecutor(), workers=1)
        delta = {0: 0, 2: 1}
        response = service.query(delta=delta, vars=variables)
        assert response.status == "ok", response.error
        assert engine.last_stats.incremental
        oracle = InferenceEngine(tree)
        oracle.set_evidence(delta)
        oracle.propagate(incremental=False)
        for v in variables:
            np.testing.assert_allclose(
                response.marginals[v], oracle.marginal(v),
                rtol=1e-9, atol=1e-12,
            )
        assert service.drain().failed == 0


class TestServiceRecovery:
    def test_torn_write_is_never_served_and_next_flight_is_exact(self):
        tree = _tree(num_cliques=16, seed=11)
        pool = EngineSessionPool.from_junction_tree(tree, sessions=1)
        plan = FaultPlan(torn_write={1: 4})
        primary = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=plan,
        )
        service = InferenceService(pool, primary=primary, workers=1)
        variables = _variables(tree, count=4)

        first = service.query(delta={0: 1}, vars=variables)
        assert first.status == "ok"
        # The torn primary never served: the fallback tier answered.
        assert "Process" not in first.executor

        # The next query builds on the session's state and is exact.
        second = service.query(delta={0: 0}, vars=variables)
        assert second.status == "ok"
        report = service.drain()
        assert plan._taken_torn  # the torn write fired
        assert report.failed == 0

        oracle = InferenceEngine(tree)
        oracle.set_evidence({0: 1})
        oracle.propagate()
        for v in variables:
            np.testing.assert_allclose(
                first.marginals[v], oracle.marginal(v),
                rtol=1e-9, atol=1e-12,
            )
        oracle.set_evidence({0: 0})
        oracle.propagate(incremental=False)
        for v in variables:
            np.testing.assert_allclose(
                second.marginals[v], oracle.marginal(v),
                rtol=1e-9, atol=1e-12,
            )
