"""The durable state store: journal framing, snapshots, and recovery.

Covers the crash-safety claims of :mod:`repro.resilience.durability`
directly — CRC-framed journal round-trips, torn/corrupt tail
truncation to the committed prefix (including the exhaustive
crash-point sweep over *every* truncation offset), snapshot generation
rotation with corrupt-generation fallback, ENOSPC surfacing as typed
errors without damaging committed state, the runtime-state fold, and
the obs counters recovery emits.
"""

import json
import zlib

import pytest

from repro import obs
from repro.resilience.durability import (
    JOURNAL_NAME,
    DiskIO,
    DurabilityError,
    DurableStateStore,
    FullDiskIO,
    JournalRecord,
    SnapshotStore,
    TornWriteIO,
    WriteAheadJournal,
    atomic_write_text,
    fold_runtime_state,
    io_shim,
    recover,
    recover_runtime_state,
)


def _fill(store, n=6):
    """Commit a deterministic event history; returns the records."""
    records = [
        store.append(
            "tenant_register", tenant="t", config={}, program="p1"
        )
    ]
    for i in range(2, n + 1):
        records.append(
            store.append("swap", tenant="t", version=i, program=f"p{i}")
        )
    return records


class TestJournalFraming:
    def test_roundtrip(self, tmp_path):
        journal = WriteAheadJournal(tmp_path / JOURNAL_NAME)
        written = [
            JournalRecord(seq=i, kind="swap", data={"v": i, "s": "x" * i})
            for i in range(1, 9)
        ]
        for record in written:
            journal.append(record)
        replay = journal.replay()
        assert replay.records == written
        assert replay.truncated_tail_bytes == 0

    def test_missing_journal_is_empty(self, tmp_path):
        replay = WriteAheadJournal(tmp_path / "nope.log").replay()
        assert replay.records == []
        assert replay.valid_bytes == 0

    def test_crc_bit_flip_truncates_there(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = WriteAheadJournal(path)
        for i in range(1, 5):
            journal.append(JournalRecord(seq=i, kind="k", data={"i": i}))
        raw = bytearray(path.read_bytes())
        # Flip one byte inside the third record's body.
        replay_clean = journal.replay()
        offset = sum(
            len(line) + 1
            for line in path.read_bytes().split(b"\n")[:2]
        )
        raw[offset + 20] ^= 0x01
        path.write_bytes(bytes(raw))
        replay = journal.replay()
        assert [r.seq for r in replay.records] == [1, 2]
        assert replay.truncated_tail_bytes > 0
        assert replay_clean.records[:2] == replay.records

    def test_foreign_bytes_are_a_tail(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = WriteAheadJournal(path)
        journal.append(JournalRecord(seq=1, kind="k", data={}))
        with open(path, "ab") as handle:
            handle.write(b"not a journal frame at all\n")
        replay = journal.replay()
        assert [r.seq for r in replay.records] == [1]
        assert replay.truncated_tail_bytes == 27

    def test_repair_truncates_on_disk(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = WriteAheadJournal(path)
        journal.append(JournalRecord(seq=1, kind="k", data={}))
        clean = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b"G1 deadbeef 5 torn")
        assert journal.repair() == 18
        assert path.read_bytes() == clean
        assert journal.repair() == 0  # idempotent


class TestCrashPointSweep:
    """Kill the store at EVERY journal offset; recovery must always
    yield exactly the committed prefix — never a partial record, never
    an unhandled exception (the PR's acceptance criterion)."""

    def test_every_truncation_offset(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(state_dir, snapshot_every=None)
        records = _fill(store, n=6)
        journal_path = state_dir / JOURNAL_NAME
        raw = journal_path.read_bytes()
        # Every complete-frame boundary, in order.
        boundaries = [0]
        for index, byte in enumerate(raw):
            if byte == ord("\n"):
                boundaries.append(index + 1)
        for offset in range(len(raw) + 1):
            journal_path.write_bytes(raw[:offset])
            recovered = recover(state_dir)
            committed = max(b for b in boundaries if b <= offset)
            expected = sum(1 for b in boundaries[1:] if b <= offset)
            assert len(recovered.events) == expected, (
                f"offset {offset}: {len(recovered.events)} records "
                f"recovered, expected {expected}"
            )
            assert recovered.events == records[:expected]
            assert recovered.truncated_tail_bytes == offset - committed

    def test_mid_record_bit_corruption_never_raises(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(state_dir, snapshot_every=None)
        records = _fill(store, n=4)
        journal_path = state_dir / JOURNAL_NAME
        raw = journal_path.read_bytes()
        for offset in range(len(raw)):
            mutated = bytearray(raw)
            mutated[offset] ^= 0xFF
            journal_path.write_bytes(bytes(mutated))
            recovered = recover(state_dir)  # must never raise
            # Whatever survives is a strict prefix of the commit order.
            assert recovered.events == records[: len(recovered.events)]


class TestSnapshots:
    def test_rotation_keeps_two_generations(self, tmp_path):
        snapshots = SnapshotStore(tmp_path, keep=2)
        for generation in range(1, 5):
            written = snapshots.write({"n": generation}, seq=generation)
            assert written == generation
        assert snapshots.generations() == [3, 4]
        state, seq = snapshots.load_one(4)
        assert state == {"n": 4} and seq == 4

    def test_corrupt_newest_falls_back(self, tmp_path):
        snapshots = SnapshotStore(tmp_path, keep=2)
        snapshots.write({"n": 1}, seq=10)
        snapshots.write({"n": 2}, seq=20)
        newest = tmp_path / "snapshot-00000002.json"
        newest.write_text("{definitely not json", encoding="utf-8")
        state, seq, generation, rejected = snapshots.load_latest()
        assert (state, seq, generation, rejected) == ({"n": 1}, 10, 1, 1)

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        snapshots = SnapshotStore(tmp_path, keep=2)
        snapshots.write({"n": 1}, seq=1)
        path = tmp_path / "snapshot-00000001.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["state"] = {"n": 999}  # state no longer matches crc
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DurabilityError, match="checksum") as info:
            snapshots.load_one(1)
        assert info.value.path == path

    def test_wrong_format_version_is_rejected(self, tmp_path):
        snapshots = SnapshotStore(tmp_path)
        snapshots.write({"n": 1}, seq=1)
        path = tmp_path / "snapshot-00000001.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DurabilityError, match="format version"):
            snapshots.load_one(1)

    def test_compaction_preserves_fallback_replay(self, tmp_path):
        """After rotation, the journal still holds every record the
        OLDEST kept generation does not cover — so a corrupt newest
        snapshot falls back a generation and replays to the present."""
        state_dir = tmp_path / "state"
        applied = []  # the in-memory view: records whose mutation ran
        store = DurableStateStore(
            state_dir, snapshot_every=3,
            state_provider=lambda: fold_runtime_state(None, applied),
        )
        applied.append(
            store.append("tenant_register", tenant="t", config={}, program="p1")
        )
        for i in range(2, 9):  # crosses two snapshot boundaries
            applied.append(
                store.append("swap", tenant="t", version=i, program=f"p{i}")
            )
        generations = sorted(state_dir.glob("snapshot-*.json"))
        assert len(generations) == 2
        reference, _ = recover_runtime_state(state_dir)
        # Corrupt the newest generation; state must still reconstruct.
        data = bytearray(generations[-1].read_bytes())
        data[len(data) // 2] ^= 0xFF
        generations[-1].write_bytes(bytes(data))
        folded, recovered = recover_runtime_state(state_dir)
        assert folded == reference
        assert recovered.rejected_snapshots == 1


class TestDurableStateStore:
    def test_reopen_continues_sequence(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(state_dir, snapshot_every=None)
        _fill(store, n=3)
        reopened = DurableStateStore(state_dir, snapshot_every=None)
        assert reopened.last_seq == store.last_seq == 3
        record = reopened.append("swap", tenant="t", version=4, program="p4")
        assert record.seq == 4

    def test_append_after_torn_tail_never_interleaves(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(state_dir, snapshot_every=None)
        _fill(store, n=2)
        with open(state_dir / JOURNAL_NAME, "ab") as handle:
            handle.write(b"G1 0000")  # torn mid-header
        reopened = DurableStateStore(state_dir, snapshot_every=None)
        assert reopened.recovered.truncated_tail_bytes == 7
        reopened.append("swap", tenant="t", version=3, program="p3")
        replay = reopened.journal.replay()
        assert [r.seq for r in replay.records] == [1, 2, 3]
        assert replay.truncated_tail_bytes == 0

    def test_disk_full_is_typed_and_preserves_state(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(state_dir, snapshot_every=None)
        _fill(store, n=3)
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError) as info:
                store.append("swap", tenant="t", version=9, program="p9")
        assert info.value.path == state_dir / JOURNAL_NAME
        assert isinstance(info.value.__cause__, OSError)
        assert info.value.__cause__.errno == 28
        assert store.last_seq == 3  # the failed append never committed
        assert store.append_errors == 1
        folded, _ = recover_runtime_state(state_dir)
        assert folded["tenants"]["t"]["cursor"] == 2

    def test_auto_snapshot_fires_on_interval(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(
            state_dir, snapshot_every=4, state_provider=lambda: {"s": 1}
        )
        _fill(store, n=4)
        assert len(list(state_dir.glob("snapshot-*.json"))) == 1


class TestAtomicWriteText:
    def test_failure_keeps_previous_content(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "original")
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError) as info:
                atomic_write_text(path, "replacement")
        assert info.value.path == path
        assert path.read_text(encoding="utf-8") == "original"

    def test_torn_write_keeps_previous_content(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "original")

        class TornAtomicIO(DiskIO):
            """Crashes after staging a partial tmp file."""

            def write_atomic(self, target, data):
                tmp = target.with_name(target.name + ".tmp")
                tmp.write_bytes(data[:3])
                raise OSError(5, "simulated crash mid-write")

        with io_shim(TornAtomicIO()), pytest.raises(DurabilityError):
            atomic_write_text(path, "replacement")
        assert path.read_text(encoding="utf-8") == "original"


class TestFoldRuntimeState:
    def test_event_vocabulary(self):
        records = [
            JournalRecord(1, "tenant_register", {
                "tenant": "t", "config": {"quarantine_capacity": 2},
                "program": "p1",
            }),
            JournalRecord(2, "swap", {"tenant": "t", "program": "p2"}),
            JournalRecord(3, "swap", {"tenant": "t", "program": "p3"}),
            JournalRecord(4, "rollback", {"tenant": "t"}),
            JournalRecord(5, "quarantine_push", {"tenant": "t", "row": {"a": 1}}),
            JournalRecord(6, "quarantine_push", {"tenant": "t", "row": {"a": 2}}),
            JournalRecord(7, "quarantine_push", {"tenant": "t", "row": {"a": 3}}),
        ]
        folded = fold_runtime_state(None, records)
        tenant = folded["tenants"]["t"]
        assert tenant["programs"] == ["p1", "p2", "p3"]
        assert tenant["cursor"] == 1  # rolled back from p3 to p2
        # capacity 2, drop_oldest: the first push was the casualty
        assert tenant["quarantine"] == [{"a": 2}, {"a": 3}]
        assert tenant["quarantine_dropped"] == 1

    def test_remove_erases_and_later_events_tolerated(self):
        records = [
            JournalRecord(1, "tenant_register", {"tenant": "t", "program": "p"}),
            JournalRecord(2, "tenant_remove", {"tenant": "t"}),
            JournalRecord(3, "swap", {"tenant": "t", "program": "zombie"}),
        ]
        folded = fold_runtime_state(None, records)
        assert folded["tenants"] == {}

    def test_snapshot_state_merges(self):
        state = {"tenants": {"t": {
            "config": {}, "programs": ["p1"], "cursor": 0,
            "quarantine": [{"a": 1}], "quarantine_dropped": 2,
            "baseline_violation_rate": 0.5,
        }}}
        folded = fold_runtime_state(
            state,
            [JournalRecord(9, "swap", {"tenant": "t", "program": "p2"})],
        )
        tenant = folded["tenants"]["t"]
        assert tenant["programs"] == ["p1", "p2"]
        assert tenant["cursor"] == 1
        assert tenant["quarantine"] == [{"a": 1}]
        assert tenant["quarantine_dropped"] == 2

    def test_unknown_kind_is_a_typed_error(self):
        with pytest.raises(DurabilityError, match="unknown kind"):
            fold_runtime_state(None, [
                JournalRecord(1, "tenant_register", {"tenant": "t", "program": "p"}),
                JournalRecord(2, "from_the_future", {"tenant": "t"}),
            ])

    def test_rollback_at_first_version_is_a_noop(self):
        folded = fold_runtime_state(None, [
            JournalRecord(1, "tenant_register", {"tenant": "t", "program": "p"}),
            JournalRecord(2, "rollback", {"tenant": "t"}),
        ])
        assert folded["tenants"]["t"]["cursor"] == 0


class TestRecoveryObservability:
    def test_counters_emitted(self, tmp_path):
        state_dir = tmp_path / "state"
        store = DurableStateStore(
            state_dir, snapshot_every=None,
            state_provider=lambda: {"tenants": {}},
        )
        _fill(store, n=3)
        store.snapshot({"tenants": {}})
        store.append("swap", tenant="t", version=9, program="p9")
        with open(state_dir / JOURNAL_NAME, "ab") as handle:
            handle.write(b"G1 torn")
        with obs.tracing() as sink:
            recover(state_dir)
        report = obs.ObsReport.from_events(sink.events)
        assert report.counter("recovery.replayed_records") == 1
        assert report.counter("recovery.truncated_tail_bytes") == 7
        assert report.counter("snapshot.generations") == 1
        assert "recovery.replayed_records" in report.durability
        assert "durability:" in report.render()

    def test_missing_state_dir_is_typed(self, tmp_path):
        with pytest.raises(DurabilityError, match="no such state"):
            recover(tmp_path / "never-created")


class TestTornWriteShim:
    def test_tears_exactly_once(self, tmp_path):
        path = tmp_path / "j.log"
        journal = WriteAheadJournal(path)
        with io_shim(TornWriteIO(fail_on_append=2, keep_bytes=4)):
            journal.append(JournalRecord(1, "k", {}))
            with pytest.raises(DurabilityError):
                journal.append(JournalRecord(2, "k", {}))
        replay = journal.replay()
        assert [r.seq for r in replay.records] == [1]
        assert replay.truncated_tail_bytes == 4

    def test_frame_crc_matches_zlib(self):
        record = JournalRecord(3, "swap", {"tenant": "t"})
        from repro.resilience.durability import _frame

        frame = _frame(record)
        crc_hex, length, body = frame[3:].split(b" ", 2)
        body = body.rstrip(b"\n")
        assert int(length) == len(body)
        assert int(crc_hex, 16) == zlib.crc32(body) & 0xFFFFFFFF
