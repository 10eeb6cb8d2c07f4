"""Typed error paths for CSV loading and guardrail persistence.

Satellites of the resilience PRs: :class:`RelationIOError` (with row
numbers) for malformed CSV payloads, :class:`GuardrailLoadError` for
corrupt/truncated guardrail files, the hot-swap paths
(:meth:`GuardrailVersions.swap_from_file`,
:meth:`QueryExecutor.swap_guardrail`) which must surface the same typed
error while keeping the previous version live, and
:class:`DurabilityError` — which must name the offending path and
carry the underlying cause for every corrupt/truncated/empty durable
file.
"""

import pytest

from repro.relation import RelationError, RelationIOError, from_csv_text
from repro.resilience import (
    DurabilityError,
    FullDiskIO,
    GuardrailVersions,
    io_shim,
)
from repro.resilience.durability import (
    DurableStateStore,
    SnapshotStore,
    WriteAheadJournal,
    recover,
)
from repro.synth import Guardrail, GuardrailLoadError


class TestRelationIOError:
    def test_subclasses_relation_error(self):
        assert issubclass(RelationIOError, RelationError)

    def test_empty_file_has_no_row(self):
        with pytest.raises(RelationIOError, match="empty") as info:
            from_csv_text("")
        assert info.value.row is None

    def test_empty_header(self):
        with pytest.raises(RelationIOError, match="header"):
            from_csv_text("\n1,2\n")

    def test_ragged_row_names_the_row(self):
        with pytest.raises(RelationIOError, match="row 2") as info:
            from_csv_text("a,b\n1,2\n3\n")
        assert info.value.row == 2
        assert "expected 2" in str(info.value)

    def test_too_many_fields(self):
        with pytest.raises(RelationIOError, match="3 fields") as info:
            from_csv_text("a,b\n1,2,3\n")
        assert info.value.row == 1

    def test_empty_row(self):
        with pytest.raises(RelationIOError, match="row 2 is empty") as info:
            from_csv_text("a,b\n1,2\n\n3,4\n")
        assert info.value.row == 2

    def test_unparsable_numeric_cell(self):
        with pytest.raises(RelationIOError, match="expects a number") as info:
            from_csv_text("a,score\nx,1.5\ny,lots\n", numeric=["score"])
        assert info.value.row == 2
        assert "'lots'" in str(info.value)

    def test_clean_payload_still_loads(self):
        relation = from_csv_text("a,b\n1,2\n3,4\n")
        assert relation.n_rows == 2


class TestGuardrailLoadError:
    def _saved(self, tmp_path, city_program):
        path = tmp_path / "guard.grd"
        Guardrail.from_program(city_program).save(path)
        return path

    def test_roundtrip_still_works(self, tmp_path, city_program):
        path = self._saved(tmp_path, city_program)
        loaded = Guardrail.load(path)
        assert loaded.program == city_program

    def test_missing_file(self, tmp_path):
        with pytest.raises(GuardrailLoadError, match="no such"):
            Guardrail.load(tmp_path / "nope.grd")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.grd"
        path.write_text("")
        with pytest.raises(GuardrailLoadError, match="empty"):
            Guardrail.load(path)

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "blank.grd"
        path.write_text("  \n\t\n")
        with pytest.raises(GuardrailLoadError, match="empty"):
            Guardrail.load(path)

    def test_corrupt_dsl(self, tmp_path):
        path = tmp_path / "corrupt.grd"
        path.write_text("if City = then <- garbage ???")
        with pytest.raises(GuardrailLoadError, match="not a valid DSL"):
            Guardrail.load(path)

    def test_truncated_file(self, tmp_path, city_program):
        path = self._saved(tmp_path, city_program)
        text = path.read_text()
        path.write_text(text[: len(text) // 3].rsplit(" ", 1)[0])
        with pytest.raises(GuardrailLoadError):
            Guardrail.load(path)

    def test_binary_garbage(self, tmp_path):
        path = tmp_path / "binary.grd"
        path.write_bytes(b"\xff\xfe\x00\x01guardrail\x00")
        with pytest.raises(GuardrailLoadError):
            Guardrail.load(path)

    def test_load_error_is_a_value_error(self):
        # Callers that predate the typed error keep working.
        assert issubclass(GuardrailLoadError, ValueError)

    def test_from_program_rejects_non_program(self):
        with pytest.raises(GuardrailLoadError, match="Program"):
            Guardrail.from_program({"not": "a program"})


class TestHotSwapLoadError:
    """A corrupt file offered mid-swap must not take down the old guard."""

    def _versions(self, city_program) -> GuardrailVersions:
        return GuardrailVersions(Guardrail.from_program(city_program))

    def test_swap_from_corrupt_file_is_typed(self, tmp_path, city_program):
        versions = self._versions(city_program)
        bad = tmp_path / "corrupt.grd"
        bad.write_text("if City = then <- garbage ???")
        with pytest.raises(GuardrailLoadError):
            versions.swap_from_file(bad)

    def test_previous_version_stays_live_after_failed_swap(
        self, tmp_path, city_program
    ):
        versions = self._versions(city_program)
        bad = tmp_path / "corrupt.grd"
        bad.write_text("not a program at all }{")
        with pytest.raises(GuardrailLoadError):
            versions.swap_from_file(bad)
        assert versions.version == 1
        assert versions.program == city_program
        # The live guard keeps vetting rows with the old program.
        row = {
            "PostalCode": "94704",
            "City": "Berkeley",
            "State": "CA",
            "Country": "USA",
        }
        assert versions.guard().check(row).ok

    def test_swap_from_missing_file(self, tmp_path, city_program):
        versions = self._versions(city_program)
        with pytest.raises(GuardrailLoadError, match="no such"):
            versions.swap_from_file(tmp_path / "nope.grd")
        assert versions.version == 1

    def test_swap_rejects_non_guardrail_object(self, city_program):
        versions = self._versions(city_program)
        with pytest.raises(GuardrailLoadError):
            versions.swap({"not": "a guardrail"})
        assert versions.version == 1

    def test_good_swap_still_bumps_version(self, tmp_path, city_program):
        versions = self._versions(city_program)
        path = tmp_path / "good.grd"
        Guardrail.from_program(city_program).save(path)
        versions.swap_from_file(path)
        assert versions.version == 2

    def test_executor_swap_guardrail_corrupt_file(
        self, tmp_path, city_relation, city_program
    ):
        from repro.sql.executor import QueryExecutor

        executor = QueryExecutor(
            {"t": city_relation},
            guardrail=Guardrail.from_program(city_program),
        )
        bad = tmp_path / "corrupt.grd"
        bad.write_text("?? definitely not DSL ??")
        before = executor.guardrail
        with pytest.raises(GuardrailLoadError):
            executor.swap_guardrail(bad)
        assert executor.guardrail is before

    def test_executor_swap_guardrail_rejects_garbage_object(
        self, city_relation, city_program
    ):
        from repro.sql.executor import QueryExecutor

        executor = QueryExecutor(
            {"t": city_relation},
            guardrail=Guardrail.from_program(city_program),
        )
        with pytest.raises(GuardrailLoadError):
            executor.swap_guardrail(42)


class TestDurabilityErrorTyping:
    """Every durable-state failure is a :class:`DurabilityError`
    naming the path and chaining the cause — never a bare OSError,
    JSONDecodeError, or UnicodeDecodeError."""

    def test_is_a_value_error_with_path(self, tmp_path):
        assert issubclass(DurabilityError, ValueError)
        error = DurabilityError("boom", path=tmp_path / "f")
        assert error.path == tmp_path / "f"

    def test_missing_state_dir_names_it(self, tmp_path):
        missing = tmp_path / "never-created"
        with pytest.raises(DurabilityError) as info:
            recover(missing)
        assert info.value.path == missing
        assert str(missing) in str(info.value)

    def test_empty_snapshot_file_is_typed(self, tmp_path):
        path = tmp_path / "snapshot-00000001.json"
        path.write_text("")
        with pytest.raises(DurabilityError) as info:
            SnapshotStore(tmp_path).load_one(1)
        assert info.value.path == path
        assert info.value.__cause__ is not None

    def test_truncated_snapshot_is_typed(self, tmp_path):
        snapshots = SnapshotStore(tmp_path)
        snapshots.write({"tenants": {}}, seq=1)
        path = tmp_path / "snapshot-00000001.json"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DurabilityError) as info:
            snapshots.load_one(1)
        assert info.value.path == path

    def test_binary_garbage_snapshot_is_typed(self, tmp_path):
        path = tmp_path / "snapshot-00000001.json"
        path.write_bytes(b"\xff\xfe\x00\x01snapshot\x00")
        with pytest.raises(DurabilityError, match="UTF-8") as info:
            SnapshotStore(tmp_path).load_one(1)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_journal_write_failure_is_typed(self, tmp_path):
        from repro.resilience.durability import JournalRecord

        journal = WriteAheadJournal(tmp_path / "journal.log")
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError) as info:
                journal.append(JournalRecord(seq=1, kind="k", data={}))
        assert info.value.path == tmp_path / "journal.log"
        assert isinstance(info.value.__cause__, OSError)

    def test_unreadable_state_dir_path_is_typed(self, tmp_path):
        clash = tmp_path / "file-not-a-dir"
        clash.write_text("occupied")
        with pytest.raises(DurabilityError) as info:
            DurableStateStore(clash / "state")
        assert info.value.path == clash / "state"


class TestAtomicGuardrailSave:
    """``Guardrail.save`` routes through the shared atomic-write
    helper: a failed save is typed and leaves the previous file —
    and the previously loaded version — fully intact."""

    def test_failed_save_keeps_old_file(self, tmp_path, city_program):
        path = tmp_path / "guard.grd"
        Guardrail.from_program(city_program).save(path)
        before = path.read_text()
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError) as info:
                Guardrail.from_program(city_program).save(path)
        assert info.value.path == path
        assert path.read_text() == before
        assert Guardrail.load(path).program == city_program

    def test_failed_save_leaves_live_version_active(
        self, tmp_path, city_program
    ):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError):
                versions.current.save(tmp_path / "guard.grd")
        assert versions.version == 1
        row = {
            "PostalCode": "94704",
            "City": "Berkeley",
            "State": "CA",
            "Country": "USA",
        }
        assert versions.guard().check(row).ok

    def test_checkpoint_save_is_atomic_too(self, tmp_path):
        from repro.synth.checkpoint import SynthesisCheckpoint

        checkpoint = SynthesisCheckpoint(
            phase="pc", relation_token="r", config_token="c"
        )
        path = tmp_path / "synth.ckpt"
        checkpoint.save(path)
        before = path.read_text()
        with io_shim(FullDiskIO(capacity_bytes=0)):
            with pytest.raises(DurabilityError):
                SynthesisCheckpoint(
                    phase="fill", relation_token="r", config_token="c"
                ).save(path)
        assert path.read_text() == before
        assert SynthesisCheckpoint.load(path).phase == "pc"
