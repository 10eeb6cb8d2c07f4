"""Durable guard-runtime state: write-ahead journal + crash recovery.

Everything the guard runtime accumulates in deployment — tenant
registrations, :class:`~repro.resilience.GuardrailVersions`
swap/rollback history, :class:`~repro.resilience.QuarantineBuffer`
contents, drift baselines — lives in process memory, so without this
module a crash silently forgets every committed hot-swap and every
quarantined row the self-healing loop feeds on.  This module is the
durability substrate:

* :class:`WriteAheadJournal` — an append-only journal of CRC32-framed
  JSON records, one per committed event, fsynced per append.  Replay
  tolerates a torn or corrupt tail (a crash mid-write) by truncating
  to the last valid record — the *committed prefix* — and never
  surfaces a partially applied record;
* :class:`SnapshotStore` — periodic full-state snapshots written
  atomically (tmp + fsync + rename), multiple generations kept; a
  corrupt generation is rejected by its embedded checksum and recovery
  falls back to the previous one;
* :class:`DurableStateStore` — the two glued together: ``append`` is
  the WAL (journaled *before* the in-memory mutation activates), a
  snapshot every ``snapshot_every`` records bounds replay time, and
  the journal is compacted to the records the oldest kept snapshot
  does not cover;
* :func:`recover` — load the newest valid snapshot, replay the
  journal tail, report exactly what happened
  (:class:`RecoveredState`: replayed records, truncated tail bytes,
  rejected snapshot generations) and emit the same numbers as obs
  counters;
* :class:`DiskIO` — the pluggable IO shim **every** durability write
  flows through, so the chaos harness can tear a write mid-record
  (:class:`TornWriteIO`) or fill the disk (:class:`FullDiskIO`)
  without touching the kernel;
* :func:`atomic_write_text` — the one shared atomic-write helper
  (tmp + fsync + ``os.replace``) every persistence path in the repo
  routes through (``Guardrail.save``, synthesis checkpoints), so no
  code path can leave a torn file.

    store = DurableStateStore(state_dir)
    store.append("swap", tenant="acme", version=2, program=text)
    ...                                   # process dies at any point
    recovered = recover(state_dir)
    recovered.state, recovered.events     # the committed prefix

All failures are typed :class:`DurabilityError`\\ s naming the path and
the cause — never a bare ``OSError``/``JSONDecodeError``.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs

JOURNAL_FORMAT_VERSION = 1
"""Journal/snapshot schema version; bumped on incompatible changes."""

JOURNAL_MAGIC = b"G1"
"""Leading bytes of every journal frame (rejects foreign files fast)."""

JOURNAL_NAME = "journal.log"
"""The journal file's name inside a state directory."""

SNAPSHOT_GLOB = "snapshot-*.json"
"""Pattern snapshot generations match inside a state directory."""


class DurabilityError(ValueError):
    """A durable-state file is missing, corrupt, or unwritable.

    Carries the offending :attr:`path` so operators know *which* file
    to inspect; the ``__cause__`` chain preserves the underlying
    OS/JSON error.  Subclasses ``ValueError`` so pre-typed callers
    keep working.
    """

    def __init__(self, message: str, path: "Path | str | None" = None):
        super().__init__(message)
        self.path = Path(path) if path is not None else None


# ---------------------------------------------------------------------------
# The IO shim: every durability byte flows through one of these
# ---------------------------------------------------------------------------


class DiskIO:
    """Real disk IO for durability writes (the default shim).

    All journal appends and snapshot writes go through one shim
    instance, so chaos fault classes (torn writes, disk full) inject
    below the durability logic — exactly where a real kernel would
    fail — by substituting a subclass via the ``io=`` parameter or
    :func:`io_shim`.
    """

    def append_bytes(self, path: Path, data: bytes) -> None:
        """Append ``data`` to ``path``, flushed and fsynced."""
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def write_atomic(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` atomically (tmp+fsync+rename).

        A crash at any point leaves either the previous file or the
        complete new one, never a torn mixture; the directory entry is
        fsynced so the rename itself is durable.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.fsync_dir(path.parent)

    def fsync_dir(self, directory: Path) -> None:
        """Fsync a directory entry (no-op where unsupported)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - e.g. network mounts
            pass
        finally:
            os.close(fd)

    def truncate(self, path: Path, length: int) -> None:
        """Truncate ``path`` to ``length`` bytes (tail repair)."""
        with open(path, "r+b") as handle:
            handle.truncate(length)
            handle.flush()
            os.fsync(handle.fileno())

    def remove(self, path: Path) -> None:
        """Delete a retired snapshot generation (missing is fine)."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class TornWriteIO(DiskIO):
    """Chaos shim: the Nth append writes only a byte prefix, then fails.

    Models a crash (or kernel error) mid-``write``: the journal gains
    a torn tail exactly as a powered-off machine would leave one.
    """

    def __init__(self, fail_on_append: int = 1, keep_bytes: int = 7):
        self.fail_on_append = int(fail_on_append)
        self.keep_bytes = int(keep_bytes)
        self.appends = 0

    def append_bytes(self, path: Path, data: bytes) -> None:
        """Append normally until the fated call, then tear the write."""
        self.appends += 1
        if self.appends == self.fail_on_append:
            super().append_bytes(path, data[: self.keep_bytes])
            raise OSError(5, "chaos: torn write (simulated power loss)")
        super().append_bytes(path, data)


class FullDiskIO(DiskIO):
    """Chaos shim: the device runs out of space after a byte budget.

    Every write path (append and atomic) starts failing with
    ``ENOSPC`` once ``capacity_bytes`` have been written — the classic
    slow-burn production failure the durability layer must surface as
    a typed error without corrupting prior state.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = int(capacity_bytes)
        self.written = 0

    def _claim(self, n: int) -> None:
        if self.written + n > self.capacity_bytes:
            raise OSError(28, "chaos: no space left on device")
        self.written += n

    def append_bytes(self, path: Path, data: bytes) -> None:
        """Append within the byte budget; ENOSPC beyond it."""
        self._claim(len(data))
        super().append_bytes(path, data)

    def write_atomic(self, path: Path, data: bytes) -> None:
        """Atomic write within the byte budget; ENOSPC beyond it."""
        self._claim(len(data))
        super().write_atomic(path, data)


DEFAULT_IO = DiskIO()
"""The shim used when no ``io=`` is supplied (module-wide default)."""

_ACTIVE_IO: list[DiskIO] = [DEFAULT_IO]


def active_io() -> DiskIO:
    """The shim durability writes currently resolve to (see
    :func:`io_shim`)."""
    return _ACTIVE_IO[-1]


@contextmanager
def io_shim(shim: DiskIO):
    """Temporarily route default-IO durability writes through ``shim``.

    The chaos harness and the typed-error tests use this to inject
    disk faults into code paths whose signatures do not thread an
    ``io=`` (e.g. ``Guardrail.save``)::

        with io_shim(TornWriteIO(fail_on_append=1)):
            guardrail.save(path)   # raises; the old file is intact
    """
    _ACTIVE_IO.append(shim)
    try:
        yield shim
    finally:
        _ACTIVE_IO.pop()


def atomic_write_text(
    path, text: str, io: "DiskIO | None" = None
) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    The one shared atomic-write helper every persistence path in the
    repo routes through; a failure at any point raises a typed
    :class:`DurabilityError` and leaves the previous file (if any)
    untouched.
    """
    path = Path(path)
    shim = io if io is not None else active_io()
    try:
        shim.write_atomic(path, text.encode("utf-8"))
    except OSError as error:
        raise DurabilityError(
            f"cannot write {path} atomically: {error}", path=path
        ) from error


# ---------------------------------------------------------------------------
# The write-ahead journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalRecord:
    """One committed event replayed from (or written to) the journal."""

    seq: int
    """Monotonic sequence number (1-based, store-wide)."""
    kind: str
    """Event vocabulary name (``swap``, ``quarantine_push``, ...)."""
    data: dict
    """The event payload (JSON-round-trippable)."""


def _frame(record: JournalRecord) -> bytes:
    """Encode one record as a CRC32-framed journal line."""
    body = json.dumps(
        {"seq": record.seq, "kind": record.kind, "data": record.data},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return JOURNAL_MAGIC + b" %08x %d " % (crc, len(body)) + body + b"\n"


def _parse_frame(line: bytes) -> "JournalRecord | None":
    """Decode one complete journal line; None when the frame is invalid.

    A frame is valid iff the magic matches, the declared length matches
    the body, the CRC32 matches the body bytes, and the body is a JSON
    object with ``seq``/``kind``/``data`` fields.
    """
    if not line.startswith(JOURNAL_MAGIC + b" "):
        return None
    try:
        _, crc_hex, length = line.split(b" ", 3)[:3]
        header_len = len(JOURNAL_MAGIC) + 1 + len(crc_hex) + 1 + len(length) + 1
        body = line[header_len:]
        declared = int(length)
        crc = int(crc_hex, 16)
    except (ValueError, IndexError):
        return None
    if len(body) != declared or zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    try:
        return JournalRecord(
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            data=dict(payload["data"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class JournalReplay:
    """What :meth:`WriteAheadJournal.replay` found on disk."""

    records: list[JournalRecord] = field(default_factory=list)
    """Every valid record of the committed prefix, in journal order."""
    valid_bytes: int = 0
    """Offset of the end of the committed prefix."""
    truncated_tail_bytes: int = 0
    """Bytes past the committed prefix (a torn/corrupt tail); 0 means
    the journal was clean."""


class WriteAheadJournal:
    """An append-only journal of CRC32-framed JSON event records.

    ``append`` is the commit point: the frame is written, flushed, and
    fsynced through the IO shim before it returns, so a record that
    ``append`` acknowledged survives any later crash.  ``replay``
    walks frames from the start and stops at the first invalid one —
    a torn tail (crash mid-write) or trailing corruption yields the
    committed prefix plus a count of discarded bytes, never an
    exception and never a partial record.
    """

    def __init__(self, path, io: "DiskIO | None" = None):
        self.path = Path(path)
        self._io = io

    @property
    def io(self) -> DiskIO:
        """The shim this journal's writes flow through."""
        return self._io if self._io is not None else active_io()

    def append(self, record: JournalRecord) -> None:
        """Durably append one record (the WAL commit point).

        Raises a typed :class:`DurabilityError` when the device
        refuses the write (disk full, IO error); the on-disk journal
        may gain a torn tail in that case, which the next
        :meth:`replay` discards.
        """
        try:
            self.io.append_bytes(self.path, _frame(record))
        except OSError as error:
            if obs.enabled():
                obs.count("durability.append_errors")
            raise DurabilityError(
                f"cannot journal record seq={record.seq} "
                f"({record.kind}) to {self.path}: {error}",
                path=self.path,
            ) from error

    def replay(self) -> JournalReplay:
        """Read the committed prefix (valid leading frames) from disk.

        A missing journal is an empty one.  Unreadable bytes raise a
        typed :class:`DurabilityError`; torn/corrupt *content* never
        does — it marks the end of the committed prefix.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return JournalReplay()
        except OSError as error:
            raise DurabilityError(
                f"cannot read journal {self.path}: {error}",
                path=self.path,
            ) from error
        replay = JournalReplay()
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # incomplete final line: torn tail
            record = _parse_frame(raw[offset:newline])
            if record is None:
                break  # corrupt frame: everything after is untrusted
            replay.records.append(record)
            offset = newline + 1
        replay.valid_bytes = offset
        replay.truncated_tail_bytes = len(raw) - offset
        return replay

    def repair(self, replay: "JournalReplay | None" = None) -> int:
        """Truncate the on-disk journal to its committed prefix.

        Returns the number of tail bytes discarded (0 for a clean
        journal).  Called on recovery before new appends, so fresh
        records can never interleave with a torn tail.
        """
        if replay is None:
            replay = self.replay()
        if replay.truncated_tail_bytes and self.path.exists():
            try:
                self.io.truncate(self.path, replay.valid_bytes)
            except OSError as error:
                raise DurabilityError(
                    f"cannot repair journal tail of {self.path}: "
                    f"{error}",
                    path=self.path,
                ) from error
        return replay.truncated_tail_bytes

    def rewrite(self, records: list[JournalRecord]) -> None:
        """Atomically replace the journal's contents (compaction)."""
        data = b"".join(_frame(record) for record in records)
        try:
            self.io.write_atomic(self.path, data)
        except OSError as error:
            raise DurabilityError(
                f"cannot compact journal {self.path}: {error}",
                path=self.path,
            ) from error


# ---------------------------------------------------------------------------
# Snapshot generations
# ---------------------------------------------------------------------------


class SnapshotStore:
    """Atomic full-state snapshots, several generations deep.

    Each generation is one JSON file (``snapshot-<gen>.json``) whose
    payload embeds a CRC32 of the state it carries; a generation whose
    checksum, structure, or format version fails validation is
    *rejected* at load time and the previous generation is used
    instead — a half-written or bit-rotted snapshot can cost recency,
    never correctness.
    """

    def __init__(self, directory, keep: int = 2, io: "DiskIO | None" = None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = int(keep)
        self._io = io

    @property
    def io(self) -> DiskIO:
        """The shim this store's writes flow through."""
        return self._io if self._io is not None else active_io()

    def _path(self, generation: int) -> Path:
        return self.directory / f"snapshot-{generation:08d}.json"

    def generations(self) -> list[int]:
        """Snapshot generation numbers present on disk, ascending."""
        numbers = []
        for path in self.directory.glob(SNAPSHOT_GLOB):
            stem = path.stem  # snapshot-NNNNNNNN
            try:
                numbers.append(int(stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(numbers)

    def write(self, state: dict, seq: int) -> int:
        """Durably write the next generation; returns its number.

        The payload (state + the journal sequence it covers) is
        written atomically; only after it is durable are generations
        beyond :attr:`keep` retired.
        """
        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 1
        body = json.dumps(state, sort_keys=True, separators=(",", ":"))
        payload = json.dumps(
            {
                "format_version": JOURNAL_FORMAT_VERSION,
                "generation": generation,
                "seq": int(seq),
                "crc": zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF,
                "state": state,
            },
            sort_keys=True,
        )
        path = self._path(generation)
        try:
            self.io.write_atomic(path, payload.encode("utf-8"))
        except OSError as error:
            raise DurabilityError(
                f"cannot write snapshot generation {generation} to "
                f"{path}: {error}",
                path=path,
            ) from error
        for old in existing[: max(0, len(existing) + 1 - self.keep)]:
            self.io.remove(self._path(old))
        return generation

    def load_one(self, generation: int) -> tuple[dict, int]:
        """Load and validate one generation; returns ``(state, seq)``.

        Raises :class:`DurabilityError` for any validation failure —
        unreadable file, non-JSON payload, wrong format version,
        checksum mismatch.
        """
        path = self._path(generation)
        try:
            text = path.read_bytes().decode("utf-8")
        except OSError as error:
            raise DurabilityError(
                f"cannot read snapshot {path}: {error}", path=path
            ) from error
        except UnicodeDecodeError as error:
            raise DurabilityError(
                f"snapshot {path} is not valid UTF-8 (bit rot or torn "
                f"write rejected): {error}",
                path=path,
            ) from error
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise DurabilityError(
                f"snapshot {path} is not valid JSON: {error}", path=path
            ) from error
        if not isinstance(payload, dict):
            raise DurabilityError(
                f"snapshot {path} does not hold a JSON object", path=path
            )
        version = payload.get("format_version")
        if version != JOURNAL_FORMAT_VERSION:
            raise DurabilityError(
                f"snapshot {path} has format version {version!r}; this "
                f"build reads version {JOURNAL_FORMAT_VERSION}",
                path=path,
            )
        state = payload.get("state")
        if not isinstance(state, dict):
            raise DurabilityError(
                f"snapshot {path} is missing its state object", path=path
            )
        body = json.dumps(state, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != payload.get(
            "crc"
        ):
            raise DurabilityError(
                f"snapshot {path} fails its checksum (torn or corrupt "
                f"write rejected)",
                path=path,
            )
        return state, int(payload.get("seq", 0))

    def load_latest(self) -> tuple["dict | None", int, int, int]:
        """The newest *valid* generation, falling back across corrupt ones.

        Returns ``(state, seq, generation, rejected)`` where
        ``rejected`` counts newer generations that failed validation
        (each one fell back to its predecessor).  With no valid
        generation at all, ``state`` is None and replay starts from
        the journal's beginning.
        """
        rejected = 0
        for generation in reversed(self.generations()):
            try:
                state, seq = self.load_one(generation)
            except DurabilityError:
                rejected += 1
                continue
            return state, seq, generation, rejected
        return None, 0, 0, rejected


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveredState:
    """Everything :func:`recover` reconstructed, plus how it went."""

    state: "dict | None"
    """The newest valid snapshot's state (None: no usable snapshot)."""
    events: list[JournalRecord]
    """Journal records past the snapshot, in commit order."""
    last_seq: int
    """Highest committed sequence number (snapshot or journal)."""
    snapshot_generation: int = 0
    """Generation the state came from (0: recovered from journal only)."""
    snapshot_generations: int = 0
    """Snapshot generations present on disk at recovery time."""
    rejected_snapshots: int = 0
    """Newer generations rejected as corrupt before one validated."""
    replayed_records: int = 0
    """Journal records replayed on top of the snapshot."""
    truncated_tail_bytes: int = 0
    """Torn/corrupt journal tail bytes discarded (0: clean shutdown)."""

    @property
    def clean(self) -> bool:
        """True when recovery found no corruption anywhere."""
        return self.truncated_tail_bytes == 0 and self.rejected_snapshots == 0


def recover(state_dir, io: "DiskIO | None" = None) -> RecoveredState:
    """Reconstruct committed guard-runtime state from ``state_dir``.

    Loads the newest snapshot generation that validates (falling back
    past corrupt ones), replays the journal tail — records with
    ``seq`` beyond the snapshot — and tolerates a torn/corrupt journal
    tail by stopping at the last valid record.  The result is exactly
    the committed prefix: every event some ``append`` call
    acknowledged before the crash, and nothing else.

    Read-only: the on-disk files are not repaired (pass the result to
    :class:`DurableStateStore` — or just construct one — to reopen
    for writing, which truncates the torn tail first).  Raises
    :class:`DurabilityError` only for *environmental* failures (the
    directory or a file cannot be read); data corruption is handled,
    counted, and reported, never raised.
    """
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        raise DurabilityError(
            f"no such state directory: {state_dir}", path=state_dir
        )
    snapshots = SnapshotStore(state_dir, io=io)
    state, snapshot_seq, generation, rejected = snapshots.load_latest()
    journal = WriteAheadJournal(state_dir / JOURNAL_NAME, io=io)
    replay = journal.replay()
    events = [r for r in replay.records if r.seq > snapshot_seq]
    last_seq = events[-1].seq if events else snapshot_seq
    recovered = RecoveredState(
        state=state,
        events=events,
        last_seq=last_seq,
        snapshot_generation=generation,
        snapshot_generations=len(snapshots.generations()),
        rejected_snapshots=rejected,
        replayed_records=len(events),
        truncated_tail_bytes=replay.truncated_tail_bytes,
    )
    if obs.enabled():
        obs.count("recovery.replayed_records", recovered.replayed_records)
        obs.count(
            "recovery.truncated_tail_bytes",
            recovered.truncated_tail_bytes,
        )
        obs.count(
            "snapshot.generations", recovered.snapshot_generations
        )
        if recovered.rejected_snapshots:
            obs.count(
                "recovery.rejected_snapshots",
                recovered.rejected_snapshots,
            )
        obs.record(
            "durability.recover",
            replayed=recovered.replayed_records,
            truncated_tail_bytes=recovered.truncated_tail_bytes,
            generation=recovered.snapshot_generation,
        )
    return recovered


# ---------------------------------------------------------------------------
# The combined store (what the guard runtime holds)
# ---------------------------------------------------------------------------


class DurableStateStore:
    """Crash-safe state store: WAL appends + periodic snapshots.

    Opening the store *is* recovery: the constructor loads the last
    valid snapshot, replays the journal tail, truncates any torn tail
    (so new appends never interleave with garbage), and exposes the
    result as :attr:`recovered`.  From then on

    * :meth:`append` durably journals one committed event **before**
      the caller activates the matching in-memory mutation (the WAL
      contract — a crash between the two replays the event on
      recovery, which is idempotent for every event kind);
    * every ``snapshot_every`` appends, ``state_provider`` (when set)
      is asked for the full state and a snapshot generation is
      written, after which the journal is compacted down to the
      records the *oldest kept* generation does not cover — so a
      corrupt newest snapshot can always fall back without losing
      events.

    Parameters
    ----------
    state_dir:
        Directory holding ``journal.log`` + ``snapshot-*.json``
        (created if missing).
    snapshot_every:
        Appends between automatic snapshots (None disables; explicit
        :meth:`snapshot` calls still work).
    keep_snapshots:
        Snapshot generations retained (>= 2 keeps a fallback).
    io:
        The :class:`DiskIO` shim (default: the active module shim).
    state_provider:
        Zero-argument callable returning the full JSON-serializable
        state for automatic snapshots.
    """

    def __init__(
        self,
        state_dir,
        snapshot_every: "int | None" = 256,
        keep_snapshots: int = 2,
        io: "DiskIO | None" = None,
        state_provider=None,
    ):
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1 (or None)")
        self.state_dir = Path(state_dir)
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise DurabilityError(
                f"cannot create state directory {self.state_dir}: "
                f"{error}",
                path=self.state_dir,
            ) from error
        self.snapshot_every = snapshot_every
        self.state_provider = state_provider
        self._io = io
        self.journal = WriteAheadJournal(
            self.state_dir / JOURNAL_NAME, io=io
        )
        self.snapshots = SnapshotStore(
            self.state_dir, keep=keep_snapshots, io=io
        )
        self.recovered = recover(self.state_dir, io=io)
        self.journal.repair()
        self._seq = self.recovered.last_seq
        self._since_snapshot = self.recovered.replayed_records
        self.append_errors = 0

    @property
    def last_seq(self) -> int:
        """Highest committed sequence number."""
        return self._seq

    def append(self, kind: str, **data) -> JournalRecord:
        """Durably commit one event; returns its journal record.

        The record is on disk (written + fsynced) when this returns —
        the caller may then activate the in-memory mutation.  Raises
        :class:`DurabilityError` when the device refuses the write;
        the in-memory state must then stay un-mutated (the event was
        never committed).
        """
        record = JournalRecord(seq=self._seq + 1, kind=kind, data=data)
        try:
            self.journal.append(record)
        except DurabilityError:
            self.append_errors += 1
            raise
        self._seq = record.seq
        self._since_snapshot += 1
        if (
            self.snapshot_every is not None
            and self.state_provider is not None
            and self._since_snapshot >= self.snapshot_every
        ):
            # The caller has NOT yet applied this record's in-memory
            # mutation (journal-before-activation), so the state the
            # provider reports covers only the records before it —
            # claim coverage through seq-1 and let the journal keep
            # this record for replay.
            self.snapshot(self.state_provider(), seq=record.seq - 1)
        return record

    def snapshot(self, state: dict, seq: "int | None" = None) -> int:
        """Write a snapshot generation covering everything committed.

        ``seq`` is the highest journal sequence ``state`` reflects
        (default: everything committed so far — correct when the
        caller's in-memory state is fully caught up, as at a clean
        shutdown).  After the generation is durable the journal is
        compacted: only records newer than the *oldest kept*
        generation's coverage survive, so recovery can fall back one
        generation and still replay forward to the present.  Returns
        the generation number.
        """
        generation = self.snapshots.write(
            state, self._seq if seq is None else seq
        )
        self._since_snapshot = 0
        oldest = self.snapshots.generations()[0]
        try:
            _, covered_seq = self.snapshots.load_one(oldest)
        except DurabilityError:
            covered_seq = 0  # keep everything: the fallback is suspect
        survivors = [
            record
            for record in self.journal.replay().records
            if record.seq > covered_seq
        ]
        self.journal.rewrite(survivors)
        if obs.enabled():
            obs.count("durability.snapshots")
        return generation


# ---------------------------------------------------------------------------
# The guard-runtime event vocabulary and its fold
# ---------------------------------------------------------------------------

RUNTIME_EVENT_KINDS = (
    "tenant_register",
    "tenant_remove",
    "swap",
    "rollback",
    "quarantine_push",
    "quarantine_drain",
    "drift_rebase",
    "brownout",
)
"""Every event kind the guard runtime journals (the vocabulary
:func:`fold_runtime_state` understands)."""


def _blank_tenant(config: "dict | None" = None) -> dict:
    return {
        "config": dict(config or {}),
        "programs": [],
        "cursor": -1,
        "quarantine": [],
        "quarantine_dropped": 0,
        "baseline_violation_rate": None,
    }


def fold_runtime_state(
    state: "dict | None", events: list[JournalRecord]
) -> dict:
    """Apply journaled events on top of a snapshot state (pure).

    The reducer behind :func:`recover` consumers: ``state`` is a
    snapshot's ``{"tenants": {...}}`` payload (or None for empty) and
    ``events`` the replayed journal tail; the result is the same shape
    with every event applied, exactly as the live runtime would have.
    Unknown event kinds raise :class:`DurabilityError` (a newer
    writer's journal must not be half-understood); events for unknown
    tenants are tolerated (a ``tenant_remove`` already erased them).

    Beyond the per-tenant state, the fold carries the server-wide
    brownout controller: ``brownout`` events (journaled tier
    transitions, which deliberately carry no timestamps) replay into
    ``folded["brownout"]`` — the tier and the full transition history,
    bit-identical to the live controller's record.
    """
    folded = {
        "tenants": {},
        "brownout": {"tier": 0, "transitions": []},
    }
    if state:
        brownout = state.get("brownout")
        if brownout:
            folded["brownout"] = {
                "tier": int(brownout.get("tier", 0)),
                "transitions": [
                    dict(t) for t in brownout.get("transitions", [])
                ],
            }
        for name, tenant in state.get("tenants", {}).items():
            merged = _blank_tenant(tenant.get("config"))
            merged.update(
                {
                    key: tenant[key]
                    for key in merged
                    if key in tenant and key != "config"
                }
            )
            folded["tenants"][name] = merged
    tenants = folded["tenants"]
    for event in events:
        kind, data = event.kind, event.data
        name = data.get("tenant")
        if kind == "tenant_register":
            tenant = _blank_tenant(data.get("config"))
            programs = data.get("programs")
            if programs is None:  # single-program shorthand
                programs = [data.get("program", "")]
            tenant["programs"] = list(programs)
            tenant["cursor"] = int(
                data.get("cursor", len(programs) - 1)
            )
            tenants[name] = tenant
            continue
        if kind == "tenant_remove":
            tenants.pop(name, None)
            continue
        if kind == "brownout":
            record = {
                "from": int(data.get("from", 0)),
                "tier": int(data.get("tier", 0)),
                "reason": data.get("reason", "?"),
            }
            folded["brownout"]["tier"] = record["tier"]
            folded["brownout"]["transitions"].append(record)
            continue
        tenant = tenants.get(name)
        if tenant is None:
            continue
        if kind == "swap":
            tenant["programs"].append(data.get("program", ""))
            tenant["cursor"] = len(tenant["programs"]) - 1
        elif kind == "rollback":
            if tenant["cursor"] > 0:
                tenant["cursor"] -= 1
        elif kind == "quarantine_push":
            config = tenant.get("config", {})
            capacity = int(config.get("quarantine_capacity", 1024))
            quarantine = tenant["quarantine"]
            if len(quarantine) >= capacity:
                tenant["quarantine_dropped"] += 1
                quarantine.pop(0)
            quarantine.append(data.get("row"))
        elif kind == "quarantine_drain":
            tenant["quarantine"] = []
        elif kind == "drift_rebase":
            tenant["baseline_violation_rate"] = data.get(
                "baseline_violation_rate"
            )
        else:
            raise DurabilityError(
                f"journal record seq={event.seq} has unknown kind "
                f"{kind!r}; refusing to half-apply a newer writer's "
                f"journal"
            )
    return folded


def recover_runtime_state(state_dir, io: "DiskIO | None" = None):
    """One-call recovery to folded runtime state.

    Returns ``(folded_state, recovered)`` where ``folded_state`` is
    the :func:`fold_runtime_state` result — the committed tenants,
    each with its version history, cursor, quarantine contents, and
    drift baseline — and ``recovered`` the raw
    :class:`RecoveredState` diagnostics.
    """
    recovered = recover(state_dir, io=io)
    return fold_runtime_state(recovered.state, recovered.events), recovered
