"""Chaos-injection harness: prove degradation policies hold under fire.

TorchQL-style integrity checking has to survive messy real inputs; this
module makes that an executable claim.  Each *fault class* injects one
production failure mode and judges the outcome against the configured
:class:`~repro.resilience.GuardPolicy`: ``strict`` fails the query with
a typed error, ``warn``/``pass_through`` complete with rows flowing
unvetted (and the degradation recorded), ``reject`` completes with the
affected rows withheld.  No fault class may ever surface as an
unhandled exception.

Every class lives in one registry, :data:`FAULTS`, and belongs to one
of four families (:data:`FAMILIES`):

* ``unit`` — a guarded ML-SQL pipeline or stream: a guard that raises
  or stalls, a model that throws, values the codecs never saw,
  malformed and ragged rows, mid-stream schema drift, and two drifted
  worlds the self-healing supervisor must detect and recover from;
* ``durability`` — a torn journal tail, a bit-rotted snapshot, a full
  state disk, a process SIGKILLed mid-commit;
* ``load`` — component faults injected into a live
  :class:`repro.serve.GuardServer` while closed-loop clients drive it
  (:mod:`repro.resilience.chaos_serve`);
* ``overload`` — healthy components, but the traffic itself is the
  fault: storms, retry bursts, a flooding neighbor, deadline
  stampedes (also :mod:`repro.resilience.chaos_serve`).

    outcomes = run_chaos_suite(policy="warn")
    assert all(o.conformant for o in outcomes)
    print(render_chaos_report(outcomes))

With no selector the suite runs the ``unit`` and ``durability``
families; ``families=`` (``repro chaos --family``) selects the served
ones.  The harness is self-contained (synthetic data, a hand-built
program, a stub model), so it runs in seconds and can gate CI.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..dsl import Branch, Condition, Program, Statement
from ..errors.stream import _PROBE_MAX_ROWS
from ..relation import Relation
from .policy import (
    CircuitBreaker,
    GuardPolicy,
    GuardUnavailableError,
    ResilientGuard,
)

FAMILIES = ("unit", "durability", "load", "overload")
"""Fault families in suite order."""

_DEFAULT_FAMILIES = ("unit", "durability")
"""What the suite runs with no selector: every class that needs no
live server."""


@dataclass(frozen=True)
class FaultClass:
    """One registered fault class.

    ``run(policy, rng, scale)`` injects the fault and judges the
    outcome: it returns a detail string (or ``(detail, measures)``)
    when the policy held and raises :class:`Nonconformant` when it did
    not.  ``rng`` seeds the sampled classes; ``scale`` sizes the storms.
    """

    name: str
    family: str
    run: Callable


@dataclass
class ChaosOutcome:
    """Verdict on one injected fault: did the policy hold?

    ``measures`` carries the request counts of the served families
    (``submitted``, ``resolved``, ``rejected``, ...); it is empty for
    the others.
    """

    fault: str
    family: str
    policy: GuardPolicy
    conformant: bool
    detail: str
    measures: dict = field(default_factory=dict)


class Nonconformant(Exception):
    """Raised by a judge: the outcome is not what the policy dictates."""

    def __init__(self, detail: str, **measures):
        super().__init__(detail)
        self.detail = detail
        self.measures = measures


# ---------------------------------------------------------------------------
# Fixture: a tiny guarded ML-SQL pipeline
# ---------------------------------------------------------------------------

_CITY_OF = {
    "94704": "Berkeley",
    "94720": "Berkeley",
    "10001": "NewYork",
    "73301": "Austin",
}
_STATE_OF = {"Berkeley": "CA", "NewYork": "NY", "Austin": "TX"}


def chaos_relation(copies: int = 8) -> Relation:
    """A clean PostalCode → City → State relation for the harness."""
    rows = []
    for postal, city in _CITY_OF.items():
        for _ in range(copies):
            rows.append(
                {
                    "PostalCode": postal,
                    "City": city,
                    "State": _STATE_OF[city],
                }
            )
    return Relation.from_rows(rows)


def chaos_program(
    city_of: dict = _CITY_OF, state_of: dict = _STATE_OF
) -> Program:
    """The ground-truth constraints of :func:`chaos_relation` (or of
    another postal → city → state world)."""

    def statement(det: str, dep: str, table: dict) -> Statement:
        return Statement(
            (det,),
            dep,
            tuple(
                Branch(Condition.of(**{det: key}), dep, value)
                for key, value in table.items()
            ),
        )

    return Program(
        (
            statement("PostalCode", "City", city_of),
            statement("City", "State", state_of),
        )
    )


def _sabotaged_guardrail(
    program: "Program | None" = None,
    *,
    delay_s: float = 0.0,
    error: "str | None" = None,
    counter: "dict | None" = None,
):
    """A real :class:`~repro.synth.Guardrail` (it must pass ``swap``'s
    validation) whose guard work is sabotaged.

    Every ``handle`` call (the SQL executor's entry) and every call on
    its guards (the server's) first sleeps ``delay_s``, then raises
    ``RuntimeError(error)`` when ``error`` is set; otherwise it counts
    the rows it vets into ``counter["rows"]`` and delegates to the real
    guard.  The sleep makes capacity small and measurable (so a storm
    is cheap to mount); the counter is the wasted-work evidence
    ``deadline_stampede`` judges.
    """
    from ..synth import Guardrail

    def sabotage(n_rows: int) -> None:
        if delay_s:
            time.sleep(delay_s)
        if error is not None:
            raise RuntimeError(error)
        if counter is not None:
            counter["rows"] += n_rows

    class _SabotagedGuard:
        """Delegates verdicts to the real guard, after the sabotage."""

        def __init__(self, inner):
            self._inner = inner

        def check_batch(self, rows):
            sabotage(len(rows))
            return self._inner.check_batch(rows)

        def rectify(self, row):
            sabotage(1)
            return self._inner.rectify(row)

    class _SabotagedGuardrail(Guardrail):
        """Validates as a guardrail; every guard path is sabotaged."""

        def guard(self):
            return _SabotagedGuard(super().guard())

        def handle(self, relation, strategy="rectify"):
            sabotage(relation.n_rows)
            return super().handle(relation, strategy)

    return _SabotagedGuardrail.from_program(
        chaos_program() if program is None else program
    )


class _StubModel:
    """A model the executor can call: predicts the City column."""

    def predict_values(self, relation: Relation) -> list[object]:
        return list(relation.column_values("City"))


class _ExplodingModel:
    """A model that dies on every inference call."""

    def predict_values(self, relation: Relation) -> list[object]:
        raise RuntimeError("chaos: model backend unavailable")


_QUERY = "SELECT PREDICT(m) AS p, COUNT(*) AS n FROM t GROUP BY p"


def _run_sql(guardrail, model, relation: Relation, policy, timeout=None):
    """Execute the probe query; return (result | None, error | None,
    metrics)."""
    # Imported lazily: the executor itself depends on repro.resilience
    # (degradation policies), and chaos is the one module that closes
    # the loop in the other direction.
    from ..sql.executor import QueryExecutor

    executor = QueryExecutor(
        {"t": relation},
        {"m": model},
        guardrail=guardrail,
        strategy="rectify",
        policy=policy,
        guard_timeout_seconds=timeout,
    )
    try:
        result = executor.execute(_QUERY)
    except Exception as error:  # noqa: BLE001 - the harness judges it
        return None, error, executor.last_metrics
    return result, None, executor.last_metrics


def _sql_degrades(
    policy: GuardPolicy, guardrail, model=None, timeout=None
) -> str:
    """Run the probe query over a failing stage: is the degraded
    outcome what the policy dictates?"""
    from ..sql.executor import SqlRuntimeError

    relation = chaos_relation()
    result, error, metrics = _run_sql(
        guardrail, model or _StubModel(), relation, policy, timeout
    )
    if policy is GuardPolicy.STRICT:
        if isinstance(error, SqlRuntimeError):
            return f"failed closed: {error}"
        raise Nonconformant(f"expected SqlRuntimeError, got {error!r}")
    if error is not None:
        raise Nonconformant(f"unhandled {type(error).__name__}: {error}")
    returned = sum(result.column("n")) if result.rows else 0
    if policy is GuardPolicy.REJECT:
        if returned == 0 and metrics.rows_rejected > 0:
            return f"rejected {metrics.rows_rejected} rows"
        raise Nonconformant(f"expected 0 rows, got {returned}")
    if not metrics.degraded:
        raise Nonconformant("degradation not recorded in metrics")
    if returned != relation.n_rows:
        raise Nonconformant(
            f"expected {relation.n_rows} rows to flow, got {returned}"
        )
    return (
        f"failed open: {returned} rows flowed, "
        f"{len(metrics.degradations)} degradation(s) recorded"
    )


# ---------------------------------------------------------------------------
# Unit fault classes
# ---------------------------------------------------------------------------


def _raising_guard(policy, rng, scale) -> str:
    """The guardrail raises mid-query (e.g. a poisoned program)."""
    return _sql_degrades(
        policy, _sabotaged_guardrail(error="chaos: guard crashed mid-query")
    )


def _slow_guard(policy, rng, scale) -> str:
    """The guardrail stalls past the executor's watchdog."""
    return _sql_degrades(
        policy, _sabotaged_guardrail(delay_s=0.02), timeout=0.001
    )


def _model_exception(policy, rng, scale) -> str:
    """The ``PREDICT`` model dies on every inference call."""
    from ..synth import Guardrail

    return _sql_degrades(
        policy, Guardrail.from_program(chaos_program()), _ExplodingModel()
    )


def _codec_unseen(policy, rng, scale) -> str:
    """Values the program's codecs never saw must not crash the guard."""
    from ..synth import Guardrail

    relation = chaos_relation()
    relation = relation.set_cell(0, "City", "Atlantis")
    relation = relation.set_cell(1, "State", "ZZ")
    relation = relation.set_cell(2, "PostalCode", "00000")
    guardrail = Guardrail.from_program(chaos_program())
    _, error, metrics = _run_sql(guardrail, _StubModel(), relation, policy)
    if error is not None:
        raise Nonconformant(f"unhandled {type(error).__name__}: {error}")
    if metrics.degraded:
        raise Nonconformant("unseen values degraded the guard")
    return (
        f"handled natively: {metrics.rows_flagged} rows flagged, "
        f"{metrics.rows_rectified} cells rectified"
    )


def _judge_stream(policy: GuardPolicy, rows: list, bad: set) -> str:
    """Vet ``rows`` through a resilient guard row by row, in
    micro-batches of 4 and, repeated, in one batch wider than the
    guard's probe crossover; check the policy.

    Micro-batches take the guard's per-row probes and the wide batch
    its numpy kernel (whose failure on a malformed row sends the whole
    batch to per-row salvage).  ``bad`` marks the indexes the bare
    guard cannot vet; those must raise under ``strict`` and take the
    policy verdict otherwise, and the three paths must agree row for
    row.
    """
    from ..synth import Guardrail

    guardrail = Guardrail.from_program(chaos_program())
    # Generous breaker: the point here is per-row degradation, not
    # tripping the circuit (the breaker has its own unit tests).
    row_guard, batch_guard, wide_guard = (
        ResilientGuard(
            guardrail.guard(),
            policy=policy,
            breaker=CircuitBreaker(failure_threshold=10_000, max_retries=0),
        )
        for _ in range(3)
    )
    if policy is GuardPolicy.STRICT and bad:
        try:
            [row_guard.check(row) for row in rows]
        except GuardUnavailableError as error:
            return f"failed closed: {error}"
        except Exception as error:  # noqa: BLE001
            raise Nonconformant(
                f"wrong error type {type(error).__name__}: {error}"
            )
        raise Nonconformant("strict policy swallowed the fault")
    repeats = _PROBE_MAX_ROWS // len(rows) + 1
    try:
        row_verdicts = [row_guard.check(row) for row in rows]
        batch_verdicts = list(batch_guard.stream(rows, batch_size=4))
        wide_verdicts = wide_guard.check_batch(rows * repeats)
    except Exception as error:  # noqa: BLE001
        raise Nonconformant(f"unhandled {type(error).__name__}: {error}")
    if (
        len(row_verdicts) != len(rows)
        or len(batch_verdicts) != len(rows)
        or len(wide_verdicts) != len(rows) * repeats
    ):
        raise Nonconformant("a row was dropped without a verdict")
    for index, (rv, bv) in enumerate(zip(row_verdicts, batch_verdicts)):
        wide = {v.ok for v in wide_verdicts[index :: len(rows)]}
        if {rv.ok} != {bv.ok} | wide:
            raise Nonconformant(
                f"row/batch verdicts diverge at row {index}: row "
                f"{rv.ok}, micro-batch {bv.ok}, wide batch {sorted(wide)}"
            )
        expected_ok = policy is not GuardPolicy.REJECT
        if index in bad and rv.ok != expected_ok:
            raise Nonconformant(
                f"malformed row {index} got ok={rv.ok}, policy "
                f"{policy.value} dictates ok={expected_ok}"
            )
    degraded = row_guard.stats.degraded_verdicts
    return (
        f"{len(rows)} verdicts, {degraded} degraded per policy, "
        f"row/batch agree"
    )


def _malformed_rows(policy, rng, scale) -> str:
    """Ragged, ``None``, non-mapping and scalar rows in one stream."""
    rows: list = [
        {"PostalCode": "94704", "City": "Berkeley", "State": "CA"},  # clean
        ["94704", "Berkeley", "CA"],  # non-mapping
        None,  # not even a row
        {"PostalCode": "10001"},  # ragged: missing attributes
        {"PostalCode": "10001", "City": None, "State": None},  # None cells
        # an extra attribute:
        {"PostalCode": "73301", "City": "Austin", "State": "TX", "x": 1},
        42,  # scalar garbage
    ]
    return _judge_stream(policy, rows, {1, 2, 6})  # the unvettable ones


def _schema_drift(policy, rng, scale) -> str:
    """Mid-stream, the upstream producer renames/narrows its columns.

    Missing attributes behave like missing (None) cells in the
    canonical semantics, so drift is vetted natively — no degradation,
    but every row still gets a verdict and row/batch still agree.
    """
    drifted: list = [
        {"PostalCode": "94704", "City": "Berkeley", "State": "CA"},
        {"PostalCode": "94720", "City": "Berkeley", "State": "CA"},
        # v2 of the producer: renamed columns
        {"postal_code": "94704", "city_name": "Berkeley"},
        {"postal_code": "10001", "city_name": "NewYork"},
        # v3: narrowed payload
        {"PostalCode": "73301"},
    ]
    return _judge_stream(policy, drifted, set())


def _sample_rows(mapping: dict, n: int, rng: np.random.Generator) -> list:
    """Draw ``n`` rows from a postal → (city, state) world."""
    postals = sorted(mapping)
    rows = []
    for _ in range(n):
        postal = postals[int(rng.integers(len(postals)))]
        city, state = mapping[postal]
        rows.append({"PostalCode": postal, "City": city, "State": state})
    return rows


def _drift_world() -> dict:
    """The training-time postal → (city, state) mapping."""
    return {
        postal: (city, _STATE_OF[city]) for postal, city in _CITY_OF.items()
    }


def _drift_fault(policy, rng, drifted: dict, ramp: bool) -> str:
    """Stream the training world, then ``drifted``; the supervisor
    must detect the drift and return to a quiet guard.

    Self-healing is orthogonal to the degradation policy (a healthy
    guard raising honest verdicts is not a *failure*), so the same
    conformance bar holds under every :class:`GuardPolicy`: no clean
    row flagged, an alert fired, a heal was accepted, and the post-swap
    false-flag rate is back near the pre-drift level.
    """
    from ..synth import Guardrail
    from .drift import DriftDetector
    from .recovery import GuardrailSupervisor, SupervisorConfig

    world = _drift_world()
    training = Relation.from_rows(_sample_rows(world, 300, rng))
    guardrail = Guardrail().fit(training)
    supervisor = GuardrailSupervisor(
        guardrail,
        drift=DriftDetector.from_training(
            training,
            program=guardrail.program,
            window=96,
            min_window=48,
            sample_every=1,
        ),
        policy=policy,
        config=SupervisorConfig(
            history_rows=512,
            min_heal_rows=96,
            heal_budget_seconds=10.0,
            cooldown_rows=128,
        ),
    )
    clean_flags = sum(
        not supervisor.check(row).ok for row in _sample_rows(world, 200, rng)
    )
    if ramp:  # the new world's share of traffic ramps from 0 to 1
        stream = []
        for step in range(600):
            source = drifted if rng.random() < step / 400 else world
            stream += _sample_rows(source, 1, rng)
    else:  # a burst: the drifted values arrive all at once
        stream = _sample_rows(drifted, 600, rng)
    for row in stream:
        supervisor.check(row)
    tail = _sample_rows(drifted, 200, rng)
    tail_rate = sum(not supervisor.check(row).ok for row in tail) / len(tail)
    if clean_flags:
        raise Nonconformant(
            f"guard flagged {clean_flags} clean rows before any drift"
        )
    if not supervisor.alerts:
        raise Nonconformant("drift injected but no alert fired")
    if not any(heal.accepted for heal in supervisor.heals):
        reasons = "; ".join(h.reason for h in supervisor.heals) or "none"
        raise Nonconformant(f"no heal accepted (attempts: {reasons})")
    if tail_rate > 0.05:
        raise Nonconformant(
            f"post-swap false-flag rate {tail_rate:.2%} never recovered"
        )
    kinds = sorted({alert.kind for alert in supervisor.alerts})
    return (
        f"detected ({', '.join(kinds)}), healed to v{supervisor.version}, "
        f"post-swap flag rate {tail_rate:.2%}"
    )


def _marginal_shift(policy, rng, scale) -> str:
    """Gradual marginal shift: one postal code slides to a new city."""
    shifted = _drift_world()
    shifted["94704"] = ("Oakland", "CA")
    return _drift_fault(policy, rng, shifted, ramp=True)


def _unseen_burst(policy, rng, scale) -> str:
    """A burst of codec-unseen values: a new postal/city pair appears."""
    burst = _drift_world()
    burst["02139"] = ("Cambridge", "MA")
    return _drift_fault(policy, rng, burst, ramp=False)


# ---------------------------------------------------------------------------
# Durability fault classes: the durability layer under fire
# ---------------------------------------------------------------------------


@contextmanager
def _committed_history(swaps: int = 5):
    """Commit a reference event history into a temporary state dir.

    Registers one tenant and hot-swaps it ``swaps`` times (with a
    couple of quarantine pushes riding along), yielding the directory,
    the store, and the folded state every committed-prefix check
    compares against.
    """
    from .durability import DurableStateStore, fold_runtime_state

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        store = DurableStateStore(state_dir, snapshot_every=None)
        records = [
            store.append(
                "tenant_register", tenant="acme", config={}, program="p1"
            )
        ]
        for n in range(2, swaps + 2):
            records.append(
                store.append("swap", tenant="acme", version=n, program=f"p{n}")
            )
            if n % 2 == 0:
                records.append(
                    store.append(
                        "quarantine_push", tenant="acme", row={"City": f"x{n}"}
                    )
                )
        yield state_dir, store, fold_runtime_state(None, records)


def _judge_recovery(state_dir, expected: dict, problem=None) -> str:
    """Shared committed-prefix judge for the durability classes.

    Durability, like self-healing, is orthogonal to the degradation
    policy — the guard never misbehaved, its disk did — so the bar is
    identical under every :class:`GuardPolicy`:
    :func:`~repro.resilience.durability.recover` must return exactly
    the committed prefix (``expected``), and ``problem(recovered)``
    must find no fault-specific defect.
    """
    from .durability import fold_runtime_state, recover

    recovered = recover(state_dir)
    folded = fold_runtime_state(recovered.state, recovered.events)
    if folded != expected:
        raise Nonconformant(
            "recovered state diverges from the committed prefix"
        )
    found = problem(recovered) if problem else None
    if found:
        raise Nonconformant(found)
    return (
        f"committed prefix intact: {recovered.replayed_records} record(s) "
        f"replayed, {recovered.truncated_tail_bytes} tail byte(s) "
        f"discarded, snapshot generation {recovered.snapshot_generation}"
    )


def _torn_journal_tail(policy, rng, scale) -> str:
    """A crash mid-append leaves a torn journal tail; recovery truncates
    to the last valid record and replays exactly the committed prefix."""
    from .durability import (
        JOURNAL_NAME,
        DurabilityError,
        DurableStateStore,
        TornWriteIO,
        io_shim,
    )

    with _committed_history() as (state_dir, store, expected):
        with io_shim(TornWriteIO(fail_on_append=1, keep_bytes=9)):
            try:
                store.append("swap", tenant="acme", version=99, program="torn")
            except DurabilityError:
                pass  # the torn append was never committed
            else:
                raise Nonconformant(
                    "torn append did not surface a typed DurabilityError"
                )
        detail = _judge_recovery(
            state_dir,
            expected,
            lambda recovered: "no torn tail detected despite the torn "
            "write" if recovered.truncated_tail_bytes <= 0 else None,
        )
        # Reopening must repair the tail so new appends never
        # interleave with garbage.
        reopened = DurableStateStore(state_dir, snapshot_every=None)
        raw = (Path(state_dir) / JOURNAL_NAME).read_bytes()
        if not raw.endswith(b"\n"):
            raise Nonconformant("reopen did not truncate the torn tail")
        if reopened.last_seq != store.last_seq:
            raise Nonconformant(
                "reopened store lost committed sequence numbers"
            )
        return detail


def _corrupt_snapshot(policy, rng, scale) -> str:
    """The newest snapshot generation is bit-rotted; recovery rejects it
    by checksum and falls back to the previous generation + journal."""
    from .durability import fold_runtime_state, recover

    with _committed_history() as (state_dir, store, _):
        # Two generations, then corrupt the newest one.
        store.state_provider = lambda: {"tenants": {}}
        pre = recover(state_dir)
        store.snapshot(fold_runtime_state(pre.state, pre.events))
        store.append("swap", tenant="acme", version=90, program="p90")
        post = recover(state_dir)
        expected = fold_runtime_state(post.state, post.events)
        store.snapshot(expected)
        newest = sorted(Path(state_dir).glob("snapshot-*.json"))[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))

        def problem(recovered):
            if recovered.rejected_snapshots < 1:
                return "corrupt snapshot was not rejected"
            if recovered.snapshot_generation == 0:
                return "recovery did not fall back to a prior generation"
            return None

        return _judge_recovery(state_dir, expected, problem)


def _disk_full(policy, rng, scale) -> str:
    """The state device hits ENOSPC mid-run: further commits surface a
    typed error, nothing already committed is lost or corrupted."""
    from .durability import DurabilityError, FullDiskIO, io_shim

    with _committed_history() as (state_dir, store, expected):
        with io_shim(FullDiskIO(capacity_bytes=0)):
            try:
                store.append("swap", tenant="acme", version=99, program="full")
            except DurabilityError as error:
                if error.path is None or error.__cause__ is None:
                    raise Nonconformant(
                        "DurabilityError lacks its path or cause"
                    )
            except OSError:
                raise Nonconformant(
                    "ENOSPC leaked as a raw OSError instead of a typed "
                    "DurabilityError"
                )
            else:
                raise Nonconformant("append on a full disk did not raise")
        return _judge_recovery(
            state_dir,
            expected,
            lambda recovered: "full-disk append corrupted the journal "
            "tail" if recovered.truncated_tail_bytes else None,
        )


def _crash_restart(policy, rng, scale) -> str:
    """A child process journaling events is SIGKILLed mid-stream; the
    parent recovers every event the child acknowledged, and nothing
    partial."""
    import multiprocessing as mp
    import os
    import signal

    from .durability import recover

    if "fork" not in mp.get_all_start_methods():  # pragma: no cover
        return "skipped: platform lacks fork"

    def victim(state_dir, conn):
        """Append events forever, acking each committed seq to the parent."""
        from .durability import DurableStateStore

        store = DurableStateStore(state_dir, snapshot_every=4)
        store.state_provider = lambda: {"tenants": {}}
        store.append("tenant_register", tenant="acme", config={}, program="p1")
        conn.send(store.last_seq)
        version = 1
        while True:
            version += 1
            store.append(
                "swap", tenant="acme", version=version, program=f"p{version}"
            )
            conn.send(store.last_seq)

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(target=victim, args=(state_dir, child_conn))
        child.start()
        child_conn.close()
        acked = 0
        try:
            for _ in range(12):  # let a dozen commits land, then murder it
                acked = parent_conn.recv()
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
            parent_conn.close()
        recovered = recover(state_dir)
    if recovered.last_seq < acked:
        raise Nonconformant(
            f"recovery lost acknowledged commits: last_seq "
            f"{recovered.last_seq} < acked {acked}"
        )
    seqs = [record.seq for record in recovered.events]
    if seqs != sorted(set(seqs)):
        raise Nonconformant(
            "journal replay yielded duplicate or unordered records"
        )
    return (
        f"all {acked} acknowledged commit(s) recovered "
        f"(last_seq {recovered.last_seq}, "
        f"{recovered.truncated_tail_bytes} torn byte(s) discarded)"
    )


# ---------------------------------------------------------------------------
# The registry and its runner
# ---------------------------------------------------------------------------

# The served families import this module's fixtures, so they load last.
from . import chaos_serve as _serve  # noqa: E402

FAULTS = {
    fault.name: fault
    for fault in (
        FaultClass("raising_guard", "unit", _raising_guard),
        FaultClass("slow_guard", "unit", _slow_guard),
        FaultClass("model_exception", "unit", _model_exception),
        FaultClass("codec_unseen", "unit", _codec_unseen),
        FaultClass("malformed_rows", "unit", _malformed_rows),
        FaultClass("schema_drift", "unit", _schema_drift),
        FaultClass("marginal_shift", "unit", _marginal_shift),
        FaultClass("unseen_burst", "unit", _unseen_burst),
        FaultClass("torn_journal_tail", "durability", _torn_journal_tail),
        FaultClass("corrupt_snapshot", "durability", _corrupt_snapshot),
        FaultClass("disk_full", "durability", _disk_full),
        FaultClass("crash_restart", "durability", _crash_restart),
        FaultClass("guard_exception", "load", _serve._guard_exception),
        FaultClass("hot_swap", "load", _serve._hot_swap),
        FaultClass("breaker_trip", "load", _serve._breaker_trip),
        FaultClass("worker_kill", "load", _serve._worker_kill),
        FaultClass("overload_storm", "overload", _serve._overload_storm),
        FaultClass("retry_storm", "overload", _serve._retry_storm),
        FaultClass("noisy_neighbor", "overload", _serve._noisy_neighbor),
        FaultClass(
            "deadline_stampede", "overload", _serve._deadline_stampede
        ),
    )
}
"""Every fault class by name, in suite order."""


def _select(faults=None, families=None) -> list:
    """The registry entries a suite runs; ``ValueError`` names what
    does not exist (or does not belong to the selected families)."""
    if faults is None:
        families = families or _DEFAULT_FAMILIES
        return [f for f in FAULTS.values() if f.family in families]
    names = [
        f.name for f in FAULTS.values() if f.family in (families or FAMILIES)
    ]
    unknown = [name for name in faults if name not in names]
    if unknown:
        where = f" in {'/'.join(families)}" if families else ""
        raise ValueError(
            f"unknown fault class(es){where}: {', '.join(unknown)}; "
            f"choose from: {', '.join(names)}"
        )
    return [FAULTS[name] for name in faults]


def run_fault(
    name: str,
    policy: "GuardPolicy | str",
    rng: "np.random.Generator | None" = None,
    scale: float = 1.0,
) -> ChaosOutcome:
    """Inject one fault class under one policy; judge the outcome.

    ``rng`` seeds the sampled (drift-shaped) classes; it defaults to
    ``np.random.default_rng(0)`` so repeated runs — and CI — are
    deterministic.  ``scale`` shrinks (or grows) the overload storms'
    volume and patience bounds; 1.0 is the CLI default.
    """
    (fault,) = _select((name,))
    resolved = GuardPolicy.parse(policy)
    try:
        verdict = fault.run(
            resolved, np.random.default_rng(0) if rng is None else rng, scale
        )
    except Nonconformant as failure:
        return ChaosOutcome(
            fault.name, fault.family, resolved, False, failure.detail,
            failure.measures,
        )
    detail, measures = verdict if isinstance(verdict, tuple) else (verdict, {})
    return ChaosOutcome(
        fault.name, fault.family, resolved, True, detail, measures
    )


def run_chaos_suite(
    policy: "GuardPolicy | str" = GuardPolicy.WARN,
    faults: "tuple[str, ...] | None" = None,
    rng: "np.random.Generator | None" = None,
    scale: float = 1.0,
    families: "tuple[str, ...] | None" = None,
) -> list[ChaosOutcome]:
    """Inject fault classes under ``policy``; return the verdicts.

    ``faults`` names classes to run and ``families`` restricts them to
    some of :data:`FAMILIES`; with neither, the ``unit`` and
    ``durability`` families run.  One ``rng`` is shared across the
    suite's sampled classes, so a fixed seed pins the whole run.
    """
    selected = _select(faults, families)
    if rng is None:
        rng = np.random.default_rng(0)
    return [run_fault(f.name, policy, rng, scale) for f in selected]


def render_chaos_report(outcomes: list[ChaosOutcome]) -> str:
    """Plain-text table of chaos outcomes (the CLI's output)."""
    width = max((len(o.fault) for o in outcomes), default=5)
    policy = outcomes[0].policy.value if outcomes else "?"
    lines = [f"chaos suite under policy {policy}:"]
    for o in outcomes:
        mark = "PASS" if o.conformant else "FAIL"
        lines.append(
            f"  {mark}  {o.fault.ljust(width)}  {o.family.ljust(10)}  "
            f"{o.detail}"
        )
    conformant = sum(o.conformant for o in outcomes)
    lines.append(f"{conformant}/{len(outcomes)} fault classes conformant")
    return "\n".join(lines)
