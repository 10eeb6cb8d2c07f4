"""Execution engine for ML-integrated SQL over relations (paper §7).

The executor walks the stage pipeline produced by the planner, carrying
a :class:`Relation` (plus materialized prediction columns) through the
row stages and a :class:`QueryResult` through the output stages.  When a
query invokes ``PREDICT(...)`` and a fitted :class:`~repro.synth.
Guardrail` is attached, model-input rows pass through the configured
error-handling strategy *before* inference — the interception that
off-the-shelf ML-in-DB systems lack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .. import obs
from ..errors.handle import DataIntegrityError
from ..relation import Relation
from ..resilience.policy import CircuitBreaker, GuardPolicy
from .ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    LiteralExpr,
    Predict,
    SelectItem,
    SelectQuery,
    SqlError,
    UnaryOp,
)
from .parser import parse_query
from .planner import (
    Aggregate,
    Filter,
    Guard,
    Limit,
    Plan,
    PredictStage,
    Project,
    Scan,
    Sort,
    plan_query,
)


class SqlRuntimeError(SqlError):
    """Raised for execution-time failures (unknown columns, models, ...)."""


def _predict_key(node: Predict) -> str:
    return f"@{node}"


# ---------------------------------------------------------------------------
# Frames and evaluation
# ---------------------------------------------------------------------------


class Frame:
    """Columns as decoded object arrays, plus computed extras."""

    def __init__(
        self, relation: Relation, extras: Mapping[str, np.ndarray] = ()
    ):
        self._relation = relation
        self._extras = dict(extras or {})
        self._cache: dict[str, np.ndarray] = {}
        self.n_rows = relation.n_rows

    def column(self, name: str) -> np.ndarray:
        """The named column (relation or materialized prediction)."""
        if name in self._extras:
            return self._extras[name]
        if name in self._cache:
            return self._cache[name]
        if name not in self._relation.schema:
            raise SqlRuntimeError(f"unknown column {name!r}")
        values = np.array(
            self._relation.column_values(name), dtype=object
        )
        self._cache[name] = values
        return values

    def has(self, name: str) -> bool:
        """Is the name resolvable in this frame?"""
        return name in self._extras or name in self._relation.schema


class Evaluator:
    """Expression evaluation against a frame, with alias resolution."""

    def __init__(
        self, frame: Frame, aliases: Mapping[str, Expr] | None = None
    ):
        self._frame = frame
        self._aliases = dict(aliases or {})
        self._resolving: set[str] = set()

    def eval(self, expr: Expr) -> np.ndarray:
        """Evaluate an expression to a column over the frame."""
        if isinstance(expr, LiteralExpr):
            return np.full(self._frame.n_rows, expr.value, dtype=object)
        if isinstance(expr, ColumnRef):
            return self._column(expr.name)
        if isinstance(expr, Predict):
            key = _predict_key(expr)
            if not self._frame.has(key):
                raise SqlRuntimeError(
                    f"prediction column for {expr} was not materialized"
                )
            return self._frame.column(key)
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return ~as_bool(self.eval(expr.operand))
            return -as_float(self.eval(expr.operand))
        if isinstance(expr, InList):
            operand = self.eval(expr.operand)
            mask = np.zeros(self._frame.n_rows, dtype=bool)
            for option in expr.options:
                mask |= _equal(operand, self.eval(option))
            return ~mask if expr.negated else mask
        if isinstance(expr, IsNull):
            operand = self.eval(expr.operand)
            mask = np.array([v is None for v in operand], dtype=bool)
            return ~mask if expr.negated else mask
        if isinstance(expr, CaseWhen):
            return self._case(expr)
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                raise SqlRuntimeError(
                    f"aggregate {expr.name.upper()} outside GROUP BY context"
                )
            raise SqlRuntimeError(f"unknown function {expr.name!r}")
        raise SqlRuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _column(self, name: str) -> np.ndarray:
        if self._frame.has(name):
            return self._frame.column(name)
        alias_target = self._aliases.get(name)
        if alias_target is not None and name not in self._resolving:
            self._resolving.add(name)
            try:
                return self.eval(alias_target)
            finally:
                self._resolving.discard(name)
        raise SqlRuntimeError(f"unknown column {name!r}")

    def _binary(self, expr: BinaryOp) -> np.ndarray:
        op = expr.op
        if op == "and":
            return as_bool(self.eval(expr.left)) & as_bool(
                self.eval(expr.right)
            )
        if op == "or":
            return as_bool(self.eval(expr.left)) | as_bool(
                self.eval(expr.right)
            )
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op == "=":
            return _equal(left, right)
        if op == "!=":
            return ~_equal(left, right)
        if op in ("<", "<=", ">", ">="):
            lf, rf = as_float(left), as_float(right)
            with np.errstate(invalid="ignore"):
                if op == "<":
                    return lf < rf
                if op == "<=":
                    return lf <= rf
                if op == ">":
                    return lf > rf
                return lf >= rf
        if op in ("+", "-", "*", "/"):
            lf, rf = as_float(left), as_float(right)
            with np.errstate(divide="ignore", invalid="ignore"):
                if op == "+":
                    return lf + rf
                if op == "-":
                    return lf - rf
                if op == "*":
                    return lf * rf
                return lf / rf
        raise SqlRuntimeError(f"unknown operator {op!r}")

    def _case(self, expr: CaseWhen) -> np.ndarray:
        result = (
            self.eval(expr.default)
            if expr.default is not None
            else np.full(self._frame.n_rows, None, dtype=object)
        )
        result = np.array(result, dtype=object)
        decided = np.zeros(self._frame.n_rows, dtype=bool)
        for condition, value in expr.branches:
            mask = as_bool(self.eval(condition)) & ~decided
            if mask.any():
                values = self.eval(value)
                result[mask] = (
                    values[mask]
                    if isinstance(values, np.ndarray) and values.ndim
                    else values
                )
            decided |= mask
        return result


def as_bool(values: np.ndarray) -> np.ndarray:
    """Coerce an evaluated column to a boolean mask."""
    if values.dtype == bool:
        return values
    return np.array(
        [bool(v) if v is not None else False for v in values], dtype=bool
    )


def as_float(values: np.ndarray) -> np.ndarray:
    """Coerce an evaluated column to floats."""
    if values.dtype.kind == "f":
        return values
    if values.dtype == bool:
        return values.astype(np.float64)
    out = np.empty(len(values), dtype=np.float64)
    for index, value in enumerate(values):
        if value is None:
            out[index] = np.nan
        elif isinstance(value, bool):
            out[index] = float(value)
        elif isinstance(value, (int, float)):
            out[index] = float(value)
        else:
            try:
                out[index] = float(value)
            except (TypeError, ValueError):
                out[index] = np.nan
    return out


def _equal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if left.dtype == bool and right.dtype == object:
        right = as_bool(right)
    if right.dtype == bool and left.dtype == object:
        left = as_bool(left)
    if left.dtype.kind == "f" or right.dtype.kind == "f":
        lf, rf = as_float(left), as_float(right)
        with np.errstate(invalid="ignore"):
            return lf == rf
    out = np.array(
        [a == b if a is not None and b is not None else False
         for a, b in zip(left, right)],
        dtype=bool,
    )
    # Numeric-vs-string mismatch salvage: compare as floats where both parse.
    return out


# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    """A small materialized result set."""

    names: list[str]
    rows: list[tuple] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def column(self, name: str) -> list:
        """The values of the named result column."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise SqlRuntimeError(f"no result column {name!r}") from None
        return [row[index] for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.names) != 1:
            raise SqlRuntimeError("result is not a single scalar")
        return self.rows[0][0]

    def to_dicts(self) -> list[dict]:
        """The result as a list of row dicts."""
        return [dict(zip(self.names, row)) for row in self.rows]

    def numeric_vector(self) -> list[float]:
        """All numeric cells in row-major order (Fig. 6's comparison basis)."""
        out = []
        for row in self.rows:
            for value in row:
                if isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)) and not (
                    isinstance(value, float) and np.isnan(value)
                ):
                    out.append(float(value))
        return out

    def to_text(self) -> str:
        """Plain-text table rendering of the result."""
        cells = [[_render(v) for v in row] for row in self.rows]
        widths = [
            max(len(n), *(len(c[i]) for c in cells)) if cells else len(n)
            for i, n in enumerate(self.names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(self.names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in cells
        ]
        return "\n".join([header, sep, *body])


def _render(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass
class ExecutionMetrics:
    """Timing breakdown per executed query (Table 6), plus resilience
    bookkeeping: stage failures absorbed by the degradation policy, the
    rows it withheld, and a human-readable note per degradation."""

    guard_seconds: float = 0.0
    inference_seconds: float = 0.0
    total_seconds: float = 0.0
    rows_scanned: int = 0
    rows_predicted: int = 0
    rows_flagged: int = 0
    rows_rectified: int = 0
    guard_failures: int = 0
    model_failures: int = 0
    rows_rejected: int = 0
    degraded: bool = False
    degradations: list[str] = field(default_factory=list)
    guard_version: int | None = None
    """Version of the guardrail that vetted this query (None when the
    attached guardrail is unversioned or absent); lets audit trails tie
    each query to the exact program enforced during a hot-swap window."""


class QueryExecutor:
    """Run SQL over a catalog of relations with optional ML + GUARDRAIL.

    Parameters
    ----------
    catalog:
        Table name → relation.
    models:
        Model name → fitted :class:`~repro.ml.Classifier`, addressable
        from ``PREDICT(name, ...)``.
    guardrail:
        A fitted :class:`~repro.synth.Guardrail`; when set, model-input
        rows are vetted/handled before inference.
    strategy:
        Error-handling strategy the guard applies (``raise`` / ``ignore``
        / ``coerce`` / ``rectify``).
    policy:
        :class:`~repro.resilience.GuardPolicy` governing what happens
        when the guard or a model *fails* mid-query (raises, or the
        circuit is open).  ``strict`` (default) re-raises as
        :class:`SqlRuntimeError`; ``warn``/``pass_through`` let rows
        flow unvetted (recorded in :class:`ExecutionMetrics`);
        ``reject`` withholds the affected rows and completes the query
        over what remains.  Intended outcomes — the ``raise`` strategy's
        :class:`~repro.errors.DataIntegrityError`, malformed-query
        :class:`SqlRuntimeError` — always propagate regardless.
    guard_breaker / model_breaker:
        Circuit breakers for the two fallible stages (defaults: trip
        after 3 consecutive failures, no in-process retry).
    guard_timeout_seconds:
        Post-hoc watchdog on the guard stage: a slower run counts as a
        breaker failure and degrades per policy.
    """

    def __init__(
        self,
        catalog: Mapping[str, Relation],
        models: Mapping[str, object] | None = None,
        guardrail=None,
        strategy: str = "rectify",
        policy: "GuardPolicy | str" = GuardPolicy.STRICT,
        guard_breaker: CircuitBreaker | None = None,
        model_breaker: CircuitBreaker | None = None,
        guard_timeout_seconds: float | None = None,
    ):
        self.catalog = dict(catalog)
        self.models = dict(models or {})
        self.guardrail = guardrail
        self.strategy = strategy
        self.policy = GuardPolicy.parse(policy)
        self.guard_breaker = guard_breaker or CircuitBreaker(max_retries=0)
        self.model_breaker = model_breaker or CircuitBreaker(max_retries=0)
        self.guard_timeout_seconds = guard_timeout_seconds
        self.last_metrics = ExecutionMetrics()
        self.last_plan: Plan | None = None

    def swap_guardrail(self, replacement) -> None:
        """Hot-swap the guardrail used by subsequent guard stages.

        Accepts a fitted :class:`~repro.synth.Guardrail`, a
        :class:`~repro.resilience.GuardrailVersions` holder (whose own
        swaps then apply live without calling this again), or a path to
        a saved guardrail file.  A corrupt/missing file raises
        :class:`~repro.synth.GuardrailLoadError` and the **previous
        guardrail stays active** — the load is validated before any
        state changes.
        """
        from ..synth import Guardrail, GuardrailLoadError

        if isinstance(replacement, (str, bytes)) or hasattr(
            replacement, "__fspath__"
        ):
            replacement = Guardrail.load(replacement)  # may raise, pre-swap
        elif not (
            isinstance(replacement, Guardrail)
            or hasattr(replacement, "handle")
        ):
            raise GuardrailLoadError(
                f"cannot swap in a {type(replacement).__name__}; expected "
                f"a Guardrail, a GuardrailVersions holder, or a path"
            )
        self.guardrail = replacement
        if obs.enabled():
            obs.count("sql.guard_swap")

    def execute(self, query: "str | SelectQuery") -> QueryResult:
        """Parse (if needed), plan, and run one query.

        The last run's timing breakdown is kept on ``last_metrics``;
        with tracing enabled, a ``sql.execute`` span plus per-stage
        guard/inference samples are emitted as well.
        """
        if isinstance(query, str):
            query = parse_query(query)
        guard_strategy = (
            self.strategy
            if self.guardrail is not None and query.uses_predict()
            else None
        )
        plan = plan_query(query, guard_strategy=guard_strategy)
        self.last_plan = plan
        metrics = ExecutionMetrics(
            guard_version=getattr(self.guardrail, "version", None)
        )
        started = time.perf_counter()

        relation: Relation | None = None
        extras: dict[str, np.ndarray] = {}
        result: QueryResult | None = None
        aliases = {
            item.alias: item.expr
            for item in query.items
            if item.alias is not None
        }

        # Published even when a stage raises (strict policy, query
        # errors), so callers can still read the failure counters.
        self.last_metrics = metrics
        for stage in plan.stages:
            if isinstance(stage, Scan):
                relation = self._scan(stage.table)
                metrics.rows_scanned = relation.n_rows
            elif isinstance(stage, Filter):
                assert relation is not None
                evaluator = Evaluator(Frame(relation, extras), aliases)
                mask = as_bool(evaluator.eval(stage.predicate))
                relation = relation.filter(mask)
                extras = {k: v[mask] for k, v in extras.items()}
            elif isinstance(stage, Guard):
                # Detection inside handle() runs through the compiled
                # kernels (repro.dsl.compiled), so the guard stage pays
                # array ops, not a per-branch Python loop.
                assert relation is not None
                tick = time.perf_counter()
                with obs.span(
                    "sql.guard", strategy=str(stage.strategy)
                ) as guard_span:
                    relation = self._guard_stage(
                        stage, relation, extras, metrics, guard_span
                    )
                metrics.guard_seconds += time.perf_counter() - tick
            elif isinstance(stage, PredictStage):
                assert relation is not None
                tick = time.perf_counter()
                with obs.span(
                    "sql.predict", n_rows=relation.n_rows
                ):
                    relation = self._predict_stage(
                        stage, relation, extras, metrics
                    )
                metrics.inference_seconds += time.perf_counter() - tick
            elif isinstance(stage, Aggregate):
                assert relation is not None
                result = self._aggregate(stage, relation, extras, aliases)
            elif isinstance(stage, Project):
                assert relation is not None
                result = self._project(stage, relation, extras, aliases)
            elif isinstance(stage, Sort):
                assert result is not None
                result = _sort_result(result, stage.keys)
            elif isinstance(stage, Limit):
                assert result is not None
                result.rows = result.rows[: stage.count]
        metrics.total_seconds = time.perf_counter() - started
        self.last_metrics = metrics
        if obs.enabled():
            obs.observe("sql.guard_seconds", metrics.guard_seconds)
            obs.observe(
                "sql.inference_seconds", metrics.inference_seconds
            )
            obs.record(
                "sql.query",
                total_s=metrics.total_seconds,
                rows_scanned=metrics.rows_scanned,
                rows_predicted=metrics.rows_predicted,
                rows_flagged=metrics.rows_flagged,
                rows_rectified=metrics.rows_rectified,
                degraded=metrics.degraded,
                rows_rejected=metrics.rows_rejected,
            )
        if result is None:
            raise SqlRuntimeError("plan produced no output stage")
        return result

    # ------------------------------------------------------------------

    def _scan(self, table: str) -> Relation:
        try:
            return self.catalog[table]
        except KeyError:
            raise SqlRuntimeError(f"unknown table {table!r}") from None

    def _guard_stage(
        self,
        stage: Guard,
        relation: Relation,
        extras: dict[str, np.ndarray],
        metrics: ExecutionMetrics,
        guard_span,
    ) -> Relation:
        """Run the guard under the breaker + degradation policy.

        A :class:`~repro.errors.DataIntegrityError` from the ``raise``
        strategy is the guard *working*, not failing, and propagates
        untouched; any other exception (or an open circuit, or a
        watchdog-slow run) degrades per :attr:`policy`.
        """
        start = time.perf_counter()
        try:
            outcome = self.guard_breaker.call(
                self.guardrail.handle,
                relation,
                stage.strategy,
                expected=(DataIntegrityError,),
            )
        except DataIntegrityError:
            raise
        except Exception as error:
            metrics.guard_failures += 1
            return self._degrade("guard", error, relation, extras, metrics)
        elapsed = time.perf_counter() - start
        slow = (
            self.guard_timeout_seconds is not None
            and elapsed > self.guard_timeout_seconds
        )
        if slow:
            # Post-hoc watchdog: the outcome exists, but the stall is a
            # breaker failure; fail-closed policies discard the late
            # result, fail-open ones use it and record the degradation.
            self.guard_breaker.record_failure()
            metrics.guard_failures += 1
            if obs.enabled():
                obs.count("sql.resilience.guard_slow")
            if self.policy is GuardPolicy.STRICT:
                raise SqlRuntimeError(
                    f"guard stage exceeded its "
                    f"{self.guard_timeout_seconds}s deadline "
                    f"({elapsed:.3f}s) under strict policy"
                )
            if self.policy is GuardPolicy.REJECT:
                return self._degrade(
                    "guard",
                    TimeoutError(f"guard took {elapsed:.3f}s"),
                    relation,
                    extras,
                    metrics,
                )
            metrics.degraded = True
            metrics.degradations.append(
                f"guard: slow ({elapsed:.3f}s > "
                f"{self.guard_timeout_seconds}s)"
            )
        guard_span.set(
            rows_flagged=outcome.detection.n_flagged_rows,
            rows_rectified=outcome.n_changed,
        )
        metrics.rows_flagged = outcome.detection.n_flagged_rows
        metrics.rows_rectified = outcome.n_changed
        return outcome.relation

    def _predict_stage(
        self,
        stage: PredictStage,
        relation: Relation,
        extras: dict[str, np.ndarray],
        metrics: ExecutionMetrics,
    ) -> Relation:
        """Materialize prediction columns under the degradation policy.

        Query errors (unknown model/columns → :class:`SqlRuntimeError`)
        always raise; a model *fault* degrades per :attr:`policy`, with
        fail-open policies materializing an all-``None`` column.
        """
        for node in stage.predicts:
            try:
                column = self.model_breaker.call(
                    self._predict,
                    node,
                    relation,
                    expected=(SqlRuntimeError,),
                )
            except SqlRuntimeError:
                raise
            except Exception as error:
                metrics.model_failures += 1
                relation = self._degrade(
                    "model", error, relation, extras, metrics
                )
                column = np.full(relation.n_rows, None, dtype=object)
            extras[_predict_key(node)] = column
        metrics.rows_predicted = relation.n_rows * len(stage.predicts)
        return relation

    def _degrade(
        self,
        stage_name: str,
        error: BaseException,
        relation: Relation,
        extras: dict[str, np.ndarray],
        metrics: ExecutionMetrics,
    ) -> Relation:
        """Apply the degradation policy after a stage failure.

        ``strict`` raises; ``reject`` withholds the stage's rows (the
        query completes empty); ``warn``/``pass_through`` return the
        relation untouched so rows flow unvetted.  Every path records
        the event on the metrics and the obs counters.
        """
        note = f"{stage_name}: {type(error).__name__}: {error}"
        metrics.degradations.append(note)
        if obs.enabled():
            obs.count(f"sql.resilience.{stage_name}_failure")
            obs.record(
                "sql.degraded",
                stage=stage_name,
                policy=self.policy.value,
                error=type(error).__name__,
            )
        if self.policy is GuardPolicy.STRICT:
            raise SqlRuntimeError(
                f"{stage_name} stage failed under strict policy: {error}"
            ) from error
        metrics.degraded = True
        if self.policy is GuardPolicy.REJECT:
            metrics.rows_rejected += relation.n_rows
            for key in list(extras):
                extras[key] = extras[key][:0]
            return relation.filter(
                np.zeros(relation.n_rows, dtype=bool)
            )
        return relation

    def _predict(self, node: Predict, relation: Relation) -> np.ndarray:
        model = self.models.get(node.model)
        if model is None:
            raise SqlRuntimeError(f"unknown model {node.model!r}")
        if node.features:
            missing = [
                f for f in node.features if f not in relation.schema
            ]
            if missing:
                raise SqlRuntimeError(
                    f"PREDICT references unknown columns: {missing}"
                )
        values = model.predict_values(relation)
        return np.array(values, dtype=object)

    def _project(
        self,
        stage: Project,
        relation: Relation,
        extras: dict[str, np.ndarray],
        aliases: Mapping[str, Expr],
    ) -> QueryResult:
        evaluator = Evaluator(Frame(relation, extras), aliases)
        names = [
            item.output_name(index) for index, item in enumerate(stage.items)
        ]
        columns = [evaluator.eval(item.expr) for item in stage.items]
        rows = [
            tuple(_pythonic(column[i]) for column in columns)
            for i in range(relation.n_rows)
        ]
        return QueryResult(names, rows)

    def _aggregate(
        self,
        stage: Aggregate,
        relation: Relation,
        extras: dict[str, np.ndarray],
        aliases: Mapping[str, Expr],
    ) -> QueryResult:
        frame = Frame(relation, extras)
        evaluator = Evaluator(frame, aliases)
        names = [
            item.output_name(index) for index, item in enumerate(stage.items)
        ]
        if stage.group_by:
            key_columns = [evaluator.eval(e) for e in stage.group_by]
            groups: dict[tuple, list[int]] = {}
            for row in range(frame.n_rows):
                key = tuple(column[row] for column in key_columns)
                groups.setdefault(key, []).append(row)
            ordered = sorted(
                groups.items(), key=lambda kv: _sort_token(kv[0])
            )
        else:
            ordered = [((), list(range(frame.n_rows)))]
        rows = []
        for _, indices in ordered:
            index_array = np.asarray(indices, dtype=np.int64)
            if stage.having is not None:
                keep = _aggregate_item(
                    stage.having, evaluator, index_array
                )
                if not keep:
                    continue
            row = tuple(
                _pythonic(
                    _aggregate_item(item.expr, evaluator, index_array)
                )
                for item in stage.items
            )
            rows.append(row)
        return QueryResult(names, rows)


def _aggregate_item(
    expr: Expr, evaluator: Evaluator, indices: np.ndarray
) -> object:
    """Evaluate a select-item expression in one group's context."""
    if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return _compute_aggregate(expr, evaluator, indices)
    if isinstance(expr, ColumnRef) and not evaluator._frame.has(expr.name):
        # Aliases of aggregate expressions (e.g. HAVING share > 0.5)
        # resolve in the group's context, not row context.
        target = evaluator._aliases.get(expr.name)
        if target is not None:
            return _aggregate_item(target, evaluator, indices)
    if isinstance(expr, BinaryOp):
        left = _aggregate_item(expr.left, evaluator, indices)
        right = _aggregate_item(expr.right, evaluator, indices)
        return _scalar_binary(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = _aggregate_item(expr.operand, evaluator, indices)
        if expr.op == "not":
            return not bool(operand)
        return -float(operand) if operand is not None else None
    # Non-aggregate leaf: constant within the group (take first row).
    values = evaluator.eval(expr)
    return values[indices[0]] if indices.size else None


def _compute_aggregate(
    call: FunctionCall, evaluator: Evaluator, indices: np.ndarray
) -> object:
    if call.star or not call.args:
        if call.name != "count":
            raise SqlRuntimeError(f"{call.name.upper()} requires an argument")
        return int(indices.size)
    values = evaluator.eval(call.args[0])[indices]
    if call.name == "count":
        return int(sum(1 for v in values if v is not None))
    floats = as_float(np.asarray(values, dtype=object))
    floats = floats[~np.isnan(floats)]
    if floats.size == 0:
        return None
    if call.name == "sum":
        return float(floats.sum())
    if call.name == "avg":
        return float(floats.mean())
    if call.name == "min":
        return float(floats.min())
    if call.name == "max":
        return float(floats.max())
    raise SqlRuntimeError(f"unknown aggregate {call.name!r}")


def _scalar_binary(op: str, left: object, right: object) -> object:
    if op == "and":
        return bool(left) and bool(right)
    if op == "or":
        return bool(left) or bool(right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if left is None or right is None:
        return None
    lf, rf = float(left), float(right)
    if op == "+":
        return lf + rf
    if op == "-":
        return lf - rf
    if op == "*":
        return lf * rf
    if op == "/":
        return lf / rf if rf != 0 else None
    if op == "<":
        return lf < rf
    if op == "<=":
        return lf <= rf
    if op == ">":
        return lf > rf
    if op == ">=":
        return lf >= rf
    raise SqlRuntimeError(f"unknown operator {op!r}")


def _sort_result(
    result: QueryResult, keys: Sequence
) -> QueryResult:
    positions = []
    for key in keys:
        expr = key.expr
        if isinstance(expr, ColumnRef) and expr.name in result.names:
            positions.append((result.names.index(expr.name), key.descending))
        elif isinstance(expr, LiteralExpr) and isinstance(expr.value, int):
            positions.append((expr.value - 1, key.descending))
        else:
            raise SqlRuntimeError(
                "ORDER BY must reference an output column or position"
            )

    def sort_key(row: tuple):
        return tuple(
            _sort_token((row[index],), descending)
            for index, descending in positions
        )

    rows = sorted(result.rows, key=sort_key)
    return QueryResult(result.names, rows)


def _sort_token(values: tuple, descending: bool = False):
    out = []
    for value in values:
        if value is None:
            token: tuple = (2, "")
        elif isinstance(value, bool):
            token = (0, float(value))
        elif isinstance(value, (int, float)):
            token = (0, float(value))
        else:
            token = (1, str(value))
        out.append(token)
    if descending:
        return _Reversed(tuple(out))
    return tuple(out)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def _pythonic(value: object) -> object:
    if isinstance(value, np.generic):
        return value.item()
    return value
