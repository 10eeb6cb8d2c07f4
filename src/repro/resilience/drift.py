"""Online drift detection for the streaming guard.

The synthesized program models the data-generating process *at
training time*; in deployment the input distribution moves — new
category values, shifted marginals, broken upstream feeds — and a
stale guard either silently degrades (rising false flags) or trips the
circuit breaker with no path back.  This module closes the detection
half of the self-healing loop with three online detectors, each fed by
the streaming guard (:mod:`repro.errors.stream`) and each emitting
typed :class:`DriftAlert` records:

* **codec-unseen values** — per attribute, the fraction of window
  values the training codec never saw (a new category or a broken
  upstream feed);
* **marginal shift** — per attribute, a χ² homogeneity test of the
  window's value counts against the training-time marginals, reusing
  the contingency-table machinery of :mod:`repro.pgm.independence`;
* **violation rate** — an EWMA control chart over the guard's own
  violation verdicts, alerting when the smoothed rate crosses the
  control limit derived from the training baseline.

The per-row cost is one :meth:`DriftDetector.observe` call and a
countdown decrement, plus one list append on every
``sample_every``-th row (the detectors evaluate a 1-in-k systematic
sample of the stream; k=1 disables sampling); all statistics run when
a window of sampled rows fills, so a drift-instrumented guard stays
within a few percent of bare-guard throughput
(``benchmarks/test_drift_overhead.py`` enforces <10%).

    detector = DriftDetector.from_training(train, program=guard.program)
    guard = gr.guard()
    guard.attach_drift(detector)
    for row in stream:
        guard.check(row)
        for alert in detector.poll():
            ...                       # e.g. hand to GuardrailSupervisor
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from .. import obs
from ..pgm.independence import _x2_from_table
from ..relation import MISSING, Relation
from ..relation.encoding import Codec

DRIFT_KINDS = ("unseen_values", "marginal_shift", "violation_rate")
"""Every alert kind a :class:`DriftDetector` can emit."""

EWMA_LAMBDA = 0.05
"""Smoothing weight of the violation-rate EWMA chart."""

EWMA_SIGMAS = 6.0
"""Control-limit width of that chart, in asymptotic EWMA standard
deviations."""


@dataclass(frozen=True)
class DriftAlert:
    """One detected departure from the training-time distribution."""

    kind: str
    """One of :data:`DRIFT_KINDS`."""
    attribute: str | None
    """The drifting attribute (None for the program-wide violation
    chart)."""
    statistic: float
    """The detector's test statistic (rate, χ², or EWMA level)."""
    threshold: float
    """The limit the statistic crossed."""
    window: int
    """Rows in the evaluation window that raised the alert."""
    message: str
    """Human-readable one-liner for logs and the CLI."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.message


@dataclass
class DriftStats:
    """Counters a long-running detector accumulates."""

    rows_observed: int = 0
    windows_evaluated: int = 0
    alerts_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total_alerts(self) -> int:
        """Alerts emitted across every kind."""
        return sum(self.alerts_by_kind.values())


@dataclass(frozen=True)
class _Reference:
    """Training-time marginal for one monitored attribute."""

    codec: Codec
    counts: np.ndarray  # per-code counts, len == codec.cardinality
    padded: np.ndarray  # counts + trailing 0.0 "unseen" bucket


class DriftDetector:
    """Online drift detection against a training-time reference.

    Parameters
    ----------
    reference:
        The training relation whose categorical marginals and codecs
        define "no drift".
    attributes:
        Attributes to monitor (default: every categorical attribute of
        ``reference``).
    window:
        Rows per evaluation window; statistics run when it fills.
    alpha:
        Significance level of the per-attribute marginal test.  Kept
        deliberately small (default ``1e-4``): the test runs once per
        attribute per window, so the false-positive budget must cover
        many repeated tests on a stationary stream.
    unseen_threshold:
        Window fraction of codec-unseen values (per attribute) that
        raises an ``unseen_values`` alert.
    baseline_violation_rate:
        Expected violation rate on in-distribution data (e.g. the
        guard's false-flag rate on the training relation); the
        violation-rate chart (:data:`EWMA_LAMBDA`,
        :data:`EWMA_SIGMAS`) centres on it.
    min_window:
        Windows smaller than this (e.g. a final partial flush) are not
        evaluated.
    sample_every:
        Evaluate statistics on every k-th observed row (a systematic
        sample).  ``window`` counts *sampled* rows, so one evaluation
        spans ``window * sample_every`` raw rows.  The default of 8
        keeps a drift-instrumented guard well inside the <10% overhead
        budget; set 1 for full-fidelity monitoring of slow streams.
        It may be changed between calls (the serving layer widens it
        under brownout); the next sampled row follows the new value.

    Three feeding paths share one 1-in-k countdown, which carries
    across calls and between paths: :meth:`observe` (one vetted row —
    what :meth:`repro.errors.Guard.check` calls), :meth:`observe_batch`
    (a micro-batch — :meth:`repro.errors.Guard.check_batch`) and
    :meth:`scan` (a whole vetted relation).  Any split of a stream
    across them samples the same rows and leaves the same state.
    """

    def __init__(
        self,
        reference: Relation,
        attributes: Sequence[str] | None = None,
        window: int = 512,
        alpha: float = 1e-4,
        unseen_threshold: float = 0.05,
        baseline_violation_rate: float = 0.0,
        min_window: int = 64,
        sample_every: int = 8,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.window = int(window)
        self.alpha = alpha
        self.unseen_threshold = unseen_threshold
        self.min_window = min_window
        self.sample_every = int(sample_every)
        self.stats = DriftStats()
        self._pending: list[DriftAlert] = []
        self._rows: list[Mapping[str, Hashable]] = []
        self._oks: list[bool] = []
        self._decay: dict[int, tuple[float, np.ndarray]] = {}
        self._attributes: list[str] = (
            list(attributes)
            if attributes is not None
            else list(reference.schema.categorical_names())
        )
        self._references: dict[str, _Reference] = {}
        self._critical: dict[int, float] = {}
        self._ewma = 0.0
        self._ewma_seen = 0
        self._tick = self.sample_every
        self.rebase(reference, baseline_violation_rate)

    @classmethod
    def from_training(
        cls,
        reference: Relation,
        program=None,
        **kwargs,
    ) -> "DriftDetector":
        """Build a detector calibrated on the training relation.

        When ``program`` (the synthesized constraints) is given, the
        monitored attributes default to those the program touches and
        the EWMA baseline is set to the program's own false-flag rate
        on ``reference`` — the right centre line for "the guard is as
        noisy as it was at fit time".
        """
        if program is not None and "attributes" not in kwargs:
            touched = _program_attributes(program)
            categorical = set(reference.schema.categorical_names())
            monitored = [a for a in touched if a in categorical]
            if monitored:
                kwargs["attributes"] = monitored
        if program is not None and "baseline_violation_rate" not in kwargs:
            from ..dsl import program_violations

            mask = program_violations(program, reference)
            kwargs["baseline_violation_rate"] = float(mask.mean())
        return cls(reference, **kwargs)

    # ------------------------------------------------------------------
    # Feeding (the hot path)
    # ------------------------------------------------------------------

    def observe(self, row: Mapping[str, Hashable], ok: bool) -> None:
        """Feed one vetted row (the ``Guard.check`` path).

        :meth:`_countdown` and :meth:`_buffer` for one row, inlined
        because this runs once per checked row: a skipped row costs
        one decrement.
        """
        tick = self._tick - 1
        if tick > 0:
            self._tick = tick
            return
        self._tick = self.sample_every
        rows = self._rows
        rows.append(row)
        self._oks.append(ok)
        if len(rows) >= self.window:
            self._evaluate_window()

    def observe_batch(
        self,
        rows: Sequence[Mapping[str, Hashable]],
        oks: Sequence[bool],
    ) -> None:
        """Feed a vetted micro-batch (the ``Guard.check_batch`` path).

        Sampling is applied across batch boundaries (the countdown
        carries over), so the batch path sees exactly the rows the
        row-at-a-time path would.
        """
        n = len(rows)
        start = self._countdown(n)
        if start < n:
            k = self.sample_every
            self._buffer(rows[start::k], oks[start::k])

    def _countdown(self, n: int) -> int:
        """Advance the 1-in-k sampling countdown over the next ``n`` rows.

        Returns the offset of the first sampled row among them (every
        ``sample_every``-th row after it is sampled too), or ``n`` when
        none is.  :meth:`observe_batch` and :meth:`scan` sample through
        here and :meth:`observe` inlines the one-row case, so every
        feeding path picks the same rows of a stream, and a changed
        :attr:`sample_every` (brownout widening) takes effect at the
        next sampled row.
        """
        start = self._tick - 1
        if start >= n:
            self._tick -= n
            return n
        self._tick = self.sample_every - (n - 1 - start) % self.sample_every
        return start

    def _buffer(
        self,
        rows: Sequence[Mapping[str, Hashable]],
        oks: Sequence[bool],
    ) -> None:
        """Buffer already-sampled rows, evaluating each window when it
        holds exactly ``window`` rows, however the rows arrive."""
        room = self.window - len(self._rows)
        while len(rows) >= room:
            self._rows.extend(rows[:room])
            self._oks.extend(oks[:room])
            self._evaluate_window()
            rows, oks = rows[room:], oks[room:]
            room = self.window
        self._rows.extend(rows)
        self._oks.extend(oks)

    def scan(self, relation: Relation, oks: Sequence[bool]) -> None:
        """Feed a whole vetted relation through the detector in one call.

        Exactly equivalent to the row-at-a-time loop

        >>> for i in range(relation.n_rows):        # doctest: +SKIP
        ...     detector.observe(relation.row(i), bool(oks[i]))

        — the 1-in-k countdown carries in and out, windows evaluate at
        exactly ``window`` sampled rows, and the unevaluated tail stays
        buffered — but each full window is counted from the relation's
        codes (:meth:`_code_counts`).  Only the sampled rows that
        complete a part-filled buffer, and the tail that stays
        buffered, are decoded into rows.
        """
        n = relation.n_rows
        if len(oks) != n:
            raise ValueError(
                f"oks has {len(oks)} entries for {n} rows"
            )
        start = self._countdown(n)
        if start == n:
            return
        sampled = np.arange(start, n, self.sample_every)
        oks = np.asarray(oks, dtype=bool)

        def feed(indices: np.ndarray) -> None:
            self._buffer(
                [relation.row(int(i)) for i in indices],
                list(oks[indices]),
            )

        # The partially-filled buffer (rows from earlier observe calls)
        # completes its window from decoded rows; every later boundary
        # is then window-aligned over the sampled indices.
        cursor = 0
        if self._rows:
            cursor = min(sampled.size, self.window - len(self._rows))
            feed(sampled[:cursor])
        stop = cursor + (sampled.size - cursor) // self.window * self.window
        for low in range(cursor, stop, self.window):
            window = sampled[low : low + self.window]
            self._reduce_window(
                self._code_counts(relation, window), oks[window]
            )
        feed(sampled[stop:])

    def flush(self) -> None:
        """Evaluate whatever is buffered (e.g. at end-of-stream).

        Windows below ``min_window`` (sampled rows) are discarded
        unevaluated — a too-small sample proves nothing either way.
        """
        if len(self._rows) >= self.min_window:
            self._evaluate_window()
        else:
            self._rows = []
            self._oks = []

    def poll(self) -> list[DriftAlert]:
        """Drain and return the alerts raised since the last poll."""
        alerts, self._pending = self._pending, []
        return alerts

    @property
    def violation_ewma(self) -> float:
        """Current level of the violation-rate control chart."""
        return self._ewma

    @property
    def attributes(self) -> tuple[str, ...]:
        """The monitored attributes."""
        return tuple(self._attributes)

    # ------------------------------------------------------------------
    # Re-baselining (after a hot-swap)
    # ------------------------------------------------------------------

    def rebase(
        self,
        reference: Relation,
        baseline_violation_rate: float | None = None,
    ) -> None:
        """Adopt a new reference distribution (post-heal, the swapped
        guard's own training window becomes "normal").

        Resets the window buffer and the EWMA level so stale evidence
        against the *old* reference cannot raise alerts against the
        new one.
        """
        references: dict[str, _Reference] = {}
        for attribute in self._attributes:
            if attribute not in reference.schema:
                continue
            codec = reference.codec(attribute)
            codes = reference.codes(attribute)
            counts = np.bincount(
                codes[codes >= 0], minlength=codec.cardinality
            ).astype(np.float64)
            references[attribute] = _Reference(
                codec, counts, np.append(counts, 0.0)
            )
        self._references = references
        from operator import itemgetter

        self._getter = (
            itemgetter(*references) if len(references) > 1 else None
        )
        if baseline_violation_rate is not None:
            self.baseline_violation_rate = float(baseline_violation_rate)
        self._ewma = self.baseline_violation_rate
        self._ewma_seen = 0
        self._rows = []
        self._oks = []
        self._tick = self.sample_every

    # ------------------------------------------------------------------
    # Window evaluation (amortized)
    # ------------------------------------------------------------------

    def _evaluate_window(self) -> None:
        """Run every detector over the buffered window; queue alerts."""
        rows, self._rows = self._rows, []
        oks, self._oks = self._oks, []
        self._reduce_window(self._window_counts(rows), oks)

    def _reduce_window(
        self,
        per_attribute_counts: Mapping[str, Counter],
        oks: Sequence[bool],
    ) -> None:
        """Reduce one window's counts into detector state.

        The counts come from decoded rows (:meth:`_window_counts`) or
        from a relation's codes (:meth:`_code_counts`); everything
        stateful — EWMA, stats, alert queueing — funnels through here,
        in window order.
        """
        n = len(oks)
        self._update_ewma(oks)
        self.stats.rows_observed += n
        self.stats.windows_evaluated += 1
        traced = obs.enabled()
        if traced:
            obs.count("drift.window")
        for attribute, counts in per_attribute_counts.items():
            ref = self._references[attribute]
            counts.pop(None, None)
            seen_total = sum(counts.values())
            if seen_total == 0:
                continue
            unseen = sum(
                count
                for value, count in counts.items()
                if value not in ref.codec
            )
            unseen_rate = unseen / seen_total
            if unseen_rate > self.unseen_threshold:
                self._raise_alert(
                    DriftAlert(
                        kind="unseen_values",
                        attribute=attribute,
                        statistic=unseen_rate,
                        threshold=self.unseen_threshold,
                        window=n,
                        message=(
                            f"{attribute}: {unseen_rate:.1%} of window "
                            f"values unseen by the training codec "
                            f"(> {self.unseen_threshold:.1%})"
                        ),
                    ),
                    traced,
                )
            self._marginal_test(
                attribute, ref, counts, unseen, seen_total, n, traced
            )
        self._violation_chart(n, traced)

    def _window_counts(self, rows: list) -> dict[str, Counter]:
        """Per-attribute value counts over the window, one pass.

        The fast path counts *distinct attribute tuples* with a single
        C-level ``Counter(map(itemgetter(...)))`` sweep and then fans
        the (few) combination counts out per attribute, so the Python
        loop runs over distinct value combinations, not rows.  Rows
        missing an attribute fall back to ``row.get`` counting.
        """
        attributes = list(self._references)
        getter = self._getter
        if getter is not None:
            try:
                combos = Counter(map(getter, rows))
            except (KeyError, TypeError):
                pass
            else:
                per = {a: Counter() for a in attributes}
                for combo, count in combos.items():
                    for attribute, value in zip(attributes, combo):
                        per[attribute][value] += count
                return per
        return {
            attribute: Counter(row.get(attribute) for row in rows)
            for attribute in attributes
        }

    def _code_counts(
        self, relation: Relation, indices: np.ndarray
    ) -> dict[str, Counter]:
        """Per-attribute value counts over the rows at ``indices``,
        taken from the relation's codes: one ``np.bincount`` per
        attribute, MISSING dropped.

        The same counts :meth:`_window_counts` takes from the decoded
        rows; an attribute the relation lacks counts nothing, and a
        non-categorical one counts its decoded values.
        """
        per: dict[str, Counter] = {}
        for attribute in self._references:
            if attribute not in relation.schema:
                per[attribute] = Counter()
            elif not relation.schema[attribute].is_categorical():
                per[attribute] = Counter(
                    relation.value(int(i), attribute) for i in indices
                )
            else:
                codes = relation.codes(attribute)[indices]
                tally = np.bincount(codes[codes != MISSING])
                values = relation.codec(attribute).values
                per[attribute] = Counter(
                    {values[c]: int(tally[c]) for c in np.flatnonzero(tally)}
                )
        return per

    def _update_ewma(self, oks: Sequence[bool]) -> None:
        """Advance the violation-rate EWMA over a window of verdicts.

        Equivalent to the per-row recursion
        ``e <- e + lambda * (x - e)``, vectorized so the hot path never
        pays a float update.
        """
        n = len(oks)
        if n == 0:
            return
        cached = self._decay.get(n)
        if cached is None:
            lam = EWMA_LAMBDA
            cached = (
                (1.0 - lam) ** n,
                lam * (1.0 - lam) ** np.arange(n - 1, -1, -1),
            )
            self._decay[n] = cached
        factor, decay = cached
        x = 1.0 - np.asarray(oks, dtype=np.float64)
        self._ewma = float(factor * self._ewma + decay @ x)
        self._ewma_seen += n

    def _marginal_test(
        self,
        attribute: str,
        ref: _Reference,
        counts: Counter,
        unseen: int,
        seen_total: int,
        n: int,
        traced: bool,
    ) -> None:
        """χ² homogeneity of the window counts vs training marginals.

        The two-row contingency table (training counts over the codec's
        categories plus an "unseen" bucket vs the window's) goes through
        the same statistic/dof machinery PC's CI tests use.
        """
        table = np.zeros((2, ref.codec.cardinality + 1), dtype=np.float64)
        table[0] = ref.padded
        window_counts = table[1]
        for value, count in counts.items():
            if value in ref.codec:
                window_counts[ref.codec.encode_one(value)] = count
        window_counts[-1] = unseen
        statistic, dof = _x2_from_table(table)
        if dof == 0 or seen_total < self.min_window:
            return
        # Compare against the cached critical value; the p-value itself
        # (one scipy call per *alert*, not per window) is only for the
        # message.  The χ² inverse survival and survival functions come
        # from scipy.special, already loaded by PC's CI tests: importing
        # scipy.stats would stall the serving loop for about a second at
        # the first window.
        critical = self._critical.get(dof)
        if critical is None:
            critical = float(special.chdtri(dof, self.alpha))
            self._critical[dof] = critical
        if statistic > critical:
            p_value = float(special.chdtrc(dof, statistic))
            self._raise_alert(
                DriftAlert(
                    kind="marginal_shift",
                    attribute=attribute,
                    statistic=statistic,
                    threshold=self.alpha,
                    window=n,
                    message=(
                        f"{attribute}: marginal shift "
                        f"(x2={statistic:.1f}, dof={dof}, "
                        f"p={p_value:.2e} < {self.alpha:g})"
                    ),
                ),
                traced,
            )

    def _violation_chart(self, n: int, traced: bool) -> None:
        """EWMA control chart on the guard's violation verdicts."""
        if self._ewma_seen < self.min_window:
            return
        mu = max(self.baseline_violation_rate, 1.0 / self.window)
        sigma = math.sqrt(
            mu * (1.0 - mu) * EWMA_LAMBDA / (2.0 - EWMA_LAMBDA)
        )
        limit = mu + EWMA_SIGMAS * sigma
        if self._ewma > limit:
            self._raise_alert(
                DriftAlert(
                    kind="violation_rate",
                    attribute=None,
                    statistic=self._ewma,
                    threshold=limit,
                    window=n,
                    message=(
                        f"violation-rate EWMA {self._ewma:.3f} crossed "
                        f"the control limit {limit:.3f} "
                        f"(baseline {self.baseline_violation_rate:.3f})"
                    ),
                ),
                traced,
            )

    def _raise_alert(self, alert: DriftAlert, traced: bool) -> None:
        self._pending.append(alert)
        self.stats.alerts_by_kind[alert.kind] = (
            self.stats.alerts_by_kind.get(alert.kind, 0) + 1
        )
        if traced:
            obs.count("drift.alert")
            obs.count(f"drift.alert.{alert.kind}")
            obs.record(
                "drift.alert",
                kind=alert.kind,
                attribute=alert.attribute,
                statistic=alert.statistic,
                threshold=alert.threshold,
            )


def _program_attributes(program) -> list[str]:
    """Attributes a program reads or writes, in first-use order."""
    seen: dict[str, None] = {}
    for statement in program:
        for determinant in statement.determinants:
            seen.setdefault(determinant, None)
        seen.setdefault(statement.dependent, None)
    return list(seen)


def render_drift_report(
    alerts: Iterable[DriftAlert], stats: DriftStats | None = None
) -> str:
    """Plain-text rendering of a drift run (the CLI's output)."""
    alerts = list(alerts)
    lines = []
    if stats is not None:
        lines.append(
            f"drift: {stats.rows_observed} rows observed, "
            f"{stats.windows_evaluated} windows evaluated, "
            f"{stats.total_alerts} alerts"
        )
    if not alerts:
        lines.append("no drift detected")
    for alert in alerts:
        lines.append(f"  [{alert.kind}] {alert.message}")
    return "\n".join(lines)
