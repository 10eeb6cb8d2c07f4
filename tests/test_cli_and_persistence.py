"""Tests for the CLI, Guardrail persistence, and SQL HAVING support."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.relation import Relation, read_csv, write_csv
from repro.resilience import DriftDetector, render_drift_report
from repro.synth import Guardrail, GuardrailConfig


@pytest.fixture
def city_csv(tmp_path, city_relation):
    path = tmp_path / "city.csv"
    write_csv(city_relation, path)
    return path


class TestGuardrailPersistence:
    def test_save_load_roundtrip(self, tmp_path, city_relation):
        guard = Guardrail(
            GuardrailConfig(epsilon=0.02, min_support=3)
        ).fit(city_relation)
        path = tmp_path / "program.dsl"
        guard.save(path)
        loaded = Guardrail.load(path)
        assert loaded.program == guard.program
        assert np.array_equal(
            loaded.check(city_relation), guard.check(city_relation)
        )

    def test_loaded_guard_can_rectify(self, tmp_path, city_relation):
        guard = Guardrail(
            GuardrailConfig(epsilon=0.02, min_support=3)
        ).fit(city_relation)
        path = tmp_path / "program.dsl"
        guard.save(path)
        loaded = Guardrail.load(path)
        corrupted = city_relation.set_cell(
            0, guard.program.dependents[0], "junk"
        )
        repaired = loaded.rectify(corrupted)
        assert not loaded.check(repaired).any()

    def test_describe_on_loaded_guard(self, tmp_path, city_relation):
        guard = Guardrail(
            GuardrailConfig(epsilon=0.02, min_support=3)
        ).fit(city_relation)
        path = tmp_path / "program.dsl"
        guard.save(path)
        assert "ci_tests=n/a" in Guardrail.load(path).describe()


class TestCli:
    def test_synthesize_check_rectify_pipeline(
        self, tmp_path, city_csv, capsys
    ):
        program_path = tmp_path / "prog.dsl"
        assert main(
            [
                "synthesize", str(city_csv),
                "-o", str(program_path),
                "--min-support", "3",
            ]
        ) == 0
        assert program_path.exists()
        assert "GIVEN" in program_path.read_text()

        # Clean data passes the check (exit 0).
        assert main(["check", str(program_path), str(city_csv)]) == 0

        # Corrupt a dependent cell of the learned program (corrupting a
        # determinant with garbage is undetectable by design).
        from repro.dsl import parse_program

        program = parse_program(program_path.read_text())
        dependent = program.dependents[0]
        relation = read_csv(city_csv)
        original = relation.value(0, dependent)
        corrupted = relation.set_cell(0, dependent, "gibbon")
        dirty_csv = tmp_path / "dirty.csv"
        write_csv(corrupted, dirty_csv)
        assert main(["check", str(program_path), str(dirty_csv)]) == 1
        out = capsys.readouterr().out
        assert f"should be {original!r}" in out

        # Rectify it back.
        fixed_csv = tmp_path / "fixed.csv"
        assert main(
            [
                "rectify", str(program_path), str(dirty_csv),
                "-o", str(fixed_csv),
            ]
        ) == 0
        assert read_csv(fixed_csv).value(0, dependent) == original

    def test_serve_resends_rejected_requests(
        self, tmp_path, city_csv, city_relation, capsys
    ):
        program_path = tmp_path / "prog.dsl"
        Guardrail(GuardrailConfig(epsilon=0.02, min_support=3)).fit(
            city_relation
        ).save(program_path)
        trace = tmp_path / "serve.jsonl"
        # A one-slot queue under 16 concurrent clients sheds most first
        # attempts; every shed check must be re-sent until served.
        assert main(
            [
                "serve", str(program_path), str(city_csv),
                "--tenants", "1",
                "--clients", "16",
                "--requests", "3",
                "--queue-size", "1",
                "--trace", str(trace),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "48 requests served across 1 tenants" in out
        resent = re.search(r"(\d+) rejections re-sent", out)
        assert int(resent.group(1)) > 0  # the queue really shed
        header, tenant_row = out.splitlines()[:2]
        flushes = int(
            tenant_row.split()[header.split().index("flushes")]
        )
        # The trace counts what the service report counts.
        assert main(["obs", "report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert re.search(r"serve\.flush\s+(\d+)", report).group(1) == str(
            flushes
        )

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Adult" in out and "Hotel Reservations" in out

    def test_datasets_export(self, tmp_path, capsys):
        target = tmp_path / "blood.csv"
        assert main(
            [
                "datasets", "--export", "6",
                "--rows", "50", "-o", str(target),
            ]
        ) == 0
        assert read_csv(target).n_rows == 50

    def test_to_sql_modes(self, tmp_path, city_csv, capsys):
        program_path = tmp_path / "prog.dsl"
        main(
            [
                "synthesize", str(city_csv),
                "-o", str(program_path), "--min-support", "3",
            ]
        )
        capsys.readouterr()
        for mode, marker in [
            ("audit", "SELECT * FROM"),
            ("check", "CHECK (NOT"),
            ("update", "UPDATE"),
        ]:
            assert main(
                ["to-sql", str(program_path), "--mode", mode]
            ) == 0
            assert marker in capsys.readouterr().out


_PLACES = {
    "94704": ("Berkeley", "CA"),
    "94720": ("Berkeley", "CA"),
    "10001": ("NewYork", "NY"),
    "10002": ("NewYork", "NY"),
    "73301": ("Austin", "TX"),
}


def _places(n: int, seed: int, drift: bool = False) -> Relation:
    """City rows; with ``drift`` the second half brings a postal code
    and city the training data never saw, and some corrupted states."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        postal = str(rng.choice(list(_PLACES)))
        city, state = _PLACES[postal]
        if drift and i > n // 2 and rng.random() < 0.1:
            postal, city = "99999", "Atlantis"
        if drift and rng.random() < 0.02:
            state = "ZZ"
        rows.append({"PostalCode": postal, "City": city, "State": state})
    return Relation.from_rows(rows)


class TestCliDrift:
    def test_drift_report_matches_the_row_by_row_guard(
        self, tmp_path, capsys
    ):
        train_csv, stream_csv = tmp_path / "train.csv", tmp_path / "s.csv"
        write_csv(_places(1500, seed=1), train_csv)
        write_csv(_places(40000, seed=2, drift=True), stream_csv)
        program_path = tmp_path / "prog.dsl"
        Guardrail(GuardrailConfig(epsilon=0.02, min_support=3)).fit(
            read_csv(train_csv)
        ).save(program_path)
        argv = [
            "drift", str(train_csv), str(stream_csv),
            "--program", str(program_path), "--window", "128",
        ]

        assert main(argv) == 1
        out = capsys.readouterr().out

        # The reference: the stream fed through a row guard with the
        # detector attached, one row at a time.
        guard = Guardrail.load(program_path)
        stream = read_csv(stream_csv)
        detector = DriftDetector.from_training(
            read_csv(train_csv), program=guard.program, window=128
        )
        row_guard = guard.guard()
        row_guard.attach_drift(detector)
        flagged = sum(
            0 if row_guard.check(row).ok else 1
            for row in stream.iter_rows()
        )
        detector.flush()
        alerts = detector.poll()
        assert {alert.kind for alert in alerts} >= {
            "unseen_values", "marginal_shift"
        }
        assert flagged > 0
        assert out == (
            f"{render_drift_report(alerts, detector.stats)}\n"
            f"{flagged} of {stream.n_rows} rows flagged\n"
        )


class TestSqlHaving:
    @pytest.fixture
    def executor(self, city_relation):
        from repro.sql import QueryExecutor

        return QueryExecutor({"t": city_relation})

    def test_having_filters_groups(self, executor):
        result = executor.execute(
            "SELECT City, COUNT(*) AS n FROM t GROUP BY City "
            "HAVING COUNT(*) > 15 ORDER BY City"
        )
        # Berkeley (two postal codes) and NewYork have 20 rows each.
        assert result.column("City") == ["Berkeley", "NewYork"]

    def test_having_with_comparison_on_avg(self, executor):
        result = executor.execute(
            "SELECT State, AVG(CASE WHEN City = 'Berkeley' THEN 1 "
            "ELSE 0 END) AS share FROM t GROUP BY State "
            "HAVING share = 1.0"
        )
        assert result.column("State") == ["CA"]

    def test_having_without_group_by_rejected(self, executor):
        from repro.sql import SqlSyntaxError

        with pytest.raises(SqlSyntaxError, match="HAVING requires"):
            executor.execute(
                "SELECT COUNT(*) FROM t HAVING COUNT(*) > 1"
            )
