"""Chaos harness: the registry, the conformance matrix, the report, the CLI.

Every fault class (``repro.resilience.chaos.FAULTS``) must be
policy-conformant under every ``GuardPolicy``; the matrix lives in the
session fixture ``chaos_matrix`` and the load and overload families'
targeted checks in ``test_chaos_load.py`` and ``test_chaos_overload.py``
read the same cells.  Marked ``chaos`` so the fault-injection gate can
be selected with ``pytest -m chaos`` (it also runs as part of plain
tier-1).
"""

import re

import pytest

from repro.resilience import (
    FAMILIES,
    FAULTS,
    GuardPolicy,
    chaos_program,
    chaos_relation,
    render_chaos_report,
    run_chaos_suite,
    run_fault,
)

pytestmark = pytest.mark.chaos

_POLICIES = ["strict", "warn", "pass_through", "reject"]
_SERVED = ("load", "overload")
_DEFAULT = [name for name, f in FAULTS.items() if f.family not in _SERVED]


def named(fault: str, text: str) -> bool:
    """Is ``fault`` in ``text`` as a whole word?  (``worker_kill`` is a
    prefix of ``worker_killed``.)"""
    return re.search(rf"\b{fault}\b", text) is not None


class TestChaosSuite:
    @pytest.mark.parametrize("policy", _POLICIES)
    def test_every_fault_class_is_conformant(self, chaos_matrix, policy):
        outcomes = chaos_matrix(policy)
        assert list(outcomes) == list(FAULTS)
        bad = [o for o in outcomes.values() if not o.conformant]
        assert not bad, render_chaos_report(list(outcomes.values()))
        for outcome in outcomes.values():
            assert outcome.family == FAULTS[outcome.fault].family
            assert outcome.policy is GuardPolicy.parse(policy)
            if outcome.family in _SERVED:  # zero lost requests
                measures = outcome.measures
                assert measures["resolved"] == measures["submitted"] > 0

    @pytest.mark.parametrize("fault", _DEFAULT)
    def test_single_fault_runs_standalone(self, fault):
        outcome = run_fault(fault, "warn")
        assert outcome.fault == fault
        assert outcome.family == FAULTS[fault].family
        assert outcome.policy is GuardPolicy.WARN
        assert outcome.conformant, outcome.detail
        assert outcome.measures == {}

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            run_fault("cosmic_rays", "warn")

    def test_report_renders_every_outcome(self, chaos_matrix):
        report = render_chaos_report(list(chaos_matrix("reject").values()))
        for fault in FAULTS:
            assert named(fault, report)
        assert f"{len(FAULTS)}/{len(FAULTS)}" in report

    def test_registry_families(self):
        assert set(FAMILIES) == {f.family for f in FAULTS.values()}
        assert all(name == f.name for name, f in FAULTS.items())
        # Suite order groups each family, in FAMILIES order.
        order = [FAMILIES.index(f.family) for f in FAULTS.values()]
        assert order == sorted(order)
        assert [o.fault for o in run_chaos_suite(faults=())] == []


class TestChaosFixture:
    def test_relation_is_clean_under_program(self):
        from repro.synth import Guardrail

        relation = chaos_relation()
        guard = Guardrail.from_program(chaos_program()).guard()
        # check_relation returns a row-violation mask: clean data is
        # all-False.
        assert not guard.check_relation(relation).any()

    def test_relation_shape(self):
        relation = chaos_relation(copies=2)
        assert relation.n_rows == 8
        assert set(relation.names) == {"PostalCode", "City", "State"}


class TestChaosCli:
    def test_cli_chaos_conformant_exit(self, capsys):
        from repro.cli import main

        # No selector: the unit, worker and durability families.
        assert main(["chaos", "--guard-policy", "reject"]) == 0
        out = capsys.readouterr().out
        assert f"{len(_DEFAULT)}/{len(_DEFAULT)} fault classes " in out
        assert all(named(fault, out) for fault in _DEFAULT)

    def test_cli_chaos_fault_subset(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--fault", "malformed_rows"]) == 0
        out = capsys.readouterr().out
        assert named("malformed_rows", out)
        assert not named("raising_guard", out)

    def test_cli_chaos_unknown_fault(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--fault", "gremlins"]) == 2
        assert "unknown fault class" in capsys.readouterr().err

    def test_cli_chaos_durability_family(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--family", "durability"]) == 0
        out = capsys.readouterr().out
        for name, fault in FAULTS.items():
            assert named(name, out) is (fault.family == "durability")
