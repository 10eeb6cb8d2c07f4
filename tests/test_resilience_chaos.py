"""Chaos-injection suite: every fault class must be policy-conformant.

Marked ``chaos`` so the fault-injection gate can be selected with
``pytest -m chaos`` (it also runs as part of plain tier-1).
"""

import pytest

from repro.resilience import (
    FAULT_CLASSES,
    GuardPolicy,
    chaos_program,
    chaos_relation,
    render_chaos_report,
    run_chaos_suite,
    run_fault,
)

pytestmark = pytest.mark.chaos

_POLICIES = ["strict", "warn", "pass_through", "reject"]


class TestChaosSuite:
    @pytest.mark.parametrize("policy", _POLICIES)
    def test_every_fault_class_is_conformant(self, policy):
        outcomes = run_chaos_suite(policy)
        assert len(outcomes) == len(FAULT_CLASSES)
        bad = [o for o in outcomes if not o.conformant]
        assert not bad, render_chaos_report(outcomes)

    @pytest.mark.parametrize("fault", FAULT_CLASSES)
    def test_single_fault_runs_standalone(self, fault):
        outcome = run_fault(fault, "warn")
        assert outcome.fault == fault
        assert outcome.policy is GuardPolicy.WARN
        assert outcome.conformant, outcome.detail

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            run_fault("cosmic_rays", "warn")

    def test_report_renders_every_outcome(self):
        outcomes = run_chaos_suite("reject")
        report = render_chaos_report(outcomes)
        for fault in FAULT_CLASSES:
            assert fault in report
        assert f"{len(FAULT_CLASSES)}/{len(FAULT_CLASSES)}" in report


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

        assert main(["chaos", "--guard-policy", "reject"]) == 0
        out = capsys.readouterr().out
        assert "fault classes conformant" in out

    def test_cli_chaos_fault_subset(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--fault", "malformed_rows"]) == 0
        out = capsys.readouterr().out
        assert "malformed_rows" in out
        assert "raising_guard" not in out

    def test_cli_chaos_unknown_fault(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--fault", "gremlins"]) == 2
        assert "unknown fault class" in capsys.readouterr().err
