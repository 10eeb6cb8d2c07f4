"""Chaos under load: faults injected while closed-loop clients drive serve.

Each class of the ``load`` family must be conformant — zero lost
requests, verdict parity against a serial reference for every healthy
response, and post-fault recovery — while the clients keep traffic
flowing.  The conformance cells come from the shared ``chaos_matrix``.

Marked both ``chaos`` and ``serve``.
"""

import re

import pytest

from repro.resilience import (
    FAULTS,
    render_chaos_report,
    run_chaos_suite,
    run_fault,
)

pytestmark = [pytest.mark.chaos, pytest.mark.serve]


def named(fault: str, text: str) -> bool:
    """Is ``fault`` in ``text`` as a whole word?  (``worker_kill`` is a
    prefix of ``worker_killed``.)"""
    return re.search(rf"\b{fault}\b", text) is not None


_LOAD = [name for name, f in FAULTS.items() if f.family == "load"]


class TestLoadFaults:
    @pytest.mark.parametrize("fault", _LOAD)
    def test_fault_class_conformant_under_warn(self, chaos_matrix, fault):
        outcome = chaos_matrix("warn")[fault]
        assert outcome.family == "load"
        assert outcome.conformant, outcome.detail
        assert outcome.measures["submitted"] > 0
        assert outcome.measures["resolved"] == outcome.measures["submitted"]

    def test_guard_exception_conformant_under_strict(self, chaos_matrix):
        # Strict fails closed during the fault window; the judge still
        # demands zero lost requests and post-fault recovery.
        outcome = chaos_matrix("strict")["guard_exception"]
        assert outcome.conformant, outcome.detail
        assert outcome.measures["errors"] > 0  # the fault window fired

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            run_fault("gremlins", "warn")
        with pytest.raises(ValueError, match="in load"):
            run_chaos_suite(faults=("raising_guard",), families=("load",))

    def test_suite_and_report_cover_every_class(self):
        outcomes = run_chaos_suite("warn", families=("load",))
        assert [o.fault for o in outcomes] == _LOAD
        report = render_chaos_report(outcomes)
        assert all(o.conformant for o in outcomes), report
        assert all(named(fault, report) for fault in _LOAD)
        assert f"{len(_LOAD)}/{len(_LOAD)}" in report


class TestChaosLoadCli:
    def test_cli_chaos_load_exit_zero(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--family", "load"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name, fault in FAULTS.items():
            assert named(name, out) is (fault.family == "load")

    def test_cli_chaos_load_single_fault(self, capsys):
        from repro.cli import main

        # --fault alone searches every family.
        code = main(["chaos", "--fault", "hot_swap"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert named("hot_swap", out)
        assert "1/1 fault classes conformant" in out

    def test_cli_chaos_load_rejects_unit_fault_names(self, capsys):
        from repro.cli import main

        # A unit class is not a load fault; the CLI must say so instead
        # of silently running nothing.
        code = main(["chaos", "--family", "load", "--fault", "raising_guard"])
        assert code == 2
        assert named("raising_guard", capsys.readouterr().err)

    def test_cli_chaos_worker_faults_subset(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--family", "worker"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name, fault in FAULTS.items():
            assert named(name, out) is (fault.family == "worker")
