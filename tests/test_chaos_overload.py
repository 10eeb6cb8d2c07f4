"""Overload chaos: sustained-saturation storms against serve.

Each class of the ``overload`` family must be conformant — goodput
preserved under a 10x storm, honest distinct retry hints, fair-share
isolation for the well-behaved tenant, expired requests shed before
any guard work — with zero lost requests and brownout tiers restored
once the storm passes.  The conformance cells come from the shared
``chaos_matrix`` (storms at scale 0.4).

Marked both ``chaos`` and ``serve``.
"""

import re

import pytest

from repro.resilience import FAULTS, render_chaos_report, run_chaos_suite

pytestmark = [pytest.mark.chaos, pytest.mark.serve]


def named(fault: str, text: str) -> bool:
    """Is ``fault`` in ``text`` as a whole word?  (``worker_kill`` is a
    prefix of ``worker_killed``.)"""
    return re.search(rf"\b{fault}\b", text) is not None


_OVERLOAD = [name for name, f in FAULTS.items() if f.family == "overload"]


class TestOverloadFaults:
    @pytest.mark.parametrize("fault", _OVERLOAD)
    def test_fault_class_conformant_under_warn(self, chaos_matrix, fault):
        outcome = chaos_matrix("warn")[fault]
        assert outcome.family == "overload"
        assert outcome.conformant, outcome.detail
        assert outcome.measures["submitted"] > 0
        assert outcome.measures["resolved"] == outcome.measures["submitted"]

    def test_overload_storm_conformant_under_strict(self, chaos_matrix):
        # Strict fails closed on violations; the storm judge still
        # demands goodput, brownout engagement, and full recovery.
        outcome = chaos_matrix("strict")["overload_storm"]
        assert outcome.conformant, outcome.detail
        assert outcome.measures["rejected"] > 0  # the storm saturated
        assert outcome.measures["peak_tier"] >= 1
        assert outcome.measures["recovered"]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            run_chaos_suite(faults=("gremlins",), families=("overload",))

    def test_suite_and_report_cover_every_class(self, chaos_matrix):
        outcomes = [chaos_matrix("warn")[fault] for fault in _OVERLOAD]
        report = render_chaos_report(outcomes)
        assert all(o.conformant for o in outcomes), report
        assert all(named(fault, report) for fault in _OVERLOAD)
        assert f"{len(_OVERLOAD)}/{len(_OVERLOAD)}" in report


class TestChaosOverloadCli:
    def test_cli_chaos_overload_exit_zero(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--family", "overload", "--scale", "0.4"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name, fault in FAULTS.items():
            assert named(name, out) is (fault.family == "overload")

    def test_cli_chaos_overload_single_fault(self, capsys):
        from repro.cli import main

        code = main(
            [
                "chaos",
                "--family",
                "overload",
                "--fault",
                "retry_storm",
                "--scale",
                "0.4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert named("retry_storm", out)

    def test_cli_chaos_overload_rejects_load_fault_names(self, capsys):
        from repro.cli import main

        # A load class is not an overload fault; the CLI must say so
        # instead of silently running nothing.
        code = main(["chaos", "--family", "overload", "--fault", "hot_swap"])
        assert code == 2
