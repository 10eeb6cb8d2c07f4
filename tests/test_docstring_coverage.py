"""Wire the docstring-coverage gate into the default test run."""

import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

from check_docstrings import (  # noqa: E402
    ARCHITECTURE_DOC,
    DOCUMENTED_SUBSYSTEMS,
    find_chaos_gaps,
    find_stray_state_artifacts,
    find_undocumented_subsystems,
    find_violations,
)


def test_public_api_is_fully_documented():
    violations = find_violations()
    assert not violations, (
        f"{len(violations)} public definition(s) missing docstrings "
        f"(run `python tools/check_docstrings.py` for the list):\n"
        + "\n".join(f"  {v}" for v in violations)
    )


def test_every_subsystem_has_an_api_section():
    assert "parallel" in DOCUMENTED_SUBSYSTEMS
    missing = find_undocumented_subsystems()
    assert not missing, (
        "subsystem(s) missing their `## repro.<name>` section in "
        "docs/API.md:\n" + "\n".join(f"  {m}" for m in missing)
    )


def test_every_chaos_fault_class_registered_tested_documented():
    gaps = find_chaos_gaps()
    assert not gaps, (
        "chaos fault-class gap(s) (run `python tools/"
        "check_docstrings.py` for the list):\n"
        + "\n".join(f"  {g}" for g in gaps)
    )


_ROW_EDITS = {
    # ``worker_kill`` lives on in prose and as a prefix of
    # ``worker_killed``: only a whole table row counts.
    "missing_row": (
        lambda line: "" if line.startswith("| `worker_kill` ") else line,
        "fault class 'worker_kill': 0 rows in the ARCHITECTURE.md fault "
        "table (want exactly one)",
    ),
    "wrong_family": (
        lambda line: line.replace("| worker ", "| unit   ")
        if line.startswith("| `worker_killed` ")
        else line,
        "fault class 'worker_killed': ARCHITECTURE.md says family 'unit', "
        "the registry says 'worker'",
    ),
    "stale_row": (
        lambda line: line + "| `cosmic_rays` | unit | bit flips |\n"
        if line.startswith("| `worker_kill` ")
        else line,
        "ARCHITECTURE.md fault table lists unregistered class "
        "'cosmic_rays'",
    ),
}


@pytest.mark.parametrize("edit", sorted(_ROW_EDITS))
def test_chaos_gate_matches_fault_table_rows(tmp_path, edit):
    rewrite, gap = _ROW_EDITS[edit]
    copy = tmp_path / "ARCHITECTURE.md"
    lines = ARCHITECTURE_DOC.read_text(encoding="utf-8").splitlines(True)
    copy.write_text("".join(map(rewrite, lines)), encoding="utf-8")
    assert find_chaos_gaps(doc_path=copy) == [gap]


def test_no_stray_state_dir_artifacts_in_the_repo():
    """Durable-state tests must confine journals/snapshots to tmpdirs."""
    stray = find_stray_state_artifacts()
    assert not stray, (
        "durable-state artifact(s) leaked into the repository "
        "(a test wrote its state_dir outside tmp_path):\n"
        + "\n".join(f"  {s}" for s in stray)
    )
