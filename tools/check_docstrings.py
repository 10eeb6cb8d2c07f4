#!/usr/bin/env python
"""Docstring coverage gate for the public API of ``src/repro``.

Every public module, class, function, and method must carry a
docstring — the documented-on-day-one policy backing ``docs/API.md``.
"Public" means the dotted path contains no ``_``-prefixed component;
dunder methods and nested (local) functions are exempt, as are
``@overload`` stubs and trivial ``...``-bodied protocol members.

A second gate keeps ``docs/API.md`` honest: every subsystem in
:data:`DOCUMENTED_SUBSYSTEMS` must have its own ``## repro.<name>``
section there, so a new package (e.g. ``repro.serve``) cannot land
without reference documentation.

A third gate keeps the chaos harness honest: one loop over its
registry (``repro.resilience.chaos.FAULTS``) demands that every fault
class is exercised by a ``pytest -m chaos`` test and has exactly one
row in the ``docs/ARCHITECTURE.md`` fault table, whose family column
matches the registry, so a fault class cannot be added without
coverage and documentation.

A fourth gate keeps the serve-layer response contract honest: every
:class:`repro.serve.ServeStatus` member must be named in the
``docs/API.md`` serve section, so a new typed outcome (e.g.
``EXPIRED``) cannot land without client-facing documentation.

Run directly (``python tools/check_docstrings.py``) for a report and a
non-zero exit on violations; ``tests/test_docstring_coverage.py`` wires
the same checks into the default pytest run.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
API_DOC = REPO_ROOT / "docs" / "API.md"

DOCUMENTED_SUBSYSTEMS = (
    "relation",
    "dsl",
    "sketch",
    "pgm",
    "sampler",
    "synth",
    "errors",
    "sql",
    "ml",
    "obs",
    "resilience",
    "serve",
)
"""Subsystem packages that must each have a ``## repro.<name>`` section
in ``docs/API.md``.  An explicit list, not a directory walk: some
packages (datasets, experiments, baselines, metrics) are evaluation
scaffolding documented through PAPER.md and ``benchmarks/README.md``
instead."""


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_stub(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """Overload/protocol stubs (``...`` body) need no docstring."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "overload":
            return True
    body = node.body
    return len(body) == 1 and (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis
    )


def _walk_definitions(module: ast.Module, module_name: str):
    """Yield (dotted_name, node, lineno) for public defs and classes."""
    stack: list[tuple[str, ast.AST]] = [(module_name, module)]
    while stack:
        prefix, parent = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                if not _is_public(node.name):
                    continue
                dotted = f"{prefix}.{node.name}"
                yield dotted, node, node.lineno
                stack.append((dotted, node))
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                is_dunder = node.name.startswith(
                    "__"
                ) and node.name.endswith("__")
                if is_dunder or not _is_public(node.name):
                    continue
                if _is_stub(node):
                    continue
                yield f"{prefix}.{node.name}", node, node.lineno
                # Do not descend: locals of a function are not API.


def module_name_for(path: Path) -> str:
    relative = path.relative_to(PACKAGE_ROOT.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def find_violations(root: Path = PACKAGE_ROOT) -> list[str]:
    """All public definitions under ``root`` lacking a docstring."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        name = module_name_for(path)
        if any(
            part.startswith("_") and part != "__init__"
            for part in path.relative_to(root.parent).parts
        ) and path.name != "__init__.py":
            continue  # private module
        tree = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        relative = path.relative_to(REPO_ROOT)
        if ast.get_docstring(tree) is None:
            violations.append(f"{relative}:1 module {name}")
        for dotted, node, lineno in _walk_definitions(tree, name):
            if ast.get_docstring(node) is None:
                kind = (
                    "class"
                    if isinstance(node, ast.ClassDef)
                    else "function"
                )
                violations.append(f"{relative}:{lineno} {kind} {dotted}")
    return violations


def find_undocumented_subsystems(doc_path: Path = API_DOC) -> list[str]:
    """Subsystems of :data:`DOCUMENTED_SUBSYSTEMS` without an API section.

    A subsystem counts as documented when ``docs/API.md`` has a
    second-level heading starting ``## repro.<name>`` (a trailing
    description after an em-dash is fine) *and* the package exists.
    """
    missing: list[str] = []
    text = doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
    headings = {
        line[3:].split()[0].rstrip(":")
        for line in text.splitlines()
        if line.startswith("## ")
    }
    for subsystem in DOCUMENTED_SUBSYSTEMS:
        package = PACKAGE_ROOT / subsystem
        if not (package / "__init__.py").exists() and not (
            PACKAGE_ROOT / f"{subsystem}.py"
        ).exists():
            missing.append(f"repro.{subsystem}: package does not exist")
        elif f"repro.{subsystem}" not in headings:
            missing.append(
                f"repro.{subsystem}: no '## repro.{subsystem}' section "
                f"in {doc_path.relative_to(REPO_ROOT)}"
            )
    return missing


ARCHITECTURE_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
TESTS_ROOT = REPO_ROOT / "tests"


def _chaos_marked_test_text(tests_root: Path = TESTS_ROOT) -> str:
    """Concatenated source of every test file carrying the chaos mark."""
    parts = []
    for path in sorted(tests_root.glob("test_*.py")):
        text = path.read_text(encoding="utf-8")
        if "pytest.mark.chaos" in text:
            parts.append(text)
    return "\n".join(parts)


def _fault_table(doc_path: Path) -> list[tuple[str, str]]:
    """``(fault class, family)`` for each row of the doc's fault table:
    the table whose header starts ``| fault class | family |``."""
    text = doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
    rows: list[tuple[str, str]] = []
    in_table = False
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells[:2] == ["fault class", "family"]:
            in_table = True
        elif in_table and set(cells[0]) - set("-: "):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


def find_chaos_gaps(doc_path: Path = ARCHITECTURE_DOC) -> list[str]:
    """Fault classes missing a chaos test or their fault-table row.

    One loop over the registry checks two invariants for every class:

    * **tested** — a ``pytest -m chaos`` test file names the fault as
      a whole word, or iterates over the registry (``FAULTS``);
    * **documented** — exactly one row of the fault-class table in
      ``doc_path`` names it, and that row's family column equals the
      registry's family.

    A table row naming an unregistered class is a gap too.
    """
    sys.path.insert(0, str(PACKAGE_ROOT.parent))
    try:
        from repro.resilience.chaos import FAULTS
    finally:
        sys.path.pop(0)
    chaos_tests = _chaos_marked_test_text()
    iterates_registry = re.search(r"\bFAULTS\b", chaos_tests) is not None
    table = _fault_table(doc_path)
    problems: list[str] = []
    for fault in FAULTS.values():
        named = re.search(rf"\b{fault.name}\b", chaos_tests) is not None
        if not (named or iterates_registry):
            problems.append(
                f"fault class {fault.name!r}: no `pytest -m chaos` test "
                "names it (or iterates over FAULTS)"
            )
        families = [family for name, family in table if name == fault.name]
        if len(families) != 1:
            problems.append(
                f"fault class {fault.name!r}: {len(families)} rows in the "
                f"{doc_path.name} fault table (want exactly one)"
            )
        elif families[0] != fault.family:
            problems.append(
                f"fault class {fault.name!r}: {doc_path.name} says family "
                f"{families[0]!r}, the registry says {fault.family!r}"
            )
    problems.extend(
        f"{doc_path.name} fault table lists unregistered class {name!r}"
        for name, _ in table
        if name not in FAULTS
    )
    return problems


def find_undocumented_statuses(doc_path: Path = API_DOC) -> list[str]:
    """``ServeStatus`` members absent from the API reference.

    The serve layer's contract is "every request resolves with a typed
    response"; that contract is only usable if clients can read what
    each status means.  Every enum member name (``OK``, ``REJECTED``,
    ``EXPIRED``, ...) must therefore appear in ``docs/API.md``.
    """
    sys.path.insert(0, str(PACKAGE_ROOT.parent))
    try:
        from repro.serve import ServeStatus
    finally:
        sys.path.pop(0)
    text = doc_path.read_text(encoding="utf-8") if doc_path.exists() else ""
    return [
        f"ServeStatus.{member.name}: not mentioned in "
        f"{doc_path.relative_to(REPO_ROOT)}"
        for member in ServeStatus
        if member.name not in text
    ]


STATE_ARTIFACT_GLOBS = (
    "journal.log",
    "snapshot-*.json",
    "journal.log.tmp",
    "snapshot-*.json.tmp",
)
"""File names a durable state directory contains.  None may ever be
committed to (or left strewn around) the repository — a test that
writes durable state must do so under ``tmp_path`` or an equivalent
self-cleaning temporary directory."""

_ARTIFACT_SCAN_EXCLUDE = {".git", "__pycache__", ".pytest_cache"}


def find_stray_state_artifacts(root: Path = REPO_ROOT) -> list[str]:
    """Durable-state files left inside the repository tree.

    The tmpdir-hygiene gate: the durability layer and every test that
    exercises it must confine ``journal.log`` / ``snapshot-*.json``
    (and their ``.tmp`` staging twins) to temporary directories, so a
    test run leaves the checkout byte-identical.  Any hit here is a
    leaked ``state_dir``.
    """
    stray: list[str] = []
    for pattern in STATE_ARTIFACT_GLOBS:
        for path in root.rglob(pattern):
            if _ARTIFACT_SCAN_EXCLUDE & set(path.parts):
                continue
            stray.append(str(path.relative_to(root)))
    return sorted(stray)


def main() -> int:
    """CLI entry: print violations, exit 1 when any exist."""
    violations = find_violations()
    undocumented = find_undocumented_subsystems()
    chaos_gaps = find_chaos_gaps()
    statuses = find_undocumented_statuses()
    stray = find_stray_state_artifacts()
    if violations:
        print(
            f"{len(violations)} public definition(s) missing docstrings:"
        )
        for violation in violations:
            print(f"  {violation}")
    if undocumented:
        print(f"{len(undocumented)} subsystem(s) missing API docs:")
        for entry in undocumented:
            print(f"  {entry}")
    if chaos_gaps:
        print(f"{len(chaos_gaps)} chaos fault-class gap(s):")
        for entry in chaos_gaps:
            print(f"  {entry}")
    if statuses:
        print(f"{len(statuses)} undocumented serve status(es):")
        for entry in statuses:
            print(f"  {entry}")
    if stray:
        print(f"{len(stray)} stray durable-state artifact(s) in the repo:")
        for entry in stray:
            print(f"  {entry}")
    if violations or undocumented or chaos_gaps or statuses or stray:
        return 1
    print("docstring coverage: 100% of the public API")
    print(
        f"API docs: all {len(DOCUMENTED_SUBSYSTEMS)} subsystems have "
        f"sections in {API_DOC.relative_to(REPO_ROOT)}"
    )
    print(
        "chaos gate: every fault class is chaos-tested and has one "
        "fault-table row with its family"
    )
    print("serve gate: every ServeStatus member is documented")
    print("state hygiene: no stray journal/snapshot artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
