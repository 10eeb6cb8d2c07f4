"""Execute every Python snippet in docs/API.md and docs/PERFORMANCE.md.

Both documents promise each snippet runs as written; this test keeps
that promise honest.  Snippets execute in order and share one
namespace *per document* (later sections reuse ``relation`` /
``guard`` from earlier ones), exactly as a reader following a document
top to bottom would.  The two documents do NOT share a namespace —
each must stand alone.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"
API_MD = DOCS / "API.md"
PERFORMANCE_MD = DOCS / "PERFORMANCE.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def extract_snippets(doc_path: Path = API_MD) -> list[str]:
    """All ```python fenced blocks of a document, in document order."""
    return _BLOCK.findall(doc_path.read_text(encoding="utf-8"))


def _run_snippets(doc_path: Path) -> None:
    namespace: dict = {}
    for index, snippet in enumerate(extract_snippets(doc_path)):
        compiled = compile(
            snippet, f"{doc_path.name}[snippet {index}]", "exec"
        )
        with redirect_stdout(io.StringIO()):
            try:
                exec(compiled, namespace)
            except Exception as error:  # pragma: no cover - failure path
                pytest.fail(
                    f"docs/{doc_path.name} snippet {index} failed: "
                    f"{type(error).__name__}: {error}\n{snippet}"
                )


def test_api_doc_exists_and_has_snippets():
    snippets = extract_snippets(API_MD)
    # One shared-setup block plus one per documented subpackage.
    assert len(snippets) >= 11


def test_performance_doc_exists_and_has_snippets():
    snippets = extract_snippets(PERFORMANCE_MD)
    # Setup, budgeted synthesis, fsync per commit, bounded replay,
    # shedding, probe crossover.
    assert len(snippets) >= 5


def test_api_snippets_run():
    _run_snippets(API_MD)


def test_performance_snippets_run():
    _run_snippets(PERFORMANCE_MD)
