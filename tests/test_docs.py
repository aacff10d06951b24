"""The documentation tree must stay valid (see ``tools/lint_docs.py``)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_docs_tree_lints():
    """tools/lint_docs.py passes: required pages, valid links/anchors."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_readme_points_at_docs():
    """The README links to the documentation tree."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme


def test_stale_references_fail_the_lint(tmp_path, monkeypatch):
    """A backticked ``repro.…`` name or repo path that no longer resolves is reported."""
    spec = importlib.util.spec_from_file_location(
        "lint_docs", REPO_ROOT / "tools" / "lint_docs.py"
    )
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "kept.py").write_text("", encoding="utf-8")
    (docs / "page.md").write_text(
        "# Page\n"
        "`repro.campaigns.pool.RetryPolicy`, `repro.mapping.eft.PlacementEngine.place`\n"
        "and `tests/kept.py` resolve; `repro.campaigns.RetryPolicy`,\n"
        "`repro.mapping._reference` and `tests/oracles/gone.py` do not.\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(lint, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(lint, "DOCS_DIR", docs)
    problems = []
    lint.lint_architecture_packages(problems)
    assert [problem.split(": ")[1] for problem in problems] == [
        "stale name repro.campaigns.RetryPolicy",
        "stale name repro.mapping._reference",
        "stale path tests/oracles/gone.py",
    ]
