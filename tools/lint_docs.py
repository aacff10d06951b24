#!/usr/bin/env python
"""Lint the documentation tree under ``docs/``.

Stdlib-only checker run by CI (and by ``tests/test_docs.py``) so the
documentation cannot silently rot:

* the required pages exist (``index.md``, ``architecture.md``,
  ``scenarios.md``, ``performance.md``, ``campaigns.md``,
  ``streaming.md``, ``faults.md``, ``observability.md``,
  ``testing.md``, ``cli.md``),
* every page starts with a level-1 heading and has balanced code fences,
* every relative markdown link resolves to an existing file, and every
  ``#anchor`` fragment matches a heading of the target page
  (GitHub-style slugs),
* on every page and the README, every backticked ``repro.…`` dotted name
  resolves to a module file under ``src/``, and the attribute following
  the module, if any, is defined or imported in that file; every
  backticked repo path
  (``repro/…``, ``tests/…``, ``benchmarks/…``, ``tools/…``,
  ``examples/…``) exists, glob patterns matching at least one file and
  build outputs listed in ``.gitignore`` exempt; every backticked bare
  ``CamelCase`` or ``UPPER_SNAKE`` identifier is a builtin or a class,
  function or upper-case constant defined under ``src/``, ``tests/``,
  ``benchmarks/``, ``perfbench/`` or ``tools/``.

Exit code 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SRC_DIR = REPO_ROOT / "src"
REQUIRED_PAGES = (
    "index.md",
    "architecture.md",
    "scenarios.md",
    "performance.md",
    "campaigns.md",
    "streaming.md",
    "service.md",
    "faults.md",
    "observability.md",
    "testing.md",
    "cli.md",
)

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_DOTTED_RE = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_PATH_PREFIXES = ("repro/", "tests/", "benchmarks/", "tools/", "examples/")
#: A bare ``CamelCase`` (two humps or more) or ``UPPER_SNAKE`` identifier.
_IDENTIFIER_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+|[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+")
#: Source trees whose definitions the docs may name bare, besides ``src/``.
_INDEXED_DIRS = ("tests", "benchmarks", "perfbench", "tools")


def github_slug(heading: str) -> str:
    """GitHub-style anchor slug of one heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def page_anchors(path: Path) -> set:
    """All heading anchors of one markdown page."""
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(2)))
    return anchors


def lint_page(path: Path, problems: list) -> None:
    """Check one page: heading, fences, links."""
    rel = path.relative_to(REPO_ROOT)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    if not lines or not lines[0].startswith("# "):
        problems.append(f"{rel}: first line must be a level-1 heading")
    if text.count("```") % 2 != 0:
        problems.append(f"{rel}: unbalanced code fences")

    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in _LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                if github_slug(target[1:]) not in page_anchors(path):
                    problems.append(f"{rel}:{lineno}: broken anchor {target!r}")
                continue
            file_part, _, fragment = target.partition("#")
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(f"{rel}:{lineno}: broken link {target!r}")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in page_anchors(resolved):
                    problems.append(
                        f"{rel}:{lineno}: broken anchor {target!r} "
                        f"(no such heading in {file_part})"
                    )


def defined_names(module_file: Path) -> set:
    """Every name a module file defines or imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(module_file.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def dotted_name_problem(name: str):
    """Why a ``repro.…`` name does not resolve, or None when it does.

    The longest prefix naming a module file is the module; the part
    after it (a class, function or constant -- deeper parts are its
    attributes) must be defined or imported in that file.
    """
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        base = SRC_DIR.joinpath(*parts[:end])
        for module_file in (base.with_suffix(".py"), base / "__init__.py"):
            if module_file.is_file():
                if end < len(parts) and parts[end] not in defined_names(module_file):
                    return (
                        f"{parts[end]!r} is not defined or imported in "
                        f"{module_file.relative_to(SRC_DIR)}"
                    )
                return None
    return "no such module"


def defined_identifiers() -> set:
    """Builtins plus every class, function and upper-case constant defined in the trees."""
    names = set(dir(builtins))
    roots = [SRC_DIR] + [REPO_ROOT / name for name in _INDEXED_DIRS]
    for path in sorted(p for root in roots for p in root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id.isupper():
                    names.add(node.id)
    return names


def build_outputs() -> tuple:
    """Directory entries of the root ``.gitignore`` (made by running things)."""
    ignore = REPO_ROOT / ".gitignore"
    if not ignore.exists():
        return ()
    lines = ignore.read_text(encoding="utf-8").splitlines()
    return tuple(line.strip() for line in lines if "/" in line.strip("/"))


def path_problem(text: str):
    """Why a backticked repo path does not exist, or None when it does."""
    path = text.split()[0]
    if path.startswith(build_outputs()):
        return None
    root = SRC_DIR if path.startswith("repro/") else REPO_ROOT
    if any(ch in path for ch in "*?["):
        return None if next(root.glob(path), None) else "matches no file"
    return None if (root / path).exists() else "no such file or directory"


def lint_architecture_packages(problems: list) -> None:
    """Every backticked ``repro.…`` name, repo path and identifier must resolve.

    Checked on every page and the README, outside code fences.
    """
    identifiers = defined_identifiers()
    pages = sorted(DOCS_DIR.glob("**/*.md")) + [REPO_ROOT / "README.md"]
    for page in pages:
        if not page.exists():
            continue
        rel = page.relative_to(REPO_ROOT)
        in_fence = False
        lines = page.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in _CODE_SPAN_RE.findall(line):
                dotted = _DOTTED_RE.match(span)
                if dotted:
                    problem = dotted_name_problem(dotted.group(0))
                    if problem:
                        problems.append(
                            f"{rel}:{lineno}: stale name {dotted.group(0)}: {problem}"
                        )
                elif span.startswith(_PATH_PREFIXES):
                    problem = path_problem(span)
                    if problem:
                        problems.append(f"{rel}:{lineno}: stale path {span}: {problem}")
                elif _IDENTIFIER_RE.fullmatch(span) and span not in identifiers:
                    problems.append(
                        f"{rel}:{lineno}: stale name {span}: not defined in the source trees"
                    )


def main() -> int:
    problems: list = []
    if not DOCS_DIR.is_dir():
        print("docs/ directory is missing", file=sys.stderr)
        return 1
    for name in REQUIRED_PAGES:
        if not (DOCS_DIR / name).exists():
            problems.append(f"docs/{name}: required page is missing")
    for path in sorted(DOCS_DIR.glob("**/*.md")):
        lint_page(path, problems)
    lint_architecture_packages(problems)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\n{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK ({len(list(DOCS_DIR.glob('**/*.md')))} pages linted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
