"""The packaging metadata in ``pyproject.toml``.

``setup.py`` is a shim that defers to ``pyproject.toml``: without it an
install yields an unnamed ``0.0.0`` package with no dependencies and no
``repro-ptg`` command.  Python 3.9 has no :mod:`tomllib`, so the tables
are read with a small line-based reader.
"""

import importlib
import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def table(name):
    """The ``key = value`` pairs of one TOML table, values unparsed."""
    text = PYPROJECT.read_text()
    match = re.search(
        rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL
    )
    assert match, f"pyproject.toml has no [{name}] table"
    return dict(re.findall(r"^([\w-]+)\s*=\s*(.+?)\s*$", match.group(1), re.MULTILINE))


def test_project_metadata():
    project = table("project")
    assert project["name"] == '"repro"'
    assert project["version"] == f'"{repro.__version__}"'
    assert project["requires-python"] == '">=3.9"'
    assert project["dependencies"] == '["numpy"]'


def test_console_script_resolves_to_cli_main():
    target = table("project.scripts")["repro-ptg"].strip('"')
    module, _, attribute = target.partition(":")
    from repro.cli import main

    assert getattr(importlib.import_module(module), attribute) is main


def test_packages_are_found_under_src():
    assert table("tool.setuptools.packages.find")["where"] == '["src"]'
