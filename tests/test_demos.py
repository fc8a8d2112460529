"""Every demo script and README code block runs against the package in ``src``."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crossrisk
from crossrisk.config import RunConfig, load_run_config
from crossrisk.simulate import load_scenario

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _run(script: Path, tmp_path: Path) -> str:
    """The standard output of ``script``, which must exit 0 with nothing on standard error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # demo 04 leaves its artifacts in a temp dir
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # as the test suite runs the package
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def _readme_block(heading: str) -> str:
    """The first fenced code block of README's section ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def _check_quick_start(path: Path, tmp_path: Path) -> None:
    assert _run(path, tmp_path).startswith("2.1276")


def _check_config(path: Path, tmp_path: Path) -> None:
    assert load_run_config(path) == RunConfig()  # README says "defaults shown"


def _check_scenario(path: Path, tmp_path: Path) -> None:
    load_scenario(path)


README_BLOCKS = [
    ("## Library quick start", "quick_start.py", _check_quick_start),
    ("### Pipeline config JSON", "config.json", _check_config),
    ("### Scenario JSON (input to `simulate`)", "scenario.json", _check_scenario),
]


@pytest.mark.parametrize(
    "heading, name, check", README_BLOCKS, ids=[name for _, name, _ in README_BLOCKS]
)
def test_readme_block(heading, name, check, tmp_path):
    path = tmp_path / name
    path.write_text(_readme_block(heading), encoding="utf-8")
    check(path, tmp_path)


def test_top_level_exports_what_the_demos_quick_start_and_criteria_import():
    sources = [path.read_text(encoding="utf-8") for path in DEMOS]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources += re.findall(r"```python\n(.*?)```", README, re.S)
    imported = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "crossrisk"
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(crossrisk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == imported
