"""Every demo runs to the end in-process, demo 04 reports real filter counts,
and every qasynth import in the README resolves."""

import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_synthesis_demo_prints_filtered_pt_count(capsys):
    path = next(p for p in DEMOS if p.name.startswith("04_"))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    # the mock's 4 tuned-prompt pairs all fail the extractive filter
    assert "4 raw, 0 after extractive filtering" in out


def test_readme_imports_resolve():
    imports = re.findall(
        r"^from (qasynth[\w.]*) import (.+)$", (ROOT / "README.md").read_text(), re.MULTILINE
    )
    assert imports
    for module, names in imports:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), (module, name)
