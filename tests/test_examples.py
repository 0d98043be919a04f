"""Smoke tests: every shipped example must run clean end to end.

Examples are user-facing documentation; a broken one is a bug.  Each runs
in-process (import + main) with output captured; the slowest are tagged so
``-m "not slow"`` keeps local loops fast (no marker is registered as slow
by default here because all are laptop-quick).
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    path = EXAMPLES_DIR / name
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_quickstart_reports_verification(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "greedy fixpoint" in out
    assert "maintenance totals" in out
