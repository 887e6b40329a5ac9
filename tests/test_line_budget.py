"""The package's line budget, which ROADMAP.md sets: every line deleted
makes room for the next feature."""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layerflow"
LINE_BUDGET = 2599


def test_the_package_stays_within_its_line_budget():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert 0 < lines <= LINE_BUDGET
