"""Every Python line of the package, its tools and its tests is at most 99
characters wide."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WIDTH = 99


@pytest.mark.parametrize("directory", ["src", "tools", "tests"])
def test_python_lines_fit_the_width(directory):
    wide = [f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
            for path in sorted((ROOT / directory).rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > WIDTH]
    assert not wide, "\n".join(wide)
