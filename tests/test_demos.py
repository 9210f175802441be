"""The demos import only names the package still has, and the README's
quick start runs.

Each demo is parsed, never run: every `from uorolab... import name` must
resolve to an attribute of that module, and every imported uorolab module
must exist.  The quick start's fenced block is run as it stands.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def uorolab_imports(path):
    """(module, name or None) for each uorolab import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "uorolab":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uorolab":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(uorolab_imports(path))
    assert imports, f"{path.name} imports nothing from uorolab"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name}.{name} is gone"


def quick_start_source():
    """The fenced python block under the README's "## Quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start_source(), "README.md (Quick start)", "exec"), {})
    out = capsys.readouterr().out
    for line in ("predicted variance:", "one-seed estimate error:",
                 "256-seed mean error:"):
        assert line in out
