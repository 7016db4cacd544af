"""The package stays within the Python that ``pyproject.toml`` declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "litla").glob("*.py"))
# standard-library modules added after the declared floor (3.14 added both)
NEWER_STDLIB = {"annotationlib", "compression"}


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def newer_imports(source: str) -> set[str]:
    """The modules of NEWER_STDLIB that ``source`` imports; raises
    SyntaxError on syntax newer than the declared floor."""
    imported = set()
    for node in ast.walk(ast.parse(source, feature_version=declared_floor())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.add(node.module.split(".")[0])
    return imported & NEWER_STDLIB


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor_and_imports_no_newer_stdlib(path):
    assert newer_imports(path.read_text(encoding="utf-8")) == set()


def test_newer_syntax_and_imports_are_caught():
    with pytest.raises(SyntaxError):  # the type statement is 3.12 syntax
        newer_imports("type X = int\n")
    assert newer_imports("import annotationlib") == {"annotationlib"}
    assert newer_imports("from compression import zstd") == {"compression"}
