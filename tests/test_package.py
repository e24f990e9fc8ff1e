"""The package has no runtime dependencies: every import is stdlib or relative.
A cold import loads neither `dataclasses`, `typing` nor, outside `verify`,
`selfcheck`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncthick").glob("*.py"))


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only(path):
    foreign = {
        name for name in _imports(path) if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def _loaded_after(statement):
    """sys.modules after `statement` in a fresh interpreter without site."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); {statement}; print(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_import_loads_no_dataclasses_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize: ~10 ms per cold start
    loaded = _loaded_after("import ncthick")
    assert "ncthick.thicklat" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_cli_import_leaves_selfcheck_for_verify():
    loaded = _loaded_after("import ncthick.cli")
    assert "ncthick.cli" in loaded
    # annotation aliases come from collections.abc, which the interpreter loads anyway
    assert not {"ncthick.selfcheck", "dataclasses", "inspect", "typing"} & loaded
