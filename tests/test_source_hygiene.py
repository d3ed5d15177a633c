"""Source-level rules checked by parsing the package."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qkan").glob("*.py"))


def test_no_assert_statements_in_package():
    """`assert` disappears under `python -O`; runtime checks must raise."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_moveaxis_in_package():
    """Embedded/Multiplexed move axes by precomputed plans; np.moveaxis
    normalises its axes on every call and must stay off the apply path."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "moveaxis")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "moveaxis" for a in node.names))
    ]
    assert SOURCES
    assert found == []


def test_package_imports_only_numpy_and_the_standard_library():
    """`pyproject.toml` declares numpy alone: an import of anything else
    installed here (scipy, Hypothesis) would break a numpy-only install."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}
            ]
    assert SOURCES
    assert found == []
