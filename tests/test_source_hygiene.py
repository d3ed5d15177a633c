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


def test_only_read_block_keeps_the_aux_zero_rows_of_an_apply():
    """`apply(cols, rows)` keeps the |0>_aux block of a result; only
    `block_encoding.read_block` builds such columns, so no other call in the
    package passes `rows`, positionally or by keyword."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside_reader = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "read_block"
            for node in ast.walk(func)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "apply"
            and (len(node.args) > 1 or any(kw.arg == "rows" for kw in node.keywords))
            and id(node) not in inside_reader
        ]
    assert SOURCES
    assert found == []
