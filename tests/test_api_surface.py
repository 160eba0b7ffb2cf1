"""The library holds only what a run calls.

Every public function, method and property in src/physmotion must be reached
from the library itself or from the benchmark's harness (perfbench, its test
file aside); code that only tests call belongs in tests/oracles.py.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "physmotion").glob("*.py"))
CALLERS = LIBRARY + [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]


def public_definitions():
    """(qualified name, node, is a method) of every public top-level function
    and every public method or property of a public class."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item, True


def is_click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def test_every_public_name_is_reached_outside_the_tests():
    nodes = [node for path in CALLERS for node in ast.walk(ast.parse(path.read_text()))]
    unreached = []
    for name, definition, is_method in public_definitions():
        inside = {id(n) for n in ast.walk(definition)}
        # a method is reached as an attribute; a function also by its bare name
        reached = any(
            id(n) not in inside
            and (
                (isinstance(n, ast.Attribute) and n.attr == definition.name)
                or (not is_method and isinstance(n, ast.Name) and n.id == definition.name)
            )
            for n in nodes
        )
        if not reached and not is_click_command(definition):
            unreached.append(name)
    assert unreached == []


def test_import_loads_no_scipy_linalg_spatial_or_sparse():
    # the QP binds its LAPACK routines at its first solve, so a run without
    # physics never loads scipy.linalg
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import physmotion; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial', 'scipy.sparse') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
