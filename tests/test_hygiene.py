"""Source hygiene checks that need only the standard library."""

import ast
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import berglab
from berglab import symbols

SRC = Path(berglab.__file__).resolve().parent


def _annotation_strings(tree):
    """Identifiers inside string annotations (forward references)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return names


def unused_imports(path):
    """Names a module imports and never uses; ``# noqa: F401`` exempts."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_strings(tree)
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # re-exports
            found += unused_imports(path)
    assert found == []


def test_public_names_resolve():
    missing = [name for name in berglab.__all__ if not hasattr(berglab, name)]
    assert missing == []
    assert len(set(berglab.__all__)) == len(berglab.__all__)


def test_package_import_stays_light():
    # scipy.stats costs most of a second to import; scipy.linalg is loaded
    # up front so the first quadrature rule does not pay for it
    code = (
        "import sys; import berglab; "
        "print('scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


def test_only_the_symbol_module_inspects_node_types():
    """No module but symbols.py names an AST node type in isinstance."""
    node_types = {t.__name__ for t in typing.get_args(symbols.SymbolExpr)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "symbols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            named = set()
            for sub in ast.walk(node.args[1]):
                if isinstance(sub, ast.Name):
                    named.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    named.add(sub.attr)
            found += [f"{path.name}:{node.lineno}: {n}" for n in sorted(named & node_types)]
    assert node_types == {"Const", "Coord", "GroupRadius", "Func", "BinOp", "Power", "Neg"}
    assert found == []


def _np_diag_calls(tree):
    """(qualified scope, line) of every ``np.diag(...)`` call in a module."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "diag"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "np"
            ):
                found.append((".".join(scope), child.lineno))
            walk(child, inner)

    walk(tree, ())
    return found


def test_only_operator_matrix_materializes_a_diagonal():
    """Diagonal operators stay K values: ``np.diag`` builds a dense
    diagonal only where ``OperatorMatrix.entries`` materializes one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _np_diag_calls(ast.parse(path.read_text())):
            found.append(f"{path.name}:{line}: {scope or '<module>'}")
    assert len(found) == 1, found
    assert found[0].startswith("toeplitz.py:") and found[0].endswith(
        ": OperatorMatrix.entries"
    )


def test_only_the_quadrature_module_reads_flat_rule_views():
    """Rules are summed only by streamed assembly: outside quadrature.py no
    module reads an attribute named ``nodes`` or ``radial_t``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("nodes", "radial_t"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []
