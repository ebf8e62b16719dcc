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


# public names that neither the package nor the benchmark uses, each
# kept for its reason
_KEPT_PUBLIC = {
    "expand_polynomial": "the rational reference the tests use",
    "load_config": "the config-file entry point",
}


def test_every_public_name_has_a_use_outside_the_tests():
    """Each name of ``berglab.__all__`` is read by a package module other
    than ``__init__.py`` or by the benchmark, or is a kept reference: no
    export lives for the tests alone."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = set(berglab.__all__)
    assert sorted(public - used - set(_KEPT_PUBLIC)) == []
    # the kept list names only public names that still lack a use
    assert sorted(set(_KEPT_PUBLIC) - (public - used)) == []


def test_package_import_stays_light():
    # the runtime needs numpy and the standard library only: importing
    # scipy.special alone costs about 0.45 s and 30 MB
    code = (
        "import sys; import berglab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


def _scoped_calls(tree, is_target):
    """(qualified scope, line) of every call whose callee ``is_target`` accepts."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and is_target(child.func):
                found.append((".".join(scope), child.lineno))
            walk(child, inner)

    walk(tree, ())
    return found


def _np_diag_calls(tree):
    """(qualified scope, line) of every ``np.diag(...)`` call in a module."""
    return _scoped_calls(
        tree,
        lambda func: isinstance(func, ast.Attribute)
        and func.attr == "diag"
        and isinstance(func.value, ast.Name)
        and func.value.id == "np",
    )


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


def test_only_diagonal_values_sums_a_diagonal():
    """One route for every diagonal value: the exact sums, the radial
    moment table and the simplex rule are called only from
    ``toeplitz.diagonal_values``."""
    found = set()
    for name in ("_exact_diagonal", "_radial_diagonal", "simplex_radial_rule"):
        for path in sorted(SRC.glob("*.py")):
            calls = _scoped_calls(
                ast.parse(path.read_text()),
                lambda func: name in (getattr(func, "id", None), getattr(func, "attr", None)),
            )
            found |= {f"{path.name}: {scope or '<module>'} calls {name}" for scope, _ in calls}
    assert sorted(found) == [
        "toeplitz.py: diagonal_values calls _exact_diagonal",
        "toeplitz.py: diagonal_values calls _radial_diagonal",
        "toeplitz.py: diagonal_values calls simplex_radial_rule",
    ]


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


def test_only_the_core_module_enumerates_compositions():
    """Levels are read off the basis' group degrees, never enumerated
    again: outside core.py no module calls ``compositions``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "compositions":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_core_module_writes_float_text():
    """Every table cell and config value goes through ``core.format_cell``:
    outside core.py no module calls ``repr(float(...))``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "repr"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_kept_draw_calls_the_sampler():
    """One draw path for Monte Carlo assembly: within the package only
    ``toeplitz._sample_points`` calls ``monte_carlo_points``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls = _scoped_calls(
            ast.parse(path.read_text()),
            lambda func: "monte_carlo_points"
            in (getattr(func, "id", None), getattr(func, "attr", None)),
        )
        found += [f"{path.name}: {scope or '<module>'}" for scope, _ in calls]
    assert found == ["toeplitz.py: _sample_points"]


def test_one_function_sorts_the_levels():
    """One level layout: within the package ``np.lexsort`` is called in
    exactly one function, ``core.level_layout``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls = _scoped_calls(
            ast.parse(path.read_text()),
            lambda func: isinstance(func, ast.Attribute)
            and func.attr == "lexsort"
            and isinstance(func.value, ast.Name)
            and func.value.id == "np",
        )
        found += [f"{path.name}: {scope or '<module>'}" for scope, _ in calls]
    assert found == ["core.py: level_layout"]


def test_only_the_mass_helper_exponentiates_in_the_berezin_module():
    """One route for every kernel mass: in berezin.py ``np.exp`` is called
    only by ``_mass_rows``, which skips the masses that underflow."""
    calls = _scoped_calls(
        ast.parse((SRC / "berezin.py").read_text()),
        lambda func: isinstance(func, ast.Attribute)
        and func.attr == "exp"
        and isinstance(func.value, ast.Name)
        and func.value.id == "np",
    )
    assert [scope for scope, _ in calls] == ["_mass_rows"]
