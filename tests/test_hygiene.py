"""Source hygiene checks that need only the standard library."""

import ast
import dataclasses
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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _package_paths():
    """The package modules other than ``__init__.py``, whose re-exports are
    no use."""
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _production_paths():
    """The package modules and the benchmark."""
    return _package_paths() + sorted(PERFBENCH.glob("*.py"))


def _referenced(tree):
    """Names a tree reads: loaded names, attribute names and identifiers in
    string annotations."""
    names = set(_annotation_strings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _production_uses():
    """Names production code reads, where a module-level function or class
    reading its own name inside its definition does not count."""
    used = set()
    for path in _production_paths():
        for stmt in ast.parse(path.read_text()).body:
            refs = _referenced(stmt)
            if isinstance(stmt, _DEFINITIONS):
                refs.discard(stmt.name)
            used |= refs
    return used


# names that neither the package nor the benchmark uses, each kept for its
# reason
_KEPT_PUBLIC = {
    "load_config": "the config-file entry point",
}


def test_every_public_name_has_a_use_outside_the_tests():
    """Each name of ``berglab.__all__``, and each module-level function and
    class of the package, is read by package code outside its own
    definition (``__init__.py``'s re-exports do not count) or by the
    benchmark, or is a kept reference: nothing lives for the tests alone."""
    names = set(berglab.__all__)
    for path in _package_paths():
        names |= {s.name for s in ast.parse(path.read_text()).body if isinstance(s, _DEFINITIONS)}
    unused = names - _production_uses()
    assert sorted(unused - set(_KEPT_PUBLIC)) == []
    # the kept list names only names that still lack a use
    assert sorted(set(_KEPT_PUBLIC) - unused) == []


# parameters with a default that no production call sets, each kept for its
# reason, as "callee(parameter)"
_KEPT_DEFAULTS = {
    "default_config(overrides)": "how the tests build a config with a few keys set",
}


def _defaulted_parameters(tree):
    """(callee name, positional index or None, parameter name) of every
    parameter with a default.  A method's callee name is its own, an
    ``__init__``'s its class's; self and cls take no position."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = owner if child.name == "__init__" else child.name
                decorators = {getattr(d, "id", None) for d in child.decorator_list}
                positional = child.args.posonlyargs + child.args.args
                if owner is not None and "staticmethod" not in decorators:
                    positional = positional[1:]
                first = len(positional) - len(child.args.defaults)
                out.extend(
                    (callee, i, arg.arg) for i, arg in enumerate(positional) if i >= first
                )
                out.extend(
                    (callee, None, arg.arg)
                    for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults)
                    if default is not None
                )
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def _production_calls():
    """callee name -> [(positional count, keyword names, takes *args or
    **kwargs)] over every call in production code."""
    calls = {}
    for path in _production_paths():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            starred |= any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred)
            )
    return calls


def test_every_default_is_set_by_a_production_call():
    """Each parameter with a default in the package is set by some call in
    the package or the benchmark, by keyword or by position past the
    required ones; a call with *args or **kwargs sets every parameter.
    Calls are matched by callee name.  An option only the tests set is
    dead weight on every caller."""
    calls = _production_calls()
    unset = set()
    for path in _package_paths():
        for callee, index, param in _defaulted_parameters(ast.parse(path.read_text())):
            if not any(
                starred or param in keywords or (index is not None and count > index)
                for count, keywords, starred in calls.get(callee, ())
            ):
                unset.add(f"{callee}({param})")
    assert sorted(unset - set(_KEPT_DEFAULTS)) == []
    # the kept list names only parameters that are still unset
    assert sorted(set(_KEPT_DEFAULTS) - unset) == []


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


def _scoped_nodes(tree, accepts):
    """(qualified scope, line) of every node that ``accepts`` accepts."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if accepts(child):
                found.append((".".join(scope), child.lineno))
            walk(child, inner)

    walk(tree, ())
    return found


def _scoped_calls(tree, is_target):
    """(qualified scope, line) of every call whose callee ``is_target`` accepts."""
    return _scoped_nodes(tree, lambda node: isinstance(node, ast.Call) and is_target(node.func))


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


def test_only_the_assembly_builds_a_level_factor():
    """One level route: the levels module neither judges an a-factor nor
    builds one (no ``np.kron``, ``diagonal_values``, ``group_winding`` or
    ``quasi_radial_profile`` call); ``toeplitz`` does both."""
    names = {"kron", "diagonal_values", "group_winding", "quasi_radial_profile"}
    calls = _scoped_calls(
        ast.parse((SRC / "levels.py").read_text()),
        lambda func: (getattr(func, "id", None) or getattr(func, "attr", None)) in names,
    )
    assert calls == []


def test_the_level_assembly_reads_one_factor():
    """One level factor: ``toeplitz._assemble_by_levels`` reads each
    level's rows of T_a and sums no gamma of its own (no
    ``diagonal_values`` or ``quasi_radial_profile`` call)."""
    names = {"diagonal_values", "quasi_radial_profile"}
    calls = _scoped_calls(
        ast.parse((SRC / "toeplitz.py").read_text()),
        lambda func: (getattr(func, "id", None) or getattr(func, "attr", None)) in names,
    )
    assert [scope for scope, _ in calls if scope == "_assemble_by_levels"] == []
    assert calls  # the names are still called elsewhere in the module


def _name_calls(path, name):
    """(qualified scope, line) of every call of the bare name ``name``."""
    return _scoped_calls(ast.parse(path.read_text()),
                         lambda func: getattr(func, "id", None) == name)


def test_points_are_the_one_evaluation_domain():
    """One evaluation domain: ``_EvalContext`` is constructed only inside
    ``symbols.eval_on_points``, which a profile in the group radii goes
    through too, as a symbol on the group-radius ball."""
    found = [f"{path.name}: {scope}" for path in sorted(SRC.glob("*.py"))
             for scope, _ in _name_calls(path, "_EvalContext")]
    assert found and set(found) == {"symbols.py: eval_on_points"}


def test_one_parser_loop_builds_binary_operators():
    """One operand loop: the symbol module constructs ``BinOp`` at one
    site, in ``_Parser``, for both ``+ -`` and ``* /``."""
    calls = _name_calls(SRC / "symbols.py", "BinOp")
    assert len(calls) == 1 and calls[0][0].startswith("_Parser."), calls


def test_one_function_takes_singular_values():
    """One singular-value route: within the package ``np.linalg.svd`` is
    called only by ``toeplitz._singular_values``, and ``eigvalsh`` only
    by the quadrature module's Gauss-Jacobi rule."""

    def linalg_calls(attr):
        found = []
        for path in sorted(SRC.glob("*.py")):
            calls = _scoped_calls(
                ast.parse(path.read_text()),
                lambda func: isinstance(func, ast.Attribute) and func.attr == attr,
            )
            found += [f"{path.name}: {scope or '<module>'}" for scope, _ in calls]
        return found

    assert linalg_calls("svd") == ["toeplitz.py: _singular_values"]
    assert all(entry.startswith("quadrature.py:") for entry in linalg_calls("eigvalsh"))


def test_no_module_takes_an_fft():
    """One phase stage: the torus assembly's per-axis phase matrices give
    every phase coefficient an entry reads, and no module of the package
    references ``np.fft`` (an attribute or an import of ``fft``)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                found.append(f"{path.name}:{node.lineno}: .fft")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any("fft" in name.split(".") for name in names):
                    found.append(f"{path.name}:{node.lineno}: import")
    assert found == []


def test_main_alone_echoes_and_reads_the_dry_run_flag():
    """One plan step per subcommand: within the package ``_echo`` is
    called only by ``cli.main``, and ``dry_run`` is read only there and in
    ``cli.cmd_suite``, whose echo goes to the run directory."""
    echoes, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        echoes += [f"{path.name}: {scope}" for scope, _ in _name_calls(path, "_echo")]
        reads |= {f"{path.name}: {scope}" for scope, _ in _scoped_nodes(
            ast.parse(path.read_text()),
            lambda node: isinstance(node, ast.Attribute) and node.attr == "dry_run")}
    assert echoes == ["cli.py: main"]
    assert sorted(reads) == ["cli.py: cmd_suite", "cli.py: main"]


def test_one_operator_type_holds_a_radial_operator():
    """One representation of a radial operator, the radial form of
    ``OperatorMatrix``: a ``LevelBlock`` holds its inner operator as one
    field, ``level_block_direct`` is one ``toeplitz_matrix`` call and judges
    no route (no ``is_radial`` or ``radial_toeplitz_diagonal`` call),
    ``plan_suites`` takes the route of a recovery block from its plan (no
    ``is_radial`` call), and outside toeplitz.py only the remainder of a
    radial estimate calls ``radial_toeplitz_diagonal``."""
    fields = {f.name for f in dataclasses.fields(berglab.LevelBlock)}
    assert fields == {"rho", "hdim", "block", "pair_entries"}

    def scopes(path, name):
        return [scope for scope, _ in _name_calls(SRC / path, name)]

    assert scopes("levels.py", "toeplitz_matrix").count("level_block_direct") == 1
    for name in ("is_radial", "radial_toeplitz_diagonal"):
        assert "level_block_direct" not in scopes("levels.py", name)
    assert "plan_suites" not in scopes("suites.py", "is_radial")
    found = [f"{path.name}: {scope}" for path in _package_paths() if path.name != "toeplitz.py"
             for scope in scopes(path.name, "radial_toeplitz_diagonal")]
    assert found == ["levels.py: recover_symbol_and_remainder"]
