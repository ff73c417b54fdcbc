"""Caller audit of the public API: no public name in `src/dnrlab` lives for tests alone.

The audit parses `src/dnrlab/*.py` (the package `__init__` only re-exports
and is left out) and `bench/*.py`.  Every public top-level function or
class, and every public method, must be referenced somewhere outside its
own definition.  A reference is a `Name`, an `Attribute` or a string that
is an identifier: the benchmark's tracer names the functions it wraps as
strings.  A method is reached only through an attribute or a string, so a
bare name, such as a local variable that happens to share its name, does
not keep it alive.  Tests are not callers, so a name only they use fails
the audit.

A parameter audit applies the same rule one level down: every defaulted
parameter of a public function or method must be passed by some call in
`src/` or `bench/`, by position or by keyword.  A call is matched by the
name it calls, and one that unpacks `*args` or `**kwargs` counts as passing
every parameter.  A default no caller overrides is a constant in disguise.

A constants audit is looser: every public module-level constant must be
referenced outside its own assignment somewhere in the package, the
benchmark or the tests, so nothing is computed at import for no reader.

A last audit keeps the imports honest: no module of the package imports
a name it does not use.

The benchmark's tracer (`bench/tracer.py`) wraps functions and methods by
name, so one more check reads its `FUNCTIONS` and `METHODS` with `ast`,
without importing the benchmark, and requires every name to exist.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dnrlab"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"

def _package_modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bench_modules() -> list[Path]:
    return sorted(BENCH.glob("*.py"))


def _definitions(tree: ast.Module) -> list[tuple[tuple[str, ...], ast.stmt]]:
    """(path, node) for the public top-level functions and classes and their
    public methods."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            found.append(((node.name,), node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    ((node.name, item.name), item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_"))
    return found


def _references(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(identifier, enclosing definition path, whether it is a bare name) for
    every reference in the tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _references(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Name):
            yield child.id, scope, True
        elif isinstance(child, ast.Attribute):
            yield child.attr, scope, False
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and child.value.isidentifier():
            yield child.value, scope, False
        yield from _references(child, scope)


def unreferenced_names(package_modules: list[Path], other_modules: list[Path]) -> list[str]:
    """Public package names that nothing outside their own definition references."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in package_modules + other_modules}
    refs: dict[str, list[tuple[Path, tuple[str, ...], bool]]] = {}
    for path, tree in trees.items():
        for name, scope, bare in _references(tree):
            refs.setdefault(name, []).append((path, scope, bare))
    missing = []
    for path in package_modules:
        for definition, _ in _definitions(trees[path]):
            name, method = definition[-1], len(definition) == 2
            if any((where != path or scope[:len(definition)] != definition)
                   and not (method and bare)
                   for where, scope, bare in refs.get(name, ())):
                continue
            missing.append(f"{path.stem}.{'.'.join(definition)}")
    return missing


def _defaulted_parameters(tree: ast.Module):
    """(definition path, parameter, position among a call's arguments or None
    when keyword-only) for every defaulted parameter of a public function or
    method."""
    for path, func in _definitions(tree):
        if isinstance(func, ast.ClassDef):
            continue
        # a method call's arguments start after self or cls
        skipped = 0 if len(path) == 1 or any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list) else 1
        positional = func.args.posonlyargs + func.args.args
        first_default = len(positional) - len(func.args.defaults)
        for index in range(first_default, len(positional)):
            yield path, positional[index].arg, index - skipped
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield path, arg.arg, None


def unpassed_parameters(package_modules: list[Path], other_modules: list[Path]) -> list[str]:
    """`module.function(parameter)` for every defaulted parameter of a public
    package function that no call in the given modules passes."""
    trees = {p: ast.parse(p.read_text(), str(p)) for p in package_modules + other_modules}
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else \
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(kw.arg is None for kw in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}, unpacks))
    unpassed = []
    for path in package_modules:
        for definition, param, position in _defaulted_parameters(trees[path]):
            if any(unpacks or param in keywords or (position is not None and count > position)
                   for count, keywords, unpacks in calls.get(definition[-1], ())):
                continue
            unpassed.append(f"{path.stem}.{'.'.join(definition)}({param})")
    return unpassed


def _assigned_names(stmt: ast.stmt) -> list[str]:
    """Public names a module-level assignment binds."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]


def unreferenced_constants(package_modules: list[Path], other_modules: list[Path]) -> list[str]:
    """Public module-level constants of the package that no statement but
    their own assignment references."""
    bodies = {p: ast.parse(p.read_text(), str(p)).body for p in package_modules + other_modules}
    referrers: dict[str, set[tuple[Path, int]]] = {}
    for path, body in bodies.items():
        for i, stmt in enumerate(body):
            for name, _, _ in _references(stmt):
                referrers.setdefault(name, set()).add((path, i))
    return [f"{path.stem}.{name}" for path in package_modules
            for i, stmt in enumerate(bodies[path]) for name in _assigned_names(stmt)
            if not referrers.get(name, set()) - {(path, i)}]


def unused_imports(package_modules: list[Path]) -> list[str]:
    """`module: name` for every imported name its module never mentions."""
    unused = []
    for path in package_modules:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}: {bound}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    missing = unreferenced_names(_package_modules(), _bench_modules())
    assert not missing, f"public names only tests call: {missing}"


def test_name_audit_reaches_methods_only_through_attributes(tmp_path):
    module = tmp_path / "stock.py"
    module.write_text(
        "def helper(): pass\n"
        "class K:\n"
        "    def called(self): pass\n"
        "    def named(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def _private(self): pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from stock import K, helper\n"
        "helper()\nK().called()\nTRACED = ['named']\n"
        "shadowed = [s for s in range(3)]\n")
    assert unreferenced_names([module], [caller]) == ["stock.K.shadowed"]
    assert unreferenced_names([module], []) == [
        "stock.helper", "stock.K", "stock.K.called", "stock.K.named", "stock.K.shadowed"]


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    assert unpassed_parameters(_package_modules(), _bench_modules()) == []


def test_parameter_audit_finds_an_unpassed_default(tmp_path):
    module = tmp_path / "stock.py"
    module.write_text(
        "def used(a, b=1, *, c=2): pass\n"
        "def spread(a, b=1): pass\n"
        "def unpassed(a, b=1, *, c=2): pass\n"
        "def _private(a=1): pass\n"
        "class K:\n"
        "    def method(self, x=1): pass\n"
        "    @staticmethod\n"
        "    def fixed(x=1): pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from stock import K, spread, unpassed, used\n"
        "used(0, 5)\nused(0, c=3)\nspread(*[0, 1])\nunpassed(0)\n"
        "K().method(2)\nK.fixed()\n")
    assert unpassed_parameters([module], [caller]) == [
        "stock.unpassed(b)", "stock.unpassed(c)", "stock.K.fixed(x)"]
    assert "stock.used(b)" in unpassed_parameters([module], [])


def test_every_public_constant_has_a_reader():
    others = _bench_modules() + sorted(TESTS.glob("*.py"))
    assert unreferenced_constants(_package_modules(), others) == []


def test_constants_audit_finds_an_unread_constant(tmp_path):
    module = tmp_path / "stock.py"
    module.write_text("READ = 1\nDERIVED = READ + 1\nUNREAD = 3\n_PRIVATE = 4\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from stock import DERIVED\nprint(DERIVED)\n")
    assert unreferenced_constants([module], [reader]) == ["stock.UNREAD"]
    assert unreferenced_constants([module], []) == ["stock.DERIVED", "stock.UNREAD"]


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports(_package_modules()) == []


def _tracer_targets() -> tuple[list[tuple], list[tuple]]:
    """`FUNCTIONS` and `METHODS` of bench/tracer.py, read as literals."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    lists = {stmt.targets[0].id: ast.literal_eval(stmt.value) for stmt in tree.body
             if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
             and stmt.targets[0].id in ("FUNCTIONS", "METHODS")}
    return lists["FUNCTIONS"], lists["METHODS"]


def test_every_name_the_tracer_wraps_exists():
    functions, methods = _tracer_targets()
    assert functions and methods
    # the tracer also replaces eval_program by hand
    attributes = [(module, attr) for module, attr, _, _ in functions]
    attributes.append(("dnrlab.machine", "eval_program"))
    missing = [f"{module}.{attr}" for module, attr in attributes
               if not hasattr(importlib.import_module(module), attr)]
    # methods are patched on the class that defines them, not inherited
    missing += [f"{module}.{cls}.{method}" for module, cls, method, _ in methods
                if method not in vars(getattr(importlib.import_module(module), cls, object))]
    assert missing == []
