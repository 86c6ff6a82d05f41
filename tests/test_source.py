"""Gates on the shape of the package source, read with ast.

Dead private code: every underscore-prefixed function or method (dunders
aside) defined in the package, and every underscore-prefixed name bound by a
module-level assignment (tables, caps, constants), is named somewhere in the
package outside its own definition, as a name, an attribute or an import.
A function only a test calls belongs in the tests.

One exact kernel: the modules of the Tate route compute with integers only,
so none of them imports from fractions.

fractions only where a rational is met: no module but checks imports
fractions when it loads (an import inside a function is allowed), so a
computation on integers never loads it, nor the decimal and numbers it
loads.

No write into a scalar: the in-place kernels _add_scaled, _mul_into and
_add_times never take an attribute .coeffs as the dict they write into
(their first argument).  The kernels write only into the coefficient dicts
they build; a scalar's dict may be a cached table entry's, a caller's or an
element's, so it is never written into.

Caps read where they live: no module binds a _MAX_* cap by from ... import,
so a cap monkeypatched in its own module reaches every check and every
bound that reads it.

One definition per function: no module-level function name is defined in
two modules of the package, so a kernel that moved to the module that owns
it (the strip enumerators and the closed-form dispatch that symfunc shares
with hecke) is imported where it is used, never copied back.
"""

import ast
from pathlib import Path

import satkit

PACKAGE = Path(satkit.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _private_defs(tree):
    """(name, node) for each private function or method, then each private name a module-level assignment binds."""
    defs = [(node.name, node) for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(name.id, node) for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]
    for name, node in defs:
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            yield name, node


def _mentions(tree):
    """(name, line) for every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _unused_private(trees):
    """module.name of each private function or assigned name that no code outside its own definition names."""
    mentions = {module: list(_mentions(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for private, node in _private_defs(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == private and not (other == module and line in own)
                for other, found in mentions.items()
                for name, line in found
            ):
                unused.append(f"{module}.{private}")
    return unused


def test_every_private_function_is_used_in_the_package():
    assert _unused_private(TREES) == []


def test_the_gate_sees_an_unused_private_function():
    # recursion is no use, nor a table that only its own assignment names; a call from another
    # module, a method call, or a read of an assigned name in a function is
    trees = {
        "a": ast.parse(
            "def _recursive():\n    return _recursive()\n\ndef _called():\n    return _CAP\n\n"
            "_CAP = 3\n_table = _called(_called)\n"
        ),
        "b": ast.parse("from .a import _called\n\nclass C:\n    def _method(self):\n        pass\n\nC()._method()\n"),
    }
    assert _unused_private(trees) == ["a._recursive", "a._table"]


def test_integer_modules_import_nothing_from_fractions():
    for module in ("rootdata", "trace_k", "tate"):
        imported = set()
        for node in ast.walk(TREES[module]):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "fractions" not in imported, module


def _imports_at_load(tree):
    """The modules imported by statements that run when the module loads: every import outside a function."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom):
                found.add(child.module)
            elif isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            visit(child)

    visit(tree)
    return found


def test_only_checks_imports_fractions_when_it_loads():
    assert {module for module, tree in TREES.items() if "fractions" in _imports_at_load(tree)} <= {"checks"}


def test_the_gate_sees_an_import_at_load():
    tree = ast.parse(
        "import os\nif X:\n    from fractions import Fraction\n\nclass C:\n    import numbers\n\n"
        "def f():\n    import decimal\n\nclass D:\n    def g(self):\n        from json import dumps\n"
    )
    assert _imports_at_load(tree) == {"os", "fractions", "numbers"}


IN_PLACE_KERNELS = {"_add_scaled", "_mul_into", "_add_times"}


def _writes_into_coeffs(trees):
    """module.function (module alone at module level) of each call of an in-place kernel whose first
    argument is an attribute .coeffs, the function being the innermost one around the call."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call) and child.args:
                func, first = child.func, child.args[0]
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in IN_PLACE_KERNELS and isinstance(first, ast.Attribute) and first.attr == "coeffs":
                    found.append(scope)
            visit(child, module, scope)

    for module, tree in trees.items():
        visit(tree, module, module)
    return found


def test_in_place_kernels_write_only_into_scalars_built_here():
    assert _writes_into_coeffs(TREES) == []


def test_the_gate_sees_a_write_into_coeffs():
    trees = {
        "m": ast.parse(
            "def f(x, y):\n    _add_scaled(x.coeffs, y.coeffs)\n    _mul_into(dict(x.coeffs), y.coeffs, y.coeffs)\n\n"
            "def g(acc, x):\n    laurent._add_times(acc.coeffs, x, 2)\n\n"
            "class C:\n    def h(self):\n        return _add_times(self.coeffs, {0: 1}, 3)\n\n"
            "_add_scaled(X.coeffs, {})\n"
        )
    }
    assert _writes_into_coeffs(trees) == ["m.f", "m.g", "m.h", "m"]


def _imported_caps(trees):
    """module.name of each _MAX_* cap a from-import binds, at any depth."""
    return [
        f"{module}.{alias.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_MAX_")
    ]


def test_no_module_imports_a_cap_by_name():
    assert _imported_caps(TREES) == []


def test_the_gate_sees_a_cap_imported_by_name():
    # a read through the module binds no copy; an import inside a function or under another name does
    trees = {
        "a": ast.parse(
            "from .symfunc import _MAX_PATTERNS, _check_patterns\n\n"
            "def f():\n    from .plattice import _MAX_WINDOW as window\n    return window\n"
        ),
        "b": ast.parse("from . import symfunc\n\ncap = symfunc._MAX_PATTERNS\n"),
    }
    assert _imported_caps(trees) == ["a._MAX_PATTERNS", "a._MAX_WINDOW"]


def _defined_twice(trees):
    """{name: modules} for each module-level function name that more than one module defines."""
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(module)
    return {name: modules for name, modules in defined.items() if len(modules) > 1}


def test_no_function_is_defined_in_two_modules():
    assert _defined_twice(TREES) == {}


def test_the_gate_sees_a_function_defined_twice():
    # a method, a nested function or an imported name is no second definition; a module-level
    # function is, whatever its body
    trees = {
        "a": ast.parse("def _strips(kappa):\n    return []\n\ndef _dual(kappa):\n    return kappa\n"),
        "b": ast.parse(
            "from .a import _dual\n\ndef _strips(kappa, k):\n    yield kappa\n\n"
            "class C:\n    def _dual(self):\n        pass\n\ndef f():\n    def _dual():\n        pass\n"
        ),
        "c": ast.parse("async def _strips():\n    pass\n"),
    }
    assert _defined_twice(trees) == {"_strips": ["a", "b", "c"]}
