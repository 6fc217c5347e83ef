"""The package namespace re-exports exactly the public names of its layer modules, every
one of them but a pinned few has a caller in the package's own source, so does every public
method of those classes (or in the benchmark), and every defaulted parameter but a pinned one
is set by some call in the package or the benchmark."""

import ast
import pathlib
import re
import types

import homogdirac
from homogdirac import bundles, cliffordalg, dirac, geometry, groups, reps, sections

LAYERS = (groups, reps, cliffordalg, sections, bundles, geometry, dirac)


def test_every_layer_name_is_exported_by_the_package():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(homogdirac, name, None) is getattr(module, name), \
                f"{module.__name__}.{name}"


def test_every_package_name_comes_from_a_layer_list():
    """So a name removed from a layer cannot linger in the package, nor the reverse."""
    listed = {name for module in LAYERS for name in module.__all__}
    exported = {name for name, value in vars(homogdirac).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == listed


# exported names with no caller in the package's source, each held only by a call in
# the benchmark's workloads (test_each_pinned_name_is_called_by_the_benchmark); a name
# the workloads stop calling leaves the package
CALLER_LESS = {"KAverage", "casimir_value", "connection_test_matrix"}

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = [p for p in pathlib.Path(homogdirac.__file__).parent.glob("*.py")
           if p.name != "__init__.py"]  # its imports re-export; they call nothing
BENCHMARK = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]


def _referenced_names(paths=PACKAGE) -> set:
    """Every name or attribute the modules at ``paths`` read, outside the definition of
    that name."""
    used = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}  # a definition's mention of itself calls nothing
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for path in paths:
        walk(ast.parse(path.read_text()), frozenset())
    return used


def test_only_the_pinned_names_have_no_caller_in_the_package():
    """A new public helper that nothing in the package calls fails here until it is pinned."""
    listed = {name for module in LAYERS for name in module.__all__}
    assert listed - _referenced_names() == CALLER_LESS


def test_every_public_method_has_a_caller_in_the_package_or_the_benchmark():
    """A public method (or property) of an exported class that only tests call fails here;
    dunders are exempt, and a method is matched by its name."""
    used = _referenced_names(PACKAGE + BENCHMARK)
    caller_less = set()
    for module in LAYERS:
        for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in module.__all__:
                caller_less |= {f"{node.name}.{d.name}" for d in node.body
                                if isinstance(d, ast.FunctionDef)
                                and not d.name.startswith("_") and d.name not in used}
    assert caller_less == set()


def test_each_pinned_name_is_called_by_the_benchmark():
    """A pin lasts only while a workload calls the name; read as text, so no import runs."""
    text = WORKLOADS.read_text()
    for name in sorted(CALLER_LESS):
        assert re.search(rf"\.{name}\(", text), f"{name} has no call in {WORKLOADS.name}"


# defaulted parameters that no call in the package or the benchmark sets: the console
# script calls main() with no arguments
SETTERLESS = {"cli.main.argv"}


def _public_defs(tree):
    """(class name or None, def) for each public function, public method and __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield None, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for d in node.body:
                if isinstance(d, ast.FunctionDef) and (
                        d.name == "__init__" or not d.name.startswith("_")):
                    yield node.name, d


def _unset_options(paths) -> set:
    """``module.qualname.param`` of each defaulted parameter of a public def in ``paths``
    that no call in ``paths`` passes, by position or keyword; parsed, nothing imported.

    A call is matched by name: ``f(...)`` and ``x.f(...)`` call every def named f, and a
    class name, ``cls(...)`` in its body and ``super().__init__(...)`` in a subclass call
    the __init__ it resolves to through its bases.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    bases, own_init = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                if any(isinstance(d, ast.FunctionDef) and d.name == "__init__"
                       for d in node.body):
                    own_init.add(node.name)

    def init_of(name):  # the class whose __init__ a call of class ``name`` runs
        if name in own_init:
            return name
        return next(filter(None, map(init_of, bases.get(name, []))), None)

    calls = {}  # {callee: [(positional count, keywords, whether * or ** passes more)]}

    def walk(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                callees = [cls if f.id == "cls" else f.id]
            elif not isinstance(f, ast.Attribute):  # a call of a call's result or an item
                callees = []
            elif (f.attr == "__init__" and isinstance(f.value, ast.Call)
                  and isinstance(f.value.func, ast.Name) and f.value.func.id == "super"):
                callees = bases.get(cls, [])
            else:
                callees = [f.attr]
            call = (len(node.args), {k.arg for k in node.keywords},
                    any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            for name in callees:
                calls.setdefault(init_of(name) or name, []).append(call)
        for child in ast.iter_child_nodes(node):
            walk(child, cls)

    for tree in trees.values():
        walk(tree, None)
    unset = set()
    for path, tree in trees.items():
        for cls, d in _public_defs(tree):
            a = d.args
            method = cls is not None and not any(
                isinstance(x, ast.Name) and x.id == "staticmethod" for x in d.decorator_list)
            positional = [p.arg for p in a.posonlyargs + a.args][int(method):]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
            seen = calls.get(cls if d.name == "__init__" else d.name, [])
            for name in defaulted:
                at = positional.index(name) if name in positional else len(positional)
                if not any(n > at or name in kws or more for n, kws, more in seen):
                    qualname = f"{cls}.{d.name}" if cls else d.name
                    unset.add(f"{path.stem}.{qualname}.{name}")
    return unset


def test_every_option_has_a_setter():
    """A defaulted parameter that only tests set fails here: it leaves the package, its one
    value in use kept as a constant, unless it is pinned."""
    paths = sorted((ROOT / "src" / "homogdirac").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    assert _unset_options(paths) == SETTERLESS
