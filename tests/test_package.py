"""The package namespace re-exports exactly the public names of its layer modules, and
every one of them but a pinned few has a caller in the package's own source."""

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

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _referenced_names() -> set:
    """Every name or attribute the layer modules read, outside the definition of that name."""
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

    for path in pathlib.Path(homogdirac.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":  # its imports re-export; they call nothing
            walk(ast.parse(path.read_text()), frozenset())
    return used


def test_only_the_pinned_names_have_no_caller_in_the_package():
    """A new public helper that nothing in the package calls fails here until it is pinned."""
    listed = {name for module in LAYERS for name in module.__all__}
    assert listed - _referenced_names() == CALLER_LESS


def test_each_pinned_name_is_called_by_the_benchmark():
    """A pin lasts only while a workload calls the name; read as text, so no import runs."""
    text = WORKLOADS.read_text()
    for name in sorted(CALLER_LESS):
        assert re.search(rf"\.{name}\(", text), f"{name} has no call in {WORKLOADS.name}"
