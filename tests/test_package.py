"""The package namespace re-exports exactly the public names of its layer modules."""

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
