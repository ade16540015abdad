"""The package exports exactly the union of its modules' ``__all__`` lists."""
import wderiv
from wderiv import closed_forms, numeric, properties, tableio, triangle, verify

MODULES = (triangle, closed_forms, properties, numeric, tableio, verify)


def test_no_duplicates():
    assert len(wderiv.__all__) == len(set(wderiv.__all__))


def test_public_surface_size():
    # pinned, so that any growth or shrinkage of the public surface is a diff
    assert len(wderiv.__all__) == 55


def test_union_of_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert set(wderiv.__all__) == union | {"__version__"}


def test_every_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wderiv, name) is getattr(module, name)
    for name in wderiv.__all__:
        getattr(wderiv, name)
