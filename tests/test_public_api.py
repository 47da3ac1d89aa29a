import importlib
import inspect
import pkgutil

import pytest

import optioncast

# The command module and the shared exception types export no __all__.
NOT_LIBRARY = {"cli", "errors"}
LIBRARY_MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(optioncast.__path__)
    if info.name not in NOT_LIBRARY
)


def test_library_modules_are_found():
    assert {"bs_core", "lstm", "trading", "fusion"} <= set(LIBRARY_MODULES)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"optioncast.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    public = {
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(public - set(exported))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"
