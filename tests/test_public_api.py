"""The declared public names match what the package defines."""

import inspect

import sasvbackend
from sasvbackend import tensor


def test_tensor_all_is_its_public_functions_and_classes():
    defined = {
        name for name, obj in vars(tensor).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == tensor.__name__
    }
    assert sorted(defined - set(tensor.__all__)) == []
    assert sorted(name for name in tensor.__all__ if not hasattr(tensor, name)) == []


def test_package_all_imports():
    namespace = {}
    exec("from sasvbackend import *", namespace)  # raises on a name that does not exist
    assert set(sasvbackend.__all__) <= set(namespace)
