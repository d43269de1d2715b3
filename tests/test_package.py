import importlib

import ctrec
import ctrec.errors

LIBRARY = (
    "covariance", "crosstemporal", "errors", "evaluation", "heuristics", "hierarchy", "reconcile",
    "synthgen", "tableau", "temporal",
)


def test_package_exports_exactly_the_submodules_lists():
    modules = [importlib.import_module(f"ctrec.{name}") for name in LIBRARY]
    expected = [name for module in modules for name in module.__all__]
    assert ctrec.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(ctrec, name) is getattr(module, name)


def test_every_package_error_is_exported():
    errors = {
        name for name, obj in vars(ctrec.errors).items()
        if isinstance(obj, type) and issubclass(obj, ctrec.CtrecError)
    }
    assert errors == set(ctrec.errors.__all__)
    assert errors <= set(ctrec.__all__)


def test_star_import_binds_exactly_the_listed_names():
    namespace = {}
    exec("from ctrec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ctrec.__all__)
