"""The public surface: each public name is declared once, in the
`__all__` of the module that defines it, and `clic` re-exports them."""

import importlib
import pkgutil
from collections import Counter

import clic

# The public submodules that declare names; `cli` declares none.
MODULES = [importlib.import_module(f"clic.{info.name}")
           for info in pkgutil.iter_modules(clic.__path__)
           if not info.name.startswith("_")]


def test_every_public_name_has_exactly_one_owner():
    declared = [(m, name) for m in MODULES
                for name in getattr(m, "__all__", ())]
    owners = Counter(name for _, name in declared)
    assert sorted(owners) == sorted(clic.__all__)
    assert [name for name, n in owners.items() if n > 1] == []
    for m, name in declared:
        assert getattr(clic, name) is getattr(m, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from clic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(clic.__all__)
