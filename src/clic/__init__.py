"""Coalition logic with an explicit inability operator: parsing, finite
one-step game models, satisfaction checking, inability elimination, and
bounded countermodel search."""

from importlib import import_module as _import_module

# Each submodule's __all__ is the one list of its public names; `clic`
# re-exports them in this order, and loads a module when one of its names
# is first asked for (PEP 562), so a process imports only what it uses.
_MODULES = ("errors", "formula", "model", "semantics", "translation",
            "validity", "laws")


def __getattr__(name: str):
    if name in _MODULES:
        return _submodule(name)
    if name == "__all__":
        value = [n for m in _MODULES for n in _submodule(m).__all__]
    else:
        # A dunder is a probe, such as pytest's __test__: it imports nothing.
        owners = () if name.startswith("__") else map(_submodule, _MODULES)
        owner = next((m for m in owners if name in m.__all__), None)
        if owner is None:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})


def _submodule(name: str):
    return _import_module(f"{__name__}.{name}")
