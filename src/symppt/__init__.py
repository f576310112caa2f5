"""Absolute-PPT properties of symmetric multiqubit and small multiqudit states.

Exact SAPPT threshold probabilities, analytic and numeric spectra of
partially transposed symmetric states, and verification of the explicit
Dicke-basis entanglement witnesses, with a CLI that reproduces the
reference tables as CSV or JSON.
"""

import importlib.util

from .combx import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """PEP 562: __all__ and the names of ptrans, symstate and witness import them, and numpy, on first
    use.  A submodule's name falls through to the import system, which imports that module alone."""
    lazy = name == "__all__" or (name.isidentifier() and name[0] != "_"
                                 and not importlib.util.find_spec(f"{__name__}.{name}"))
    modules = (importlib.import_module(f"{__name__}.{m}") for m in ("combx", "ptrans", "symstate", "witness"))
    owner = {attr: module for module in (modules if lazy else ()) for attr in module.__all__}
    if name == "__all__":
        return list(owner)
    if name in owner:
        globals()[name] = value = getattr(owner[name], name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__getattr__("__all__")})
