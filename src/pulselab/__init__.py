"""Finite-duration wave packets: spectra, widths, energy moments, the
complex-observable adjustment procedure, and hemisphere recoil sampling."""

import importlib

from . import adjustment
from .adjustment import *  # noqa: F403  (each module's __all__ is the public API)

__version__ = "0.1.0"

# Loaded one at a time, in this order, on the lookup of a name not bound here
# yet (PEP 562), until the name is bound: recoil and spectral import numpy, and
# building wavepacket's NamedTuples takes ~1 ms.
_LAZY_MODULES = ("wavepacket", "recoil", "spectral")


def __getattr__(name: str):
    names = list(adjustment.__all__)
    for m in _LAZY_MODULES:
        module = importlib.import_module(f"{__name__}.{m}")
        globals().update({export: getattr(module, export) for export in module.__all__})
        names += module.__all__
        if name in globals():
            return globals()[name]
    globals()["__all__"] = sorted(names)  # every module is loaded: the whole API is known
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()["__all__"]


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
