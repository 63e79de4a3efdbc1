"""Finite-duration wave packets: spectra, widths, energy moments, the
complex-observable adjustment procedure, and hemisphere recoil sampling."""

import importlib

from . import adjustment
from .adjustment import *  # noqa: F403  (each module's __all__ is the public API)

__version__ = "0.1.0"

# Loaded on the first lookup of a name not bound here yet (PEP 562): recoil and
# spectral import numpy, and building wavepacket's NamedTuples takes ~1 ms.
_LAZY_MODULES = ("recoil", "spectral", "wavepacket")


def __getattr__(name: str):
    modules = [adjustment] + [importlib.import_module(f"{__name__}.{m}") for m in _LAZY_MODULES]
    exports = {export: getattr(m, export) for m in modules for export in m.__all__}
    globals().update(exports, __all__=sorted(exports))
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
