"""Finite-duration wave packets: spectra, widths, energy moments, the
complex-observable adjustment procedure, and hemisphere recoil sampling."""

from . import adjustment, recoil, spectral, wavepacket
from .adjustment import *  # noqa: F403  (each module's __all__ is the public API)
from .recoil import *  # noqa: F403
from .spectral import *  # noqa: F403
from .wavepacket import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(adjustment.__all__ + recoil.__all__ + spectral.__all__ + wavepacket.__all__)
