"""Toolkit for single-photon timestamp streams.

Simulates emitters measured through a beam-splitter detector pair, builds
cross-correlation, decay, and intensity histograms from timestamp streams,
fits antibunching and multi-exponential decay models, characterizes
blinking dwell statistics, and reads/writes a compact binary timestamp
format. The ``photonkit`` CLI exposes the same stages as subcommands.

Every public name of the library modules is re-exported here; each module's
``__all__`` declares its own.
"""

# The one version literal, set before the submodules: fileio's reports read it.
__version__ = "0.1.0"

from . import core, sim, correlator, fit, blinking, fileio, pipeline
from .core import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .correlator import *  # noqa: F401,F403
from .fit import *  # noqa: F401,F403
from .blinking import *  # noqa: F401,F403
from .fileio import *  # noqa: F401,F403
from .pipeline import *  # noqa: F401,F403

__all__ = [name
           for module in (core, sim, correlator, fit, blinking, fileio, pipeline)
           for name in module.__all__]
