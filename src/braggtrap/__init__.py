"""Trapped-BEC Bragg interferometer with interaction-generated spin squeezing.

Exact Dicke-basis simulation of the collective spin, trap-derived twisting
rates, closed-form oracles, and numerical optimization of the sensitivity
gain over the pre/post rotation pulses.
"""

from . import closed_form, dicke, errors, optimize, sequence, trap
# The package root re-exports each module's public API, as listed in its __all__.
from .closed_form import *  # noqa: F403
from .dicke import *  # noqa: F403
from .errors import *  # noqa: F403
from .optimize import *  # noqa: F403
from .sequence import *  # noqa: F403
from .trap import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *closed_form.__all__, *dicke.__all__, *errors.__all__,
           *optimize.__all__, *sequence.__all__, *trap.__all__]
