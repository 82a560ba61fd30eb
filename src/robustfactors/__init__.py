"""Robust estimation of the number of latent factors in heavy-tailed panels.

The package builds the sample multivariate Kendall's tau matrix of a panel
and reads the factor count off its eigenvalue spectrum, alongside classical
covariance-spectrum baselines, a simulation harness, and a rolling-window
pipeline. Each public module lists its names in its own ``__all__``, and the
package exports exactly those names.
"""

from ._errors import InvariantError, NumericalError
from . import elliptical, estimators, kendall, montecarlo, panel, rolling, spectrum
from .elliptical import *  # noqa: F403
from .estimators import *  # noqa: F403
from .kendall import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .panel import *  # noqa: F403
from .rolling import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", "InvariantError", "NumericalError"]
for _module in (panel, elliptical, kendall, spectrum, estimators, montecarlo, rolling):
    __all__ += _module.__all__
del _module
