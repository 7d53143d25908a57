"""High-probability bounds for importance-weighted bandit play.

The package couples a smoothed Gibbs bandit strategy with the martingale
concentration machinery that certifies its estimates, and ships the exact
enumeration oracles plus a seeded Monte Carlo harness used to check every
bound empirically.
"""

__version__ = "0.5.0"

from . import bandit, bounds, concentration, divergences, harness
from .bandit import *  # noqa: F403
from .bounds import *  # noqa: F403
from .concentration import *  # noqa: F403
from .divergences import *  # noqa: F403
from .harness import *  # noqa: F403

__all__ = sorted(
    name
    for module in (bandit, bounds, concentration, divergences, harness)
    for name in module.__all__
)
