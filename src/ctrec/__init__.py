"""Cross-temporal forecast reconciliation toolkit.

Builds cross-sectional and temporal hierarchy structures, combines them
into full cross-temporal constraint systems, and reconciles incoherent
base forecasts by optimal least-squares projection, by bottom-up
aggregation, or by two-step/iterative heuristics, with a covariance
estimator menu and a rolling-origin evaluation harness.

The package exports exactly the names in its library submodules'
``__all__``; ``ctrec.io`` and ``ctrec.cli`` stay submodules.
"""

from . import (
    covariance, crosstemporal, errors, evaluation, heuristics, hierarchy, reconcile, synthgen,
    tableau, temporal,
)
from .covariance import *
from .crosstemporal import *
from .errors import *
from .evaluation import *
from .heuristics import *
from .hierarchy import *
from .reconcile import *
from .synthgen import *
from .tableau import *
from .temporal import *

__version__ = "0.1.0"

_LIBRARY = (
    covariance, crosstemporal, errors, evaluation, heuristics, hierarchy, reconcile, synthgen,
    tableau, temporal,
)
__all__ = [name for module in _LIBRARY for name in module.__all__]
