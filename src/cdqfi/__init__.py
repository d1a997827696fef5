"""Counter-diabatic control synthesis maximizing quantum Fisher information.

A dual-branch feed-forward network emits a constrained scheduling function
and the Pauli-string coefficients of an adiabatic gauge potential; windowed
Magnus propagation drives the dynamics, and a physics-informed loss trains
the protocol toward the metrological bound.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .magnus import TimeGrid, WindowPlan
from .metrics import MetricsReport
from .models import ModelSpec
from .pauli import OperatorBasis, build_basis
from .physloss import LossWeights

__all__ = [
    "LossWeights",
    "MetricsReport",
    "ModelSpec",
    "OperatorBasis",
    "RunConfig",
    "TimeGrid",
    "WindowPlan",
    "build_basis",
    "__version__",
]
