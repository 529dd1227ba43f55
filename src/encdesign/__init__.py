"""Exact decision engine and simulation harness for encouragement designs.

Decides whether an observed (outcome, treatment, instrument) distribution
is consistent with an additive random utility model in which each
instrument value encourages one choice, produces an explicit witness
measure over response types when it is, and cross-validates the decision
with an independent exact-LP oracle and Monte Carlo simulation.
"""

from .core import (
    DesignConfig,
    ObservedDistribution,
    OutcomeDistribution,
    OutcomeResponseMeasure,
    ResponseMeasure,
    ResponseType,
    as_fraction,
    pushforward,
    pushforward_outcome,
)
from .admissible import (
    default_choice,
    enumerate_admissible,
    is_admissible,
)
from .errors import CapacityError, ConstructionError
from .inequalities import (
    CheckReport,
    check,
    check_outcome,
    generate,
    generate_outcome,
)
from .lp import feasible, feasible_outcome
from .witness import construct, construct_outcome, diagnose

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckReport",
    "ConstructionError",
    "DesignConfig",
    "ObservedDistribution",
    "OutcomeDistribution",
    "OutcomeResponseMeasure",
    "ResponseMeasure",
    "ResponseType",
    "as_fraction",
    "check",
    "check_outcome",
    "construct",
    "construct_outcome",
    "default_choice",
    "diagnose",
    "enumerate_admissible",
    "feasible",
    "feasible_outcome",
    "generate",
    "generate_outcome",
    "is_admissible",
    "pushforward",
    "pushforward_outcome",
]
