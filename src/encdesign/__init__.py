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
    ResponseMeasure,
    ResponseType,
    as_fraction,
    observation_map,
    pushforward,
)
from .admissible import (
    default_choice,
    enumerate_admissible,
    is_admissible,
    satisfies_example_restrictions,
    satisfies_pairwise_restriction,
)
from .errors import CapacityError, ConstructionError
from .inequalities import (
    CheckReport,
    OutcomeDistribution,
    check,
    check_outcome,
    generate,
    generate_outcome,
)
from .lp import feasible, feasible_outcome
from .witness import (
    OutcomeResponseMeasure,
    construct,
    construct_outcome,
    diagnose,
    pushforward_outcome,
)

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
    "observation_map",
    "pushforward",
    "pushforward_outcome",
    "satisfies_example_restrictions",
    "satisfies_pairwise_restriction",
]
