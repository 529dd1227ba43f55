"""The admissible set of response types.

A vector of potential treatments is admissible when a single default
choice rationalizes it: every coordinate either complies with its
instrument value or falls back to the default, and at the base state
(J0 > 0), which targets nothing, every type takes its default. So a
type's fallback entries, those with d_z != z plus its entry at the base
state, must share at most one value; that value is the default, and a
type with no fallback entry (the diagonal) fits every default. This
restriction neither implies nor is implied by unordered-monotonicity
style assumptions, which compare indicator functions across instrument
pairs instead. The weaker pairwise condition and the published example
restrictions it is compared with are test definitions, in the tests'
helpers.
"""

from __future__ import annotations

from itertools import product

from .core import DesignConfig, ResponseType
from .errors import CapacityError

ENUMERATION_CAP = 1_000_000


def _fallback(config: DesignConfig, rt: ResponseType) -> frozenset[int]:
    """Validate the type, then return the values of its fallback entries,
    those with d_z != z or z the base state."""
    rt.validate(config)
    base = config.base
    return frozenset(d for z, d in zip(config.z_support, rt.d) if d != z or z == base)


def is_admissible(config: DesignConfig, rt: ResponseType) -> bool:
    """True iff the fallback entries share at most one value, a default
    j* with d_z in {z, j*} at every targeting z and j* at the base state."""
    return len(_fallback(config, rt)) <= 1


def enumerate_admissible(config: DesignConfig) -> tuple[ResponseType, ...]:
    """Every admissible type, in lexicographic order, generated directly
    as a default choice times a compliance subset: each instrument value
    either complies or falls back to the default (the choice taken at
    z = 0 when J0 > 0). The diagonal and other types reachable from
    several defaults are emitted once. ``ENUMERATION_CAP``, read at call
    time, bounds the number of types emitted (``closed_form_count``); the
    count itself is a tested property of the output, not used to build
    it. It is at least 2^(J-J0-1), so the check refuses once J - J0 - 1
    reaches the cap's bit length without computing a count that may be
    too long to print. The types are returned as a tuple."""
    cap = ENUMERATION_CAP
    if config.J - config.J0 - 1 >= cap.bit_length() or closed_form_count(config) > cap:
        raise CapacityError(f"enumeration would emit more than {cap} types")
    zs, base = config.z_support, config.base
    vectors = set()
    for j in range(config.J):
        vectors.update(product(*({j} if z == base else {z, j} for z in zs)))
    return tuple(ResponseType(d) for d in sorted(vectors))


def default_choice(config: DesignConfig, rt: ResponseType) -> frozenset[int]:
    """The set of default choices consistent with an admissible type.

    The value the fallback entries share: a singleton for every type but
    the diagonal of a design without a base state, whose entries all
    comply and which takes the full choice set (nothing pins the default
    there). Callers must not assume a canonical default for the diagonal.
    """
    fallback = _fallback(config, rt)
    if len(fallback) > 1:
        raise ValueError(f"response type {rt.d} is not admissible")
    return fallback or frozenset(range(config.J))


def closed_form_count(config: DesignConfig) -> int:
    """Predicted size of the admissible set; checked against enumeration."""
    J, J0 = config.J, config.J0
    if J0 == 0:
        return J * 2 ** (J - 1) - (J - 1)
    return J0 * 2 ** (J - J0) + (J - J0) * 2 ** (J - J0 - 1)
