"""The admissible set of response types and the comparison predicates.

A vector of potential treatments is admissible when a single default
choice rationalizes it: every coordinate either complies with its
instrument value or falls back to the default. With a base state
(J0 > 0) the default is pinned to the choice taken at z = 0. This
restriction neither implies nor is implied by unordered-monotonicity
style assumptions, which compare indicator functions across instrument
pairs instead; only the weaker pairwise condition below is provided for
comparison.
"""

from __future__ import annotations

from itertools import product

from .core import DesignConfig, ResponseType
from .errors import CapacityError

DEFAULT_ENUMERATION_CAP = 1_000_000


def is_admissible(config: DesignConfig, rt: ResponseType) -> bool:
    """True iff some default choice j* gives d_z in {z, j*} for every z
    (J0 = 0), or d_z in {z, d_0} for every targeted z (J0 > 0)."""
    rt.validate(config)
    if config.J0 == 0:
        defaults = {d for z, d in zip(config.z_support, rt.d) if d != z}
        return len(defaults) <= 1
    base = rt.d[0]
    return all(
        d in (z, base) for z, d in zip(config.z_support[1:], rt.d[1:])
    )


def enumerate_admissible(
    config: DesignConfig, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[ResponseType, ...]:
    """Every admissible type, in lexicographic order, generated directly
    as a default choice times a compliance subset: each instrument value
    either complies or falls back to the default (the choice taken at
    z = 0 when J0 > 0). The diagonal and other types reachable from
    several defaults are emitted once. The cap bounds the number of types
    emitted (``closed_form_count``); the count itself is a tested
    property of the output, not used to build it. It is at least
    2^(J-J0-1), so the check refuses once J - J0 - 1 reaches ``cap``'s
    bit length without computing a count that may be too long to print.
    The types are returned as a tuple."""
    if config.J - config.J0 - 1 >= cap.bit_length() or closed_form_count(config) > cap:
        raise CapacityError(f"enumeration would emit more than {cap} types")
    zs = config.z_support
    vectors = set()
    for j in range(config.J):
        if config.J0 == 0:
            options = [{z, j} for z in zs]
        else:
            options = [{j}] + [{z, j} for z in zs[1:]]
        vectors.update(product(*options))
    return tuple(ResponseType(d) for d in sorted(vectors))


def default_choice(config: DesignConfig, rt: ResponseType) -> frozenset[int]:
    """The set of default choices consistent with an admissible type.

    A singleton for every non-diagonal type; the full choice set for the
    diagonal when J0 = 0 (nothing pins the default there). Callers must
    not assume a canonical default for the diagonal.
    """
    if not is_admissible(config, rt):
        raise ValueError(f"response type {rt.d} is not admissible")
    if config.J0 > 0:
        return frozenset({rt.d[0]})
    return frozenset(
        j
        for j in range(config.J)
        if all(d in (z, j) for z, d in zip(config.z_support, rt.d))
    )


def satisfies_pairwise_restriction(config: DesignConfig, rt: ResponseType) -> bool:
    """The weaker pairwise condition: whenever some non-targeting value
    yields choice j, the targeting value must too. Coincides with
    admissibility at J = 3 but not beyond (witness (1,1,2,2) at J = 4)."""
    if config.J0 != 0:
        raise ValueError("the pairwise restriction is defined for J0 = 0")
    rt.validate(config)
    for j in range(config.J):
        hit = any(rt.d[k] == j for k in range(config.J) if k != j)
        if hit and rt.d[j] != j:
            return False
    return True


def satisfies_example_restrictions(config: DesignConfig, rt: ResponseType) -> bool:
    """Literal evaluation of the published behavioral restrictions for the
    two three-choice designs: the close-substitute design (J=3, J0=2) and
    the field-of-study design (J=3, J0=1). Conditional statements become
    implications on the deterministic vector."""
    rt.validate(config)
    if config.J == 3 and config.J0 == 2:
        d0, d2 = rt.d
        # switching on the offer forces the offered choice
        return d0 == d2 or d2 == 2
    if config.J == 3 and config.J0 == 1:
        d0, d1, d2 = rt.d
        if d0 == 1 and d1 != 1:
            return False
        if d0 == 2 and d2 != 2:
            return False
        if d0 != 1 and d1 != 1 and (d1 == 2) != (d0 == 2):
            return False
        if d0 != 2 and d2 != 2 and (d2 == 1) != (d0 == 1):
            return False
        return True
    raise ValueError(
        f"example restrictions are defined for (J=3, J0=1) and (J=3, J0=2), "
        f"got (J={config.J}, J0={config.J0})"
    )


def closed_form_count(config: DesignConfig) -> int:
    """Predicted size of the admissible set; checked against enumeration."""
    J, J0 = config.J, config.J0
    if J0 == 0:
        return J * 2 ** (J - 1) - (J - 1)
    return J0 * 2 ** (J - J0) + (J - J0) * 2 ** (J - J0 - 1)
