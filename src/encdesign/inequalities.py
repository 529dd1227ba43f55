"""Sharp inequality families on exact probability tables.

Two families: selector inequalities (one conditional choice probability
per choice, summed, bounded by 1) for designs without a base state, and
the reduced pairwise family (no instrument value beats the base state)
when a base state exists. The outcome extension adds per-cell pointwise
dominance plus a partition inequality. The selector and partition
families are one product over choices, listed and capped by
``product_family``. Every check evaluates its slacks on the table's
integer form, integers over its common denominator, and reports them
as ``Fraction``s; no tolerance parameter exists in this module. The
tables are ``core``'s, and no other oracle is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from typing import Callable

# perfbench/inputs.py imports ``OutcomeDistribution`` from this module
from .core import ONE, ZERO, DesignConfig, ObservedDistribution, OutcomeDistribution
from .errors import CapacityError

FAMILY_CAP = 1_000_000

# A coordinate is (z, j) on treatment tables and (z, j, y) on outcome tables.


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality: sum(lhs coords) <= bound + sum(rhs coords). Every
    family member is either a sum of cells bounded by 1 (no rhs) or one
    cell p(k, j) against one cell of choice j in another arm (bound 0),
    so the bound, the selector and the pair follow from the coords."""

    lhs: tuple[tuple, ...]
    rhs: tuple[tuple, ...] = ()
    tag: str = ""

    @property
    def bound(self) -> Fraction:
        return ZERO if self.rhs else ONE

    @property
    def selector(self) -> tuple[int, ...] | None:
        """z(j) for each choice j of a selector inequality, else None."""
        return tuple(z for z, _ in self.lhs) if self.tag == "selector" else None

    @property
    def pair(self) -> tuple[int, int] | None:
        """(j, k) of a row p(k, j) <= p(., j), else None."""
        return (self.lhs[0][1], self.lhs[0][0]) if self.rhs else None


Violations = tuple[tuple[InequalitySpec, Fraction], ...]


@dataclass(frozen=True, eq=False)
class CheckReport:
    """The verdict of a check, its smallest slack, and on demand the
    violated inequalities with their (negative) slacks in family order.

    ``violations`` is computed the first time it is read: the selector
    family holds (J-1)^J inequalities, and the verdict never needs them.
    """

    passed: bool
    min_slack: Fraction
    list_violations: Callable[[], Violations] = field(repr=False)

    @cached_property
    def violations(self) -> Violations:
        return self.list_violations()


def _cap_family(size: int) -> None:
    """Refuse a family of more than ``FAMILY_CAP`` members."""
    if size > FAMILY_CAP:
        raise CapacityError(f"family would hold more than {FAMILY_CAP} inequalities")


def product_family(config: DesignConfig, ny: int = 1) -> list[list[tuple[int, ...]]]:
    """The selector (``ny = 1``) or partition (``ny = |Y|``) family as
    one option list per choice j: the tuples of ``ny`` instrument values
    from ``targeted_set(j)`` in ``itertools.product`` order.
    A member takes one option per choice, last choice fastest. The size
    is checked against ``FAMILY_CAP`` one factor |targeted_set(j)| at a
    time, each counted from the design (|Z|, less 1 for a targeted j),
    before any targeted set or option is listed, so no large integer or
    list is built."""
    n_z = len(range(config.J0, config.J)) + (config.base is not None)
    size = 1
    for j in range(config.J):
        for _ in range(ny):
            size *= n_z - (j >= config.J0)
            _cap_family(size)
    return [list(product(config.targeted_set(j), repeat=ny)) for j in range(config.J)]


def _selector_spec(selector: tuple[int, ...]) -> InequalitySpec:
    """The selector inequality sum_j p(selector[j], j) <= 1."""
    lhs = tuple((z, j) for j, z in enumerate(selector))
    return InequalitySpec(lhs=lhs, tag="selector")


def generate(config: DesignConfig, full: bool = False) -> tuple[InequalitySpec, ...]:
    """The inequality family for a design.

    Without a base state: every selector tuple z(j), giving (J-1)^J
    inequalities of the form sum_j P{D=j | Z=z(j)} <= 1. With a base
    state the family reduces to P{D=j | Z=k} <= P{D=j | Z=0} over
    non-base k != j; pass ``full=True`` to get the unreduced selector
    family instead (the two are equivalent, which tests verify). Either
    family is checked against ``FAMILY_CAP`` before any member is built.
    """
    if config.J0 == 0 or full:
        family = product(*product_family(config))
        return tuple(_selector_spec(tuple(z for (z,) in member)) for member in family)
    # every choice j against each non-base k != j
    _cap_family((config.J - 1) * (config.J - config.J0))
    return tuple(_pair_spec(k, j) for j in range(config.J) for k in range(config.J0, config.J) if k != j)


def _pair_spec(k: int, j: int) -> InequalitySpec:
    """The base-state row p(k, j) <= p(0, j)."""
    return InequalitySpec(lhs=((k, j),), rhs=((0, j),), tag="pairwise-base")


def check(P: ObservedDistribution) -> CheckReport:
    """Decide the table against its sharp family exactly. The family is
    sharp, so a passing table is consistent with the model, not merely
    unrejected.

    Neither family is built. Without a base state the largest left-hand
    side of a selector is the sum over choices of the largest p(z, j) on
    the targeted set; with one, row (k, j) of the pairwise family binds
    only at the largest p(k, j) over non-base k != j. So the verdict and
    ``min_slack`` take O(J * |Z|) on the table's integer form, and a
    slack becomes a Fraction only as ``min_slack`` or a violation. The
    violations are listed in family order when the report's
    ``violations`` is read; more than ``FAMILY_CAP`` raise CapacityError.
    """
    config = P.config
    scale, scaled = P.scale, P.scaled
    if config.J0:
        J0, base = config.J0, scaled[0]
        # columns[j][k - J0] = L * p(k, j) over the non-base k
        columns = list(zip(*(scaled[k] for k in range(J0, config.J))))
        rivals = (c if j < J0 else c[: j - J0] + c[j - J0 + 1 :] for j, c in enumerate(columns))
        least = min(b - max(r) for b, r in zip(base, rivals) if r)

        def list_pairs() -> Violations:
            # the rows p(k, j) > p(0, j) in family order, up to one past the cap
            above = ((k, j) for j, c in enumerate(columns) for k, v in enumerate(c, J0) if v > base[j])
            found = list(islice(((k, j) for k, j in above if k != j), FAMILY_CAP + 1))
            if len(found) > FAMILY_CAP:
                raise CapacityError(f"check would emit more than {FAMILY_CAP} violations")
            return tuple((_pair_spec(k, j), Fraction(base[j] - scaled[k][j], scale)) for k, j in found)

        return CheckReport(least >= 0, Fraction(least, scale), list_pairs)
    levels = [[(z, scaled[z][j]) for z in config.targeted_set(j)] for j in range(config.J)]
    # hi[j], lo[j]: the largest and smallest sum over choices j, j+1, ...
    hi, lo = [0], [0]
    for level in reversed(levels):
        values = [v for _, v in level]
        hi.append(hi[-1] + max(values))
        lo.append(lo[-1] + min(values))
    hi.reverse()
    lo.reverse()

    def list_selectors() -> Violations:
        if _count_violated(levels, hi, lo, scale, FAMILY_CAP) > FAMILY_CAP:
            raise CapacityError(f"check would emit more than {FAMILY_CAP} violations")
        return tuple(
            (_selector_spec(selector), Fraction(scale - total, scale))
            for selector, total in _violated_selectors(levels, hi, scale)
        )

    return CheckReport(hi[0] <= scale, Fraction(scale - hi[0], scale), list_selectors)


def _count_violated(levels, hi, lo, bound, limit) -> int:
    """How many selectors sum past ``bound``, counted up to the first
    total above ``limit``. A subtree whose smallest completion already
    violates is counted whole, by its size."""
    sizes = [1]
    for level in reversed(levels):
        sizes.append(sizes[-1] * len(level))
    sizes.reverse()
    count = 0
    stack = [(0, 0)]
    while stack:
        j, prefix = stack.pop()
        if prefix + hi[j] <= bound:
            continue
        if prefix + lo[j] > bound:
            count += sizes[j]
            if count > limit:
                break
            continue
        stack.extend((j + 1, prefix + v) for _, v in levels[j])
    return count


def _violated_selectors(levels, hi, bound):
    """Every selector whose sum exceeds ``bound``, with that sum, in the
    order of ``itertools.product`` over the levels. Depth first; a subtree
    is dropped when its prefix plus the largest completion is at most
    ``bound``."""
    J = len(levels)
    stack = [(0, 0, ())]
    while stack:
        j, prefix, selector = stack.pop()
        if prefix + hi[j] <= bound:
            continue
        if j == J:
            yield selector, prefix
            continue
        # pushed in reverse so the first value of the level is visited first
        stack.extend(
            (j + 1, prefix + v, selector + (z,)) for z, v in reversed(levels[j])
        )


def generate_outcome(
    config: DesignConfig, y_support
) -> tuple[InequalitySpec, ...]:
    """The static pointwise outcome family.

    Targeted dominance: p[k][j][y] <= p[j][j][y] for targeted j and
    every other instrument value k. With a base state, additionally
    base dominance: p[k][j][y] <= p[0][j][y] for every choice j and
    non-base k != j. Pointwise inequalities over a discrete alphabet
    capture every Borel-set instance by summation.
    """
    targeted = (
        InequalitySpec(lhs=((k, j, y),), rhs=((j, j, y),), tag="outcome-target")
        for j in range(config.J0, config.J) for k in config.z_support if k != j for y in y_support
    )
    base = (
        InequalitySpec(lhs=((k, j, y),), rhs=((0, j, y),), tag="outcome-base")
        for j in range(config.J) for k in range(config.J0, config.J) if k != j for y in y_support
    )
    return (*targeted, *(base if config.J0 else ()))


def partition_reduction_spec(PY: OutcomeDistribution) -> InequalitySpec:
    """The most binding partition inequality for a no-base-state design:
    sum_j sum_y max over allowed z of p[z][j][y] <= 1. The maximizing
    cells form a valid partition tuple because the partition choice is
    free independently across choices and outcome values."""
    config = PY.config
    lhs = []
    for j in range(config.J):
        for y in PY.y_support:
            best = max(config.targeted_set(j), key=lambda z: (PY.scaled[z][j][y], -z))
            lhs.append((best, j, y))
    return InequalitySpec(lhs=tuple(lhs), tag="partition-max")


def check_outcome(PY: OutcomeDistribution) -> CheckReport:
    """Full outcome check: the static pointwise family plus, without a
    base state, the partition reduction, whose slack is L minus the sum
    of its cells. Every slack is an integer over the table's ``scale`` L,
    made a Fraction only for ``min_slack`` and each violation."""
    scale, cell = PY.scale, PY.scaled

    def value(c):
        return cell[c[0]][c[1]][c[2]]

    slacks = [(s, value(s.rhs[0]) - value(s.lhs[0])) for s in generate_outcome(PY.config, PY.y_support)]
    if PY.config.J0 == 0:
        spec = partition_reduction_spec(PY)
        slacks.append((spec, scale - sum(map(value, spec.lhs))))
    violations = tuple((s, Fraction(v, scale)) for s, v in slacks if v < 0)
    return CheckReport(not violations, Fraction(min(v for _, v in slacks), scale), lambda: violations)


def partition_family_specs(config: DesignConfig, y_support) -> tuple[InequalitySpec, ...]:
    """Every partition inequality as an explicit spec. ``stats.test_model``
    sums the same family through ``product_family`` without listing it;
    this listing is kept for the oracle tests and the benchmark tracer's
    span."""
    ys = tuple(y_support)
    per_choice = [
        [tuple((z, j, y) for z, y in zip(option, ys)) for option in options]
        for j, options in enumerate(product_family(config, len(ys)))
    ]
    return tuple(
        InequalitySpec(lhs=tuple(chain.from_iterable(combo)), tag="partition")
        for combo in product(*per_choice)
    )
