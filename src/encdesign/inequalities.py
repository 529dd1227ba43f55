"""Sharp inequality families on exact probability tables.

Two families: selector inequalities (one conditional choice probability
per choice, summed, bounded by 1) for designs without a base state, and
the reduced pairwise family (no instrument value beats the base state)
when a base state exists. The outcome extension adds per-cell pointwise
dominance plus a partition inequality. The selector and partition
families are one product over choices, listed and capped by
``product_family``. Slacks are rationals; no tolerance parameter exists
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import lcm
from typing import Callable, Mapping

from .core import ONE, ZERO, DesignConfig, ObservedDistribution, _as_int, _outcome_support, _validate_pz, as_fraction
from .errors import CapacityError

DEFAULT_FAMILY_CAP = 1_000_000

# A coordinate is (z, j) on treatment tables and (z, j, y) on outcome tables.


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality: sum(lhs coords) <= bound + sum(rhs coords)."""

    lhs: tuple[tuple, ...]
    rhs: tuple[tuple, ...] = ()
    bound: Fraction = ZERO
    selector: tuple[int, ...] | None = None
    pair: tuple[int, int] | None = None
    tag: str = ""

    def slack(self, table) -> Fraction:
        total = self.bound
        for coord in self.rhs:
            total += table.p(*coord)
        for coord in self.lhs:
            total -= table.p(*coord)
        return total


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

    @classmethod
    def from_slacks(cls, slacks) -> "CheckReport":
        slacks = tuple(slacks)
        if not slacks:
            raise ValueError("cannot build a report from an empty family")
        violations = tuple((s, v) for s, v in slacks if v < 0)
        return cls(
            passed=not violations,
            min_slack=min(v for _, v in slacks),
            list_violations=lambda: violations,
        )


def product_family(
    config: DesignConfig, ny: int = 1, cap: int = DEFAULT_FAMILY_CAP
) -> list[list[tuple[int, ...]]]:
    """The selector (``ny = 1``) or partition (``ny = |Y|``) family as
    one option list per choice j: the tuples of ``ny`` instrument values
    from ``targeted_set(j)`` in ``itertools.product`` order.
    A member takes one option per choice, last choice fastest. The size
    is checked against ``cap`` one factor |targeted_set(j)| at a time,
    before any option or later choice's set is listed, so no large
    integer or list is built."""
    sets = []
    size = 1
    for j in range(config.J):
        sets.append(config.targeted_set(j))
        for _ in range(ny):
            size *= len(sets[-1])
            if size > cap:
                raise CapacityError(f"family would hold more than {cap} inequalities")
    return [list(product(zs, repeat=ny)) for zs in sets]


def _selector_spec(selector: tuple[int, ...]) -> InequalitySpec:
    """The selector inequality sum_j p(selector[j], j) <= 1."""
    lhs = tuple((z, j) for j, z in enumerate(selector))
    return InequalitySpec(lhs=lhs, bound=ONE, selector=selector, tag="selector")


def generate(
    config: DesignConfig, full: bool = False, cap: int = DEFAULT_FAMILY_CAP
) -> tuple[InequalitySpec, ...]:
    """The inequality family for a design.

    Without a base state: every selector tuple z(j), giving (J-1)^J
    inequalities of the form sum_j P{D=j | Z=z(j)} <= 1. With a base
    state the family reduces to P{D=j | Z=k} <= P{D=j | Z=0} over
    non-base k != j; pass ``full=True`` to get the unreduced selector
    family instead (the two are equivalent, which tests verify). Either
    family is checked against ``cap`` before any member is built.
    """
    if config.J0 == 0 or full:
        family = product(*product_family(config, cap=cap))
        return tuple(_selector_spec(tuple(z for (z,) in member)) for member in family)
    # every choice j against each non-base k != j
    if (config.J - 1) * (config.J - config.J0) > cap:
        raise CapacityError(f"family would hold more than {cap} inequalities")
    specs = []
    for j in range(config.J):
        for k in range(config.J0, config.J):
            if k == j:
                continue
            specs.append(
                InequalitySpec(
                    lhs=((k, j),), rhs=((0, j),), pair=(j, k), tag="pairwise-base"
                )
            )
    return tuple(specs)


def check(P: ObservedDistribution, cap: int = DEFAULT_FAMILY_CAP) -> CheckReport:
    """Decide the table against its sharp family exactly. The family is
    sharp, so a passing table is consistent with the model, not merely
    unrejected.

    Without a base state the selector family is never built:
    its largest left-hand side is the sum over choices of the largest
    p(z, j) on the targeted set, so the verdict and ``min_slack`` take
    O(J * |Z|). ``cap`` bounds the violations listed when the report's
    ``violations`` is read; more than ``cap`` raise CapacityError there.
    """
    config = P.config
    if config.J0:
        specs = generate(config)
        return CheckReport.from_slacks((s, s.slack(P)) for s in specs)
    # integer form: every p(z, j) scaled by the common denominator L
    scale = lcm(*(v.denominator for row in P.rows.values() for v in row))
    scaled = {
        z: [v.numerator * (scale // v.denominator) for v in row] for z, row in P.rows.items()
    }
    levels = [[(z, scaled[z][j]) for z in config.targeted_set(j)] for j in range(config.J)]
    # hi[j], lo[j]: the largest and smallest sum over choices j, j+1, ...
    hi, lo = [0], [0]
    for level in reversed(levels):
        values = [v for _, v in level]
        hi.append(hi[-1] + max(values))
        lo.append(lo[-1] + min(values))
    hi.reverse()
    lo.reverse()

    def list_violations() -> Violations:
        if _count_violated(levels, hi, lo, scale, cap) > cap:
            raise CapacityError(f"check would emit more than {cap} violations")
        return tuple(
            (_selector_spec(selector), Fraction(scale - total, scale))
            for selector, total in _violated_selectors(levels, hi, scale)
        )

    return CheckReport(
        passed=hi[0] <= scale,
        min_slack=Fraction(scale - hi[0], scale),
        list_violations=list_violations,
    )


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


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact table of P{Y=y, D=j | Z=z} over a finite outcome alphabet.

    ``cells`` maps z -> j -> {y: probability}; missing outcome keys are
    zero. Each z-slice sums to exactly 1.
    """

    config: DesignConfig
    y_support: tuple[int, ...]
    cells: Mapping[int, Mapping[int, Mapping[int, Fraction]]]
    pz: Mapping[int, Fraction] | None = None

    def __post_init__(self):
        ys = _outcome_support(self.y_support)
        object.__setattr__(self, "y_support", ys)
        yset = set(ys)
        clean: dict[int, dict[int, dict[int, Fraction]]] = {}
        for z in self.config.z_support:
            if z not in self.cells:
                raise ValueError(f"missing slice for instrument value {z}")
            slice_ = {j: {y: ZERO for y in ys} for j in range(self.config.J)}
            total = ZERO
            for j, by_y in self.cells[z].items():
                j = _as_int(j, "choice key")
                if not 0 <= j < self.config.J:
                    raise ValueError(f"choice {j} out of range at z={z}")
                for y, v in by_y.items():
                    y = _as_int(y, "outcome key")
                    if y not in yset:
                        raise ValueError(f"outcome {y} not in support at z={z}")
                    v = as_fraction(v)
                    if v < 0:
                        raise ValueError(f"negative probability at (z={z}, j={j}, y={y})")
                    slice_[j][y] = v
                    total += v
            if total != ONE:
                raise ValueError(f"slice for z={z} sums to {total}, not 1")
            clean[z] = slice_
        if len(self.cells) != len(clean):
            raise ValueError("cells contain instrument values outside the support")
        object.__setattr__(self, "cells", clean)
        object.__setattr__(self, "pz", _validate_pz(self.config, self.pz))

    def p(self, z: int, j: int, y: int) -> Fraction:
        self.config.z_index(z)
        return self.cells[z][j][y]

    def marginal(self) -> ObservedDistribution:
        """Collapse the outcome: p[z][j] = sum_y p[z][j][y]."""
        rows = {
            z: tuple(sum(self.cells[z][j].values(), ZERO) for j in range(self.config.J))
            for z in self.config.z_support
        }
        return ObservedDistribution(self.config, rows, pz=self.pz)


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
    specs = []
    for j in range(config.J0, config.J):
        for k in config.z_support:
            if k == j:
                continue
            for y in y_support:
                specs.append(
                    InequalitySpec(
                        lhs=((k, j, y),), rhs=((j, j, y),), pair=(j, k), tag="outcome-target"
                    )
                )
    if config.J0 > 0:
        for j in range(config.J):
            for k in range(config.J0, config.J):
                if k == j:
                    continue
                for y in y_support:
                    specs.append(
                        InequalitySpec(
                            lhs=((k, j, y),), rhs=((0, j, y),), pair=(j, k), tag="outcome-base"
                        )
                    )
    return tuple(specs)


def partition_reduction_spec(PY: OutcomeDistribution) -> InequalitySpec:
    """The most binding partition inequality for a no-base-state design:
    sum_j sum_y max over allowed z of p[z][j][y] <= 1. The maximizing
    cells form a valid partition tuple because the partition choice is
    free independently across choices and outcome values."""
    config = PY.config
    lhs = []
    for j in range(config.J):
        for y in PY.y_support:
            best = max(config.targeted_set(j), key=lambda z: (PY.p(z, j, y), -z))
            lhs.append((best, j, y))
    return InequalitySpec(lhs=tuple(lhs), bound=ONE, tag="partition-max")


def check_outcome(PY: OutcomeDistribution) -> CheckReport:
    """Full outcome check: the static pointwise family plus, without a
    base state, the partition reduction."""
    slacks = [(s, s.slack(PY)) for s in generate_outcome(PY.config, PY.y_support)]
    if PY.config.J0 == 0:
        spec = partition_reduction_spec(PY)
        slacks.append((spec, spec.slack(PY)))
    return CheckReport.from_slacks(slacks)


def partition_family_specs(
    config: DesignConfig, y_support, cap: int = DEFAULT_FAMILY_CAP
) -> tuple[InequalitySpec, ...]:
    """Every partition inequality as an explicit spec. ``stats.test_model``
    sums the same family through ``product_family`` without listing it;
    this listing is kept for the oracle tests and the benchmark tracer's
    span."""
    ys = tuple(y_support)
    per_choice = [
        [tuple((z, j, y) for z, y in zip(option, ys)) for option in options]
        for j, options in enumerate(product_family(config, len(ys), cap))
    ]
    return tuple(
        InequalitySpec(lhs=tuple(chain.from_iterable(combo)), bound=ONE, tag="partition")
        for combo in product(*per_choice)
    )
