"""Sharp inequality families on exact probability tables.

Two families: selector inequalities (one conditional choice probability
per choice, summed, bounded by 1) for designs without a base state, and
the reduced pairwise family (no instrument value beats the base state)
when a base state exists. The outcome extension adds per-cell pointwise
dominance plus a partition inequality, with a literal brute-force
enumeration of all partitions kept as an independent oracle. Slacks are
rationals; no tolerance parameter exists in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Callable, Mapping

from .core import ONE, ZERO, DesignConfig, ObservedDistribution, as_fraction, _validate_pz
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


def selector_family_size(config: DesignConfig, cap: int = DEFAULT_FAMILY_CAP) -> int:
    """Number of selector tuples, prod_j |targeted_set(j)|; raises
    CapacityError when it exceeds ``cap``."""
    count = 1
    for j in range(config.J):
        count *= len(config.targeted_set(j))
    if count > cap:
        raise CapacityError(f"family would hold {count} inequalities, cap is {cap}")
    return count


def generate(
    config: DesignConfig, full: bool = False, cap: int = DEFAULT_FAMILY_CAP
) -> tuple[InequalitySpec, ...]:
    """The inequality family for a design.

    Without a base state: every selector tuple z(j), giving (J-1)^J
    inequalities of the form sum_j P{D=j | Z=z(j)} <= 1. With a base
    state the family reduces to P{D=j | Z=k} <= P{D=j | Z=0} over
    non-base k != j; pass ``full=True`` to get the unreduced selector
    family instead (the two are equivalent, which tests verify).
    """
    if config.J0 == 0 or full:
        selector_family_size(config, cap)
        specs = []
        for selector in product(*(config.targeted_set(j) for j in range(config.J))):
            lhs = tuple((selector[j], j) for j in range(config.J))
            specs.append(
                InequalitySpec(lhs=lhs, bound=ONE, selector=selector, tag="selector")
            )
        return tuple(specs)
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


def check(
    P: ObservedDistribution, full: bool = False, cap: int = DEFAULT_FAMILY_CAP
) -> CheckReport:
    """Decide the table against its sharp family exactly. The family is
    sharp, so a passing table is consistent with the model, not merely
    unrejected.

    The selector family (no base state, or ``full=True``) is never built:
    its largest left-hand side is the sum over choices of the largest
    p(z, j) on the targeted set, so the verdict and ``min_slack`` take
    O(J * |Z|). ``cap`` bounds the violations listed when the report's
    ``violations`` is read; more than ``cap`` raise CapacityError there.
    """
    config = P.config
    if config.J0 and not full:
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
            (
                InequalitySpec(
                    lhs=tuple((z, j) for j, z in enumerate(selector)),
                    bound=ONE,
                    selector=selector,
                    tag="selector",
                ),
                Fraction(scale - total, scale),
            )
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


def encouragement_specs(config: DesignConfig) -> tuple[InequalitySpec, ...]:
    """The implied pairwise form P{D=j | Z=k} <= P{D=j | Z=j} for every
    targeted choice j and other instrument value k."""
    specs = []
    for j in range(config.J0, config.J):
        for k in config.z_support:
            if k == j:
                continue
            specs.append(
                InequalitySpec(lhs=((k, j),), rhs=((j, j),), pair=(j, k), tag="encourage")
            )
    return tuple(specs)


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
        ys = tuple(int(y) for y in self.y_support)
        if not ys:
            raise ValueError("outcome support must be nonempty")
        if len(set(ys)) != len(ys):
            raise ValueError("outcome support has duplicate values")
        object.__setattr__(self, "y_support", ys)
        yset = set(ys)
        clean: dict[int, dict[int, dict[int, Fraction]]] = {}
        for z in self.config.z_support:
            if z not in self.cells:
                raise ValueError(f"missing slice for instrument value {z}")
            slice_ = {j: {y: ZERO for y in ys} for j in range(self.config.J)}
            total = ZERO
            for j, by_y in self.cells[z].items():
                j = int(j)
                if not 0 <= j < self.config.J:
                    raise ValueError(f"choice {j} out of range at z={z}")
                for y, v in by_y.items():
                    y = int(y)
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


def partition_check(PY: OutcomeDistribution) -> CheckReport:
    """The partition side of the outcome characterization on its own:
    the max-form reduction when there is no base state, the base
    dominance subfamily otherwise. Equivalent to brute-force partition
    enumeration, which tests verify."""
    if PY.config.J0 == 0:
        spec = partition_reduction_spec(PY)
        return CheckReport.from_slacks([(spec, spec.slack(PY))])
    specs = [s for s in generate_outcome(PY.config, PY.y_support) if s.tag == "outcome-base"]
    return CheckReport.from_slacks((s, s.slack(PY)) for s in specs)


def check_outcome(PY: OutcomeDistribution) -> CheckReport:
    """Full outcome check: the static pointwise family plus, without a
    base state, the partition reduction."""
    slacks = [(s, s.slack(PY)) for s in generate_outcome(PY.config, PY.y_support)]
    if PY.config.J0 == 0:
        spec = partition_reduction_spec(PY)
        slacks.append((spec, spec.slack(PY)))
    return CheckReport.from_slacks(slacks)


def brute_force_partition_check(
    PY: OutcomeDistribution, cap: int = DEFAULT_FAMILY_CAP
) -> bool:
    """Literal oracle: enumerate every tuple of partitions (each outcome
    value assigned to one allowed instrument value, independently per
    choice) and check the partition inequality for each one."""
    config = PY.config
    ys = PY.y_support
    per_choice_sums = []
    total = 1
    for j in range(config.J):
        zs = config.targeted_set(j)
        count = len(zs) ** len(ys)
        total *= count
        if total > cap:
            raise CapacityError(f"would enumerate {total}+ partition tuples, cap is {cap}")
        sums = []
        for assignment in product(zs, repeat=len(ys)):
            sums.append(sum((PY.p(z, j, y) for z, y in zip(assignment, ys)), ZERO))
        per_choice_sums.append(sums)
    for combo in product(*per_choice_sums):
        if sum(combo, ZERO) > ONE:
            return False
    return True


def partition_family_size(
    config: DesignConfig, y_support, cap: int = DEFAULT_FAMILY_CAP
) -> int:
    """Number of partition inequalities, prod_j |targeted_set(j)|^|Y|;
    raises CapacityError as soon as the running product exceeds ``cap``."""
    total = 1
    for j in range(config.J):
        total *= len(config.targeted_set(j)) ** len(y_support)
        if total > cap:
            raise CapacityError(f"would emit {total}+ inequalities, cap is {cap}")
    return total


def partition_family_specs(
    config: DesignConfig, y_support, cap: int = DEFAULT_FAMILY_CAP
) -> tuple[InequalitySpec, ...]:
    """Every partition inequality as an explicit spec; the finite moment
    family used by the statistical test when there is no base state."""
    ys = tuple(y_support)
    partition_family_size(config, ys, cap)
    per_choice = []
    for j in range(config.J):
        zs = config.targeted_set(j)
        per_choice.append(
            [tuple((z, j, y) for z, y in zip(a, ys)) for a in product(zs, repeat=len(ys))]
        )
    specs = []
    for combo in product(*per_choice):
        lhs = tuple(coord for part in combo for coord in part)
        specs.append(InequalitySpec(lhs=lhs, bound=ONE, tag="partition"))
    return tuple(specs)
