"""Constructive sharpness: build an explicit witness measure from any
table that passes the inequality check.

The construction orders, for each target choice, the instrument values by
ascending choice probability and assigns the successive increments to
response types that comply with ever-larger prefixes of that ordering.
The remaining mass lands on full compliance. Run on an infeasible table
the same arithmetic produces a negative mass, which is reported rather
than clamped: the negative mass is itself the diagnostic.

The outcome witness orders each (choice, outcome) cell once, and takes
its mixing weights from the tops of those same orderings. It runs on one
integer scale: every cell and mixing weight is an integer over a common
denominator, each completion of the unpinned outcomes carries a
precomputed integer weight, and each mass becomes a Fraction once, at
the end. ``OutcomeResponseMeasure`` checks each distinct response type
once, however many outcome vectors it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Mapping

from .admissible import closed_form_count, is_admissible
from .core import (
    ONE,
    ZERO,
    DesignConfig,
    ObservedDistribution,
    ResponseMeasure,
    ResponseType,
    _as_ints,
    _outcome_support,
    as_fraction,
)
from .errors import CapacityError, ConstructionError
from .inequalities import OutcomeDistribution

DEFAULT_TABLE_CAP = 1_000_000


def instrument_ordering(config: DesignConfig, values: Mapping[int, Fraction], target: int) -> tuple[int, ...]:
    """Instrument values sorted by ascending coordinate value with the
    forced placements: the targeting value (if any) last, and with a base
    state the base value last among the non-targeting slots. Remaining
    ties break by ascending instrument value."""
    if config.J0 == 0:
        others = sorted(
            (z for z in config.z_support if z != target),
            key=lambda z: (values[z], z),
        )
        return tuple(others) + (target,)
    others = sorted(
        (z for z in config.z_support if z != 0 and z != target),
        key=lambda z: (values[z], z),
    )
    if target >= config.J0:
        return tuple(others) + (0, target)
    return tuple(others) + (0,)


def _type_with_prefix(config: DesignConfig, target: int, prefix) -> ResponseType:
    """The type complying with every instrument value in the prefix and
    taking the target choice elsewhere."""
    d = [target] * len(config.z_support)
    for z in prefix:
        d[config.z_index(z)] = z
    return ResponseType(tuple(d))


def _compliance_type(config: DesignConfig, default: int) -> ResponseType:
    """Full compliance with default ``default``: at the base state (if
    any) the default, elsewhere the targeted choice."""
    if config.J0 == 0:
        return ResponseType(tuple(config.z_support))
    return ResponseType((default,) + tuple(range(config.J0, config.J)))


def _column_steps(config: DesignConfig, values: Mapping[int, Fraction], target: int):
    """One column of the construction for target choice ``target``: the
    ordering of ``values`` (one per instrument value), its steps as
    (step, response type, increment) with step 1 the base increment, and
    the top non-targeting value ``values[order[-2]]``."""
    order = instrument_ordering(config, values, target)
    steps = [(1, _type_with_prefix(config, target, ()), values[order[0]])]
    for ell in range(2, len(order)):
        rtype = _type_with_prefix(config, target, order[: ell - 1])
        steps.append((ell, rtype, values[order[ell - 1]] - values[order[ell - 2]]))
    return order, steps, values[order[-2]]


def _negative_assignment(rtype, mass, target, step, y=None) -> ConstructionError:
    """The error naming a negative assignment: a mass on a treatment
    table, a density at outcome ``y`` on an outcome table. ``step`` is
    None for a compliance remainder."""
    if step is not None:
        where = f"target {target}, step {step}"
    elif target is not None:
        where = f"compliance remainder (default {target})"
    else:
        where = "compliance remainder"
    what, table_check = "mass", "inequality"
    if y is not None:
        where, what, table_check = f"{where}, outcome {y}", "density", "outcome"
    return ConstructionError(
        f"construction assigns negative {what} {mass} to {rtype.d} "
        f"at {where}; the table violates the {table_check} check",
        target=target,
        step=step,
        mass=mass,
    )


@dataclass(frozen=True)
class TraceEntry:
    kind: str  # "base", "step", "compliance"
    target: int | None
    step: int | None
    rtype: ResponseType
    mass: Fraction


@dataclass(frozen=True)
class ConstructionTrace:
    orderings: Mapping[int, tuple[int, ...]]
    entries: tuple[TraceEntry, ...]
    feasible: bool


def diagnose(P: ObservedDistribution) -> ConstructionTrace:
    """Run the construction arithmetic without failing: per-target
    orderings, every step mass (negative ones included), and the
    remainder."""
    config = P.config
    orderings: dict[int, tuple[int, ...]] = {}
    entries: list[TraceEntry] = []
    top_values: dict[int, Fraction] = {}
    for j in range(config.J):
        column = {z: P.p(z, j) for z in config.z_support}
        orderings[j], steps, top_values[j] = _column_steps(config, column, j)
        for ell, rtype, mass in steps:
            entries.append(TraceEntry("base" if ell == 1 else "step", j, ell, rtype, mass))
    if config.J0 == 0:
        remainder = ONE - sum(top_values.values())
        entries.append(
            TraceEntry("compliance", None, None, _compliance_type(config, 0), remainder)
        )
    else:
        for j in range(config.J0):
            gap = P.p(0, j) - top_values[j]
            entries.append(
                TraceEntry("compliance", j, None, _compliance_type(config, j), gap)
            )
    feasible = all(e.mass >= 0 for e in entries)
    return ConstructionTrace(orderings, tuple(entries), feasible)


def construct(P: ObservedDistribution) -> ResponseMeasure:
    """The explicit witness: a measure over admissible types whose
    pushforward reproduces P exactly. Raises ConstructionError naming the
    first negative assignment when P fails the inequality check."""
    trace = diagnose(P)
    mass: dict[ResponseType, Fraction] = {}
    for entry in trace.entries:
        if entry.mass < 0:
            raise _negative_assignment(entry.rtype, entry.mass, entry.target, entry.step)
        if entry.rtype in mass:
            raise RuntimeError(f"two assignments hit {entry.rtype.d}; construction bug")
        mass[entry.rtype] = entry.mass
    return ResponseMeasure(P.config, {rt: m for rt, m in mass.items() if m > 0})


@dataclass(frozen=True)
class OutcomeResponseMeasure:
    """Exact measure over (response type, potential-outcome vector) pairs.

    The outcome vector has one entry per choice; only admissible response
    types may carry mass. Each distinct response type is validated once,
    however many outcome vectors it carries, and the masses are summed on
    the lcm of their denominators.
    """

    config: DesignConfig
    y_support: tuple[int, ...]
    mass: Mapping[tuple[ResponseType, tuple[int, ...]], Fraction]

    def __post_init__(self):
        config = self.config
        object.__setattr__(self, "y_support", _outcome_support(self.y_support))
        ys = frozenset(self.y_support)
        checked: set[ResponseType] = set()
        clean: dict[tuple[ResponseType, tuple[int, ...]], Fraction] = {}
        masses: list[Fraction] = []
        for (rt, yvec), m in self.mass.items():
            if not isinstance(rt, ResponseType):
                rt = ResponseType(tuple(rt))
            if rt not in checked:
                # is_admissible validates the type first
                if not is_admissible(config, rt):
                    raise ValueError(f"response type {rt.d} is not admissible")
                checked.add(rt)
            yvec = _as_ints(yvec, "outcome vector entry")
            if len(yvec) != config.J or not ys.issuperset(yvec):
                raise ValueError(f"outcome vector {yvec} invalid for support {self.y_support}")
            m = as_fraction(m)
            if m.numerator < 0:
                raise ValueError(f"negative mass on {(rt.d, yvec)}")
            if m.numerator:
                key = (rt, yvec)
                clean[key] = clean[key] + m if key in clean else m
            masses.append(m)
        scale = lcm(*(m.denominator for m in masses))
        total = sum(m.numerator * (scale // m.denominator) for m in masses)
        if total != scale:
            raise ValueError(f"masses sum to {Fraction(total, scale)}, not 1")
        ordered = dict(sorted(clean.items(), key=lambda kv: (kv[0][0].d, kv[0][1])))
        object.__setattr__(self, "mass", ordered)

    def type_marginal(self) -> ResponseMeasure:
        mass: dict[ResponseType, Fraction] = {}
        for (rt, _), m in self.mass.items():
            mass[rt] = mass.get(rt, ZERO) + m
        return ResponseMeasure(self.config, mass)


def pushforward_outcome(
    q: OutcomeResponseMeasure, pz: Mapping[int, Fraction] | None = None
) -> OutcomeDistribution:
    """Observed outcome table induced by the measure:
    p[z][j][y] accumulates mass with d_z = j and j-th outcome y."""
    config = q.config
    cells = {
        z: {j: {y: ZERO for y in q.y_support} for j in range(config.J)}
        for z in config.z_support
    }
    for (rt, yvec), m in q.mass.items():
        for i, z in enumerate(config.z_support):
            j = rt.d[i]
            cells[z][j][yvec[j]] += m
    return OutcomeDistribution(config, q.y_support, cells, pz=pz)


def _weighted_vectors(factors) -> list[tuple[tuple[int, ...], int]]:
    """Every vector of the product of the ``{value: integer weight}`` maps,
    in lexicographic order, with the product of its weights."""
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for factor in factors:
        out = [(vec + (y,), w * f) for vec, w in out for y, f in factor.items()]
    return out


def construct_outcome(
    PY: OutcomeDistribution, cap: int = DEFAULT_TABLE_CAP
) -> OutcomeResponseMeasure:
    """Build the outcome witness: its positive masses over (response
    type, outcome vector). Zero masses are not stored.

    Per target choice and outcome cell, instrument values are ordered by
    ascending cell probability (same forced placements as the no-outcome
    construction, but cell by cell, so the same step can feed different
    response types at different outcome values). Step increments pin the
    target's outcome coordinate; the other coordinates are filled with
    the product of the mixing weights. Each cell is ordered once: the
    weight of a targeted choice k at y is the gap between its targeting
    cell and the top of the (k, y) column, over the sum of the gaps, and
    uniform for an untargeted choice or when every gap is 0. A negative
    gap raises ConstructionError before any step runs.

    All of it runs on one integer scale. With L the lcm of the cell
    denominators and the weight of choice k at y written as
    ``num[k][y] / den[k]``, every mass is an integer over
    D = L * prod(den). The nonzero completions of a pinned choice j and
    outcome y, with their integer weights
    ``den[j] * prod(num[k][y_k] for k != j)``, are listed once, before the
    steps that share them, so a step only adds integer products; each
    mass becomes a Fraction once, at the end. A negative increment raises
    ConstructionError with its target, its step (numbered as in
    ``diagnose``; None for a compliance remainder) and its exact mass.
    """
    config = PY.config
    ys = PY.y_support
    n_types = closed_form_count(config)
    if n_types * len(ys) ** config.J > cap:
        raise CapacityError(
            f"witness table would hold up to {n_types * len(ys) ** config.J} entries, cap is {cap}"
        )
    # scale is L; cell[z][j][y] and every density below are integers over it
    scale = lcm(
        *(v.denominator for by_j in PY.cells.values() for by_y in by_j.values() for v in by_y.values())
    )
    cell = {
        z: {
            j: {y: v.numerator * (scale // v.denominator) for y, v in by_y.items()}
            for j, by_y in by_j.items()
        }
        for z, by_j in PY.cells.items()
    }
    columns = {}
    num = []
    for k in range(config.J):
        gaps = {}
        for y in ys:
            order, _, top = columns[k, y] = _column_steps(
                config, {z: cell[z][k][y] for z in config.z_support}, k
            )
            if k >= config.J0:
                gaps[y] = cell[k][k][y] - top
                if gaps[y] < 0:
                    gap = Fraction(gaps[y], scale)
                    raise ConstructionError(
                        f"mixing weight for choice {k} is negative ({gap}) at outcome "
                        f"{y}: instrument {order[-2]} beats the targeting value; the table "
                        f"violates the outcome check",
                        target=k,
                        mass=gap,
                    )
        # the nonzero gaps over their sum, or uniform when there are none
        num.append({y: g for y, g in gaps.items() if g} or dict.fromkeys(ys, 1))
    den = [sum(w.values()) for w in num]
    total_scale = scale * prod(den)
    acc: dict[ResponseType, dict[tuple[int, ...], int]] = {}

    def add(rtype, completions, density):
        bucket = acc.setdefault(rtype, {})
        for yvec, weight in completions:
            bucket[yvec] = bucket.get(yvec, 0) + density * weight

    def spread(rtype, completions, density, target, step, y):
        if density < 0:
            raise _negative_assignment(rtype, Fraction(density, scale), target, step, y)
        if density > 0:
            add(rtype, completions, density)

    top_sum = 0
    for j in range(config.J):
        factors = list(num)
        for y in ys:
            factors[j] = {y: den[j]}
            completions = _weighted_vectors(factors)
            _, steps, top = columns[j, y]
            for ell, rtype, inc in steps:
                spread(rtype, completions, inc, j, ell, y)
            if j < config.J0:
                spread(_compliance_type(config, j), completions, cell[0][j][y] - top, j, None, y)
            top_sum += top  # the remainder below needs it only without a base state
    if config.J0 == 0:
        remainder = scale - top_sum
        if remainder < 0:
            remainder = Fraction(remainder, scale)
            raise ConstructionError(
                f"construction assigns negative mass {remainder} to full compliance; "
                f"the table violates the outcome check",
                mass=remainder,
            )
        if remainder > 0:
            add(_compliance_type(config, 0), _weighted_vectors(num), remainder)
    mass = {
        (rtype, yvec): Fraction(n, total_scale)
        for rtype, bucket in acc.items()
        for yvec, n in bucket.items()
    }
    return OutcomeResponseMeasure(config, ys, mass)
