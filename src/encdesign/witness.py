"""Constructive sharpness: build an explicit witness measure from any
table that passes the inequality check.

The construction orders, for each target choice, the instrument values by
ascending choice probability and assigns the successive increments to
response types that comply with ever-larger prefixes of that ordering:
step s goes to the type complying with the first s - 1 values, so the
ordering fixes each step's type, and a type is built only where it is
reported. The remaining mass lands on full compliance. Run on an
infeasible table the same arithmetic produces a negative mass, which is
reported rather than clamped: the negative mass is itself the
diagnostic.

The outcome witness orders each (choice, outcome) cell once, and takes
its mixing weights from the tops of those same orderings. It runs on one
integer scale: every cell and mixing weight is an integer over a common
denominator, each completion of the unpinned outcomes carries a
precomputed integer weight, and each mass becomes a Fraction once, at
the end. The tables it reads and the measures it builds are ``core``'s;
it imports neither of the other two oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, NamedTuple

from .admissible import closed_form_count
from .core import (
    ZERO,
    DesignConfig,
    ObservedDistribution,
    OutcomeDistribution,
    OutcomeResponseMeasure,
    ResponseMeasure,
    ResponseType,
)
from .errors import CapacityError, ConstructionError

TABLE_CAP = 1_000_000


def instrument_ordering(config: DesignConfig, values: Mapping[int, Fraction], target: int) -> tuple[int, ...]:
    """Instrument values sorted by ascending coordinate value, ties by
    ascending instrument value, then the forced tail: the base state (if
    any), then the value targeting ``target`` (if the choice is
    targeted)."""
    base = config.base
    tail = (() if base is None else (base,)) + ((target,) if target >= config.J0 else ())
    others = sorted((z for z in config.z_support if z not in tail), key=lambda z: (values[z], z))
    return tuple(others) + tail


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
    base = config.base
    return ResponseType(tuple(default if z == base else z for z in config.z_support))


def _column_steps(config: DesignConfig, values: Mapping[int, int], target: int):
    """One column of the construction for target choice ``target``: the
    ordering of ``values`` (integers, one per instrument value), the
    increment of each step (step s at index s - 1, step 1 the base
    increment) and the top non-targeting value ``values[order[-2]]``.
    Step s's type is the one complying with ``order[: s - 1]``; no type
    is built here."""
    order = instrument_ordering(config, values, target)
    column = [values[z] for z in order[:-1]]
    increments = [v - below for below, v in zip([0] + column, column)]
    return order, increments, column[-1]


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


class TraceEntry(NamedTuple):
    """One assignment of the construction: its target, its step and its
    mass. The type it goes to is not stored; ``ConstructionTrace.rtype``
    derives it from the target's ordering."""

    target: int | None
    step: int | None  # None for a compliance remainder
    mass: Fraction

    @property
    def kind(self) -> str:
        """The entry's kind: "compliance" for a remainder, "base" for
        step 1 and "step" for the later steps."""
        if self.step is None:
            return "compliance"
        return "base" if self.step == 1 else "step"


@dataclass(frozen=True)
class ConstructionTrace:
    """The construction's arithmetic on one table: each target's
    instrument ordering and every entry, negative masses included. The
    ordering fixes each entry's type, so none is built until ``rtype``
    is asked for it."""

    config: DesignConfig
    orderings: Mapping[int, tuple[int, ...]]
    entries: tuple[TraceEntry, ...]

    @property
    def feasible(self) -> bool:
        """True iff no entry's mass is negative."""
        return all(e.mass >= 0 for e in self.entries)

    def rtype(self, entry: TraceEntry) -> ResponseType:
        """The type an entry's mass goes to: for step s of target j, the
        type complying with the first s - 1 values of j's ordering; for
        a remainder, full compliance with default its target (0 without
        a base state)."""
        if entry.step is None:
            return _compliance_type(self.config, 0 if entry.target is None else entry.target)
        prefix = self.orderings[entry.target][: entry.step - 1]
        return _type_with_prefix(self.config, entry.target, prefix)


def diagnose(P: ObservedDistribution) -> ConstructionTrace:
    """Run the construction arithmetic without failing: per-target
    orderings, every step mass (negative ones included), and the
    remainder, on the table's integer form: a mass is made a Fraction
    only where it is nonzero, and every zero mass is ZERO."""
    config = P.config
    scale, scaled = P.scale, P.scaled

    def mass(n):
        return Fraction(n, scale) if n else ZERO

    orderings: dict[int, tuple[int, ...]] = {}
    entries: list[TraceEntry] = []
    tops = []
    for j, column in enumerate(zip(*(scaled[z] for z in config.z_support))):
        orderings[j], increments, top = _column_steps(config, dict(zip(config.z_support, column)), j)
        entries.extend(TraceEntry(j, ell, mass(n)) for ell, n in enumerate(increments, 1))
        tops.append(top)
    if config.J0 == 0:
        entries.append(TraceEntry(None, None, mass(scale - sum(tops))))
    else:
        entries.extend(TraceEntry(j, None, mass(scaled[0][j] - tops[j])) for j in range(config.J0))
    return ConstructionTrace(config, orderings, tuple(entries))


def construct(P: ObservedDistribution) -> ResponseMeasure:
    """The explicit witness: a measure over admissible types whose
    pushforward reproduces P exactly. Raises ConstructionError naming the
    first negative assignment when P fails the inequality check. Zero
    entries are skipped first, so a type is built only for a nonzero mass."""
    trace = diagnose(P)
    mass: dict[ResponseType, Fraction] = {}
    for entry in trace.entries:
        if not entry.mass:
            continue
        rtype = trace.rtype(entry)
        if entry.mass < 0:
            raise _negative_assignment(rtype, entry.mass, entry.target, entry.step)
        if rtype in mass:
            raise RuntimeError(f"two assignments hit {rtype.d}; construction bug")
        mass[rtype] = entry.mass
    return ResponseMeasure(P.config, mass)


def _weighted_vectors(factors) -> list[tuple[tuple[int, ...], int]]:
    """Every vector of the product of the ``{value: integer weight}`` maps,
    in lexicographic order, with the product of its weights."""
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for factor in factors:
        out = [(vec + (y,), w * f) for vec, w in out for y, f in factor.items()]
    return out


def construct_outcome(PY: OutcomeDistribution) -> OutcomeResponseMeasure:
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
    A witness that could hold more than ``TABLE_CAP`` entries (one per
    admissible type and outcome vector) raises CapacityError first.
    """
    config = PY.config
    ys = PY.y_support
    n_types = closed_form_count(config)
    if n_types * len(ys) ** config.J > TABLE_CAP:
        raise CapacityError(
            f"witness table would hold up to {n_types * len(ys) ** config.J} entries, cap is {TABLE_CAP}"
        )
    # scale is L; cell[z][j][y] and every density below are integers over it
    scale, cell = PY.scale, PY.scaled
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
            order, increments, top = columns[j, y]
            for ell, inc in enumerate(increments, 1):
                if inc:  # a type only where mass may land
                    rtype = _type_with_prefix(config, j, order[: ell - 1])
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
