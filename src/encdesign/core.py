"""Design configuration, the exact tables and measures, and the pushforwards.

Everything on this path is exact: probabilities are `fractions.Fraction`
and floats are rejected outright, so no value ever passes through binary
floating point. Decimal strings are converted from their decimal
representation ("0.3" becomes 3/10, not the nearest double).

Each table class decides, once, its integer form: ``scale``, the lcm L
of the cells' denominators, and ``scaled``, every cell times L. The
three exact oracles (check, witness, LP) read that form and import the
tables and measures from here, never from one another.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

# The shock families ``simulate`` draws from, kept here so that the CLI
# can offer them without loading numpy.
EPS_FAMILIES = ("gumbel", "normal", "uniform")


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Fraction, int, and strings ("2/3", "0.3", "1"). Floats are
    rejected: their binary representation silently changes the number.
    A string whose decimal exponent exceeds the interpreter's limit on
    the digits of an integer's text (``sys.get_int_max_str_digits()``,
    4300 by default; no bound where it is 0 or missing) is refused
    before ``Fraction`` builds that power of ten: it could not be printed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("probabilities must be Fraction, int, or string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = value.lower().partition("e")[2].strip()
        if exponent:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            digits = exponent[1:] if exponent[0] in "+-" else exponent
            digits = digits.replace("_", "").lstrip("0")
            # digits no longer than the limit's own text convert at once
            if limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
                raise ValueError(f"probability {value!r} needs more than {limit} digits")
        return Fraction(value)
    raise TypeError(
        f"probabilities must be Fraction, int, or string, not {type(value).__name__}"
    )


def _as_int(value, field: str) -> int:
    """``value`` as an int. operator.index takes exactly the integer types
    (numpy integers included); bool and everything else raise TypeError
    naming ``field``, where ``int()`` would truncate 0.9 to 0."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{field} must be an integer, got {type(value).__name__}")
    return operator.index(value)


def _as_ints(values, field: str) -> tuple[int, ...]:
    """``_as_int`` over a sequence. The common case, plain integers and no
    bool, runs in C: this check sits on every response type built."""
    values = tuple(values)
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    return tuple(_as_int(v, field) for v in values)


def _outcome_support(values) -> tuple[int, ...]:
    """An outcome support as a tuple of ints: nonempty, no duplicates."""
    ys = _as_ints(values, "outcome support value")
    if not ys:
        raise ValueError("outcome support must be nonempty")
    if len(set(ys)) != len(ys):
        raise ValueError("outcome support has duplicate values")
    return ys


@dataclass(frozen=True)
class DesignConfig:
    """The pair (J, J0) and the implied instrument support.

    J is the number of choices, J0 the number of choices the instrument
    never targets. With J0 = 0 every choice has its own instrument value
    and the support is {0, ..., J-1}; with J0 > 0 the support is
    {0, J0, ..., J-1} and value 0 is the base state that boosts nothing.
    ``base`` names that value: 0 with a base state, None without one.
    """

    J: int
    J0: int = 0

    def __post_init__(self):
        for field in ("J", "J0"):
            object.__setattr__(self, field, _as_int(getattr(self, field), field))
        if self.J < 2:
            raise ValueError(f"J must be at least 2, got {self.J}")
        if not 0 <= self.J0 <= self.J - 1:
            raise ValueError(f"J0 must satisfy 0 <= J0 <= J-1, got J0={self.J0}")

    @property
    def base(self) -> int | None:
        """The base state, the instrument value that targets no choice
        and at which every type takes its default: 0 when J0 > 0, None
        when every value targets a choice."""
        return 0 if self.J0 else None

    # Computed once per instance. cached_property writes the instance
    # __dict__ directly, past the frozen __setattr__; ==, hash and repr
    # read only (J, J0).
    @cached_property
    def z_support(self) -> tuple[int, ...]:
        return (() if self.base is None else (self.base,)) + tuple(range(self.J0, self.J))

    @cached_property
    def _z_positions(self) -> dict[int, int]:
        return {z: i for i, z in enumerate(self.z_support)}

    def z_index(self, z: int) -> int:
        """Position of instrument value z within the support."""
        try:
            return self._z_positions[z]
        except KeyError:
            raise ValueError(f"instrument value {z} not in support {self.z_support}") from None

    def targeted_set(self, j: int) -> tuple[int, ...]:
        """Instrument values allowed as z(j): the full support for an
        untargeted choice, the support minus j for a targeted one."""
        if not 0 <= j < self.J:
            raise ValueError(f"choice {j} out of range")
        if j < self.J0:
            return self.z_support
        return tuple(z for z in self.z_support if z != j)


@dataclass(frozen=True)
class ResponseType:
    """A vector of potential treatments, one entry per instrument value.

    Entries are positional: ``d[i]`` is the choice taken under the i-th
    value of the design's instrument support. Inadmissible vectors are
    representable on purpose; admissibility is a predicate, not a type
    invariant.
    """

    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", _as_ints(self.d, "response type entry"))

    def d_at(self, config: DesignConfig, z: int) -> int:
        return self.d[config.z_index(z)]

    def validate(self, config: DesignConfig) -> None:
        if len(self.d) != len(config.z_support):
            raise ValueError(
                f"response type has {len(self.d)} entries, "
                f"support has {len(config.z_support)}"
            )
        for v in self.d:
            if not 0 <= v < config.J:
                raise ValueError(f"treatment value {v} out of range for J={config.J}")


def _validate_pz(config: DesignConfig, pz) -> dict[int, Fraction] | None:
    if pz is None:
        return None
    out = {}
    for z in config.z_support:
        if z not in pz:
            raise ValueError(f"pz missing instrument value {z}")
        v = as_fraction(pz[z])
        if v <= 0:
            raise ValueError(f"pz[{z}] must be strictly positive, got {v}")
        out[z] = v
    if len(pz) != len(out):
        raise ValueError("pz has entries outside the instrument support")
    if sum(out.values()) != ONE:
        raise ValueError("pz must sum to exactly 1")
    return out


def _check_instrument_keys(config: DesignConfig, table: Mapping, item: str, items: str) -> None:
    """Refuse a table whose keys are not the instrument support. Called
    before any row or slice is read or padded, since each holds J (or
    J x |Y|) entries. The support is walked lazily, the base state and
    then range(J0, J), and its size is counted rather than listed, so a
    file of one row at a large J is refused without building anything
    of size J."""
    if config.base is not None and config.base not in table:
        raise ValueError(f"missing {item} for instrument value {config.base}")
    for z in range(config.J0, config.J):
        if z not in table:
            raise ValueError(f"missing {item} for instrument value {z}")
    if len(table) != config.J - config.J0 + (config.base is not None):
        raise ValueError(f"{items} contain instrument values outside the support")


def _integers(values) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the Fractions' denominators, and each value times L."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return scale, tuple(n * (scale // d) for n, d in ratios)


def _common_scale(parts: dict) -> tuple[int, dict]:
    """The lcm L of the scales of ``parts``, {z: (scale, integers)}, and
    each part's integers over L."""
    L = math.lcm(*(s for s, _ in parts.values()))
    return L, {z: ns if s == L else tuple(n * (L // s) for n in ns) for z, (s, ns) in parts.items()}


@dataclass(frozen=True)
class ObservedDistribution:
    """Conditional choice probabilities P{D=j | Z=z} as an exact table.

    ``rows`` maps each supported instrument value to a J-tuple of
    Fractions summing to exactly 1. No instrument marginal is kept: the
    testable implications constrain the conditionals only. ``scaled[z][j]``
    is ``scale`` * p(z, j), each row checked on its own integers first.
    """

    config: DesignConfig
    rows: Mapping[int, tuple[Fraction, ...]]
    scale: int = field(init=False, repr=False, compare=False)
    scaled: Mapping[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        config = self.config
        _check_instrument_keys(config, self.rows, "row", "rows")
        clean, parts = {}, {}
        for z in config.z_support:
            row = tuple(map(as_fraction, self.rows[z]))
            if len(row) != config.J:
                raise ValueError(f"row for z={z} must have {config.J} entries")
            parts[z] = scale, ints = _integers(row)
            if min(ints) < 0 or max(ints) > scale:
                v = next(v for v, n in zip(row, ints) if not 0 <= n <= scale)
                raise ValueError(f"probability {v} outside [0, 1] at z={z}")
            if sum(ints) != scale:
                raise ValueError(f"row for z={z} sums to {Fraction(sum(ints), scale)}, not 1")
            clean[z] = row
        scale, scaled = _common_scale(parts)
        object.__setattr__(self, "rows", clean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", scaled)

    def p(self, z: int, j: int) -> Fraction:
        self.config.z_index(z)
        # a row is a tuple, where a negative j would read from its end
        if not 0 <= j < self.config.J:
            raise ValueError(f"choice {j} out of range for J={self.config.J}")
        return self.rows[z][j]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact table of P{Y=y, D=j | Z=z} over a finite outcome alphabet.

    ``cells`` maps z -> j -> {y: probability}; missing outcome keys are
    zero. Each z-slice sums to exactly 1. As in ``ObservedDistribution``,
    ``scaled[z][j][y]`` is ``scale`` * p[z][j][y], the table's integer form.
    """

    config: DesignConfig
    y_support: tuple[int, ...]
    cells: Mapping[int, Mapping[int, Mapping[int, Fraction]]]
    scale: int = field(init=False, repr=False, compare=False)
    scaled: Mapping[int, Mapping[int, Mapping[int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ys = _outcome_support(self.y_support)
        object.__setattr__(self, "y_support", ys)
        yset = set(ys)
        _check_instrument_keys(self.config, self.cells, "slice", "cells")
        clean, parts = {}, {}
        for z in self.config.z_support:
            slice_ = {j: {y: ZERO for y in ys} for j in range(self.config.J)}
            for j, by_y in self.cells[z].items():
                j = _as_int(j, "choice key")
                if not 0 <= j < self.config.J:
                    raise ValueError(f"choice {j} out of range at z={z}")
                for y, v in by_y.items():
                    y = _as_int(y, "outcome key")
                    if y not in yset:
                        raise ValueError(f"outcome {y} not in support at z={z}")
                    v = as_fraction(v)
                    if v.numerator < 0:
                        raise ValueError(f"negative probability at (z={z}, j={j}, y={y})")
                    slice_[j][y] = v
            parts[z] = scale, ints = _integers([v for by_y in slice_.values() for v in by_y.values()])
            if sum(ints) != scale:
                raise ValueError(f"slice for z={z} sums to {Fraction(sum(ints), scale)}, not 1")
            clean[z] = slice_
        scale, flat = _common_scale(parts)
        n = len(ys)
        nested = {z: {j: dict(zip(ys, ns[j * n : j * n + n])) for j in clean[z]} for z, ns in flat.items()}
        object.__setattr__(self, "cells", clean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", nested)

    def p(self, z: int, j: int, y: int) -> Fraction:
        self.config.z_index(z)
        if not 0 <= j < self.config.J:
            raise ValueError(f"choice {j} out of range for J={self.config.J}")
        if y not in self.y_support:
            raise ValueError(f"outcome {y} not in support {self.y_support}")
        return self.cells[z][j][y]



@dataclass(frozen=True)
class ResponseMeasure:
    """An exact probability measure over admissible response types."""

    config: DesignConfig
    mass: Mapping[ResponseType, Fraction]

    def __post_init__(self):
        from .admissible import is_admissible

        clean: dict[ResponseType, Fraction] = {}
        for rt, m in self.mass.items():
            if not isinstance(rt, ResponseType):
                rt = ResponseType(tuple(rt))
            # is_admissible validates each distinct type, once
            old = clean.get(rt)
            if old is None and not is_admissible(self.config, rt):
                raise ValueError(f"response type {rt.d} is not admissible")
            m = as_fraction(m)
            if m < 0:
                raise ValueError(f"negative mass {m} on {rt.d}")
            clean[rt] = m if old is None else old + m
        scale, masses = _integers(clean.values())
        if sum(masses) != scale:
            raise ValueError(f"masses sum to {Fraction(sum(masses), scale)}, not 1")
        object.__setattr__(self, "mass", dict(sorted(clean.items(), key=lambda kv: kv[0].d)))

    def support(self) -> tuple[ResponseType, ...]:
        return tuple(rt for rt, m in self.mass.items() if m > 0)


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
        from .admissible import is_admissible

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
        scale, masses = _integers(masses)
        if sum(masses) != scale:
            raise ValueError(f"masses sum to {Fraction(sum(masses), scale)}, not 1")
        ordered = dict(sorted(clean.items(), key=lambda kv: (kv[0][0].d, kv[0][1])))
        object.__setattr__(self, "mass", ordered)


def pushforward(q: ResponseMeasure) -> ObservedDistribution:
    """The observed table induced by q through the observation map:
    p[z][j] = sum of q over response types with d_z = j, exactly."""
    config = q.config
    # sum the masses as integers over their common denominator, then make
    # one Fraction per cell
    scale, masses = _integers(q.mass.values())
    rows = [[0] * config.J for _ in config.z_support]
    for rt, n in zip(q.mass, masses):
        for row, j in zip(rows, rt.d):
            row[j] += n
    return ObservedDistribution(
        config,
        {z: tuple(Fraction(n, scale) for n in row) for z, row in zip(config.z_support, rows)},
    )


def pushforward_outcome(q: OutcomeResponseMeasure) -> OutcomeDistribution:
    """Observed outcome table induced by the measure: p[z][j][y] sums
    the mass with d_z = j and j-th outcome y, exactly."""
    config = q.config
    # as in pushforward: integer masses over their lcm, one Fraction per cell
    scale, masses = _integers(q.mass.values())
    slices = [{j: dict.fromkeys(q.y_support, 0) for j in range(config.J)} for _ in config.z_support]
    for (rt, yvec), n in zip(q.mass, masses):
        for slice_, j in zip(slices, rt.d):
            slice_[j][yvec[j]] += n
    cells = {
        z: {j: {y: Fraction(n, scale) for y, n in by_y.items()} for j, by_y in slice_.items()}
        for z, slice_ in zip(config.z_support, slices)
    }
    return OutcomeDistribution(config, q.y_support, cells)
