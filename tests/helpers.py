"""Deterministic random generators for exact tables and measures, the
slow reference implementations kept as oracles for the fast paths, and
the exponential or test-only definitions the package does not need:
brute-force partition enumeration, the implied encouragement form, the
partition check on its own, the paper's comparison restrictions (the
pairwise condition and the two published example designs), the
observation map, the treatment marginal of an outcome table, the type
marginal of an outcome witness, the convex mixture of two measures, the
writer of outcome table files and the reader of outcome witness
files."""

import csv
import dataclasses
import math
from fractions import Fraction
from functools import reduce
from itertools import groupby, product
from math import lcm
from operator import add, itemgetter
from random import Random

import numpy as np

from encdesign import kernels, lp, simulate
from encdesign.admissible import enumerate_admissible, is_admissible
from encdesign.cli import _design, _frac, _int_list, _ints, _keyed, _load_object
from encdesign.core import (
    ONE,
    ZERO,
    DesignConfig,
    ObservedDistribution,
    ResponseMeasure,
    ResponseType,
    as_fraction,
    pushforward,
)
from encdesign.errors import CapacityError, ConstructionError
from encdesign.inequalities import (
    FAMILY_CAP,
    CheckReport,
    InequalitySpec,
    OutcomeDistribution,
    generate,
    generate_outcome,
    partition_family_specs,
    partition_reduction_spec,
)
from encdesign.simulate import MicroData, Region, RegionMixture
from encdesign.stats import SE_FLOOR, EstimatedTables, TestReport, estimate
from encdesign.witness import (
    TABLE_CAP,
    OutcomeResponseMeasure,
    _compliance_type,
    _type_with_prefix,
    pushforward_outcome,
)


def random_measure(config: DesignConfig, rng: Random, max_weight: int = 8) -> ResponseMeasure:
    """Random exact measure supported on the admissible set."""
    types = enumerate_admissible(config)
    weights = [rng.randint(0, max_weight) for _ in types]
    while sum(weights) == 0:
        weights = [rng.randint(0, max_weight) for _ in types]
    total = sum(weights)
    return ResponseMeasure(
        config, {t: Fraction(w, total) for t, w in zip(types, weights) if w}
    )


def boundary_measure(config: DesignConfig, rng: Random) -> ResponseMeasure:
    """Random measure whose pushforward sits exactly on the boundary:
    one inequality holds with slack zero.

    Start from the canonical witness of a random feasible table, whose
    per-target step masses telescope to the binding probabilities, and
    strip its compliance remainders; renormalizing then ties the binding
    inequality at zero exactly.
    """
    from encdesign.witness import construct

    if config.J0 == 0:
        compliance = {tuple(config.z_support)}
    else:
        compliance = {
            (j,) + tuple(range(config.J0, config.J)) for j in range(config.J0)
        }
    while True:
        witness = construct(pushforward(random_measure(config, rng)))
        kept = {rt: m for rt, m in witness.mass.items() if rt.d not in compliance}
        total = sum(kept.values(), Fraction(0))
        if total > 0:
            return ResponseMeasure(config, {rt: m / total for rt, m in kept.items()})


def random_table(config: DesignConfig, rng: Random, max_weight: int = 6) -> ObservedDistribution:
    """Random exact row-stochastic table; usually infeasible."""
    rows = {}
    for z in config.z_support:
        weights = [rng.randint(0, max_weight) for _ in range(config.J)]
        while sum(weights) == 0:
            weights = [rng.randint(0, max_weight) for _ in range(config.J)]
        total = sum(weights)
        rows[z] = tuple(Fraction(w, total) for w in weights)
    return ObservedDistribution(config, rows)


def feasible_table(config: DesignConfig, rng: Random) -> ObservedDistribution:
    return pushforward(random_measure(config, rng))


def random_outcome_measure(
    config: DesignConfig, y_support, rng: Random, max_weight: int = 8
) -> OutcomeResponseMeasure:
    types = enumerate_admissible(config)
    keys = [(t, yv) for t in types for yv in product(y_support, repeat=config.J)]
    weights = [rng.randint(0, max_weight) for _ in keys]
    while sum(weights) == 0:
        weights = [rng.randint(0, max_weight) for _ in keys]
    total = sum(weights)
    return OutcomeResponseMeasure(
        config,
        tuple(y_support),
        {k: Fraction(w, total) for k, w in zip(keys, weights) if w},
    )


def sampled_outcome_table(
    config: DesignConfig, y_support, rng: Random, count: int
) -> OutcomeDistribution:
    """Pushforward of a measure on ``count`` drawn (type, outcome vector)
    pairs: each type is a default choice (the base state's choice when
    J0 > 0) with every other entry complying with probability 1/2, so
    nothing is enumerated."""
    zs = config.z_support
    mass = {}
    for _ in range(count):
        j = rng.randrange(config.J)
        d = tuple(
            j if (k == 0 and config.J0) or rng.random() < 0.5 else z for k, z in enumerate(zs)
        )
        key = (ResponseType(d), tuple(rng.choice(y_support) for _ in range(config.J)))
        mass[key] = mass.get(key, 0) + rng.randint(1, 20)
    total = sum(mass.values())
    measure = {key: Fraction(w, total) for key, w in mass.items()}
    return pushforward_outcome(OutcomeResponseMeasure(config, tuple(y_support), measure))


def feasible_outcome_table(config: DesignConfig, y_support, rng: Random) -> OutcomeDistribution:
    return pushforward_outcome(random_outcome_measure(config, y_support, rng))


def random_outcome_table(
    config: DesignConfig, y_support, rng: Random, max_weight: int = 6
) -> OutcomeDistribution:
    cells = {}
    for z in config.z_support:
        weights = [rng.randint(0, max_weight) for _ in range(config.J * len(y_support))]
        while sum(weights) == 0:
            weights = [rng.randint(0, max_weight) for _ in range(config.J * len(y_support))]
        total = sum(weights)
        it = iter(weights)
        cells[z] = {
            j: {y: Fraction(next(it), total) for y in y_support}
            for j in range(config.J)
        }
    return OutcomeDistribution(config, tuple(y_support), cells)


def targeted_outcome_table(
    config: DesignConfig, y_support, rng: Random, max_weight: int = 6, boost: int = 6
) -> OutcomeDistribution:
    """Random outcome table whose targeting cells (z = j) get ``boost``
    extra weight, so that it usually passes the mixing-weight check and,
    when infeasible, fails later: at a step, a compliance remainder or
    the full-compliance remainder."""
    cells = {}
    for z in config.z_support:
        weights = {
            (j, y): rng.randint(0, max_weight) + (boost if j == z and z >= config.J0 else 0)
            for j in range(config.J)
            for y in y_support
        }
        total = sum(weights.values())
        cells[z] = {
            j: {y: Fraction(weights[j, y], total) for y in y_support} for j in range(config.J)
        }
    return OutcomeDistribution(config, tuple(y_support), cells)


def phase_one_fraction(
    columns: list[list[int]], b: list[Fraction], m: int, pivots: list | None = None
) -> list[Fraction] | None:
    """Oracle for ``lp._phase_one``: the same phase-one simplex on a
    tableau of Fractions, normalized on every pivot. The column of least
    reduced cost enters, the first on a tie, and artificial columns only
    when no structural one is negative; of the rows tied at the least
    ratio, the one whose (right-hand side, basis inverse) row over its
    entering entry is lexicographically least leaves. Where no structural
    column is negative ``lp._phase_one`` stops, while this oracle goes on
    entering artificial columns until none is negative either; agreeing
    with it checks that stopping there loses no verdict and no
    certificate. Fails if a basis repeats. Appends to ``pivots``, when given, one pair per pivot: the
    number of rows tied at the least ratio and the set of basic columns
    after it (artificial column i is n + i)."""
    n = len(columns)
    width = n + m + 1
    tableau = []
    for i in range(m):
        row = [ZERO] * width
        row[n + i] = ONE
        row[-1] = b[i]
        tableau.append(row)
    for v, rows in enumerate(columns):
        for i in rows:
            tableau[i][v] = ONE
    # reduced costs for the artificial basis: -(column sums), value -(sum b)
    obj = [ZERO] * width
    for v, rows in enumerate(columns):
        obj[v] = -Fraction(len(rows))
    obj[-1] = -sum(b, ZERO)
    basis = list(range(n, n + m))
    seen = {frozenset(basis)}

    while True:
        enter = min(range(n), key=obj.__getitem__, default=None)
        if enter is None or obj[enter] >= 0:
            enter = min(range(n, n + m), key=obj.__getitem__)
            if obj[enter] >= 0:
                break
        rows = [i for i in range(m) if tableau[i][enter] > 0]
        if not rows:
            raise RuntimeError("phase-one objective unbounded; constraint bug")
        ratio = {i: tableau[i][-1] / tableau[i][enter] for i in rows}
        least = min(ratio.values())
        tied = [i for i in rows if ratio[i] == least]
        leave = min(
            tied, key=lambda i: [v / tableau[i][enter] for v in tableau[i][n : n + m]]
        )
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        prow = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * p for a, p in zip(obj, prow)]
        basis[leave] = enter
        assert frozenset(basis) not in seen, f"basis {sorted(basis)} repeats"
        seen.add(frozenset(basis))
        if pivots is not None:
            pivots.append((len(tied), frozenset(basis)))

    if obj[-1] != 0:
        return None
    x = [ZERO] * n
    for i, v in enumerate(basis):
        if v < n:
            x[v] = tableau[i][-1]
    return x


def phase_one_bland(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """Verdict oracle for ``lp._phase_one``: phase-one simplex with
    Bland's rule (the first negative column enters, ratio ties leave by
    the least basic column) on a tableau of Fractions. Its basis, and so
    its solution, may differ from the solver's; its verdict may not."""
    n = len(columns)
    width = n + m + 1
    tableau = []
    for i in range(m):
        row = [ZERO] * width
        row[n + i] = ONE
        row[-1] = b[i]
        tableau.append(row)
    for v, rows in enumerate(columns):
        for i in rows:
            tableau[i][v] = ONE
    # reduced costs for the artificial basis: -(column sums), value -(sum b)
    obj = [ZERO] * width
    for v, rows in enumerate(columns):
        obj[v] = -Fraction(len(rows))
    obj[-1] = -sum(b, ZERO)
    basis = list(range(n, n + m))

    while True:
        enter = next((c for c in range(n + m) if obj[c] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; constraint bug")
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        prow = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * p for a, p in zip(obj, prow)]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [ZERO] * n
    for i, v in enumerate(basis):
        if v < n:
            x[v] = tableau[i][-1]
    return x


def phase_one_scan(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """Oracle for ``lp._phase_one``: the explicit-column simplex it
    replaced, pricing every listed column on each pass.

    Feasibility of Ax = b, x >= 0 for a 0/1 matrix A given column-wise
    (columns[v] lists the rows where variable v has a 1) with b >= 0.

    Phase-one simplex: minimize the sum of one artificial variable per
    row. The column of least reduced cost enters, the first on a tie, and
    an artificial column only when no structural one is negative: where
    ``lp._phase_one`` stops, this oracle goes on until the artificial
    columns are nonnegative too, so agreeing with it checks that
    stopping early loses nothing. Of the rows tied at the least ratio,
    the one whose basis-inverse row over its entering entry is
    lexicographically least leaves. Returns the structural solution when
    the optimum is zero, None otherwise.

    The tableau holds integers: b is scaled by the common denominator L
    of its entries, and every row (objective included) is stored as D
    times the rational tableau row, where D is the previous pivot (the
    determinant of the current basis, always positive). A pivot on entry
    p rewrites every other row as (a*p - f*q) // D, an exact division
    (Bareiss 1968), keeps the pivot row and sets D = p. Because every row
    carries the same positive factor, the sign tests and the
    cross-multiplied comparisons are those of the rational tableau: the
    pivot sequence, the final basis and the solution are unchanged.

    Only the artificial columns (D times the basis inverse) and the
    right-hand side are stored. A structural column is the sum of the
    artificial columns of the rows it touches; its objective entry is that
    sum in the objective row less D per row.
    """
    n = len(columns)
    scale = lcm(*(v.denominator for v in b))
    # row i: the m artificial columns, then the scaled right-hand side
    tableau = [
        [int(i == k) for k in range(m)] + [v.numerator * (scale // v.denominator)]
        for i, v in enumerate(b)
    ]
    # objective row of the artificial basis: 0 on its columns, value -(sum b)
    obj = [0] * m + [-sum(row[-1] for row in tableau)]
    basis = list(range(n, n + m))
    det = 1

    def entry(row, v):
        return sum(map(row.__getitem__, columns[v])) if v < n else row[v - n]

    while True:
        priced = [a - det for a in obj[:m]]
        costs = [sum(map(priced.__getitem__, rows)) for rows in columns]
        enter = min(range(n), key=costs.__getitem__, default=None)
        if enter is None or costs[enter] >= 0:
            enter = n + min(range(m), key=obj.__getitem__)
            if obj[enter - n] >= 0:
                break
            f = obj[enter - n]
        else:
            f = costs[enter]
        coeffs = [entry(row, enter) for row in tableau]
        leave = None
        for i, coeff in enumerate(coeffs):
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # (rhs, artificial columns) of row i against the best row
                # so far, over the entering entry, cross-multiplied
                h = coeffs[leave]
                row, best = tableau[i], tableau[leave]
                here, there = next(
                    (x * h, y * coeff)
                    for x, y in zip(row[-1:] + row[:m], best[-1:] + best[:m])
                    if x * h != y * coeff
                )
                if here < there:
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; constraint bug")
        prow = tableau[leave]
        pivot = coeffs[leave]
        for i, g in enumerate(coeffs):
            if i == leave:
                continue
            if g:
                tableau[i] = [(a * pivot - g * q) // det for a, q in zip(tableau[i], prow)]
            elif pivot != det:
                tableau[i] = [a * pivot // det for a in tableau[i]]
        obj = [(a * pivot - f * q) // det for a, q in zip(obj, prow)]
        det = pivot
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [ZERO] * n
    for i, v in enumerate(basis):
        if v < n:
            x[v] = Fraction(tableau[i][-1], det * scale)
    return x


def _solve_table_by_scan(variables, coord_of_var, coords, rhs_of_coord, cap):
    """Shared feasibility driver: one equality per coordinate except the
    last one of each instrument slice (implied by the slice total), plus
    the normalization row. ``cap`` bounds the entries of the sparse
    columns: with its m x (m+1) basis inverse, they are what the solver
    stores."""
    kept = [c for c in coords if not c[-1]]
    m = len(kept) + 1
    row_index = {c[0]: i for i, c in enumerate(kept)}
    columns = []
    entries = 0
    for var in variables:
        rows = sorted(
            {row_index[c] for c in coord_of_var(var) if c in row_index}
        )
        rows.append(m - 1)  # normalization
        columns.append(rows)
        entries += len(rows)
        if entries > cap:
            raise CapacityError(
                f"LP columns would hold more than {cap} entries "
                f"({len(variables)} variables, {m} rows)"
            )
    b = [rhs_of_coord(c[0]) for c in kept] + [ONE]
    return phase_one_scan(columns, b, m)


def feasible_by_scan(
    P: ObservedDistribution, cap: int = 200_000
) -> tuple[bool, ResponseMeasure | None]:
    """Oracle for ``lp.feasible``: the LP over the enumerated admissible
    set, solved by ``phase_one_scan``."""
    config = P.config
    types = enumerate_admissible(config)
    coords = []
    for z in config.z_support:
        for j in range(config.J):
            coords.append(((z, j), j == config.J - 1))

    def coord_of_var(rt):
        return [(z, rt.d[i]) for i, z in enumerate(config.z_support)]

    x = _solve_table_by_scan(types, coord_of_var, coords, lambda c: P.p(*c), cap)
    if x is None:
        return False, None
    measure = ResponseMeasure(
        config, {rt: v for rt, v in zip(types, x) if v > 0}
    )
    return True, measure


def feasible_outcome_by_scan(PY: OutcomeDistribution, cap: int = 200_000) -> bool:
    """Oracle for ``lp.feasible_outcome``: one listed variable per
    (response type, outcome vector) pair, solved by ``phase_one_scan``."""
    config = PY.config
    ys = PY.y_support
    types = enumerate_admissible(config)
    variables = [
        (rt, yvec) for rt in types for yvec in product(ys, repeat=config.J)
    ]
    coords = []
    for z in config.z_support:
        cells = [(j, y) for j in range(config.J) for y in ys]
        for idx, (j, y) in enumerate(cells):
            coords.append(((z, j, y), idx == len(cells) - 1))

    def coord_of_var(var):
        rt, yvec = var
        out = []
        for i, z in enumerate(config.z_support):
            j = rt.d[i]
            out.append((z, j, yvec[j]))
        return out

    x = _solve_table_by_scan(variables, coord_of_var, coords, lambda c: PY.p(*c), cap)
    return x is not None


class ScanColumns:
    """Explicit columns for ``lp._phase_one``: column v is the row list
    ``columns[v]``, its key is v, and pricing scans every column."""

    def __init__(self, columns: list[list[int]]):
        self.columns = columns

    def rows(self, v: int) -> list[int]:
        return self.columns[v]

    def most_negative(self, priced: list[int]):
        costs = [sum(priced[r] for r in rows) for rows in self.columns]
        v = min(range(len(costs)), key=costs.__getitem__, default=None)
        return v if v is not None and costs[v] < 0 else None


def phase_one_columns(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """``lp._phase_one`` on explicit columns, with its solution spread
    into one value per column as ``phase_one_fraction`` returns it. It is
    the solver itself, so it stops where the solver does, as soon as no
    structural column is negative; ``phase_one_fraction`` and
    ``phase_one_scan`` go on entering artificial columns, and comparing
    it with them checks that stopping early loses nothing."""
    return solution_vector(lp._phase_one(ScanColumns(columns), b, m), range(len(columns)))


def solution_vector(solution: dict | None, keys) -> list[Fraction] | None:
    if solution is None:
        return None
    return [solution.get(key, ZERO) for key in keys]


def type_column_keys(columns) -> list:
    """Every column key of an ``lp._TypeColumns`` that the solver prices,
    in column order, listed from ``enumerate_admissible`` and
    ``itertools.product``: those whose cells (k, d_k * ny + u[d_k]) are
    none of ``columns.closed``. With no closed cell, every key."""
    types = enumerate_admissible(columns.config)
    ny, closed = columns.ny, columns.closed
    return [
        (rt.d, u)
        for rt in types
        for u in product(range(ny), repeat=columns.J)
        if not any((k, j * ny + u[j]) in closed for k, j in enumerate(rt.d))
    ]


def solved_by_lp(solver, table):
    """``solver`` (``lp.feasible`` or ``lp.feasible_outcome``) on
    ``table``, with the one ``lp._phase_one`` call it makes: returns
    (result, columns, b, m, solution)."""
    calls = []
    fast = lp._phase_one

    def recorded(columns, b, m):
        calls.append((columns, b, m, fast(columns, b, m)))
        return calls[-1][-1]

    lp._phase_one = recorded
    try:
        result = solver(table)
    finally:
        lp._phase_one = fast
    [(columns, b, m, solution)] = calls
    return result, columns, b, m, solution


def priced_tableau(columns, b, m, pivots: list | None = None):
    """``phase_one_fraction`` on the columns of an ``lp._TypeColumns``
    that the solver prices: returns their keys and the solution."""
    keys = type_column_keys(columns)
    return keys, phase_one_fraction([columns.rows(key) for key in keys], b, m, pivots)


def most_negative_by_scan(columns, priced: list[int]):
    """Oracle for ``_TypeColumns.most_negative``: the least (reduced cost,
    key) over the listed keys, None if that cost is not negative."""
    cost, key = min(
        (sum(priced[r] for r in columns.rows(key)), key) for key in type_column_keys(columns)
    )
    return key if cost < 0 else None


def admissible_by_filter(config: DesignConfig) -> tuple[ResponseType, ...]:
    """Oracle for ``enumerate_admissible``: filter all J^|Z| candidate
    vectors through ``is_admissible``, in lexicographic order."""
    m = len(config.z_support)
    return tuple(
        rt
        for d in product(range(config.J), repeat=m)
        if is_admissible(config, rt := ResponseType(d))
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


def observation_map(config: DesignConfig, rt: ResponseType, z: int) -> int:
    """The map T: observed treatment when the instrument lands on z."""
    rt.validate(config)
    return rt.d_at(config, z)


def marginal(PY: OutcomeDistribution) -> ObservedDistribution:
    """Collapse the outcome: p[z][j] = sum_y p[z][j][y]."""
    rows = {
        z: tuple(sum(PY.cells[z][j].values(), ZERO) for j in range(PY.config.J))
        for z in PY.config.z_support
    }
    return ObservedDistribution(PY.config, rows)


def outcome_table_doc(PY: OutcomeDistribution) -> dict:
    """The file form of an outcome table, as the exact commands read it."""
    return {
        "J": PY.config.J,
        "J0": PY.config.J0,
        "y_support": list(PY.y_support),
        "p": {
            str(z): {
                str(j): {str(y): str(PY.p(z, j, y)) for y in PY.y_support}
                for j in range(PY.config.J)
            }
            for z in PY.config.z_support
        },
    }


def type_marginal(q: OutcomeResponseMeasure) -> ResponseMeasure:
    """The witness's marginal over response types."""
    mass: dict[ResponseType, Fraction] = {}
    for (rt, _), m in q.mass.items():
        mass[rt] = mass.get(rt, ZERO) + m
    return ResponseMeasure(q.config, mass)


def z_support_by_fork(config: DesignConfig) -> tuple[int, ...]:
    """Oracle for ``DesignConfig.z_support``: the support built on each
    side of a fork on J0."""
    if config.J0 == 0:
        return tuple(range(config.J))
    return (0,) + tuple(range(config.J0, config.J))


def z_index_by_fork(config: DesignConfig, z: int) -> int:
    """Oracle for ``DesignConfig.z_index``: the position of z computed by
    range tests on each side of a fork on J0, with the same error."""
    if config.J0 == 0:
        if 0 <= z < config.J:
            return z
    elif z == 0:
        return 0
    elif config.J0 <= z < config.J:
        return z - config.J0 + 1
    raise ValueError(f"instrument value {z} not in support {z_support_by_fork(config)}")


def check_by_family(P: ObservedDistribution, full: bool = False) -> CheckReport:
    """Oracle for ``inequalities.check``: build the whole family and
    evaluate the slack of every inequality in it."""
    specs = generate(P.config, full=full)
    return CheckReport.from_slacks((s, s.slack(P)) for s in specs)


def brute_force_partition_check(
    PY: OutcomeDistribution, cap: int = FAMILY_CAP
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


def encouragement_specs(config: DesignConfig) -> tuple[InequalitySpec, ...]:
    """The implied pairwise form P{D=j | Z=k} <= P{D=j | Z=j} for every
    targeted choice j and other instrument value k."""
    specs = []
    for j in range(config.J0, config.J):
        for k in config.z_support:
            if k == j:
                continue
            specs.append(InequalitySpec(lhs=((k, j),), rhs=((j, j),), tag="encourage"))
    return tuple(specs)


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


def mix(
    lam: Fraction, q1: ResponseMeasure, q2: ResponseMeasure
) -> ResponseMeasure:
    """Convex combination lam*q1 + (1-lam)*q2 of two measures."""
    lam = as_fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("mixing weight must lie in [0, 1]")
    if q1.config != q2.config:
        raise ValueError("measures built on different designs")
    mass: dict[ResponseType, Fraction] = {}
    for rt, m in q1.mass.items():
        mass[rt] = mass.get(rt, ZERO) + lam * m
    for rt, m in q2.mass.items():
        mass[rt] = mass.get(rt, ZERO) + (ONE - lam) * m
    return ResponseMeasure(q1.config, mass)


def region_points_by_box_rejection(
    mix: RegionMixture,
    region: Region,
    want: int,
    rng: np.random.Generator,
    min_acceptance: float = 1e-6,
) -> np.ndarray:
    """Monte Carlo oracle for the region certificate in
    ``verify_mixture``: ``want`` shocks uniform in region ∩ box, drawn
    uniformly from the whole box [-M, M]^J and kept when they satisfy
    every region constraint. Tied rows are dropped, and a kept row of
    another type raises a RuntimeError naming it; returns the points it
    accepted."""
    config = mix.config
    z_support = np.asarray(config.z_support, dtype=np.int64)
    betas = np.asarray(mix.betas, dtype=np.float64)
    points = []
    lhs = np.asarray(region.lhs, dtype=np.int64)
    rhs = np.asarray(region.rhs, dtype=np.int64)
    offs = np.asarray(region.offsets, dtype=np.float64)
    got = 0
    proposed = 0
    batch = max(4096, 2 * want)
    while got < want:
        eps = rng.uniform(-mix.M, mix.M, size=(batch, config.J))
        proposed += batch
        mask = kernels.region_accept(eps, lhs, rhs, offs)
        accepted = eps[mask][: want - got]
        if len(accepted):
            codes, ties = kernels.potential_type_codes(
                np.ascontiguousarray(accepted), betas, z_support
            )
            if ties.any():
                keep = ~ties
                codes = codes[keep]
                accepted = accepted[keep]
            for row in codes:
                rt = ResponseType(tuple(int(v) for v in row))
                if rt != region.rtype:
                    raise RuntimeError(
                        f"region for {region.rtype.d} produced {rt.d}; region bug"
                    )
            got += len(codes)
            points.append(accepted)
        if proposed > 1e6 and got / proposed < min_acceptance:
            raise RuntimeError(
                f"rejection acceptance rate below {min_acceptance} for region "
                f"{region.rtype.d}; adjust the bounding box"
            )
    return np.concatenate(points)


def region_accept_by_rows(eps, lhs, rhs, offsets):
    """Oracle for ``kernels.region_accept``: each constraint tested on the
    strided ``eps[:, j]`` columns of the row-major (n, J) array."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    lhs = np.ascontiguousarray(lhs, dtype=np.int64)
    rhs = np.ascontiguousarray(rhs, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    mask = np.ones(eps.shape[0], dtype=bool)
    for a, b, c in zip(lhs, rhs, offsets):
        mask &= eps[:, a] + c > eps[:, b]
    return mask


def potential_type_codes_by_argmax(eps, betas, z_targets):
    """Oracle for ``kernels.potential_type_codes``: one boosted n x J copy
    per instrument value, ``argmax(axis=1)`` for the code and a row sum
    of equalities with the top for the tie mask."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    z_targets = np.ascontiguousarray(z_targets, dtype=np.int64)
    n = eps.shape[0]
    d = np.empty((n, len(z_targets)), dtype=np.int64)
    ties = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    for t, z in enumerate(z_targets):
        util = eps.copy()
        util[:, z] += betas[z]
        arg = util.argmax(axis=1)
        d[:, t] = arg
        top = util[rows, arg]
        ties |= (util == top[:, None]).sum(axis=1) > 1
    return d, ties


def potential_type_codes_by_rows(eps, betas, z_targets) -> tuple[list[list[int]], list[bool]]:
    """Oracle for ``kernels.potential_type_codes``: the per-row loop of the
    former compiled kernel, in pure Python. Under each instrument value z
    the utility of choice j is eps[i][j], plus betas[z] when j == z; the
    code is the first index attaining the maximum, and a row is tied when
    the final maximum under some z is attained twice."""
    codes, ties = [], []
    for row in eps:
        row_codes, tied_row = [], False
        for z in z_targets:
            best = float(row[0]) + (float(betas[0]) if z == 0 else 0.0)
            arg, tied = 0, False
            for j in range(1, len(row)):
                u = float(row[j])
                if j == z:
                    u = u + float(betas[j])
                if u > best:
                    best, arg, tied = u, j, False
                elif u == best:
                    tied = True
            row_codes.append(arg)
            tied_row = tied_row or tied
        codes.append(row_codes)
        ties.append(tied_row)
    return codes, ties


def _codes_for_whole_chunk(eps, betas, z_support, rng, redraw) -> np.ndarray:
    """Kernel call with tie resampling: tied rows get fresh shocks from
    the same stream until none remain."""
    codes, ties = simulate.kernels.potential_type_codes(eps, betas, z_support)
    while ties.any():
        idx = np.flatnonzero(ties)
        eps[idx] = redraw(rng, len(idx))
        sub_codes, sub_ties = simulate.kernels.potential_type_codes(eps[idx], betas, z_support)
        codes[idx] = sub_codes
        ties[idx] = sub_ties
    return codes


def simulate_by_chunks(spec: simulate.RumSpec) -> simulate.SimulationResult:
    """``simulate.simulate`` drawing each chunk's shocks and uniforms in
    one call each: whole-chunk (k, J) shocks through the kernel at once
    and ``searchsorted`` for the instrument positions. Shocks come from
    ``simulate._draw_eps``, looked up at each call."""
    config = spec.config
    z_support = np.asarray(config.z_support, dtype=np.int64)
    betas = np.asarray(spec.betas, dtype=np.float64)
    cum = np.cumsum([float(spec.pz[z]) for z in config.z_support])
    cum[-1] = 1.0

    d_out = np.empty(spec.n, dtype=np.int64)
    z_out = np.empty(spec.n, dtype=np.int64)
    type_counts: dict[ResponseType, int] = {}
    m = len(z_support)
    code_dtype = np.int64 if config.J**m <= 2**63 else object
    code_weights = np.array([config.J ** (m - 1 - i) for i in range(m)], dtype=code_dtype)
    counts = np.zeros(m * config.J, dtype=np.int64)
    filled = 0
    chunk_index = 0
    while filled < spec.n:
        k = min(simulate.CHUNK_SIZE, spec.n - filled)
        rng = simulate._chunk_rng(spec.seed, chunk_index)
        eps = simulate._draw_eps(rng, k, spec)
        zidx = np.searchsorted(cum, rng.random(k), side="right")
        codes = _codes_for_whole_chunk(
            eps, betas, z_support, rng, lambda r, c: simulate._draw_eps(r, c, spec)
        )
        packed = codes @ code_weights
        for code, count in zip(*np.unique(packed, return_counts=True)):
            digits = []
            v = int(code)
            for _ in range(m):
                digits.append(v % config.J)
                v //= config.J
            rt = ResponseType(tuple(reversed(digits)))
            if not is_admissible(config, rt):
                raise RuntimeError(f"realized type {rt.d} not admissible; model bug")
            type_counts[rt] = type_counts.get(rt, 0) + int(count)
        d_out[filled : filled + k] = codes[np.arange(k), zidx]
        z_out[filled : filled + k] = z_support[zidx]
        counts += np.bincount(zidx * config.J + d_out[filled : filled + k], minlength=m * config.J)
        filled += k
        chunk_index += 1

    rows = {}
    for z, arm in zip(config.z_support, counts.reshape(m, config.J).tolist()):
        size = sum(arm)
        if size == 0:
            raise ValueError(f"no draws landed on instrument value {z}; increase n")
        rows[z] = tuple(Fraction(c, size) for c in arm)
    table = ObservedDistribution(config, rows)
    ordered = dict(sorted(type_counts.items(), key=lambda kv: kv[0].d))
    return simulate.SimulationResult(MicroData(d_out, z_out), table, ordered)


def estimate_by_rows(data: MicroData, config: DesignConfig) -> EstimatedTables:
    """Oracle for ``stats.estimate``: outcome cells counted one (d, y)
    row at a time."""
    d = np.asarray(data.d)
    z = np.asarray(data.z)
    bad_d = np.flatnonzero((d < 0) | (d >= config.J))
    if len(bad_d):
        i = int(bad_d[0])
        raise ValueError(f"row {i}: treatment {d[i]} out of range for J={config.J}")
    z_ok = np.zeros(len(z), dtype=bool)
    for zv in config.z_support:
        z_ok |= z == zv
    bad_z = np.flatnonzero(~z_ok)
    if len(bad_z):
        i = int(bad_z[0])
        raise ValueError(f"row {i}: instrument {z[i]} not in support {config.z_support}")
    ys = None
    if data.y is not None:
        ys = tuple(int(v) for v in np.unique(data.y))
    arm_counts = {}
    cells = {}
    for zv in config.z_support:
        arm = z == zv
        n_z = int(arm.sum())
        if n_z == 0:
            raise ValueError(f"no rows with instrument value {zv}")
        arm_counts[zv] = n_z
        if ys is None:
            cells[zv] = np.bincount(d[arm], minlength=config.J).astype(float)
        else:
            mat = np.zeros((config.J, len(ys)), dtype=float)
            y_index = {v: i for i, v in enumerate(ys)}
            for dv, yv in zip(d[arm], data.y[arm]):
                mat[dv, y_index[int(yv)]] += 1
            cells[zv] = mat
    return EstimatedTables(arm_counts, cells, ys)


def _moment_family(config, y_support):
    if y_support is None:
        return generate(config)
    specs = list(generate_outcome(config, y_support))
    if config.J0 == 0:
        specs.extend(partition_family_specs(config, y_support))
    return tuple(specs)


def p_hat(est: EstimatedTables, z, j, y=None) -> float:
    """One estimated cell frequency, its outcome column found by a scan
    of ``y_support``: the accessor ``test_model`` called once per cell
    before it divided each arm's counts in one pass."""
    cell = est.cells[z][j] if y is None else est.cells[z][j, est.y_support.index(y)]
    return float(cell) / est.arm_counts[z]


def _cell_coords(est: EstimatedTables, config: DesignConfig) -> list:
    """Every cell, (z, j) or (z, j, y), in the order ``test_model`` lays
    out its cell vector."""
    tails = [()] if est.y_support is None else [(y,) for y in est.y_support]
    return [(z, j, *t) for z in config.z_support for j in range(config.J) for t in tails]


def _bootstrap_draws(est: EstimatedTables, config: DesignConfig, B: int, seed: int):
    """The recentred per-cell multiplier sums G (B x cells) and each
    cell's column. The moments depend on the data only through per-cell
    multiplier sums, which are independent N(0, count) across cells, so
    those sums are drawn directly."""
    coords = _cell_coords(est, config)
    p_vec = np.array([p_hat(est, *c) for c in coords])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    S = rng.normal(size=(B, len(coords))) * np.sqrt(p_vec * arm_n[arm_of])
    G = np.empty_like(S)
    for a in range(len(arm_n)):
        sel = arm_of == a
        arm_total = S[:, sel].sum(axis=1, keepdims=True)
        G[:, sel] = (S[:, sel] - p_vec[sel] * arm_total) / arm_n[a]
    return G, {c: i for i, c in enumerate(coords)}


def _report(est, config, violations, se, floored, statistic, t_star, alpha, B, seed) -> TestReport:
    """The report of a test from its moments and bootstrap maxima; the
    binding moment is the first to attain the statistic."""
    k = min(B - 1, max(0, math.ceil((1 - alpha) * (B + 1)) - 1))
    critical = float(np.sort(t_star)[k])
    p_value = float((1 + (t_star >= statistic).sum()) / (B + 1))
    p_hat_out: dict = {}
    for z in config.z_support:
        if est.y_support is None:
            p_hat_out[str(z)] = [p_hat(est, z, j) for j in range(config.J)]
        else:
            p_hat_out[str(z)] = {
                str(j): {str(y): p_hat(est, z, j, y) for y in est.y_support}
                for j in range(config.J)
            }
    return TestReport(
        arm_counts=dict(est.arm_counts),
        p_hat=p_hat_out,
        slacks=-violations,
        standard_errors=se,
        floored=floored,
        statistic=statistic,
        binding=int(np.argmax(violations / se)),
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        alpha=alpha,
        B=B,
        seed=seed,
    )


def test_model_by_family(
    data: MicroData,
    config: DesignConfig,
    alpha: float = 0.05,
    B: int = 999,
    seed: int = 0,
) -> TestReport:
    """Reference for ``stats.test_model``, up to the last bits of its sums:
    every moment built as an ``InequalitySpec``, the dense weight matrix W
    (moments x cells) filled spec by spec, and the bootstrap maximum taken
    over the whole B x moments matrix ``G @ W.T`` at once. BLAS groups
    the sums of W @ p and G @ W.T; ``test_model`` printed these bits
    until it summed each moment per choice."""
    if B < 99:
        raise ValueError("need at least 99 bootstrap replications")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    est = estimate(data, config)
    specs = _moment_family(config, est.y_support)

    # each spec becomes a weight vector, so the moment is w . p_hat - bound
    coords = _cell_coords(est, config)
    index = {c: i for i, c in enumerate(coords)}
    p_vec = np.array([p_hat(est, *c) for c in coords])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    W = np.zeros((len(specs), len(coords)))
    bounds = np.zeros(len(specs))
    for i, spec in enumerate(specs):
        for c in spec.lhs:
            W[i, index[c]] += 1.0
        for c in spec.rhs:
            W[i, index[c]] -= 1.0
        bounds[i] = float(spec.bound)

    violations = W @ p_vec - bounds
    variances = np.zeros(len(specs))
    for a in range(len(arm_n)):
        sel = arm_of == a
        wp = W[:, sel] * p_vec[sel]
        variances += ((W[:, sel] ** 2 * p_vec[sel]).sum(axis=1) - wp.sum(axis=1) ** 2) / arm_n[a]
    se = np.sqrt(np.maximum(variances, 0.0))
    floored = se < SE_FLOOR
    se = np.maximum(se, SE_FLOOR)
    statistic = float(np.max(violations / se))

    G, _ = _bootstrap_draws(est, config, B, seed)
    t_star = ((G @ W.T) / se).max(axis=1)
    return _report(est, config, violations, se, floored, statistic, t_star, alpha, B, seed)


def _side_sum(cells, value):
    """One side of a spec in the order ``stats.test_model`` documents: the
    cells of each choice added in outcome order, then the choice sums
    added left to right."""
    return reduce(add, (reduce(add, map(value, group)) for _, group in groupby(cells, itemgetter(1))))


def _spec_sum(spec: InequalitySpec, value):
    """Sum of a spec's lhs cells minus the sum of its rhs cells."""
    total = _side_sum(spec.lhs, value)
    return total - _side_sum(spec.rhs, value) if spec.rhs else total


def test_model_by_specs(
    data: MicroData,
    config: DesignConfig,
    alpha: float = 0.05,
    B: int = 999,
    seed: int = 0,
) -> TestReport:
    """Exact oracle for ``stats.test_model``: every moment built as an
    ``InequalitySpec`` and evaluated on its own in the documented order.
    Its slack is the spec's sum minus its bound; per arm a, q_a adds
    |w| p and s_a adds w p over the spec's cells in arm a (0.0 for the
    others), and the variance adds (q_a - s_a^2)/n_a arm by arm from 0.0;
    its bootstrap sums take the same order over G's columns."""
    if B < 99:
        raise ValueError("need at least 99 bootstrap replications")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    est = estimate(data, config)
    specs = _moment_family(config, est.y_support)
    p = {c: p_hat(est, *c) for c in _cell_coords(est, config)}
    arm_n = [float(est.arm_counts[z]) for z in config.z_support]

    violations = np.array([_spec_sum(spec, p.__getitem__) - float(spec.bound) for spec in specs])
    se = np.empty(len(specs))
    for i, spec in enumerate(specs):
        variance = 0.0
        for z, n_z in zip(config.z_support, arm_n):
            def value(c):
                return p[c] if c[0] == z else 0.0

            q = reduce(add, (_side_sum(side, value) for side in (spec.lhs, spec.rhs) if side))
            s = _spec_sum(spec, value)
            variance = variance + (q - s * s) / n_z
        se[i] = math.sqrt(max(variance, 0.0))
    floored = se < SE_FLOOR
    se = np.maximum(se, SE_FLOOR)
    statistic = float(np.max(violations / se))

    G, index = _bootstrap_draws(est, config, B, seed)
    t_star = np.full(B, -np.inf)
    for spec, e in zip(specs, se):
        t_star = np.maximum(t_star, _spec_sum(spec, lambda c: G[:, index[c]]) / e)
    return _report(est, config, violations, se, floored, statistic, t_star, alpha, B, seed)


def assert_same_report(got: TestReport, want: TestReport) -> None:
    """Assert that two test reports agree field by field: the moment
    arrays in dtype, shape and bytes, every other field by ``==``."""
    for field in dataclasses.fields(TestReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def report_doc_by_fields(report: TestReport) -> dict:
    """Oracle for ``TestReport.to_dict``: every field of the report under
    its own name, the arm counts keyed by text and the moment arrays as
    lists, less ``binding``, which only the summary prints. ``encdesign
    test`` printed this document by default until it printed a summary,
    and prints it with ``--moments``."""
    doc = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(TestReport)
        if field.name != "binding"
    }
    doc["arm_counts"] = {str(z): n for z, n in report.arm_counts.items()}
    for name in ("slacks", "standard_errors", "floored"):
        doc[name] = doc[name].tolist()
    return doc


def read_csv_rows(path: str, want_y: bool) -> simulate.MicroData:
    """Oracle for ``cli.read_csv``: every row parsed by ``csv.DictReader``
    and ``int``, errors (including values outside int64) indexed by row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "d" not in reader.fieldnames or "z" not in reader.fieldnames:
            raise ValueError("data file needs a header with at least columns d and z")
        if want_y and "y" not in reader.fieldnames:
            raise ValueError("outcome test requested but the data file has no y column")
        d, z, y = [], [], []
        for i, row in enumerate(reader):
            try:
                d.append(int(row["d"]))
                z.append(int(row["z"]))
                if want_y:
                    y.append(int(row["y"]))
                for name, v in zip("dzy", (d[-1], z[-1], y[-1] if want_y else 0)):
                    if not -(2**63) <= v < 2**63:
                        raise ValueError(f"{name}={v} is outside the int64 range")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"row {i}: {exc}") from exc
    return simulate.MicroData(
        np.array(d, dtype=np.int64),
        np.array(z, dtype=np.int64),
        np.array(y, dtype=np.int64) if want_y else None,
    )


def write_csv_rows(data: simulate.MicroData, path: str) -> None:
    """Oracle for ``cli.write_csv``: one ``csv.writer`` row per record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if data.y is not None:
            writer.writerow(["y", "d", "z"])
            for y, d, z in zip(data.y, data.d, data.z):
                writer.writerow([int(y), int(d), int(z)])
        else:
            writer.writerow(["d", "z"])
            for d, z in zip(data.d, data.z):
                writer.writerow([int(d), int(z)])


def _outcome_key(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The type and outcome vectors of a "types|outcomes" witness key."""
    d_part, y_part = text.split("|")
    return _ints(d_part), _ints(y_part)


def load_outcome_measure(path: str) -> OutcomeResponseMeasure:
    doc = _load_object(path)
    config = _design(doc)
    ys = _int_list(doc["y_support"], "y_support")
    mass = {
        (ResponseType(d), yvec): _frac(m)
        for (d, yvec), m in _keyed(doc["mass"], "mass", _outcome_key).items()
    }
    return OutcomeResponseMeasure(config, ys, mass)


def outcome_measure_by_fractions(config: DesignConfig, y_support, mass) -> dict:
    """Oracle for ``OutcomeResponseMeasure``'s checks: every key validated
    on its own and the masses summed as Fractions. Returns the measure's
    ordered mass dict, or raises the same ValueError."""
    ys = set(y_support)
    clean = {}
    total = ZERO
    for (rt, yvec), m in mass.items():
        if not isinstance(rt, ResponseType):
            rt = ResponseType(tuple(rt))
        rt.validate(config)
        if not is_admissible(config, rt):
            raise ValueError(f"response type {rt.d} is not admissible")
        yvec = tuple(int(y) for y in yvec)
        if len(yvec) != config.J or any(y not in ys for y in yvec):
            raise ValueError(f"outcome vector {yvec} invalid for support {tuple(y_support)}")
        m = as_fraction(m)
        if m < 0:
            raise ValueError(f"negative mass on {(rt.d, yvec)}")
        if m > 0:
            key = (rt, yvec)
            clean[key] = clean.get(key, ZERO) + m
        total += m
    if total != ONE:
        raise ValueError(f"masses sum to {total}, not 1")
    return dict(sorted(clean.items(), key=lambda kv: (kv[0][0].d, kv[0][1])))


def instrument_ordering_by_branches(config: DesignConfig, values, target: int) -> tuple[int, ...]:
    """Oracle for ``witness.instrument_ordering``, one branch per kind of
    design: without a base state the target goes last; with one the base
    value 0 goes last among the non-targeting values, followed by the
    target if the choice is targeted. Other values ascend by (value, z)."""
    if config.J0 == 0:
        others = sorted((z for z in config.z_support if z != target), key=lambda z: (values[z], z))
        return tuple(others) + (target,)
    others = sorted(
        (z for z in config.z_support if z != 0 and z != target), key=lambda z: (values[z], z)
    )
    if target >= config.J0:
        return tuple(others) + (0, target)
    return tuple(others) + (0,)


# oracle for the mixing weights that ``witness.construct_outcome`` takes
# from the tops of its step columns
def lambda_weights(PY: OutcomeDistribution) -> dict[int, dict[int, Fraction]]:
    """Mixing weights for the unpinned outcome coordinates.

    For a targeted choice the weight at y is proportional to the gap
    between the targeted cell and the runner-up cell; when the gaps
    vanish everywhere (or the choice is untargeted) the weight is uniform.
    Each weight sums to exactly 1 over the support.
    """
    config = PY.config
    ys = PY.y_support
    uniform = {y: Fraction(1, len(ys)) for y in ys}
    out: dict[int, dict[int, Fraction]] = {}
    for j in range(config.J):
        if j < config.J0:
            out[j] = dict(uniform)
            continue
        gaps = {}
        for y in ys:
            values = {z: PY.p(z, j, y) for z in config.z_support}
            order = instrument_ordering_by_branches(config, values, j)
            gaps[y] = PY.p(j, j, y) - PY.p(order[-2], j, y)
            if gaps[y] < 0:
                raise ConstructionError(
                    f"mixing weight for choice {j} is negative ({gaps[y]}) at outcome "
                    f"{y}: instrument {order[-2]} beats the targeting value; the table "
                    f"violates the outcome check",
                    target=j,
                    mass=gaps[y],
                )
        denom = sum(gaps.values(), ZERO)
        if denom == 0:
            out[j] = dict(uniform)
        else:
            out[j] = {y: g / denom for y, g in gaps.items()}
    return out


def construct_outcome_by_fractions(PY: OutcomeDistribution, cap: int = TABLE_CAP) -> dict:
    """Oracle for ``witness.construct_outcome``: every completion weight
    recomputed as a product of Fraction mixing weights at every step.
    Returns the witness's ordered mass dict, or raises the same
    ConstructionError (message, target, step and mass)."""
    from encdesign.admissible import closed_form_count

    config = PY.config
    ys = PY.y_support
    n_types = closed_form_count(config)
    if n_types * len(ys) ** config.J > cap:
        raise CapacityError(
            f"witness table would hold up to {n_types * len(ys) ** config.J} entries, cap is {cap}"
        )
    lam = lambda_weights(PY)
    mass = {}
    completions = list(product(ys, repeat=config.J - 1))

    def spread(rtype, pinned_j, y, density, where, step):
        if density < 0:
            raise ConstructionError(
                f"construction assigns negative density {density} to {rtype.d} "
                f"at {where}; the table violates the outcome check",
                target=pinned_j,
                step=step,
                mass=density,
            )
        if density == 0:
            return
        for combo in completions:
            yvec = list(combo[:pinned_j]) + [y] + list(combo[pinned_j:])
            weight = density
            for k in range(config.J):
                if k != pinned_j:
                    weight *= lam[k][yvec[k]]
            if weight == 0:
                continue
            key = (rtype, tuple(yvec))
            mass[key] = mass.get(key, ZERO) + weight

    top_sum = ZERO
    for j in range(config.J):
        for y in ys:
            values = {z: PY.p(z, j, y) for z in config.z_support}
            order = instrument_ordering_by_branches(config, values, j)
            spread(
                _type_with_prefix(config, j, ()),
                j,
                y,
                PY.p(order[0], j, y),
                f"target {j}, step 1, outcome {y}",
                1,
            )
            for ell in range(2, len(order)):
                rtype = _type_with_prefix(config, j, order[: ell - 1])
                inc = PY.p(order[ell - 1], j, y) - PY.p(order[ell - 2], j, y)
                spread(rtype, j, y, inc, f"target {j}, step {ell}, outcome {y}", ell)
            top = PY.p(order[-2], j, y)
            if config.J0 > 0:
                if j < config.J0:
                    gap = PY.p(0, j, y) - top
                    spread(
                        _compliance_type(config, j),
                        j,
                        y,
                        gap,
                        f"compliance remainder (default {j}), outcome {y}",
                        None,
                    )
            else:
                top_sum += top
    if config.J0 == 0:
        remainder = ONE - top_sum
        if remainder < 0:
            raise ConstructionError(
                f"construction assigns negative mass {remainder} to full compliance; "
                f"the table violates the outcome check",
                mass=remainder,
            )
        diag = _compliance_type(config, 0)
        if remainder > 0:
            for yvec in product(ys, repeat=config.J):
                weight = remainder
                for k in range(config.J):
                    weight *= lam[k][yvec[k]]
                if weight == 0:
                    continue
                key = (diag, tuple(yvec))
                mass[key] = mass.get(key, ZERO) + weight
    return outcome_measure_by_fractions(config, ys, mass)
