"""Independent feasibility oracle via exact phase-one simplex.

Decides whether a table is the pushforward of some measure on the
admissible set by solving the linear system (one nonnegative mass per
admissible response type, one equality per table coordinate) over exact
rationals with Bland's pivoting rule. The pivots are integer-preserving
(fraction-free, Bareiss-style): the right-hand side is scaled to integers
and every division is exact, so no cell is ever reduced by a gcd, yet the
pivot sequence and the certificate are those of the rational tableau.
No tolerances, no external solver: exactness keeps the oracle's verdict
unambiguous. Cross-validates the inequality check and the constructive
witness; it shares no code path with either.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import lcm

from .admissible import enumerate_admissible
from .core import ONE, ZERO, ObservedDistribution, ResponseMeasure
from .errors import CapacityError
from .inequalities import OutcomeDistribution

DEFAULT_LP_CAP = 200_000


def _phase_one(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """Feasibility of Ax = b, x >= 0 for a 0/1 matrix A given column-wise
    (columns[v] lists the rows where variable v has a 1) with b >= 0.

    Phase-one simplex with Bland's rule: minimize the sum of one
    artificial variable per row. Returns the structural solution when the
    optimum is zero, None otherwise.

    The tableau holds integers: b is scaled by the common denominator L
    of its entries, and every row (objective included) is stored as D
    times the rational tableau row, where D is the previous pivot (the
    determinant of the current basis, always positive). A pivot on entry
    p rewrites every other row as (a*p - f*q) // D, an exact division
    (Bareiss 1968), keeps the pivot row and sets D = p. Because every row
    carries the same positive factor, the sign tests and the
    cross-multiplied ratio comparisons are those of the rational tableau:
    the pivot sequence, the final basis and the solution are unchanged.

    Only the artificial columns (D times the basis inverse) and the
    right-hand side are stored. A structural column is the sum of the
    artificial columns of the rows it touches; its objective entry is that
    sum in the objective row less D per row. Bland's rule prices the
    columns in order and stops at the first negative one.
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
        costs = chain((sum(map(priced.__getitem__, rows)) for rows in columns), obj[:m])
        enter, f = next(((v, c) for v, c in enumerate(costs) if c < 0), (None, 0))
        if enter is None:
            break
        coeffs = [entry(row, enter) for row in tableau]
        leave = None
        for i, coeff in enumerate(coeffs):
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio of row i against the best ratio so far, both
                # denominators positive
                here = tableau[i][-1] * coeffs[leave]
                best = tableau[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
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


def _solve_table(variables, coord_of_var, coords, rhs_of_coord, cap):
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
    return _phase_one(columns, b, m)


def feasible(
    P: ObservedDistribution, cap: int = DEFAULT_LP_CAP
) -> tuple[bool, ResponseMeasure | None]:
    """Exact LP verdict plus, when feasible, a certificate measure whose
    pushforward equals P."""
    config = P.config
    types = enumerate_admissible(config).types
    coords = []
    for z in config.z_support:
        for j in range(config.J):
            coords.append(((z, j), j == config.J - 1))

    def coord_of_var(rt):
        return [(z, rt.d[i]) for i, z in enumerate(config.z_support)]

    x = _solve_table(types, coord_of_var, coords, lambda c: P.p(*c), cap)
    if x is None:
        return False, None
    measure = ResponseMeasure(
        config, {rt: v for rt, v in zip(types, x) if v > 0}
    )
    return True, measure


def feasible_outcome(PY: OutcomeDistribution, cap: int = DEFAULT_LP_CAP) -> bool:
    """Exact LP verdict on the outcome table, over one variable per
    (response type, outcome vector) pair."""
    config = PY.config
    ys = PY.y_support
    types = enumerate_admissible(config).types
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

    x = _solve_table(variables, coord_of_var, coords, lambda c: PY.p(*c), cap)
    return x is not None
