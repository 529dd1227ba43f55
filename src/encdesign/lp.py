"""Independent feasibility oracle via exact phase-one simplex.

Decides whether a table is the pushforward of some measure on the
admissible set by solving the linear system (one nonnegative mass per
admissible response type, one equality per table coordinate) over exact
rationals. No tolerances, no external solver: exactness keeps the
oracle's verdict unambiguous. Cross-validates the inequality check and
the constructive witness; it shares no code path with either.

The LP never lists its columns. The column of least reduced cost enters,
ties going to the first in the lexicographic order of the response types
(and, for outcome tables, of the outcome vectors). That cost sums one
dual price per instrument value, and each entry of an admissible type is
its own instrument value or the default choice. So under one default
(and one outcome for it) every entry takes the cheaper of its two values
on its own: O(J * |Z| * |Y|) per pricing instead of a pass over every
column (5,111 types at (10,0), times |Y|^J outcome vectors for outcome
tables). Ratio ties leave by the lexicographic rule (Dantzig, Orden and
Wolfe 1955), which never revisits a basis whatever column enters.

Cells of probability zero close columns: the zero-row reduction of
Andersen and Andersen (1995, "Presolving in linear programming", Math.
Programming 71). A is 0/1 and x >= 0, so a row with b_i = 0 forces every
column through it to zero, and so does a zero implied cell (a slice whose
listed cells sum to 1). Pricing charges a closed cell +inf, so no such
column ever enters, and the feasible set is unchanged. It reads only the
table, so the LP still shares nothing with the other two oracles. The
rows of closed cells stay: no entering column touches one, so its
artificial stays basic at 0 and the row is never rewritten, and deleting
it would renumber the other rows in order, which keeps every
lexicographic ratio choice. A table with no zero cell closes nothing and
pivots exactly as it would without the reduction.

Phase one stops once no structural column prices negative; the table is
infeasible exactly when an artificial variable is still positive there.
The prices y then satisfy A'y <= 0, so y / max(1, max y) is dual
feasible and the phase-one optimum is positive exactly when the current
objective is.

The pivots are integer-preserving (fraction-free, Bareiss-style): the
right-hand side is scaled to integers and every division is exact, so no
cell is ever reduced by a gcd, yet the pivot sequence and the certificate
are those of the rational tableau under the same rules. Only the basis
inverse is stored, as sparse rows (7-20% of its entries are nonzero on
tables with J = 4 to 8), beside the dense right-hand side and objective
row; a row that a pivot leaves unchanged keeps its own integer factor
instead of being rescaled. ``cap`` bounds the entries that store can
hold, m * (m + 1) for m rows, and is checked before the first pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm

# ``enumerate_admissible`` stays a name of this module: the benchmark's
# per-layer tracing (perfbench/tracing.py) wraps it here. The LP itself
# no longer enumerates the admissible set.
from .admissible import enumerate_admissible  # noqa: F401
from .core import ONE, ObservedDistribution, ResponseMeasure, ResponseType
from .errors import CapacityError
from .inequalities import OutcomeDistribution

DEFAULT_LP_CAP = 200_000


class _TypeColumns:
    """The structural columns of a design's LP, priced without being listed.

    A column's key is ``(d, u)``: the admissible type d and, per choice j,
    the index u[j] into the outcome support of the outcome that choice
    takes (all zero for treatment tables, which have one outcome). Keys
    compare in the LP's column order: type first, then outcome vector in
    ``itertools.product`` order. The column has a 1 in the row of every
    coordinate (z_k, d_k, u[d_k]) and in the normalization row. Row
    ``k * (J*ny - 1) + j*ny + u`` is coordinate (z_k, j, u), except the
    last cell (J-1, ny-1) of each position, which its slice total implies
    and which has no row; row m-1 is the normalization. ``closed`` lists
    the cells (k, j*ny + u) of probability zero, implied cells (k, width)
    among them; no column through one is priced.
    """

    def __init__(self, config, ny: int, closed=()):
        zs = config.z_support
        self.config = config
        self.J, self.ny, self.zs = config.J, ny, zs
        self.width = width = config.J * ny - 1
        self.m = len(zs) * width + 1
        # the entry targeting each choice (the base state targets none)
        targets = {z: k for k, z in enumerate(zs) if k or not config.J0}
        self.target = [targets.get(j) for j in range(config.J)]
        # the cells (z_k, z_k, u) of each entry's own choice, as j*ny + u
        self.own = [range(z * ny, z * ny + ny) for z in zs]
        self.closed = frozenset(closed)
        # the listed closed cells, as most_negative's cells[c][k]
        self.shut = [(c, k) for k, c in self.closed if c != width]
        self.implied = [inf if (k, width) in self.closed else 0 for k in range(len(zs))]

    def rows(self, key) -> list[int]:
        d, u = key
        ny, width = self.ny, self.width
        out = []
        for k, j in enumerate(d):
            c = j * ny + u[j]
            if c != width:
                out.append(k * width + c)
        out.append(self.m - 1)
        return out

    def most_negative(self, priced: list[int]):
        """Key of the column with the least (reduced cost, key), the
        reduced cost being the sum of ``priced`` over the column's rows;
        None if that cost is not negative.

        With w(k, j, u) the price of cell (z_k, j, u) (0 for the implied
        cell), fix a default j and the outcome u that every entry taking
        j shares. The entry targeting j and the base state take j; every
        other entry takes the cheaper of w(k, j, u) and its own cell's
        cheapest outcome, a_k = min_u w(k, z_k, u), and on a tie the
        smaller choice. That is the least (cost, key) under (j, u), and
        the least of these over all (j, u) is the answer.

        A closed cell is priced at +inf (Andersen and Andersen 1995), so
        no entry takes it, and a (j, u) whose forced cells are closed
        costs +inf and yields no column. The entry targeting j is charged
        min(w(k, j, u), +inf), never cost + w(k, j, u) - a_k, which is
        inf - inf (NaN) when both cells are closed. Finite costs stay
        exact integers. Closed rows are kept, not renumbered: the
        artificial of each stays basic at 0 and its row is never
        rewritten, and deleting them would keep the order of the other
        rows and so every ratio-test choice.
        """
        ny, width = self.ny, self.width
        t = -priced[-1]  # a column is negative when its cells sum below t
        # cells[j*ny + u][k] = w(k, j, u), with the implied cell last
        cells = [priced[c:-1:width] for c in range(width)] + [self.implied]
        for c, k in self.shut:
            cells[c][k] = inf
        own = [[cells[c][k] for c in cs] for k, cs in enumerate(self.own)]
        a = [min(x) for x in own]
        if self.config.J0:
            a[0] = inf  # the base state never complies
        costs = []
        for j, k in enumerate(self.target):
            # the entry targeting j takes w(k, j, u), never its own a_k
            aj = a if k is None else a[:k] + [inf] + a[k + 1 :]
            costs.extend(sum(map(min, take, aj)) for take in cells[j * ny : j * ny + ny])
        least = min(costs)
        if least >= t:
            return None
        keys = []
        for c, cost in enumerate(costs):
            if cost != least:
                continue
            j, u = divmod(c, ny)
            d = tuple(
                j if x < y or (x == y and j < z) else z for x, y, z in zip(cells[c], a, self.zs)
            )
            outcomes = [0] * self.J
            for k, z in enumerate(d):
                if z != j:  # the entry complies, at its first cheapest outcome
                    outcomes[z] = own[k].index(a[k])
            outcomes[j] = u
            keys.append((d, tuple(outcomes)))
        return min(keys)


def _first_difference(row: dict, other: dict, h: int, g: int) -> tuple[int, int]:
    """(row[k] * h, other[k] * g) at the first column k where they differ."""
    for k in sorted(row.keys() | other.keys()):
        here, best = row.get(k, 0) * h, other.get(k, 0) * g
        if here != best:
            return here, best


def _phase_one(columns, b: list[Fraction], m: int) -> dict | None:
    """Feasibility of Ax = b, x >= 0 for a 0/1 matrix A with b >= 0.

    ``columns`` gives A without listing it: ``columns.most_negative(c)``
    returns the key of the column whose entries of c have the least sum,
    the first such column in column order, or None if that sum is not
    negative; ``columns.rows(key)`` gives the rows where that column has
    a 1.

    Phase-one simplex: minimize the sum of one artificial variable per
    row. The structural column of least reduced cost enters, until none
    is negative; the prices y then satisfy A'y <= 0, so y / max(1, max y)
    is dual feasible and the optimum is zero exactly when every basic
    artificial is. Of the rows tied at the least ratio, the one whose row
    of the basis inverse, over its entering entry, is lexicographically
    least leaves; rows of a basis inverse are never proportional, so
    exactly one does. Returns {key: value} over the basic structural
    columns when the optimum is zero, None otherwise.

    The tableau holds integers: b is scaled by the common denominator L
    of its entries, and every row is stored as a positive integer times
    the rational tableau row. The objective row's factor is D, the
    determinant of the current basis; row i's factor s_i is the D of the
    pivot that last rewrote it. A pivot on entry p of row l (factor s_l)
    sets D' = D * p / s_l and rewrites every row i whose entering entry g
    is not zero as (p*a - g*q) * D / (s_l * s_i), with factor D', and the
    objective as (p*a - f*q) / s_l; the pivot row is kept and its factor
    becomes p. Every division is exact (Bareiss 1968: the results are
    minors of the basis). Rows whose entering entry is zero are left as
    they are. Sign tests and the cross-multiplied ratio and
    lexicographic comparisons do not depend on a row's positive factor
    (a row and its entering entry carry the same one), so the pivot
    sequence, the final basis and the solution are those of the rational
    tableau.

    Only the artificial columns (the basis inverse, as sparse rows) and
    the right-hand side are stored; ``holders[k]`` lists the rows with a
    nonzero in artificial column k. A structural column is the sum of the
    artificial columns of the rows it touches; its objective entry is
    that sum in the objective row less D per row.
    """
    scale = lcm(*(v.denominator for v in b))
    rhs = [v.numerator * (scale // v.denominator) for v in b]
    inverse = [{i: 1} for i in range(m)]
    factor = [1] * m
    holders = [{i} for i in range(m)]
    # objective row over the artificial columns
    obj = [0] * m
    # the key of each row's basic structural column, None for an artificial
    basis = [None] * m
    det = 1

    while True:
        priced = [a - det for a in obj]
        enter = columns.most_negative(priced)
        if enter is None:
            break
        col = columns.rows(enter)
        f = sum(map(priced.__getitem__, col))
        coeffs = {}
        for r in col:
            for i in holders[r]:
                coeffs[i] = coeffs.get(i, 0) + inverse[i][r]
        leave = None
        for i, g in coeffs.items():
            if g <= 0:
                continue
            if leave is not None:
                # row i against the best row so far, (rhs, basis inverse)
                # over the entering entry, cross-multiplied
                h = coeffs[leave]
                here, best = rhs[i] * h, rhs[leave] * g
                if here == best:
                    here, best = _first_difference(inverse[i], inverse[leave], h, g)
                if here >= best:
                    continue
            leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; constraint bug")
        prow, q, pivot, own = inverse[leave], rhs[leave], coeffs[leave], factor[leave]
        after = det * pivot // own
        for i, g in coeffs.items():
            if i == leave or not g:
                continue
            row, den = inverse[i], own * factor[i]
            # row i becomes (stretch * row - shift * prow) // den
            stretch, shift = pivot * det, g * det
            if stretch != den:
                for k, a in row.items():
                    if k not in prow:
                        row[k] = a * stretch // den
            for k, v in prow.items():
                a = row.get(k)
                if a is None:
                    holders[k].add(i)
                    row[k] = -shift * v // den
                else:
                    a = (a * stretch - shift * v) // den
                    if a:
                        row[k] = a
                    else:
                        del row[k]
                        holders[k].discard(i)
            rhs[i] = (rhs[i] * stretch - shift * q) // den
            factor[i] = after
        factor[leave] = pivot
        if pivot == own:
            for k, v in prow.items():
                obj[k] -= f * v // own
        else:
            obj = [(a * pivot - f * prow.get(k, 0)) // own for k, a in enumerate(obj)]
        det = after
        basis[leave] = enter

    if any(rhs[i] for i, key in enumerate(basis) if key is None):
        return None
    return {
        key: Fraction(rhs[i], factor[i] * scale)
        for i, key in enumerate(basis)
        if key is not None
    }


def _solve(config, ny: int, p: list[Fraction], cap: int) -> dict | None:
    """Phase one on the table ``p``: every cell (z_k, j, y) in position
    order, the implied last cell of each slice included. Its rows are the
    listed cells, then the normalization; its closed cells are the zero
    ones, the implied cells among them."""
    size = config.J * ny  # cells per slice, the implied one last
    closed = [divmod(i, size) for i, v in enumerate(p) if not v]
    columns = _TypeColumns(config, ny, closed)
    m = columns.m
    if m * (m + 1) > cap:
        raise CapacityError(
            f"LP basis inverse could hold {m * (m + 1)} entries ({m} rows), cap is {cap}"
        )
    b = [v for i, v in enumerate(p) if i % size != size - 1] + [ONE]
    return _phase_one(columns, b, m)


def feasible(
    P: ObservedDistribution, cap: int = DEFAULT_LP_CAP
) -> tuple[bool, ResponseMeasure | None]:
    """Exact LP verdict plus, when feasible, a certificate measure whose
    pushforward equals P. The certificate lists its types in
    lexicographic order."""
    config = P.config
    x = _solve(config, 1, [v for z in config.z_support for v in P.rows[z]], cap)
    if x is None:
        return False, None
    measure = ResponseMeasure(
        config, {ResponseType(d): v for (d, _), v in x.items() if v > 0}
    )
    return True, measure


def feasible_outcome(PY: OutcomeDistribution, cap: int = DEFAULT_LP_CAP) -> bool:
    """Exact LP verdict on the outcome table, over one variable per
    (response type, outcome vector) pair."""
    config = PY.config
    ys = PY.y_support
    p = [PY.p(z, j, y) for z in config.z_support for j in range(config.J) for y in ys]
    return _solve(config, len(ys), p, cap) is not None
