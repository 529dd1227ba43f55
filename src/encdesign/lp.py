"""Independent feasibility oracle via exact phase-one simplex.

Decides whether a table is the pushforward of some measure on the
admissible set by solving the linear system (one nonnegative mass per
admissible response type, one equality per table coordinate) over exact
rationals with Bland's pivoting rule. No tolerances, no external solver:
exactness keeps the oracle's verdict unambiguous. Cross-validates the
inequality check and the constructive witness; it shares no code path
with either.

The LP never lists its columns. Bland's rule enters the first column, in
the lexicographic order of the response types (and, for outcome tables,
of the outcome vectors), whose reduced cost is negative. That cost sums
one dual price per instrument value, and admissibility only asks each
entry to be its own instrument value or the default choice, so the exact
minimum over every type sharing a prefix is, for each default choice, a
sum of per-position minima. A depth-first walk over positions, values in
ascending order, enters the first subtree whose minimum is negative and
so reaches the first negative column directly, in O(J * |Z| * |Y|) per
pricing instead of a pass over every column (5,111 types at (10,0),
times |Y|^J outcome vectors for outcome tables).

The pivots are integer-preserving (fraction-free, Bareiss-style): the
right-hand side is scaled to integers and every division is exact, so no
cell is ever reduced by a gcd, yet the pivot sequence and the certificate
are those of the rational tableau. Only the basis inverse is stored, as
sparse rows (7-20% of its entries are nonzero on tables with J = 4 to
8), beside the dense right-hand side and objective row; a row that a
pivot leaves unchanged keeps its own integer factor instead of being
rescaled. ``cap`` bounds the entries that store can hold, m * (m + 1)
for m rows, and is checked before the first pivot; the number of pivots
is not bounded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add

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
    and which has no row; row m-1 is the normalization.
    """

    def __init__(self, config, ny: int):
        zs = config.z_support
        self.config = config
        self.J, self.ny, self.zs = config.J, ny, zs
        self.width = config.J * ny - 1
        self.m = len(zs) * self.width + 1
        # with a base state, entry 0 is the default itself
        self.base = config.J0 > 0
        # the rows of each position's cells
        self.spans = [(k * self.width, (k + 1) * self.width) for k in range(len(zs))]

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

    def first_negative(self, priced: list[int]):
        """Key of the first column whose reduced cost, the sum of
        ``priced`` over its rows, is negative; None if there is none.

        With w(k, j, u) the price of cell (z_k, j, u) (0 for the implied
        cell), the cheapest outcome vector of a type with default j
        costs a_k = min_u w(k, z_k, u) at each entry that complies (no
        other entry takes that choice) plus, for some u shared by the
        entries that take j, the sum of w(k, j, u) over them. So the
        first negative type is the least of the first types that are
        negative for each fixed u (``_first_type``), and its first
        negative outcome vector follows (``_outcomes``).
        """
        ny, zs = self.ny, self.zs
        t = -priced[-1]  # a column is negative when its cells sum below t
        # w[k][j*ny + u], with the implied cell last
        w = [priced[lo:hi] + [0] for lo, hi in self.spans]
        if ny == 1:
            d = self._first_type(w, [wk[z] for wk, z in zip(w, zs)], t)
        else:
            a = [min(wk[z * ny : z * ny + ny]) for wk, z in zip(w, zs)]
            found = [self._first_type([wk[u::ny] for wk in w], a, t) for u in range(ny)]
            d = min((d for d in found if d is not None), default=None)
        if d is None:
            return None
        return d, self._outcomes(d, w, t)

    def _first_type(self, cells, a, t) -> tuple[int, ...] | None:
        """The first admissible type whose cost falls below t when entry k
        costs a[k] if it complies and cells[k][j] if it takes the default
        j (the entry targeting j, and the base state, always take it).

        The least cost over every type sharing a prefix is exact from the
        suffix sums of min(a[k], cells[k][j]) per default j, so the walk
        (positions in order, values ascending) enters only subtrees that
        hold a negative type and never backtracks.
        """
        J, zs = self.J, self.zs
        nz = len(zs)
        # suffix[i][j]: least cost of the entries i.. under default j
        prev = [0] * J
        suffix = [prev]
        for k in range(nz - 1, 0 if self.base else -1, -1):
            ck, ak, z = cells[k], a[k], zs[k]
            prev = list(map(add, prev, map(min, ck, repeat(ak))))
            if ck[z] != ak:  # under default z the entry targeting z takes z
                prev[z] += ck[z] - ak
            suffix.append(prev)
        if self.base:
            suffix.append(list(map(add, prev, cells[0])))
        suffix.reverse()

        d = []
        if self.base:
            # the base state's entry is the default itself
            j = next((j for j, s in enumerate(suffix[0]) if s < t), None)
            if j is None:
                return None
            d.append(j)
            c = cells[0][j]  # cost of the prefix
        else:
            # while every entry so far complies (z_i = i), any choice may
            # still be the default; a default v < i also takes entry v,
            # which then costs joins[v] more than complying (nothing more
            # with one outcome, where a[v] is cells[v][v] itself)
            if self.ny > 1:
                joins = [ck[z] - ak for ck, z, ak in zip(cells, zs, a)]
            else:
                joins = [0] * nz
            joined = any(joins)
            c, j = 0, None
            for i in range(nz):
                tail = suffix[i + 1]
                # bounds[v]: least cost of the entries i.. below value v
                bounds = list(map(add, cells[i], tail))
                if joined:
                    bounds[:i] = map(add, bounds[:i], joins)
                    low = min(map(add, tail, chain(joins[: i + 1], repeat(0))))
                else:
                    low = min(tail)
                bounds[i] = a[i] + low
                limit = t - c
                v = next((v for v, bound in enumerate(bounds) if bound < limit), None)
                if v is None:
                    return None  # only at the root: the bounds are exact
                d.append(v)
                if v == i:
                    c += a[i]
                else:
                    j = v
                    c += bounds[v] - tail[v]
                    break
            if j is None:
                return tuple(d)
        for i in range(len(d), nz):
            z, tail = zs[i], suffix[i + 1]
            take = c + cells[i][j]
            comply = c + a[i]
            if z == j:
                takes = True
            elif z < j:  # complying comes first in the order
                takes = comply + tail[j] >= t
            else:
                takes = take + tail[j] < t
            if takes:
                d.append(j)
                c = take
            else:
                d.append(z)
                c = comply
        return tuple(d)

    def _outcomes(self, d, w, t) -> tuple[int, ...]:
        """The first outcome vector, in product order, that makes type d's
        column negative; unused choices take outcome index 0."""
        J, ny = self.J, self.ny
        if ny == 1:
            return (0,) * J
        cost = [None] * J
        for wk, j in zip(w, d):
            cells = wk[j * ny : j * ny + ny]
            cost[j] = cells if cost[j] is None else list(map(add, cost[j], cells))
        rest = sum(min(cj) for cj in cost if cj is not None)
        spent = 0
        u = []
        for cj in cost:
            if cj is None:
                u.append(0)
                continue
            rest -= min(cj)
            x = next(x for x, v in enumerate(cj) if spent + v + rest < t)
            u.append(x)
            spent += cj[x]
        return tuple(u)


def _phase_one(columns, b: list[Fraction], m: int) -> dict | None:
    """Feasibility of Ax = b, x >= 0 for a 0/1 matrix A with b >= 0.

    ``columns`` gives A without listing it: ``columns.first_negative(c)``
    returns the key of the first column, in Bland's order, whose entries
    of c sum below zero (None if none does), and ``columns.rows(key)`` the
    rows where that column has a 1. Keys compare in column order.

    Phase-one simplex with Bland's rule: minimize the sum of one
    artificial variable per row, the artificials ordered after every
    structural column. Returns {key: value} over the basic structural
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
    they are. Sign tests and the cross-multiplied ratio comparisons do not
    depend on a row's positive factor, so the pivot sequence, the final
    basis and the solution are those of the rational tableau.

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
    # objective row over the artificial columns, and its value -(sum b)
    obj = [0] * m
    value = -sum(rhs)
    # (0, key) for a structural column, (1, i) for row i's artificial
    basis = [(1, i) for i in range(m)]
    det = 1

    while True:
        priced = [a - det for a in obj]
        key = columns.first_negative(priced)
        if key is not None:
            col = columns.rows(key)
            f = sum(map(priced.__getitem__, col))
            enter = (0, key)
        else:
            i = next((i for i, a in enumerate(obj) if a < 0), None)
            if i is None:
                break
            col, f, enter = (i,), obj[i], (1, i)
        coeffs = {}
        for r in col:
            for i in holders[r]:
                coeffs[i] = coeffs.get(i, 0) + inverse[i][r]
        leave = None
        for i, coeff in coeffs.items():
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio of row i against the best ratio so far, both
                # denominators positive
                here = rhs[i] * coeffs[leave]
                best = rhs[leave] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
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
        value = (value * pivot - f * q) // own
        det = after
        basis[leave] = enter

    if value != 0:
        return None
    return {
        key: Fraction(rhs[i], factor[i] * scale)
        for i, (artificial, key) in enumerate(basis)
        if not artificial
    }


def _solve(config, ny: int, b: list[Fraction], cap: int) -> dict | None:
    columns = _TypeColumns(config, ny)
    m = columns.m
    if m * (m + 1) > cap:
        raise CapacityError(
            f"LP basis inverse could hold {m * (m + 1)} entries ({m} rows), cap is {cap}"
        )
    return _phase_one(columns, b, m)


def feasible(
    P: ObservedDistribution, cap: int = DEFAULT_LP_CAP
) -> tuple[bool, ResponseMeasure | None]:
    """Exact LP verdict plus, when feasible, a certificate measure whose
    pushforward equals P. The certificate lists its types in
    lexicographic order."""
    config = P.config
    # one equality per coordinate except the last of each instrument
    # slice (implied by the slice total), then the normalization
    b = [P.p(z, j) for z in config.z_support for j in range(config.J - 1)] + [ONE]
    x = _solve(config, 1, b, cap)
    if x is None:
        return False, None
    measure = ResponseMeasure(
        config, {ResponseType(d): v for (d, _), v in sorted(x.items()) if v > 0}
    )
    return True, measure


def feasible_outcome(PY: OutcomeDistribution, cap: int = DEFAULT_LP_CAP) -> bool:
    """Exact LP verdict on the outcome table, over one variable per
    (response type, outcome vector) pair."""
    config = PY.config
    ys = PY.y_support
    cells = [(j, y) for j in range(config.J) for y in ys][:-1]
    b = [PY.p(z, j, y) for z in config.z_support for j, y in cells] + [ONE]
    return _solve(config, len(ys), b, cap) is not None
