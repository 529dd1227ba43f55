"""Deterministic random generators for exact tables and measures, and
the slow reference implementations kept as oracles for the fast paths."""

import csv
import json
import math
from fractions import Fraction
from itertools import chain, product
from math import lcm
from random import Random

import numpy as np

from encdesign import kernels, lp, simulate
from encdesign.admissible import enumerate_admissible, is_admissible
from encdesign.core import (
    ONE,
    ZERO,
    DesignConfig,
    ObservedDistribution,
    ResponseMeasure,
    ResponseType,
    pushforward,
)
from encdesign.errors import CapacityError
from encdesign.inequalities import (
    DEFAULT_FAMILY_CAP,
    CheckReport,
    OutcomeDistribution,
    generate,
    generate_outcome,
    partition_family_specs,
)
from encdesign.simulate import MicroData, Region, RegionMixture
from encdesign.stats import SE_FLOOR, EstimatedTables, TestReport, estimate
from encdesign.witness import OutcomeResponseMeasure, pushforward_outcome


def random_measure(config: DesignConfig, rng: Random, max_weight: int = 8) -> ResponseMeasure:
    """Random exact measure supported on the admissible set."""
    types = enumerate_admissible(config).types
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
    types = enumerate_admissible(config).types
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


def phase_one_fraction(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """Oracle for ``lp._phase_one``: the same phase-one simplex with
    Bland's rule on a tableau of Fractions, normalized on every pivot."""
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
    types = enumerate_admissible(config).types
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

    x = _solve_table_by_scan(variables, coord_of_var, coords, lambda c: PY.p(*c), cap)
    return x is not None


class ScanColumns:
    """Explicit columns for ``lp._phase_one``: column v is the row list
    ``columns[v]``, its key is v, and pricing scans the columns in order."""

    def __init__(self, columns: list[list[int]]):
        self.columns = columns

    def rows(self, v: int) -> list[int]:
        return self.columns[v]

    def first_negative(self, priced: list[int]):
        return next(
            (v for v, rows in enumerate(self.columns) if sum(priced[r] for r in rows) < 0),
            None,
        )


def phase_one_columns(columns: list[list[int]], b: list[Fraction], m: int) -> list[Fraction] | None:
    """``lp._phase_one`` on explicit columns, with its solution spread
    into one value per column as ``phase_one_fraction`` returns it."""
    return solution_vector(lp._phase_one(ScanColumns(columns), b, m), range(len(columns)))


def solution_vector(solution: dict | None, keys) -> list[Fraction] | None:
    if solution is None:
        return None
    return [solution.get(key, ZERO) for key in keys]


def type_column_keys(columns) -> list:
    """Every column key of an ``lp._TypeColumns`` in column order, listed
    from ``enumerate_admissible`` and ``itertools.product``."""
    types = enumerate_admissible(columns.config).types
    return [(rt.d, u) for rt in types for u in product(range(columns.ny), repeat=columns.J)]


def first_negative_by_scan(columns, priced: list[int]):
    """Oracle for ``_TypeColumns.first_negative``: the first listed key
    whose column prices below zero."""
    return next(
        (
            key
            for key in type_column_keys(columns)
            if sum(priced[r] for r in columns.rows(key)) < 0
        ),
        None,
    )


def admissible_by_filter(config: DesignConfig) -> tuple[ResponseType, ...]:
    """Oracle for ``enumerate_admissible``: filter all J^|Z| candidate
    vectors through ``is_admissible``, in lexicographic order."""
    m = len(config.z_support)
    return tuple(
        rt
        for d in product(range(config.J), repeat=m)
        if is_admissible(config, rt := ResponseType(d))
    )


def check_by_family(
    P: ObservedDistribution, full: bool = False, cap: int = DEFAULT_FAMILY_CAP
) -> CheckReport:
    """Oracle for ``inequalities.check``: build the whole family and
    evaluate the slack of every inequality in it."""
    specs = generate(P.config, full=full, cap=cap)
    return CheckReport.from_slacks((s, s.slack(P)) for s in specs)


def region_points_by_box_rejection(
    mix: RegionMixture,
    region: Region,
    want: int,
    rng: np.random.Generator,
    min_acceptance: float = 1e-6,
) -> np.ndarray:
    """Oracle for ``simulate._sample_region``: ``want`` shocks uniform in
    region ∩ box by drawing uniformly from the whole box [-M, M]^J and
    keeping the draws that satisfy every region constraint. This is the
    per-region loop ``verify_mixture`` ran before it sampled in
    difference coordinates, type check and tie drop included; it returns
    the points it accepted."""
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


def estimate_by_rows(
    data: MicroData, config: DesignConfig, y_support=None
) -> EstimatedTables:
    """Oracle for ``stats.estimate``: outcome cells counted one (d, y)
    row at a time and the supplied outcome support checked row by row."""
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
        if y_support is not None:
            ys = tuple(int(v) for v in y_support)
            allowed = set(ys)
            for i, v in enumerate(data.y):
                if int(v) not in allowed:
                    raise ValueError(f"row {i}: outcome {v} not in support {ys}")
        else:
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
    degenerate = tuple(zv for zv, c in arm_counts.items() if c == 1)
    return EstimatedTables(config, arm_counts, cells, ys, degenerate)


def _moment_family(config, y_support):
    if y_support is None:
        return generate(config)
    specs = list(generate_outcome(config, y_support))
    if config.J0 == 0:
        specs.extend(partition_family_specs(config, y_support))
    return tuple(specs)


def test_model_by_family(
    data: MicroData,
    config: DesignConfig,
    alpha: float = 0.05,
    B: int = 999,
    seed: int = 0,
    y_support=None,
) -> TestReport:
    """Oracle for ``stats.test_model``: every moment built as an
    ``InequalitySpec``, the dense weight matrix W (moments x cells) filled
    spec by spec, and the bootstrap maximum taken over the whole
    B x moments matrix at once."""
    if B < 99:
        raise ValueError("need at least 99 bootstrap replications")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    use_y = data.y is not None
    est = estimate(data, config, y_support=y_support if use_y else None)
    specs = _moment_family(config, est.y_support)

    # Flatten cells to a vector; each spec becomes a weight vector so the
    # moment is w . p_hat - bound.
    coords = []
    for z in config.z_support:
        if est.y_support is None:
            coords.extend((z, j) for j in range(config.J))
        else:
            coords.extend((z, j, y) for j in range(config.J) for y in est.y_support)
    index = {c: i for i, c in enumerate(coords)}
    n_cells = len(coords)
    p_vec = np.array([est.p_hat(*c) for c in coords])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    n_arms = len(config.z_support)
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    raw_counts = p_vec * arm_n[arm_of]

    W = np.zeros((len(specs), n_cells))
    bounds = np.zeros(len(specs))
    for i, spec in enumerate(specs):
        for c in spec.lhs:
            W[i, index[c]] += 1.0
        for c in spec.rhs:
            W[i, index[c]] -= 1.0
        bounds[i] = float(spec.bound)

    violations = W @ p_vec - bounds
    variances = np.zeros(len(specs))
    for a in range(n_arms):
        sel = arm_of == a
        wp = W[:, sel] * p_vec[sel]
        variances += ((W[:, sel] ** 2 * p_vec[sel]).sum(axis=1) - wp.sum(axis=1) ** 2) / arm_n[a]
    se = np.sqrt(np.maximum(variances, 0.0))
    floored = se < SE_FLOOR
    se = np.maximum(se, SE_FLOOR)
    statistic = float(np.max(violations / se))

    # Multiplier bootstrap. The moments depend on the data only through
    # per-cell multiplier sums, which are independent N(0, count) across
    # cells, so those sums are drawn directly.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    S = rng.normal(size=(B, n_cells)) * np.sqrt(raw_counts)
    G = np.empty_like(S)
    for a in range(n_arms):
        sel = arm_of == a
        arm_total = S[:, sel].sum(axis=1, keepdims=True)
        G[:, sel] = (S[:, sel] - p_vec[sel] * arm_total) / arm_n[a]
    t_star = (G @ W.T) / se
    t_star = t_star.max(axis=1)
    k = min(B - 1, max(0, math.ceil((1 - alpha) * (B + 1)) - 1))
    critical = float(np.sort(t_star)[k])
    p_value = float((1 + (t_star >= statistic).sum()) / (B + 1))

    p_hat_out: dict = {}
    for z in config.z_support:
        if est.y_support is None:
            p_hat_out[str(z)] = [est.p_hat(z, j) for j in range(config.J)]
        else:
            p_hat_out[str(z)] = {
                str(j): {str(y): est.p_hat(z, j, y) for y in est.y_support}
                for j in range(config.J)
            }
    return TestReport(
        arm_counts=dict(est.arm_counts),
        p_hat=p_hat_out,
        slacks=tuple(float(-v) for v in violations),
        standard_errors=tuple(float(v) for v in se),
        floored=tuple(bool(f) for f in floored),
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        alpha=alpha,
        B=B,
        seed=seed,
    )


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
        provenance=path,
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


def dumps_by_json(doc) -> str:
    """Oracle for ``cli.dumps``: the stdlib encoder the CLI used before,
    which cannot take its C path when ``indent`` is set."""
    return json.dumps(doc, sort_keys=True, indent=2)
