"""Deterministic random generators for exact tables and measures, and
the slow reference implementations kept as oracles for the fast paths."""

import csv
import math
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np

from encdesign import kernels, simulate
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
    and ``int``, errors indexed by row."""
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
            except (TypeError, ValueError) as exc:
                raise ValueError(f"row {i}: {exc}") from exc
    return simulate.MicroData(
        np.array(d, dtype=np.int64),
        np.array(z, dtype=np.int64),
        np.array(y, dtype=np.int64) if want_y else None,
        provenance=path,
    )
