"""Deterministic random generators for exact tables and measures, and
the slow reference implementations kept as oracles for the fast paths."""

from fractions import Fraction
from itertools import product
from random import Random

import numpy as np

from encdesign import kernels
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
)
from encdesign.simulate import Region, RegionMixture
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
