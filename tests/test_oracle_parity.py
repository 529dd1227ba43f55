"""The fast paths against the slow reference implementations kept in
``helpers``: the integer-preserving simplex against the Fraction tableau
and the explicit-column scan, direct admissible generation against the
brute-force filter, the per-choice-maxima check and the integer-scale
outcome check against the explicit inequality family summed in
Fractions, the single-constraint region certificate against
whole-box rejection on moved offsets, the simulation kernel's column
folds against ``axis=1`` reductions, the per-choice moment test and
bincount cell counts against the explicit family (exactly, spec by
spec, and to 1e-12 of the dense weight matrix) and the per-row loop,
and the integer-scale outcome witness against the Fraction
construction."""

import dataclasses
import tracemalloc
from fractions import Fraction as F
from itertools import product
from math import lcm, prod
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from encdesign import inequalities, lp, simulate, stats
from encdesign.admissible import enumerate_admissible, is_admissible
from encdesign.core import (
    DesignConfig,
    OutcomeResponseMeasure,
    ResponseType,
    pushforward,
    pushforward_outcome,
)
from encdesign.errors import CapacityError, ConstructionError
from encdesign.inequalities import OutcomeDistribution, check, check_outcome
from encdesign.simulate import (
    CHUNK_SIZE,
    _chunk_rng,
    MicroData,
    RumSpec,
    build_epsilon_mixture,
    verify_mixture,
)
from encdesign.witness import construct_outcome
from helpers import (
    ScanColumns,
    admissible_by_filter,
    assert_integer_form,
    assert_same_report,
    boundary_measure,
    check_by_family,
    check_outcome_by_family,
    construct_outcome_by_fractions,
    estimate_by_rows,
    feasible_by_scan,
    feasible_outcome_by_scan,
    feasible_outcome_table,
    feasible_table,
    full_support_mixture,
    lambda_weights,
    phase_one_bland,
    phase_one_columns,
    phase_one_fraction,
    phase_one_scan,
    potential_type_codes_by_argmax,
    priced_tableau,
    random_measure,
    random_outcome_measure,
    random_outcome_table,
    random_table,
    region_points_by_box_rejection,
    scaled_rhs,
    solution_vector,
    solved_by_lp,
    targeted_outcome_table,
    type_column_keys,
)
from helpers import test_model_by_family as model_test_by_family
from helpers import test_model_by_specs as model_test_by_specs


@pytest.fixture
def phase_one_pairs(monkeypatch):
    """Route every LP through the solver, the Fraction tableau and the
    explicit-column scan, all three on the columns the solver prices,
    requiring identical results, and through Bland's Fraction tableau,
    requiring the same verdict; returns one feasibility flag per LP
    solved."""
    seen = []
    fast = lp._phase_one

    def compared(columns, rhs, scale, m):
        got = fast(columns, rhs, scale, m)
        b = [F(n, scale) for n in rhs]
        # the table's L is the lcm of the right-hand side's denominators
        assert scaled_rhs(b) == (rhs, scale)
        keys = type_column_keys(columns)
        explicit = [columns.rows(key) for key in keys]
        want = phase_one_fraction(explicit, b, m)
        assert solution_vector(got, keys) == want
        assert phase_one_scan(explicit, b, m) == want
        assert (phase_one_bland(explicit, b, m) is None) == (want is None)
        assert got is None or all(type(v) is F for v in got.values())
        seen.append(got is not None)
        return got

    monkeypatch.setattr(lp, "_phase_one", compared)
    return seen


def _tables(config, rng, copies):
    for _ in range(copies):
        yield feasible_table(config, rng)
        yield pushforward(boundary_measure(config, rng))
        yield random_table(config, rng)


@pytest.mark.parametrize(
    "J, J0, copies",
    [(2, 0, 6), (3, 0, 6), (3, 1, 6), (3, 2, 6), (4, 0, 3), (4, 2, 3), (5, 0, 1)],
)
def test_phase_one_matches_fraction_tableau_on_tables(phase_one_pairs, J, J0, copies):
    config = DesignConfig(J, J0)
    rng = Random(211 + 10 * J + J0)
    for P in _tables(config, rng, copies):
        ok, cert = lp.feasible(P)
        if ok:
            assert pushforward(cert).rows == P.rows
    assert len(phase_one_pairs) == 3 * copies
    assert any(phase_one_pairs)


def test_phase_one_matches_fraction_tableau_on_random_systems():
    rng = Random(223)
    verdicts = set()
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 9)
        columns = [sorted(rng.sample(range(m), rng.randint(0, m))) for _ in range(n)]
        if rng.random() < 0.5:
            # b = A x for a random nonnegative rational x: feasible
            x = [F(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(n)]
            b = [sum((x[v] for v in range(n) if i in columns[v]), F(0)) for i in range(m)]
        else:
            b = [F(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(m)]
        got = phase_one_columns(columns, b, m)
        assert got == phase_one_fraction(columns, b, m)
        assert got == phase_one_scan(columns, b, m)
        assert (phase_one_bland(columns, b, m) is None) == (got is None)
        verdicts.add(got is not None)
    assert verdicts == {True, False}


def test_lexicographic_ratio_test_on_degenerate_systems():
    # b with many zeros makes most pivots degenerate and most ratio tests
    # tie, so the solution alone says little: the solver must end on the
    # Fraction tableau's basis, and the tableau fails if a basis repeats
    rng = Random(229)
    tied = 0
    verdicts = set()
    for _ in range(200):
        m = rng.randint(2, 6)
        n = rng.randint(2, 9)
        columns = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
        if rng.random() < 0.5:
            # b = A x for a sparse nonnegative x: feasible
            x = [F(rng.randint(1, 3)) if rng.random() < 0.2 else F(0) for _ in range(n)]
            b = [sum((x[v] for v in range(n) if i in columns[v]), F(0)) for i in range(m)]
        else:
            b = [F(rng.randint(1, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
                 for _ in range(m)]
        pivots = []
        want = phase_one_fraction(columns, b, m, pivots)
        got = lp._phase_one(ScanColumns(columns), *scaled_rhs(b), m)
        assert solution_vector(got, range(n)) == want
        if got is not None:
            basis = pivots[-1][1] if pivots else frozenset()
            assert set(got) == {v for v in basis if v < n}
        assert phase_one_scan(columns, b, m) == want
        assert (phase_one_bland(columns, b, m) is None) == (want is None)
        tied += sum(count > 1 for count, _ in pivots)
        verdicts.add(want is not None)
    assert verdicts == {True, False}
    # pivots on which several rows tied at the least ratio
    assert tied >= 100, tied


def test_feasible_outcome_matches_fraction_tableau(phase_one_pairs):
    config = DesignConfig(3, 0)
    rng = Random(227)
    for i in range(6):
        if i % 2:
            PY = feasible_outcome_table(config, (0, 1), rng)
        else:
            PY = random_outcome_table(config, (0, 1), rng)
        lp.feasible_outcome(PY)
    assert len(phase_one_pairs) == 6
    assert any(phase_one_pairs)


def _benchmark_lp(case, kind, seed):
    """The perfbench.inputs table keyed by (seed, case, kind), for case
    (J, J0) or (J, J0, |Y|), and the LP on it: (table, (verdict,
    certificate), columns, b, m, solution)."""
    from perfbench import inputs

    config = DesignConfig(*case[:2])
    rng = inputs.rng_for(seed, case, kind)
    if len(case) == 2:
        table = inputs.treatment_table(config, kind, rng)
        return table, *solved_by_lp(lp.feasible, table)
    table = inputs.outcome_table(config, tuple(range(case[2])), kind, rng)
    ok, *solved = solved_by_lp(lp.feasible_outcome, table)
    return table, (ok, None), *solved


# Benchmark tables (perfbench.inputs, keyed by seed, design and kind) on
# which the Fraction tableau over the columns the solver prices, having
# priced every one of them nonnegative, goes on to enter an artificial
# column
@pytest.mark.parametrize(
    "case, kind, seed",
    [((4, 0), "random", 8), ((5, 0), "boundary", 0), ((6, 0), "boundary", 4),
     ((6, 0), "random", 4), ((6, 2), "random", 6), ((8, 2), "feasible", 5),
     ((8, 2), "boundary", 12), ((8, 2), "random", 1), ((3, 0, 3), "boundary", 10),
     ((3, 1, 2), "boundary", 5), ((4, 2, 2), "random", 10)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_stopping_where_pricing_stops_loses_nothing(case, kind, seed):
    table, (ok, cert), columns, b, m, got = _benchmark_lp(case, kind, seed)
    pivots = []
    keys, want = priced_tableau(columns, b, m, pivots)
    explicit = [columns.rows(key) for key in keys]
    # some pivot of the tableau enters an artificial column (index >= n)
    n = len(keys)
    bases = [frozenset(range(n, n + m))] + [basis for _, basis in pivots]
    assert any(min(after - before) >= n for before, after in zip(bases, bases[1:]))
    assert ok == (want is not None)
    assert solution_vector(got, keys) == want
    assert phase_one_scan(explicit, b, m) == want
    assert phase_one_columns(explicit, b, m) == want
    if len(case) == 2 and ok:
        assert list(cert.mass.items()) == [
            (ResponseType(d), v) for (d, _), v in zip(keys, want) if v > 0
        ]


# Benchmark tables are sparse: perfbench.inputs pushes forward 3J or 4J
# sampled types, or draws cells from 0..6, so many cells are zero and
# close every column through them. (8,0) is left out: there the Fraction
# tableau takes about 4 s per table on the priced columns and 12-17 s on
# all of them.
@pytest.mark.parametrize(
    "case, seeds",
    [((3, 0), 3), ((4, 0), 3), ((5, 0), 2), ((6, 0), 1), ((4, 2), 3), ((6, 2), 2), ((8, 2), 1),
     ((3, 1, 3), 2), ((4, 2, 3), 1), ((4, 0, 2), 1)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_closed_cells_keep_tableau_parity_on_sparse_tables(case, seeds):
    closed = []
    verdicts = set()
    for kind in ("feasible", "boundary", "random"):
        for seed in range(1, seeds + 1):
            table, (ok, cert), columns, b, m, got = _benchmark_lp(case, kind, seed)
            keys, want = priced_tableau(columns, b, m)
            assert solution_vector(got, keys) == want
            if cert is not None:
                assert pushforward(cert).rows == table.rows
            # the verdict over every column, none closed
            every = lp._TypeColumns(columns.config, columns.ny)
            explicit = [every.rows(key) for key in type_column_keys(every)]
            assert (phase_one_fraction(explicit, b, m) is not None) == ok
            if len(case) == 2:
                assert feasible_by_scan(table)[0] == ok
            else:
                assert feasible_outcome_by_scan(table) == ok
            closed.append(bool(columns.closed))
            verdicts.add(ok)
    assert any(closed) and verdicts == {True, False}


@pytest.mark.parametrize(
    "J, J0, copies",
    [(2, 0, 6), (3, 0, 6), (3, 1, 6), (3, 2, 6), (4, 0, 4), (4, 2, 4), (5, 0, 2), (5, 3, 2),
     (6, 2, 1)],
)
def test_certificates_match_explicit_column_lp(J, J0, copies):
    config = DesignConfig(J, J0)
    rng = Random(421 + 10 * J + J0)
    verdicts = set()
    for P in _tables(config, rng, copies):
        assert_integer_form(P)
        ok, cert = lp.feasible(P)
        want_ok, want = feasible_by_scan(P)
        assert ok == want_ok
        if ok:
            assert list(cert.mass.items()) == list(want.mass.items())
        verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "J, J0, ys",
    [(2, 0, (0, 1)), (2, 1, (4, -1, 2)), (3, 0, (0, 1)), (3, 1, (2, 0)), (3, 0, (5, 3, 4))],
)
def test_outcome_verdicts_match_explicit_column_lp(J, J0, ys):
    config = DesignConfig(J, J0)
    rng = Random(431 + 10 * J + J0 + len(ys))
    verdicts = set()
    for i in range(6):
        if i % 2:
            PY = feasible_outcome_table(config, ys, rng)
        else:
            PY = random_outcome_table(config, ys, rng)
        assert_integer_form(PY)
        got = lp.feasible_outcome(PY)
        assert got == feasible_outcome_by_scan(PY)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_enumeration_matches_brute_force_filter():
    for J in range(2, 7):
        for J0 in range(J):
            config = DesignConfig(J, J0)
            admissible = enumerate_admissible(config)
            assert admissible == admissible_by_filter(config), (J, J0)
            if J > 5:
                continue
            for d in product(range(J), repeat=len(config.z_support)):
                rt = ResponseType(d)
                assert (rt in admissible) == is_admissible(config, rt), (J, J0, d)


@pytest.mark.parametrize(
    "J, J0, full, copies",
    [
        (2, 0, False, 8),
        (3, 0, False, 8),
        (4, 0, False, 6),
        (5, 0, False, 3),
        (6, 0, False, 1),
        (3, 1, True, 6),
        (3, 2, True, 6),
        (4, 1, True, 4),
        (4, 2, True, 4),
        (5, 2, True, 2),
        (6, 3, True, 1),
    ],
)
def test_check_matches_explicit_family(J, J0, full, copies):
    # ``full``: the design has a base state, so ``check`` evaluates the
    # reduced family; its verdict must also match the selector family's.
    config = DesignConfig(J, J0)
    rng = Random(229 + 10 * J + J0)
    verdicts, boundary = set(), 0
    for P in _tables(config, rng, copies):
        assert_integer_form(P)
        got = check(P)
        want = check_by_family(P)
        assert got.passed == want.passed
        if full:
            assert got.passed == check_by_family(P, full=True).passed
        assert got.min_slack == want.min_slack and type(got.min_slack) is F
        assert got.violations == want.violations
        assert all(type(v) is F for _, v in got.violations)
        verdicts.add(got.passed)
        boundary += got.min_slack == 0
    assert verdicts == {True, False}
    assert boundary >= copies


@pytest.mark.parametrize(
    "J, J0, ny", [(2, 0, 2), (3, 0, 2), (3, 0, 3), (3, 1, 2), (3, 2, 3), (4, 2, 2)]
)
def test_check_outcome_matches_explicit_family(J, J0, ny):
    config = DesignConfig(J, J0)
    rng = Random(241 + 100 * J + 10 * J0 + ny)
    ys = tuple(range(ny))
    verdicts = set()
    for make in (random_outcome_table, feasible_outcome_table) * 3:
        PY = make(config, ys, rng)
        assert_integer_form(PY)
        got, want = check_outcome(PY), check_outcome_by_family(PY)
        assert got.passed == want.passed
        assert got.min_slack == want.min_slack and type(got.min_slack) is F
        assert got.violations == want.violations
        assert all(type(v) is F for _, v in got.violations)
        verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("J, J0", [(4, 0), (5, 0), (4, 1), (5, 2)])
def test_check_cap_bounds_the_violations_listed(monkeypatch, J, J0):
    config = DesignConfig(J, J0)
    rng = Random(233 + 10 * J + J0)
    tried = 0
    for _ in range(4):
        P = random_table(config, rng)
        want = check_by_family(P).violations
        if not want:
            continue
        tried += 1
        # the lowered cap would refuse the oracle's whole family too
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "FAMILY_CAP", len(want))
            assert check(P).violations == want
            patch.setattr(inequalities, "FAMILY_CAP", len(want) - 1)
            with pytest.raises(CapacityError, match=f"more than {len(want) - 1} violations"):
                check(P).violations
    assert tried


MUTATION_DESIGNS = [(3, 0), (3, 1), (4, 2)]
MUTATION_STEPS = (-0.5, 0.5, 1.0)


def _single_offset_mutations(J, J0):
    """Each offset of the first three regions of four random mixtures,
    moved by each of MUTATION_STEPS; yields the mixture and the moved
    region."""
    rng = Random(307 + 10 * J + J0)
    for _ in range(4):
        mix = build_epsilon_mixture(random_measure(DesignConfig(J, J0), rng))
        for region in mix.components[:3]:
            for i, (a, b, c) in enumerate(region.constraints):
                for step in MUTATION_STEPS:
                    constraints = list(region.constraints)
                    constraints[i] = (a, b, c + step)
                    yield mix, dataclasses.replace(region, constraints=tuple(constraints))


@pytest.mark.parametrize("J, J0", MUTATION_DESIGNS)
def test_certificate_refuses_every_region_box_rejection_catches(J, J0):
    # box rejection draws uniform points of the moved region and raises on
    # one of another type; the certificate must refuse every such region
    caught = refused = 0
    for k, (mix, region) in enumerate(_single_offset_mutations(J, J0)):
        certified = simulate._certified(mix.config, mix.betas, region)
        refused += not certified
        try:
            region_points_by_box_rejection(mix, region, 300, _chunk_rng(331, k))
        except RuntimeError as exc:
            assert "produced" in str(exc), str(exc)
            caught += 1
            assert not certified, (region.rtype.d, region.constraints, str(exc))
    assert 0 < caught <= refused


def test_verify_mixture_memory_is_one_chunk():
    # 2e6 draws over the 29 regions at (4,0): no shock is sampled, so the
    # peak is the certificate's offsets and the component weights and
    # counts, about 6 kB; one chunk of shocks would take 2 MB and rows
    # kept for all draws 64 MB
    mix = full_support_mixture(4, 0)
    tracemalloc.start()
    try:
        verify_mixture(mix, 2_000_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_simulate_matches_axis_reduction_oracles(monkeypatch):
    specs = []
    for (J, J0), family in zip(
        [(2, 0), (3, 1), (4, 0), (5, 2), (6, 0), (6, 1)], ["gumbel", "normal", "uniform"] * 2
    ):
        config = DesignConfig(J, J0)
        betas = tuple(0.0 if j < J0 else 0.5 + 0.25 * j for j in range(J))
        pz = {z: F(1, len(config.z_support)) for z in config.z_support}
        # two chunks, the second one short
        specs.append(RumSpec(config, betas, pz, CHUNK_SIZE + 4000, 619 + J, family))
    new = [simulate.simulate(spec) for spec in specs]
    kernels = SimpleNamespace(potential_type_codes=potential_type_codes_by_argmax)
    monkeypatch.setattr(simulate, "kernels", kernels)
    old = [simulate.simulate(spec) for spec in specs]
    for a, b in zip(new, old):
        assert np.array_equal(a.data.d, b.data.d) and np.array_equal(a.data.z, b.data.z)
        assert a.table == b.table
        assert list(a.type_counts.items()) == list(b.type_counts.items())


def _micro(J, J0, ny, n, seed):
    """Rows with a uniform instrument, a treatment that complies with the
    instrument 40% of the time and is uniform otherwise, and, with ``ny``,
    a uniform outcome."""
    rng = np.random.default_rng(seed)
    config = DesignConfig(J, J0)
    zs = np.asarray(config.z_support)
    z = zs[rng.integers(0, len(zs), n)]
    d = np.where(rng.random(n) < 0.4, z, rng.integers(0, J, n))
    y = rng.integers(0, ny, n) if ny else None
    return config, MicroData(d, z, y)


MOMENT_DESIGNS = [
    (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0), (6, 0, 0), (4, 2, 0), (6, 2, 0),
    (3, 0, 2), (3, 0, 3), (3, 1, 3), (4, 2, 3), (4, 0, 2),
    # 4,096 partition rows after 24 static rows: chunks of 1,049 moments
    # at B=999 hold ranges of the second choice's 16 options
    (3, 0, 4),
]


@pytest.mark.parametrize("B", [99, 999])
@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("J, J0, ny", MOMENT_DESIGNS)
def test_test_model_matches_explicit_family(J, J0, ny, n, B):
    config, data = _micro(J, J0, ny, n, seed=1000 * J + 100 * J0 + 10 * ny + n)
    got = stats.test_model(data, config, B=B, seed=B + n)
    assert_same_report(got, model_test_by_specs(data, config, B=B, seed=B + n))


@pytest.mark.parametrize("B", [99, 999])
@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("J, J0, ny", MOMENT_DESIGNS)
def test_test_model_is_close_to_the_dense_family(J, J0, ny, n, B):
    # the dense W @ p and G @ W.T group their sums as BLAS does, so only
    # the last bits may differ
    config, data = _micro(J, J0, ny, n, seed=1000 * J + 100 * J0 + 10 * ny + n)
    got = stats.test_model(data, config, B=B, seed=B + n)
    want = model_test_by_family(data, config, B=B, seed=B + n)
    assert got.statistic == pytest.approx(want.statistic, rel=1e-12, abs=0)
    assert got.critical_value == pytest.approx(want.critical_value, rel=1e-12, abs=0)
    assert got.reject == want.reject


@pytest.mark.parametrize("J, J0", [(2, 0), (3, 1)])
def test_test_model_matches_explicit_family_on_wide_alphabet(J, J0):
    # about 200 outcome values: p_hat's per-arm division and the
    # oracle's per-cell scan of y_support give the same floats
    config, data = _micro(J, J0, 200, 6000, seed=200 + J)
    assert len(np.unique(data.y)) == 200
    got = stats.test_model(data, config, B=99, seed=5)
    assert_same_report(got, model_test_by_specs(data, config, B=99, seed=5))


def test_test_model_one_row_last_block(monkeypatch):
    # B = 40,000 and a buffer of 2**20 doubles give chunks of 26 moments:
    # the 40 static rows at (2,0) with 20 outcome values take two, and
    # the partition family's single member is a chunk of its own
    monkeypatch.setattr(stats, "_CHUNK_DOUBLES", 1 << 20)
    config, data = _micro(2, 0, 20, 2000, seed=41)
    assert len(np.unique(data.y)) == 20
    assert stats._CHUNK_DOUBLES // 40_000 == 26
    got = stats.test_model(data, config, B=40_000, seed=2)
    assert len(got.slacks) == 41
    assert_same_report(got, model_test_by_specs(data, config, B=40_000, seed=2))


@pytest.mark.parametrize("rows", [1, 2, 5, 7, 30, 100])
@pytest.mark.parametrize("J, J0, ny", [(4, 0, 0), (3, 0, 3), (3, 1, 3), (5, 0, 0)])
def test_test_model_does_not_depend_on_the_chunk_size(monkeypatch, J, J0, ny, rows):
    # chunks of one member, ranges of the last or an inner choice's
    # options, and whole tails: every moment keeps its order of sums
    config, data = _micro(J, J0, ny, 1500, seed=77 + rows)
    monkeypatch.setattr(stats, "_CHUNK_DOUBLES", 99 * rows)
    got = stats.test_model(data, config, B=99, seed=rows)
    assert_same_report(got, model_test_by_specs(data, config, B=99, seed=rows))


def _spy_groups(monkeypatch) -> list:
    """Per product group that ``stats.test_model`` hands to
    ``_group_max``: whether it holds a floored member, whether some of its
    draws were evaluated cell by cell, and its own maximum per draw."""
    log = []
    group_max, sparse_max = stats._group_max, stats._sparse_max

    def spy_group(t_star, acc, last, se, work, hit):
        alone = np.full(len(t_star), -np.inf)
        stats._dense_max(alone, acc, last, se, np.empty(work.size))
        log.append({"floored": bool((se == stats.SE_FLOOR).any()), "sparse": False, "maxima": alone})
        group_max(t_star, acc, last, se, work, hit)

    def spy_sparse(*args):
        log[-1]["sparse"] = True
        sparse_max(*args)

    monkeypatch.setattr(stats, "_group_max", spy_group)
    monkeypatch.setattr(stats, "_sparse_max", spy_sparse)
    return log


@pytest.mark.parametrize("B", [99, 999])
@pytest.mark.parametrize("rows", [30, 200, None])
@pytest.mark.parametrize("J, ny", [(4, 2), (3, 3), (5, 0)])
def test_bounded_bootstrap_matches_explicit_family(monkeypatch, J, ny, rows, B):
    # many groups of the product family (a buffer of ``rows`` rows of
    # sums, or the default), most of whose draws are skipped by their
    # bound: the report is still the explicit family's, bit for bit
    config, data = _micro(J, 0, ny, 3000, seed=10 * J + ny)
    chunk = (B + 6) * rows if rows else stats._CHUNK_DOUBLES
    monkeypatch.setattr(stats, "_CHUNK_DOUBLES", chunk)
    log = _spy_groups(monkeypatch)
    got = stats.test_model(data, config, B=B, seed=B + chunk)
    assert sum(g["sparse"] for g in log) >= len(log) // 2, [g["sparse"] for g in log]
    assert_same_report(got, model_test_by_specs(data, config, B=B, seed=B + chunk))


def _empty_cell_micro(J, ny, n, seed, shifts):
    """``_micro``'s rows less those with d = z + s (mod J) for s = 1 ..
    ``shifts``. Every choice j then has options whose cells are all
    empty, one per outcome value and empty arm: members that take such
    options everywhere have no variance (they are floored) and draws of
    0.0 or -0.0, and with two empty arms per choice, members that differ
    only in empty cells tie bit for bit, across groups too."""
    config, data = _micro(J, 0, ny, n, seed)
    keep = np.all([data.d != (data.z + s) % J for s in range(1, shifts + 1)], axis=0)
    return config, MicroData(data.d[keep], data.z[keep], None if data.y is None else data.y[keep])


@pytest.mark.parametrize("B", [99, 999])
@pytest.mark.parametrize("shifts", [1, 2])
@pytest.mark.parametrize("J, ny", [(4, 2), (5, 0)])
def test_bounded_bootstrap_keeps_floored_members_and_ties(monkeypatch, J, ny, shifts, B):
    config, data = _empty_cell_micro(J, ny, 4000, J + ny, shifts)
    monkeypatch.setattr(stats, "_CHUNK_DOUBLES", (B + 6) * 30)
    log = _spy_groups(monkeypatch)
    got = stats.test_model(data, config, B=B, seed=7)
    assert got.floored.any()
    if shifts == 1:
        # a floored member inside a group whose draws were bounded
        assert any(g["floored"] and g["sparse"] for g in log)
    else:
        # draws whose maximum over the groups two groups attain
        maxima = np.array([g["maxima"] for g in log])
        assert ((maxima == maxima.max(axis=0)).sum(axis=0) > 1).sum() > B // 2
    assert_same_report(got, model_test_by_specs(data, config, B=B, seed=7))


def test_group_max_leaves_the_dense_maximum_bit_for_bit(monkeypatch):
    # draws from a few values, 0.0 and -0.0 among them, so that ties and
    # signed zeros are everywhere; standard errors with the floor among
    # them; running maxima of every sign, -0.0 and -inf included, most of
    # them out of reach so that most cells are skipped. Each group must
    # leave t_star with the bytes the dense fold leaves, also when the
    # cells leave a zero and the group is taken again whole.
    calls, dense_max = [], stats._dense_max
    for name in ("_sparse_max", "_dense_max"):
        def spy(*args, _name=name, _f=getattr(stats, name)):
            calls.append(_name)
            _f(*args)

        monkeypatch.setattr(stats, name, spy)
    rng = np.random.default_rng(31)
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 3.0])
    B, paths = 99, set()
    for trial in range(300):
        m, k = rng.integers(1, 40), rng.integers(1, 9)
        acc = rng.choice(values, size=(m, B + 3))
        last = rng.choice(values, size=(k, B + 3))
        se = rng.choice([stats.SE_FLOOR, 0.25, 0.5, 1.0], size=(m, k))
        t_star = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, 4.0, 8.0], size=B)
        t_star[rng.random(B) < 0.8] = 1e9
        want = t_star.copy()
        dense_max(want, acc, last, se, np.empty(k * B))
        calls.clear()
        got = t_star.copy()
        stats._group_max(got, acc, last, se, np.empty(max(k, m) * B), np.empty((m, B), dtype=bool))
        assert got.tobytes() == want.tobytes(), trial
        paths.add(tuple(calls))
    # cells alone, and cells that left a zero and were taken again whole
    assert {("_sparse_max",), ("_sparse_max", "_dense_max")} <= paths, paths


@pytest.mark.parametrize(
    "J, J0, ny, message",
    [
        (8, 0, 0, "family would hold more than 1000000 inequalities"),
        (4, 0, 4, "family would hold more than 1000000 inequalities"),
        (1002, 1, 0, "family would hold more than 1000000 inequalities"),
    ],
)
def test_test_model_cap_refuses_before_building_rows(monkeypatch, J, J0, ny, message):
    # rows on every arm, so the oracle too meets the cap
    config, data = _micro(J, J0, ny, max(2000, 20 * J), seed=7)
    with pytest.raises(CapacityError) as oracle:
        model_test_by_family(data, config, B=99)
    assert str(oracle.value) == message

    def refuse(*args, **kwargs):
        raise AssertionError("a moment row was built")

    # with a base state the real generate refuses before it builds a spec
    names = ["_option_sums", "_fold", "generate_outcome"] + ([] if J0 else ["generate"])
    # where the treatment family is past the cap nothing is counted; at
    # (4,0) only estimate learns that |Y| = 4
    names += [] if ny else ["estimate"]
    for name in names:
        monkeypatch.setattr(stats, name, refuse)
    monkeypatch.setattr(inequalities, "InequalitySpec", refuse)
    with pytest.raises(CapacityError) as got:
        stats.test_model(data, config, B=99)
    assert str(got.value) == message


@pytest.mark.parametrize("J, J0, ny", [(3, 1, 3), (4, 2, 3), (5, 1, 2)])
def test_outcome_test_caps_its_static_family_at_its_size(monkeypatch, J, J0, ny):
    # with a base state no product family bounds J or |Y|; the static
    # family's size is counted once |Y| is known, before a row is built
    config, data = _micro(J, J0, ny, 2000, seed=11)
    size = len(inequalities.generate_outcome(config, tuple(range(ny))))
    monkeypatch.setattr(inequalities, "FAMILY_CAP", size)
    assert stats.test_model(data, config, B=99).slacks.shape == (size,)

    def refuse(*args, **kwargs):
        raise AssertionError("a moment row was built")

    monkeypatch.setattr(inequalities, "FAMILY_CAP", size - 1)
    monkeypatch.setattr(stats, "generate_outcome", refuse)
    with pytest.raises(CapacityError, match=f"^family would hold more than {size - 1} inequalities$"):
        stats.test_model(data, config, B=99)


def _test_model_peak(config, data, B):
    tracemalloc.start()
    try:
        report = stats.test_model(data, config, B=B, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_test_model_memory_is_one_block():
    # 531,477 moments at B = 99: the report's arrays (9.1 MB) and one
    # buffer of at most 2**17 doubles, 10.8 MB in all (10.5 MB before the
    # bootstrap pass bounded its groups, 11.3 MB before that); whole-family
    # variance sums peaked at 21.7 MB. The explicit family peaks at about
    # 1.2 GB on this design, and the dense blocks of W at about 27 MB
    config, data = _micro(4, 0, 3, 20_000, seed=11)
    report, peak = _test_model_peak(config, data, B=99)
    assert len(report.slacks) == 3 ** 12 + 36
    assert peak < 13e6, peak


def test_treatment_test_memory_is_one_block():
    # the benchmark's (5,0) treatment test: 150,000 rows, B = 999 and
    # 1,024 selector moments. The peak was 2.40 MB before the bootstrap
    # pass bounded its groups, and is the same after it, since the bounds
    # and the groups' sums share the one 2**17-double (1 MiB) buffer; the
    # margin of 0.3 MB is less than a third of a second such buffer
    config, data = _micro(5, 0, 0, 150_000, seed=5)
    report, peak = _test_model_peak(config, data, B=999)
    assert len(report.slacks) == 4 ** 5
    assert peak < 2.7e6, peak


def test_test_model_and_its_summary_stay_within_one_block():
    # the summary's binding moment is found a chunk at a time too: a
    # whole-family studentized copy added 8.5 MB
    config, data = _micro(4, 0, 3, 100_000, seed=12)
    tracemalloc.start()
    try:
        summary = stats.test_model(data, config, B=99, seed=3).summary_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["moment_count"] == 3 ** 12 + 36
    assert peak < 15e6, peak


@pytest.mark.parametrize(
    "J, J0, B, limit",
    [(3, 1, 99, 40e6), (2, 0, 99, 40e6), (3, 1, 999, 52e6)],
)
def test_test_model_memory_is_linear_in_the_outcome_alphabet(J, J0, B, limit):
    # 300 outcome values: 2,400 static rows over 2,700 cells at (3,1) and
    # 600 over 1,200 at (2,0). A dense static W peaked at 170.5 MB at
    # (3,1); now the per-cell draws (B x cells) dominate
    config, data = _micro(J, J0, 300, 20_000, seed=300 + J)
    assert len(np.unique(data.y)) == 300
    report, peak = _test_model_peak(config, data, B=B)
    assert len(report.slacks) == {(3, 1): 2400, (2, 0): 601}[J, J0]
    assert peak < limit, peak


def test_test_model_holds_the_per_cell_draws_once():
    # the per-cell draws (B x cells) are held once: at (3,1) with B = 999
    # on 300 outcome values the peak went from 44.5 MB, the draws and
    # their transpose, to 30.8 MB, the draws and an 8.4 MB buffer, and to
    # 23.7 MB with a 1 MB buffer
    config, data = _micro(3, 1, 300, 20_000, seed=303)
    report, peak = _test_model_peak(config, data, B=999)
    assert len(report.slacks) == 2400
    assert peak < 26e6, peak


def _same_tables(a, b):
    assert a.arm_counts == b.arm_counts
    assert a.y_support == b.y_support
    assert list(a.cells) == list(b.cells)
    for z in a.cells:
        assert a.cells[z].dtype == b.cells[z].dtype
        assert a.cells[z].shape == b.cells[z].shape
        assert a.cells[z].tobytes() == b.cells[z].tobytes()


@pytest.mark.parametrize("y_support", [None, (-2, 3, 5)])
@pytest.mark.parametrize("J, J0", [(3, 0), (4, 2)])
def test_estimate_matches_row_counts(J, J0, y_support):
    # y_support: the outcome alphabet the data is drawn from (None: no
    # outcome column), which estimate must infer
    config, data = _micro(J, J0, 0, 3000, seed=J)
    if y_support is not None:
        rng = np.random.default_rng(5)
        y = np.asarray(y_support[::-1])[rng.integers(0, 3, len(data))]
        data = MicroData(data.d, data.z, y)
    got = stats.estimate(data, config)
    assert got.y_support == y_support
    _same_tables(got, estimate_by_rows(data, config))

    # an instrument outside the support, below it, inside [0, J) but not
    # supported (base state only) or past J: the same first bad row
    outside = [-1, -(2**63), J, 2**63 - 1] + [z for z in range(J) if z not in config.z_support]
    for bad in outside:
        z = data.z.copy()
        z[[700, 2500]] = bad, -5
        broken = MicroData(data.d, z, data.y)
        with pytest.raises(ValueError) as want:
            estimate_by_rows(broken, config)
        with pytest.raises(ValueError, match=f"^row 700: instrument {bad} not in support") as got:
            stats.estimate(broken, config)
        assert str(got.value) == str(want.value)


def _same_outcome_witness(PY) -> bool:
    """The witness (keys, order and values) or the ConstructionError
    (message, target, step and mass) of both constructions; True when a
    witness was built."""
    try:
        want = construct_outcome_by_fractions(PY)
    except ConstructionError as err:
        with pytest.raises(ConstructionError) as got:
            construct_outcome(PY)
        assert str(got.value) == str(err)
        assert got.value.target == err.target
        assert (got.value.step, got.value.mass) == (err.step, err.mass)
        return False
    got = construct_outcome(PY).mass
    assert list(got.items()) == list(want.items())
    assert all(type(m) is F for m in got.values())
    return True


@pytest.mark.parametrize(
    "J, J0, ny",
    [(2, 0, 2), (3, 0, 2), (3, 0, 3), (3, 1, 2), (3, 1, 3), (4, 2, 2), (4, 2, 3), (4, 0, 2),
     (4, 0, 3), (5, 0, 2), (3, 0, 4), (5, 2, 2)],
)
def test_outcome_witness_matches_fraction_construction(J, J0, ny):
    # the exact-y benchmark designs and their three table kinds, plus
    # designs whose completion lists and common denominators are larger;
    # the targeted tables reach the negative steps and remainders that
    # random tables, failing the mixing weights first, never reach
    from perfbench import inputs

    config, ys = DesignConfig(J, J0), tuple(range(ny))
    for kind in inputs.KINDS:
        for i in range(3):
            rng = inputs.rng_for("witness", J, J0, ny, kind, i)
            built = _same_outcome_witness(inputs.outcome_table(config, ys, kind, rng))
            assert built or kind == "random"
    rng = Random(503 + 100 * J + 10 * J0 + ny)
    for _ in range(6):
        _same_outcome_witness(targeted_outcome_table(config, ys, rng))


@pytest.mark.parametrize(
    "J, J0, ys",
    [(2, 1, (4, -1, 2)), (3, 1, (2, 0)), (3, 0, (5, 3, 4)), (3, 2, (1, 0, 2))],
)
def test_outcome_witness_matches_fraction_construction_on_unordered_supports(J, J0, ys):
    config = DesignConfig(J, J0)
    rng = Random(509 + 10 * J + J0)
    built = set()
    for i in range(12):
        if i % 2:
            PY = feasible_outcome_table(config, ys, rng)
        else:
            PY = random_outcome_table(config, ys, rng)
        built.add(_same_outcome_witness(PY))
    assert built == {True, False}


def _coprime_measure(config, ys, rng):
    """A random outcome measure rescaled so that its masses sit over the
    coprime denominators 997, 1009 and 1013."""
    q = random_outcome_measure(config, ys, rng)
    keys = list(q.mass)
    mass = {
        key: F(rng.randint(1, 9), (997, 1009, 1013)[i % 3]) / (2 * len(keys))
        for i, key in enumerate(keys)
    }
    mass[keys[-1]] += 1 - sum(mass.values())
    return mass


@pytest.mark.parametrize("J, J0, ys", [(3, 0, (0, 1)), (3, 1, (0, 1, 2)), (4, 2, (0, 1))])
def test_outcome_witness_matches_fraction_construction_past_64_bits(J, J0, ys):
    # masses and slices over large coprime denominators, so that the
    # common scale L * prod(den) of the witness exceeds 2**64
    config = DesignConfig(J, J0)
    rng = Random(521 + 10 * J + J0)
    feasible = pushforward_outcome(
        OutcomeResponseMeasure(config, ys, _coprime_measure(config, ys, rng))
    )
    cells = {}
    for z, den in zip(config.z_support, (997, 1009, 1013, 1019)):
        weights = [rng.randint(1, 9) for _ in range(config.J * len(ys))]
        weights[-1] += den - sum(weights)
        it = iter(weights)
        cells[z] = {j: {y: F(next(it), den) for y in ys} for j in range(config.J)}
    for PY in (feasible, OutcomeDistribution(config, ys, cells)):
        if _same_outcome_witness(PY):
            lam = lambda_weights(PY)
            scale = lcm(
                *(v.denominator for z in PY.cells for by_y in PY.cells[z].values() for v in by_y.values())
            )
            dens = (lcm(*(w.denominator for w in lam[k].values())) for k in range(config.J))
            assert scale * prod(dens) > 2**64
        else:
            assert PY is not feasible
