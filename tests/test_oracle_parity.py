"""The fast paths against the slow reference implementations kept in
``helpers``: the integer-preserving simplex against the Fraction tableau
and the explicit-column scan, direct admissible generation against the
brute-force filter, the per-choice-maxima check against the explicit
inequality family, the difference-coordinate region sampler against
whole-box rejection, and the block-streamed moment test and bincount cell
counts against the explicit family and the per-row loop."""

import tracemalloc
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from encdesign import lp, stats
from encdesign.admissible import enumerate_admissible
from encdesign.core import DesignConfig, pushforward
from encdesign.errors import CapacityError
from encdesign.inequalities import check
from encdesign.simulate import (
    _chunk_rng,
    _difference_box,
    _sample_region,
    MicroData,
    build_epsilon_mixture,
)
from helpers import (
    admissible_by_filter,
    boundary_measure,
    check_by_family,
    estimate_by_rows,
    feasible_by_scan,
    feasible_outcome_by_scan,
    feasible_outcome_table,
    feasible_table,
    phase_one_columns,
    phase_one_fraction,
    phase_one_scan,
    random_measure,
    random_outcome_table,
    random_table,
    region_points_by_box_rejection,
    solution_vector,
    type_column_keys,
)
from helpers import test_model_by_family as model_test_by_family


@pytest.fixture
def phase_one_pairs(monkeypatch):
    """Route every LP through the solver, the Fraction tableau and the
    explicit-column scan, all three on the columns the solver prices,
    requiring identical results; returns one feasibility flag per LP
    solved."""
    seen = []
    fast = lp._phase_one

    def compared(columns, b, m):
        got = fast(columns, b, m)
        keys = type_column_keys(columns)
        explicit = [columns.rows(key) for key in keys]
        want = phase_one_fraction(explicit, b, m)
        assert solution_vector(got, keys) == want
        assert phase_one_scan(explicit, b, m) == want
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
        verdicts.add(got is not None)
    assert verdicts == {True, False}


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
        got = lp.feasible_outcome(PY)
        assert got == feasible_outcome_by_scan(PY)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_enumeration_matches_brute_force_filter():
    for J in range(2, 7):
        for J0 in range(J):
            config = DesignConfig(J, J0)
            assert enumerate_admissible(config).types == admissible_by_filter(config), (J, J0)


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
        (4, 2, True, 4),
        (5, 2, True, 2),
    ],
)
def test_check_matches_explicit_family(J, J0, full, copies):
    config = DesignConfig(J, J0)
    rng = Random(229 + 10 * J + J0)
    verdicts, boundary = set(), 0
    for P in _tables(config, rng, copies):
        got = check(P, full=full)
        want = check_by_family(P, full=full)
        assert got.passed == want.passed
        assert got.min_slack == want.min_slack and type(got.min_slack) is F
        assert got.violations == want.violations
        assert all(type(v) is F for _, v in got.violations)
        verdicts.add(got.passed)
        boundary += got.min_slack == 0
    assert verdicts == {True, False}
    assert boundary >= copies


@pytest.mark.parametrize("J, J0, full", [(4, 0, False), (5, 0, False), (4, 2, True)])
def test_check_cap_bounds_the_violations_listed(J, J0, full):
    config = DesignConfig(J, J0)
    rng = Random(233 + 10 * J + J0)
    tried = 0
    for _ in range(4):
        P = random_table(config, rng)
        want = check_by_family(P, full=full).violations
        if not want:
            continue
        tried += 1
        assert check(P, full=full, cap=len(want)).violations == want
        with pytest.raises(CapacityError, match=f"more than {len(want) - 1} violations"):
            check(P, full=full, cap=len(want) - 1).violations
    assert tried


REGION_DESIGNS = [(2, 0), (3, 0), (3, 1), (4, 2)]


def _mixtures(J, J0, copies):
    rng = Random(307 + 10 * J + J0)
    for _ in range(copies):
        yield build_epsilon_mixture(random_measure(DesignConfig(J, J0), rng))


@pytest.mark.parametrize("J, J0", REGION_DESIGNS)
def test_difference_box_contains_interior_point(J, J0):
    diagonal = 0
    for mix in _mixtures(J, J0, 4):
        for region in mix.components:
            p = int(np.argmax(region.interior))
            lo, hi = _difference_box(region, mix.M)
            delta = np.asarray(region.interior) - region.interior[p]
            others = np.arange(J) != p
            assert lo[p] == hi[p] == 0.0
            assert (lo[others] < delta[others]).all(), (region.rtype.d, lo, delta)
            assert (delta[others] < hi[others]).all(), (region.rtype.d, hi, delta)
            diagonal += region.rtype.d == tuple(range(J))
    assert J0 or diagonal


@pytest.mark.parametrize("J, J0", REGION_DESIGNS)
def test_region_samples_satisfy_constraints_and_box(J, J0):
    for copy, mix in enumerate(_mixtures(J, J0, 2)):
        for i, region in enumerate(mix.components):
            pts = _sample_region(_chunk_rng(313 + copy, i), region, mix.M, 500, 1e-6)
            assert pts.shape == (500, J)
            assert (np.abs(pts) <= mix.M).all()
            for a, b, c in zip(region.lhs, region.rhs, region.offsets):
                assert (pts[:, a] + c > pts[:, b]).all(), (region.rtype.d, a, b, c)


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return np.abs(cdf_a - cdf_b).max()


# For two same-law samples of 4000 points each, the two-sample statistic
# exceeds 2.4 * sqrt(2 / 4000) = 0.054 with probability about 1e-5.
KS_POINTS = 4000
KS_THRESHOLD = 0.06


@pytest.mark.parametrize("J, J0", REGION_DESIGNS)
def test_region_sampler_matches_box_rejection_in_law(J, J0):
    mix = next(_mixtures(J, J0, 1))
    for i, region in enumerate(mix.components):
        new = _sample_region(_chunk_rng(317, i), region, mix.M, KS_POINTS, 1e-6)
        old = region_points_by_box_rejection(mix, region, KS_POINTS, _chunk_rng(331, i))
        for k in range(J):
            stat = _ks_statistic(new[:, k], old[:, k])
            assert stat < KS_THRESHOLD, (region.rtype.d, k, stat)


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
    # 4,096 partition rows after 24 static rows: blocks of 1,024 at B=999
    # put a boundary inside the partition family and leave a 24-row block
    (3, 0, 4),
]


@pytest.mark.parametrize("B", [99, 999])
@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("J, J0, ny", MOMENT_DESIGNS)
def test_test_model_matches_explicit_family(J, J0, ny, n, B):
    config, data = _micro(J, J0, ny, n, seed=1000 * J + 100 * J0 + 10 * ny + n)
    got = stats.test_model(data, config, B=B, seed=B + n)
    assert got == model_test_by_family(data, config, B=B, seed=B + n)


def test_test_model_one_row_last_block():
    # B = 40,000 gives blocks of 16 rows; the 81 selector rows at (4,0)
    # leave a single row for the last block
    config, data = _micro(4, 0, 0, 2000, seed=41)
    assert stats._block_rows(40_000) == 16
    got = stats.test_model(data, config, B=40_000, seed=2)
    assert got == model_test_by_family(data, config, B=40_000, seed=2)


@pytest.mark.parametrize(
    "J, J0, ny, message",
    [
        (8, 0, 0, "family would hold 5764801 inequalities, cap is 1000000"),
        (4, 0, 4, "would emit 43046721+ inequalities, cap is 1000000"),
    ],
)
def test_test_model_cap_refuses_before_building_rows(monkeypatch, J, J0, ny, message):
    config, data = _micro(J, J0, ny, 2000, seed=7)
    with pytest.raises(CapacityError) as oracle:
        model_test_by_family(data, config, B=99)
    assert str(oracle.value) == message

    def refuse(*args, **kwargs):
        raise AssertionError("a moment row was built")

    for name in ("_fill_product_rows", "generate", "generate_outcome"):
        monkeypatch.setattr(stats, name, refuse)
    with pytest.raises(CapacityError) as got:
        stats.test_model(data, config, B=99)
    assert str(got.value) == message


def test_test_model_memory_is_one_block():
    # the explicit family peaks at about 1.2 GB on this design
    config, data = _micro(4, 0, 3, 20_000, seed=11)
    tracemalloc.start()
    try:
        report = stats.test_model(data, config, B=99, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.slacks) == 3 ** 12 + 36
    assert peak < 150e6


def _same_tables(a, b):
    assert a.arm_counts == b.arm_counts
    assert a.y_support == b.y_support
    assert a.degenerate_arms == b.degenerate_arms
    assert list(a.cells) == list(b.cells)
    for z in a.cells:
        assert a.cells[z].dtype == b.cells[z].dtype
        assert a.cells[z].shape == b.cells[z].shape
        assert a.cells[z].tobytes() == b.cells[z].tobytes()


@pytest.mark.parametrize(
    "y_support", [None, (-2, 3, 5), (5, -2, 3, 9), (3, 5, 3, -2), (3, 5)]
)
@pytest.mark.parametrize("J, J0", [(3, 0), (4, 2)])
def test_estimate_matches_row_counts(J, J0, y_support):
    config, data = _micro(J, J0, 0, 3000, seed=J)
    rng = np.random.default_rng(5)
    y = np.asarray((-2, 3, 5))[rng.integers(0, 3, len(data))]
    data = MicroData(data.d, data.z, y)
    try:
        want = estimate_by_rows(data, config, y_support=y_support)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            stats.estimate(data, config, y_support=y_support)
        assert str(got.value) == str(exc)
        return
    _same_tables(stats.estimate(data, config, y_support=y_support), want)
    plain = MicroData(data.d, data.z)
    _same_tables(stats.estimate(plain, config), estimate_by_rows(plain, config))
