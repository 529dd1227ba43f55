"""The fast exact paths against the slow reference implementations kept in
``helpers``: the integer-preserving simplex against the Fraction tableau,
direct admissible generation against the brute-force filter, and the
per-choice-maxima check against the explicit inequality family."""

from fractions import Fraction as F
from random import Random

import pytest

from encdesign import lp
from encdesign.admissible import enumerate_admissible
from encdesign.core import DesignConfig, pushforward
from encdesign.errors import CapacityError
from encdesign.inequalities import check
from helpers import (
    admissible_by_filter,
    boundary_measure,
    check_by_family,
    feasible_outcome_table,
    feasible_table,
    phase_one_fraction,
    random_outcome_table,
    random_table,
)


@pytest.fixture
def phase_one_pairs(monkeypatch):
    """Route every LP through both simplex implementations, requiring
    identical results; returns one feasibility flag per LP solved."""
    seen = []
    fast = lp._phase_one

    def both(columns, b, m):
        got = fast(columns, b, m)
        want = phase_one_fraction(columns, b, m)
        assert got == want
        assert got is None or all(type(v) is F for v in got)
        seen.append(got is not None)
        return got

    monkeypatch.setattr(lp, "_phase_one", both)
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
        got = lp._phase_one(columns, b, m)
        assert got == phase_one_fraction(columns, b, m)
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
