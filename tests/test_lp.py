"""The exact LP feasibility oracle and its agreement with the other two
decision routes."""

from fractions import Fraction as F
from random import Random

import pytest

from encdesign.core import DesignConfig, ObservedDistribution, ResponseType, pushforward
from encdesign.errors import CapacityError, ConstructionError
from encdesign.inequalities import check, check_outcome
from encdesign.lp import feasible, feasible_outcome
from encdesign.witness import construct
from helpers import (
    boundary_measure,
    feasible_outcome_table,
    feasible_table,
    phase_one_columns,
    random_outcome_table,
    random_table,
)


def test_phase_one_solves_tiny_feasible_system():
    # x0 + x1 = 1, x1 = 1/2
    columns = [[0], [0, 1]]
    x = phase_one_columns(columns, [F(1), F(1, 2)], 2)
    assert x == [F(1, 2), F(1, 2)]


def test_phase_one_detects_infeasible_system():
    # x0 = 1 and x0 = 1/2 cannot both hold with one variable
    columns = [[0, 1]]
    assert phase_one_columns(columns, [F(1), F(1, 2)], 2) is None


def test_phase_one_handles_redundant_rows():
    # x0 + x1 = 1 stated twice, plus x1 = 1/3
    columns = [[0, 1], [0, 1, 2]]
    x = phase_one_columns(columns, [F(1), F(1), F(1, 3)], 3)
    assert x == [F(2, 3), F(1, 3)]


def test_uniform_table_is_feasible():
    config = DesignConfig(3, 0)
    u = F(1, 3)
    P = ObservedDistribution(config, {z: (u, u, u) for z in range(3)})
    ok, cert = feasible(P)
    assert ok
    assert pushforward(cert).rows == P.rows


def test_violating_table_is_infeasible():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(2, 5), F(3, 5)), 1: (F(3, 5), F(2, 5))})
    ok, cert = feasible(P)
    assert not ok and cert is None


def test_perfect_compliance_certificate_is_diagonal():
    config = DesignConfig(3, 0)
    rows = {z: tuple(F(int(j == z)) for j in range(3)) for z in range(3)}
    ok, cert = feasible(ObservedDistribution(config, rows))
    assert ok
    assert cert.mass == {ResponseType((0, 1, 2)): F(1)}


def test_certificates_always_roundtrip():
    rng = Random(103)
    for J, J0 in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2)]:
        config = DesignConfig(J, J0)
        for _ in range(25):
            P = feasible_table(config, rng)
            ok, cert = feasible(P)
            assert ok
            assert pushforward(cert).rows == P.rows


def test_triple_agreement_on_mixed_tables():
    rng = Random(107)
    for J, J0 in [(2, 0), (3, 0), (3, 1), (3, 2)]:
        config = DesignConfig(J, J0)
        for i in range(45):
            if i % 3 == 0:
                P = feasible_table(config, rng)
            elif i % 3 == 1:
                P = random_table(config, rng)
            else:
                P = pushforward(boundary_measure(config, rng))
            passed = check(P).passed
            lp_ok, _ = feasible(P)
            try:
                construct(P)
                built = True
            except ConstructionError:
                built = False
            assert passed == lp_ok == built


@pytest.mark.parametrize("J", [10, 12])
def test_triple_agreement_at_ten_and_twelve_choices(J):
    # two feasible, two boundary and two random tables; every certificate,
    # the LP's and the witness, must push forward to its table exactly
    config = DesignConfig(J, 0)
    rng = Random(131 + J)
    tables = [feasible_table(config, rng) for _ in range(2)]
    tables += [pushforward(boundary_measure(config, rng)) for _ in range(2)]
    tables += [random_table(config, rng) for _ in range(2)]
    verdicts = []
    for P in tables:
        lp_ok, cert = feasible(P)
        try:
            witness = construct(P)
            built = True
        except ConstructionError:
            built = False
        assert check(P).passed == lp_ok == built
        if lp_ok:
            assert pushforward(cert).rows == P.rows
            assert pushforward(witness).rows == P.rows
        verdicts.append(lp_ok)
    assert verdicts[:4] == [True] * 4


def test_boundary_tables_have_zero_slack_and_stay_feasible():
    rng = Random(109)
    for J, J0 in [(3, 0), (3, 1), (2, 1)]:
        config = DesignConfig(J, J0)
        for _ in range(20):
            P = pushforward(boundary_measure(config, rng))
            report = check(P)
            assert report.passed
            assert report.min_slack == 0
            ok, _ = feasible(P)
            assert ok


def test_outcome_oracle_agreement():
    rng = Random(113)
    for J, J0 in [(2, 0), (2, 1), (3, 0), (3, 1)]:
        config = DesignConfig(J, J0)
        for i in range(16):
            PY = (
                feasible_outcome_table(config, (0, 1), rng)
                if i % 2
                else random_outcome_table(config, (0, 1), rng)
            )
            assert feasible_outcome(PY) == check_outcome(PY).passed


def test_degenerate_outcome_lp_matches_marginal_lp():
    rng = Random(127)
    config = DesignConfig(3, 0)
    from encdesign.inequalities import OutcomeDistribution

    for _ in range(10):
        P = random_table(config, rng)
        cells = {z: {j: {0: P.p(z, j)} for j in range(3)} for z in config.z_support}
        PY = OutcomeDistribution(config, (0,), cells)
        assert feasible_outcome(PY) == feasible(P)[0]


def test_lp_capacity_cap():
    config = DesignConfig(3, 0)
    P = feasible_table(config, Random(2))
    with pytest.raises(CapacityError):
        feasible(P, cap=10)
