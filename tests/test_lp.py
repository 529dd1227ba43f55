"""The exact LP feasibility oracle and its agreement with the other two
decision routes."""

import json
from fractions import Fraction as F
from random import Random

import pytest

from encdesign import lp
from encdesign.cli import EXIT_VERDICT, distribution_doc, run
from encdesign.core import DesignConfig, ObservedDistribution, ResponseType, pushforward
from encdesign.errors import CapacityError, ConstructionError
from encdesign.inequalities import OutcomeDistribution, check, check_outcome
from encdesign.lp import feasible, feasible_outcome
from encdesign.witness import construct
from helpers import (
    boundary_measure,
    feasible_by_scan,
    feasible_outcome_by_scan,
    feasible_outcome_table,
    feasible_table,
    phase_one_columns,
    priced_tableau,
    random_outcome_table,
    random_table,
    solution_vector,
    solved_by_lp,
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
    for _ in range(10):
        P = random_table(config, rng)
        cells = {z: {j: {0: P.p(z, j)} for j in range(3)} for z in config.z_support}
        PY = OutcomeDistribution(config, (0,), cells)
        assert feasible_outcome(PY) == feasible(P)[0]


def test_lp_capacity_cap(monkeypatch):
    config = DesignConfig(3, 0)
    P = feasible_table(config, Random(2))
    monkeypatch.setattr(lp, "LP_CAP", 10)
    with pytest.raises(CapacityError):
        feasible(P)


def _closed_cells(table):
    """The LP's verdict on ``table`` and the cells it closes, after
    checking its solution against the Fraction tableau on the columns it
    prices and its verdict against the LP over every column and against
    the inequality check."""
    if isinstance(table, OutcomeDistribution):
        ok, columns, b, m, got = solved_by_lp(feasible_outcome, table)
        assert feasible_outcome_by_scan(table) == check_outcome(table).passed == ok
    else:
        (ok, cert), columns, b, m, got = solved_by_lp(feasible, table)
        assert feasible_by_scan(table)[0] == check(table).passed == ok
        if ok:
            assert pushforward(cert).rows == table.rows
    keys, want = priced_tableau(columns, b, m)
    assert solution_vector(got, keys) == want
    assert (want is not None) == ok
    return ok, columns.closed


def test_a_zero_implied_cell_alone_closes_its_columns():
    # only P(D=2 | Z=0) is zero, and it has no row: (position 0, cell 2)
    config = DesignConfig(3, 0)
    rows = {0: (F(1, 2), F(1, 2), F(0)), 1: (F(1, 4), F(1, 2), F(1, 4)), 2: (F(1, 4), F(1, 4), F(1, 2))}
    ok, closed = _closed_cells(ObservedDistribution(config, rows))
    assert closed == {(0, 2)}


def test_a_slice_with_one_nonzero_cell_closes_the_rest():
    config = DesignConfig(3, 0)
    for i in range(3):
        rows = {0: tuple(F(int(j == i)) for j in range(3)), 1: (F(1, 4), F(1, 2), F(1, 4))}
        rows[2] = (F(1, 3), F(1, 3), F(1, 3))
        ok, closed = _closed_cells(ObservedDistribution(config, rows))
        assert closed == {(0, j) for j in range(3) if j != i}


def test_a_zero_last_outcome_cell_closes_its_columns():
    # the implied cell of each slice is (J - 1, last y) = (1, 1), cell 3.
    # Only always-takers (1, 1) take choice 1 at z = 0, so a zero there
    # at z = 1 alone rules out the table, and at both admits it.
    h, q = F(1, 2), F(1, 4)
    spread, pinned = {0: {0: q, 1: q}, 1: {0: q, 1: q}}, {0: {0: q, 1: q}, 1: {0: h, 1: 0}}
    for config in (DesignConfig(2, 0), DesignConfig(2, 1)):
        ok, closed = _closed_cells(OutcomeDistribution(config, (0, 1), {0: spread, 1: pinned}))
        assert not ok and closed == {(1, 3)}
        ok, closed = _closed_cells(OutcomeDistribution(config, (0, 1), {0: pinned, 1: pinned}))
        assert ok and closed == {(0, 3), (1, 3)}


def test_a_table_that_closes_every_column_needs_no_pivot(tmp_path, capsys, monkeypatch):
    # only defiers (1, 0) fit {0: (0, 1), 1: (1, 0)}, and every admissible
    # column crosses a zero cell: one pricing finds no column, no pivot
    P = ObservedDistribution(DesignConfig(2, 0), {0: (F(0), F(1)), 1: (F(1), F(0))})
    calls = {"most_negative": 0, "rows": 0}
    for name in calls:
        method = getattr(lp._TypeColumns, name)

        def counted(self, arg, name=name, method=method):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(lp._TypeColumns, name, counted)
    src = tmp_path / "defiers.json"
    src.write_text(json.dumps(distribution_doc(P)))
    assert run(["lp-check", "--input", str(src)]) == EXIT_VERDICT
    assert capsys.readouterr().out == '{\n  "feasible": false\n}\n'
    assert calls == {"most_negative": 1, "rows": 0}
    for command in ("check", "construct"):
        assert run([command, "--input", str(src)]) == EXIT_VERDICT
    capsys.readouterr()


def test_full_support_closes_no_cell():
    rng = Random(137)
    full = 0
    for J, J0 in [(2, 0), (3, 0), (3, 1), (4, 0), (4, 2)]:
        config = DesignConfig(J, J0)
        for _ in range(4):
            P = feasible_table(config, rng)
            if not all(v for row in P.rows.values() for v in row):
                continue
            ok, closed = _closed_cells(P)
            assert ok and closed == frozenset()
            assert list(feasible(P)[1].mass.items()) == list(feasible_by_scan(P)[1].mass.items())
            full += 1
    assert full >= 15
