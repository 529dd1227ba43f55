"""LP designs that once raised CapacityError or stalled: the admissible
set was found by scanning J^|Z| vectors, the tableau ran a gcd on every
cell of every pivot, and the cap sized a dense tableau of variables x rows
that the solver no longer builds."""

from random import Random

from encdesign.core import DesignConfig, pushforward
from encdesign.inequalities import check_outcome
from encdesign.lp import feasible, feasible_outcome
from helpers import feasible_outcome_table, feasible_table


def _certificate_roundtrips(config, seed):
    P = feasible_table(config, Random(seed))
    ok, cert = feasible(P)
    assert ok
    assert pushforward(cert).rows == P.rows


def test_lp_answers_eight_choices_with_base_state():
    _certificate_roundtrips(DesignConfig(8, 2), 8002)


def test_lp_answers_eight_choices_without_base_state():
    _certificate_roundtrips(DesignConfig(8, 0), 8000)


def test_outcome_lp_answers_four_choices_three_outcomes():
    PY = feasible_outcome_table(DesignConfig(4, 0), (0, 1, 2), Random(4003))
    assert feasible_outcome(PY)


def test_outcome_lp_answers_four_choices_four_outcomes():
    # 7,424 variables and 61 rows: past the old variables x rows cap
    PY = feasible_outcome_table(DesignConfig(4, 0), (0, 1, 2, 3), Random(4004))
    assert check_outcome(PY).passed
    assert feasible_outcome(PY)
