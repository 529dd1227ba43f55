"""LP designs that once raised CapacityError or stalled: the admissible
set was found by scanning J^|Z| vectors, the tableau ran a gcd on every
cell of every pivot, the cap sized a dense tableau of variables x rows
that the solver no longer builds, and later counted the entries of the
listed columns (|types| x |Y|^J of them for outcome tables), which the
solver no longer lists."""

from random import Random

from encdesign.core import DesignConfig, pushforward
from encdesign.inequalities import check_outcome
from encdesign.lp import feasible, feasible_outcome
from helpers import (
    feasible_outcome_table,
    feasible_table,
    random_outcome_table,
    sampled_outcome_table,
)


def _certificate_roundtrips(config, seed):
    P = feasible_table(config, Random(seed))
    ok, cert = feasible(P)
    assert ok
    assert pushforward(cert).rows == P.rows


def test_lp_answers_eight_choices_with_base_state():
    _certificate_roundtrips(DesignConfig(8, 2), 8002)


def test_lp_answers_eight_choices_without_base_state():
    _certificate_roundtrips(DesignConfig(8, 0), 8000)


def test_lp_answers_ten_choices_without_base_state():
    # 5,111 types priced by the walk over 91 rows
    _certificate_roundtrips(DesignConfig(10, 0), 10000)


def test_outcome_lp_answers_four_choices_three_outcomes():
    PY = feasible_outcome_table(DesignConfig(4, 0), (0, 1, 2), Random(4003))
    assert feasible_outcome(PY)


def test_outcome_lp_answers_four_choices_four_outcomes():
    # 7,424 variables and 61 rows: past the old variables x rows cap
    PY = feasible_outcome_table(DesignConfig(4, 0), (0, 1, 2, 3), Random(4004))
    assert check_outcome(PY).passed
    assert feasible_outcome(PY)


def test_outcome_lp_answers_five_choices_four_outcomes():
    # 76 types x 4^5 outcome vectors = 77,824 columns: refused while the
    # cap counted listed column entries
    config, ys = DesignConfig(5, 0), (0, 1, 2, 3)
    rng = Random(5004)
    PY = sampled_outcome_table(config, ys, rng, 20)
    assert check_outcome(PY).passed
    assert feasible_outcome(PY)
    PY = random_outcome_table(config, ys, rng)
    assert feasible_outcome(PY) == check_outcome(PY).passed


def test_outcome_lp_answers_six_choices_three_outcomes():
    # 187 types x 3^6 outcome vectors = 136,323 columns. A feasible table
    # of this size takes about 4 s (some 12,700 pivots on 103 rows, on a
    # 2-core machine), so only a random one is solved here.
    config, ys = DesignConfig(6, 0), (0, 1, 2)
    PY = random_outcome_table(config, ys, Random(6003))
    assert feasible_outcome(PY) == check_outcome(PY).passed
