"""LP designs that once raised CapacityError or stalled: the admissible
set was found by scanning J^|Z| vectors, the tableau ran a gcd on every
cell of every pivot, the cap sized a dense tableau of variables x rows
that the solver no longer builds, and later counted the entries of the
listed columns (|types| x |Y|^J of them for outcome tables), which the
solver no longer lists; and the first negative column entered (Bland's
rule), not the cheapest, for thousands of pivots. Sparse tables also
priced, and entered at zero, columns through cells of probability zero;
their guards count pricings, not seconds."""

from random import Random
from statistics import mean

import pytest

from encdesign import lp
from encdesign.core import DesignConfig, pushforward
from encdesign.errors import ConstructionError
from encdesign.inequalities import check, check_outcome
from encdesign.lp import feasible, feasible_outcome
from encdesign.witness import construct
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
    # 5,111 types priced per default over 91 rows
    _certificate_roundtrips(DesignConfig(10, 0), 10000)


def test_lp_answers_twelve_choices_without_base_state():
    # 24,565 types over 133 rows: 12,992 pivots under Bland's rule (4 s on
    # a 2-core x86-64 machine), 177 now
    _certificate_roundtrips(DesignConfig(12, 0), 12000)


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
    # 187 types x 3^6 outcome vectors = 136,323 columns over 103 rows. The
    # two feasible tables took 10,803 and 15,937 pivots under Bland's rule
    # (5 s and 10 s on a 2-core x86-64 machine), 353 and 219 now.
    config, ys = DesignConfig(6, 0), (0, 1, 2)
    PY = sampled_outcome_table(config, ys, Random(6003), 60)
    assert check_outcome(PY).passed
    assert feasible_outcome(PY)
    assert feasible_outcome(feasible_outcome_table(config, ys, Random(6003)))
    PY = random_outcome_table(config, ys, Random(6003))
    assert feasible_outcome(PY) == check_outcome(PY).passed


def _pricings(monkeypatch, solve, table) -> int:
    """The number of ``_TypeColumns.most_negative`` calls ``solve`` makes
    on ``table``: one per pivot, plus the last, which finds no column."""
    calls = []
    method = lp._TypeColumns.most_negative

    def counted(self, priced):
        calls.append(None)
        return method(self, priced)

    monkeypatch.setattr(lp._TypeColumns, "most_negative", counted)
    solve(table)
    monkeypatch.undo()
    return len(calls)


# pricings with every column priced were 688, 628 and 128
@pytest.mark.parametrize("kind, bound", [("feasible", 250), ("boundary", 350), ("random", 25)])
def test_sparse_twelve_choice_tables_price_few_columns(monkeypatch, kind, bound):
    from perfbench import inputs

    P = inputs.treatment_table(DesignConfig(12, 0), kind, inputs.rng_for(1, 12, kind))
    assert _pricings(monkeypatch, feasible, P) <= bound


# Bland's rule, the first negative column entering, averaged 40.5 and
# 29.0 pricings on the benchmark's feasible (4,2)|Y|=3 and (3,1)|Y|=3
# tables, and 49.3 and 31.0 on these; the least reduced cost over every
# column took 64.0 and 40.3 on these
@pytest.mark.parametrize("case, bland", [((4, 2, 3), 40.5), ((3, 1, 3), 29.0)])
def test_base_state_outcome_tables_price_no_more_than_bland(monkeypatch, case, bland):
    from perfbench import inputs

    config, ys = DesignConfig(*case[:2]), tuple(range(case[2]))
    counts = [
        _pricings(
            monkeypatch,
            feasible_outcome,
            inputs.outcome_table(config, ys, "feasible", inputs.rng_for(seed, case, "feasible")),
        )
        for seed in (1, 2, 3)
    ]
    assert mean(counts) <= bland


def test_sparse_sixteen_choice_table_agrees_with_check_and_construct():
    # 391 pricings with every column priced, 50 now (about 0.02 s); the
    # (16,0) feasible and boundary tables still take 3-5 s each
    from perfbench import inputs

    config = DesignConfig(16, 0)
    P = inputs.treatment_table(config, "random", inputs.rng_for(1, 16, "random"))
    assert feasible(P) == (False, None)
    assert not check(P).passed
    with pytest.raises(ConstructionError):
        construct(P)
