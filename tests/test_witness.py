"""Constructive sharpness: orderings, witness measures, traces, and the
outcome construction."""

import json
from fractions import Fraction as F
from itertools import product
from random import Random

import numpy as np
import pytest

from encdesign import witness
from encdesign.admissible import is_admissible
from encdesign.core import (
    ZERO,
    DesignConfig,
    ObservedDistribution,
    OutcomeResponseMeasure,
    ResponseType,
    pushforward,
    pushforward_outcome,
)
from encdesign.errors import CapacityError, ConstructionError
from encdesign.inequalities import OutcomeDistribution, check, check_outcome
from encdesign.witness import (
    construct,
    construct_outcome,
    diagnose,
    instrument_ordering,
)
from helpers import (
    construct_outcome_by_fractions,
    feasible_outcome_table,
    feasible_table,
    full_compliance,
    instrument_ordering_by_branches,
    lambda_weights,
    marginal,
    outcome_measure_by_fractions,
    outcome_table_doc,
    partition_check,
    random_table,
    type_complying_with,
    type_marginal,
)

CONFIGS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2)]


def uniform_table(J: int) -> ObservedDistribution:
    config = DesignConfig(J, 0)
    u = F(1, J)
    return ObservedDistribution(config, {z: (u,) * J for z in range(J)})


def compliance_table(J: int) -> ObservedDistribution:
    config = DesignConfig(J, 0)
    rows = {z: tuple(F(int(j == z)) for j in range(J)) for z in range(J)}
    return ObservedDistribution(config, rows)


def test_ordering_places_target_last():
    config = DesignConfig(3, 0)
    values = {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}
    assert instrument_ordering(config, values, 0) == (1, 2, 0)
    # tie between 1 and 2 breaks by ascending instrument value
    assert instrument_ordering(config, {0: F(0), 1: F(0), 2: F(0)}, 2) == (0, 1, 2)


def test_ordering_base_state_placement():
    config = DesignConfig(4, 2)  # support {0, 2, 3}
    values = {0: F(1, 8), 2: F(1, 2), 3: F(3, 8)}
    # target 2: other non-base values first, then 0, then the target
    assert instrument_ordering(config, values, 2) == (3, 0, 2)
    # untargeted choice: non-base values ascending, base last
    assert instrument_ordering(config, values, 0) == (3, 2, 0)


def test_ordering_matches_the_two_branch_oracle():
    # every design with J <= 6, every target (the untargeted choices, 0
    # among them, with a base state), every assignment of values drawn
    # from {0, 1/4, 1/2} so that ties occur
    levels = (F(0), F(1, 4), F(1, 2))
    for J in range(2, 7):
        for J0 in range(J):
            config = DesignConfig(J, J0)
            zs = config.z_support
            for row in product(levels, repeat=len(zs)):
                values = dict(zip(zs, row))
                for target in range(J):
                    got = instrument_ordering(config, values, target)
                    assert got == instrument_ordering_by_branches(config, values, target), (
                        J, J0, target, row,
                    )


def test_construct_uniform_table():
    q = construct(uniform_table(3))
    assert {rt.d: m for rt, m in q.mass.items()} == {
        (0, 0, 0): F(1, 3),
        (1, 1, 1): F(1, 3),
        (2, 2, 2): F(1, 3),
    }


def test_construct_perfect_compliance():
    q = construct(compliance_table(3))
    assert {rt.d: m for rt, m in q.mass.items()} == {(0, 1, 2): F(1)}


def test_construct_base_state_example():
    config = DesignConfig(2, 1)
    P = ObservedDistribution(config, {0: (F(3, 4), F(1, 4)), 1: (F(1, 2), F(1, 2))})
    q = construct(P)
    assert {rt.d: m for rt, m in q.mass.items()} == {
        (0, 0): F(1, 2),
        (0, 1): F(1, 4),
        (1, 1): F(1, 4),
    }


def test_roundtrip_exact_on_random_feasible_tables():
    rng = Random(61)
    for J, J0 in CONFIGS:
        config = DesignConfig(J, J0)
        for _ in range(40):
            P = feasible_table(config, rng)
            q = construct(P)
            assert pushforward(q).rows == P.rows
            for rt in q.mass:
                assert is_admissible(config, rt)


def test_construct_succeeds_iff_check_passes():
    rng = Random(67)
    for J, J0 in CONFIGS:
        config = DesignConfig(J, J0)
        for i in range(60):
            P = random_table(config, rng) if i % 2 else feasible_table(config, rng)
            passed = check(P).passed
            try:
                construct(P)
                built = True
            except ConstructionError:
                built = False
            assert built == passed


def test_construct_error_names_negative_mass():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(2, 5), F(3, 5)), 1: (F(3, 5), F(2, 5))})
    with pytest.raises(ConstructionError) as err:
        construct(P)
    assert err.value.mass == F(-1, 5)


def test_step_masses_sum_to_top_value():
    # Per target, base plus increments telescope to the largest allowed
    # non-targeting probability.
    rng = Random(71)
    for J, J0 in CONFIGS:
        config = DesignConfig(J, J0)
        P = feasible_table(config, rng)
        trace = diagnose(P)
        for j in range(config.J):
            total = sum(
                e.mass for e in trace.entries if e.target == j and e.kind in ("base", "step")
            )
            order = trace.orderings[j]
            assert total == P.p(order[-2], j)


def test_trace_types_follow_the_orderings():
    # step s of target j goes to the type complying with the first s - 1
    # values of j's ordering, a remainder to full compliance; the types
    # are pairwise distinct, and the witness keeps the nonzero entries
    rng = Random(79)
    for J, J0 in CONFIGS + [(5, 0), (5, 2)]:
        config = DesignConfig(J, J0)
        for make in (random_table, feasible_table):
            for _ in range(6):
                P = make(config, rng)
                trace = diagnose(P)
                types = []
                for e in trace.entries:
                    if e.step is None:
                        want = full_compliance(config, 0 if e.target is None else e.target)
                    else:
                        prefix = trace.orderings[e.target][: e.step - 1]
                        want = type_complying_with(config, e.target, prefix)
                    assert trace.rtype(e) == want, (J, J0, e)
                    types.append(want)
                assert len(set(types)) == len(types), (J, J0)
                # a zero mass is the shared ZERO, not a Fraction of its own
                assert all(e.mass is ZERO for e in trace.entries if not e.mass), (J, J0)
                if make is feasible_table:
                    masses = {t: e.mass for t, e in zip(types, trace.entries) if e.mass}
                    assert construct(P).mass == masses, (J, J0)


def test_complement_identity():
    # Constructed mass of {D_k = k} equals 1 - sum_{j != k} P{D=j | Z=k}.
    rng = Random(73)
    for J, J0 in [(3, 0), (4, 0), (3, 1)]:
        config = DesignConfig(J, J0)
        P = feasible_table(config, rng)
        q = construct(P)
        for k in config.z_support:
            if k < config.J0:
                continue
            mass_k = sum(
                m for rt, m in q.mass.items() if rt.d_at(config, k) == k
            )
            assert mass_k == 1 - sum(
                P.p(k, j) for j in range(config.J) if j != k
            )


def test_diagnose_uniform_trace():
    trace = diagnose(uniform_table(3))
    assert trace.feasible
    bases = [e for e in trace.entries if e.kind == "base"]
    assert [e.mass for e in bases] == [F(1, 3)] * 3
    steps = [e for e in trace.entries if e.kind == "step"]
    assert all(e.mass == 0 for e in steps)
    (diag,) = [e for e in trace.entries if e.kind == "compliance"]
    assert diag.mass == 0


def test_diagnose_violation_trace():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(2, 5), F(3, 5)), 1: (F(3, 5), F(2, 5))})
    trace = diagnose(P)
    assert not trace.feasible
    (diag,) = [e for e in trace.entries if e.kind == "compliance"]
    assert diag.mass == F(-1, 5)


def test_diagnose_compliance_trace():
    trace = diagnose(compliance_table(3))
    assert trace.feasible
    assert all(e.mass == 0 for e in trace.entries if e.kind in ("base", "step"))
    (diag,) = [e for e in trace.entries if e.kind == "compliance"]
    assert diag.mass == 1


# ---------------------------------------------------------- outcome side


def test_outcome_roundtrip_exact():
    # (4,0)|Y|=2, (4,2)|Y|=3 and (3,0)|Y|=4 have the longest completion
    # lists and the largest common denominators of the set
    rng = Random(79)
    for J, J0, ny, copies in [
        (2, 0, 2, 25),
        (2, 1, 3, 25),
        (3, 0, 2, 25),
        (3, 1, 2, 25),
        (3, 2, 3, 25),
        (4, 0, 2, 10),
        (4, 2, 3, 10),
        (3, 0, 4, 10),
    ]:
        config = DesignConfig(J, J0)
        ys = tuple(range(ny))
        for _ in range(copies):
            PY = feasible_outcome_table(config, ys, rng)
            qstar = construct_outcome(PY)
            assert pushforward_outcome(qstar).cells == PY.cells


def test_degenerate_outcome_reduces_to_treatment_construction():
    rng = Random(83)
    for J, J0 in [(2, 0), (3, 0), (3, 1)]:
        config = DesignConfig(J, J0)
        P = feasible_table(config, rng)
        cells = {
            z: {j: {0: P.p(z, j)} for j in range(config.J)}
            for z in config.z_support
        }
        PY = OutcomeDistribution(config, (0,), cells)
        qstar = construct_outcome(PY)
        assert type_marginal(qstar).mass == construct(P).mass


def test_product_outcome_table_marginalizes_to_treatment_witness():
    rng = Random(89)
    config = DesignConfig(3, 0)
    u = F(1, 3)
    P = ObservedDistribution(config, {z: (u, u, u) for z in range(3)})
    y_dist = {0: F(1, 4), 1: F(3, 4)}
    cells = {
        z: {j: {y: P.p(z, j) * y_dist[y] for y in (0, 1)} for j in range(3)}
        for z in config.z_support
    }
    PY = OutcomeDistribution(config, (0, 1), cells)
    qstar = construct_outcome(PY)
    assert type_marginal(qstar).mass == construct(P).mass
    assert pushforward_outcome(qstar).cells == PY.cells


def test_lambda_weights_normalized():
    rng = Random(97)
    for J, J0, ny in [(3, 0, 2), (3, 1, 3), (2, 0, 4)]:
        config = DesignConfig(J, J0)
        PY = feasible_outcome_table(config, tuple(range(ny)), rng)
        lam = lambda_weights(PY)
        for j in range(config.J):
            assert sum(lam[j].values()) == 1
            assert all(v >= 0 for v in lam[j].values())


def test_construct_outcome_fails_iff_outcome_check_fails():
    rng = Random(101)
    from helpers import random_outcome_table

    for J0 in (0, 1):
        config = DesignConfig(3, J0)
        for i in range(40):
            PY = (
                random_outcome_table(config, (0, 1), rng)
                if i % 2
                else feasible_outcome_table(config, (0, 1), rng)
            )
            passed = check_outcome(PY).passed
            try:
                construct_outcome(PY)
                built = True
            except ConstructionError:
                built = False
            assert built == passed


def test_negative_mixing_weight_reported_as_construction_error():
    # targeted dominance broken at (j=1, y=0) while every partition sum
    # stays below 1, so only the mixing-weight path can flag the table
    config = DesignConfig(2, 0)
    cells = {
        0: {0: {0: F(3, 10), 1: F(2, 10)}, 1: {0: F(3, 10), 1: F(2, 10)}},
        1: {0: {0: F(2, 10), 1: F(2, 10)}, 1: {0: F(2, 10), 1: F(4, 10)}},
    }
    PY = OutcomeDistribution(config, (0, 1), cells)
    assert partition_check(PY).passed
    assert not check_outcome(PY).passed
    with pytest.raises(ConstructionError) as err:
        construct_outcome(PY)
    assert err.value.target == 1
    assert err.value.step is None
    assert err.value.mass == F(-1, 10)


def _outcome_table(J, J0, slices) -> OutcomeDistribution:
    """|Y| = 2 table from per-z rows of (y=0, y=1) cell strings."""
    config = DesignConfig(J, J0)
    cells = {
        z: {j: {y: F(v) for y, v in enumerate(row)} for j, row in enumerate(rows)}
        for z, rows in zip(config.z_support, slices)
    }
    return OutcomeDistribution(config, (0, 1), cells)


def _construct_outcome_error(PY) -> ConstructionError:
    with pytest.raises(ConstructionError) as err:
        construct_outcome(PY)
    with pytest.raises(ConstructionError) as want:
        construct_outcome_by_fractions(PY)
    assert str(err.value) == str(want.value)
    return err.value


def test_construct_outcome_error_names_negative_step():
    # base state below instrument 2 in choice 1's cells: the step that
    # moves from z=2 to z=0 is negative
    rows = [("1/12", "1/6"), ("1/6", "1/3"), ("1/12", "1/6")]
    PY = _outcome_table(3, 1, [[("1/6", "1/3"), ("1/12", "1/6"), ("1/12", "1/6")], rows, rows])
    err = _construct_outcome_error(PY)
    assert str(err) == (
        "construction assigns negative density -1/12 to (1, 1, 2) at target 1, step 2, "
        "outcome 0; the table violates the outcome check"
    )
    assert (err.target, err.step, err.mass) == (1, 2, F(-1, 12))


def test_construct_outcome_error_names_negative_compliance_remainder():
    # J0 > 0: the untargeted choice 0 is more likely under z=1 than under
    # the base state, so its compliance remainder is negative
    PY = _outcome_table(
        2, 1, [[("1/10", "2/5"), ("1/10", "2/5")], [("1/5", "1/5"), ("1/5", "2/5")]]
    )
    err = _construct_outcome_error(PY)
    assert str(err) == (
        "construction assigns negative density -1/10 to (0, 1) at compliance remainder "
        "(default 0), outcome 0; the table violates the outcome check"
    )
    assert (err.target, err.step, err.mass) == (0, None, F(-1, 10))
    # diagnose names the same default for the same remainder
    (entry,) = [e for e in diagnose(marginal(PY)).entries if e.kind == "compliance"]
    assert (entry.target, entry.step) == (err.target, err.step)


def test_construct_outcome_error_names_negative_full_compliance():
    # J0 = 0: every targeting cell ties the largest other cell, and the
    # three largest cells sum past 1
    q, o = ("1/4", "1/4"), ("0", "0")
    PY = _outcome_table(3, 0, [[q, q, o], [o, q, q], [q, o, q]])
    err = _construct_outcome_error(PY)
    assert str(err) == (
        "construction assigns negative mass -1/2 to full compliance; "
        "the table violates the outcome check"
    )
    assert (err.target, err.step, err.mass) == (None, None, F(-1, 2))


def test_construct_y_failure_keeps_its_stderr_line(tmp_path, capsys):
    from encdesign.cli import EXIT_VERDICT, run

    rows = [("1/12", "1/6"), ("1/6", "1/3"), ("1/12", "1/6")]
    PY = _outcome_table(3, 1, [[("1/6", "1/3"), ("1/12", "1/6"), ("1/12", "1/6")], rows, rows])
    src = tmp_path / "py.json"
    src.write_text(json.dumps(outcome_table_doc(PY)))
    assert run(["construct", "--input", str(src)]) == EXIT_VERDICT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "construction failed: construction assigns negative density -1/12 to (1, 1, 2) at "
        "target 1, step 2, outcome 0; the table violates the outcome check\n"
    )


def _measure_error(config, ys, mass) -> str:
    """The ValueError of OutcomeResponseMeasure, which must be the one
    the key-by-key Fraction checks raise."""
    with pytest.raises(ValueError) as err:
        OutcomeResponseMeasure(config, ys, mass)
    with pytest.raises(ValueError) as want:
        outcome_measure_by_fractions(config, ys, mass)
    assert str(err.value) == str(want.value)
    return str(err.value)


def test_outcome_measure_validates():
    config = DesignConfig(2, 0)
    assert _measure_error(config, (0, 1), {(ResponseType((1, 0)), (0, 0)): F(1)}) == (
        "response type (1, 0) is not admissible"
    )
    assert _measure_error(config, (0, 1), {(ResponseType((0, 0)), (0, 2)): F(1)}) == (
        "outcome vector (0, 2) invalid for support (0, 1)"
    )
    # an outcome outside the support, or a vector of the wrong length,
    # listed after a valid entry of the same type
    for yvec in [(0, 2), (0,), (0, 1, 1)]:
        mass = {(ResponseType((0, 0)), (0, 1)): F(1, 2), (ResponseType((0, 0)), yvec): F(1, 2)}
        assert _measure_error(config, (0, 1), mass) == (
            f"outcome vector {yvec} invalid for support (0, 1)"
        )


def test_outcome_measure_rejects_negative_mass():
    config = DesignConfig(2, 0)
    mass = {(ResponseType((0, 0)), (0, 1)): F(3, 2), (ResponseType((1, 1)), (1, 0)): F(-1, 2)}
    assert _measure_error(config, (0, 1), mass) == "negative mass on ((1, 1), (1, 0))"


@pytest.mark.parametrize("total", [F(3, 2), F(1, 2), F(0)])
def test_outcome_measure_rejects_masses_not_summing_to_one(total):
    config = DesignConfig(2, 0)
    mass = {
        (ResponseType((0, 0)), (0, 1)): total / 3,
        (ResponseType((0, 1)), (1, 1)): total / 3,
        ((1, 1), (1, 0)): total / 3,
        ((1, 1), (0, 0)): 0,
    }
    assert _measure_error(config, (0, 1), mass) == f"masses sum to {total}, not 1"


def test_outcome_measure_rejects_invalid_type_vectors():
    config = DesignConfig(2, 0)
    assert _measure_error(config, (0, 1), {((0, 0, 1), (0, 1)): F(1)}) == (
        "response type has 3 entries, support has 2"
    )
    assert _measure_error(config, (0, 1), {((0, 2), (0, 1)): F(1)}) == (
        "treatment value 2 out of range for J=2"
    )


def test_outcome_measure_checks_every_type_it_has_not_seen():
    # (1, 0) is inadmissible at (2,0): it must be caught after admissible
    # entries, after an entry of the same default, and on a zero mass
    config = DesignConfig(2, 0)
    good, bad = ResponseType((0, 1)), ResponseType((1, 0))
    message = "response type (1, 0) is not admissible"
    cases = [
        {(good, (0, 0)): F(1, 2), (good, (1, 1)): F(1, 4), (bad, (0, 1)): F(1, 4)},
        {(ResponseType((1, 1)), (0, 0)): F(1, 2), ((1, 0), (0, 0)): F(1, 2)},
        {(good, (0, 0)): F(1), (bad, (1, 1)): 0},
        {(bad, (0, 0)): F(1, 2), (bad, (1, 1)): F(1, 2)},
    ]
    for mass in cases:
        assert _measure_error(config, (0, 1), mass) == message


def test_outcome_measure_merges_equal_keys():
    # the same key once as a tuple and once as a ResponseType (with a
    # string mass): one entry with the summed mass; a zero mass is dropped
    config = DesignConfig(2, 0)
    rt = ResponseType((0, 1))
    mass = {
        ((0, 1), (1, 0)): F(1, 3),
        ((0, 0), (1, 1)): 0,
        (rt, (1, 0)): "1/6",
        (ResponseType((1, 1)), (0, 1)): F(1, 2),
    }
    q = OutcomeResponseMeasure(config, (0, 1), mass)
    assert list(q.mass.items()) == [
        ((rt, (1, 0)), F(1, 2)),
        ((ResponseType((1, 1)), (0, 1)), F(1, 2)),
    ]
    assert list(q.mass.items()) == list(outcome_measure_by_fractions(config, (0, 1), mass).items())
    assert all(type(k[0]) is ResponseType and type(m) is F for k, m in q.mass.items())


@pytest.mark.parametrize("yvec, got", [((0.7, 1.9), "float"), ((True, 0), "bool")], ids=["float", "bool"])
def test_outcome_measure_rejects_non_integer_outcomes(yvec, got):
    # int() would store (0.7, 1.9) as the valid vector (0, 1)
    with pytest.raises(TypeError, match=f"^outcome vector entry must be an integer, got {got}$"):
        OutcomeResponseMeasure(DesignConfig(2, 0), (0, 1), {(ResponseType((0, 1)), yvec): F(1)})


def test_outcome_measure_stores_numpy_outcomes_as_int():
    yvec = (np.int64(0), np.int32(1))
    q = OutcomeResponseMeasure(DesignConfig(2, 0), (0, 1), {((0, 1), yvec): F(1)})
    assert list(q.mass) == [(ResponseType((0, 1)), (0, 1))]
    assert all(type(y) is int for y in next(iter(q.mass))[1])


@pytest.mark.parametrize(
    "ys, error, message",
    [
        ((0.0, 1.0), TypeError, "outcome support value must be an integer, got float"),
        ((0, 1, 1), ValueError, "outcome support has duplicate values"),
        ((), ValueError, "outcome support must be nonempty"),
    ],
    ids=["float", "duplicate", "empty"],
)
def test_outcome_measure_validates_its_support(ys, error, message):
    # the same rule as OutcomeDistribution's
    mass = {((0, 1), (0, 1)): F(1)}
    with pytest.raises(error, match=f"^{message}$"):
        OutcomeResponseMeasure(DesignConfig(2, 0), ys, mass)
    cells = {z: {j: {} for j in range(2)} for z in range(2)}
    with pytest.raises(error, match=f"^{message}$"):
        OutcomeDistribution(DesignConfig(2, 0), ys, cells)


def test_outcome_measure_stores_numpy_support_as_int():
    ys = [np.int64(0), np.int16(1)]
    q = OutcomeResponseMeasure(DesignConfig(2, 0), ys, {((0, 1), (0, 1)): F(1)})
    assert q.y_support == (0, 1)
    assert type(q.y_support) is tuple and all(type(y) is int for y in q.y_support)


@pytest.mark.parametrize("J, J0, ys", [(2, 0, (0, 1)), (3, 1, (0, 1, 2))])
def test_construct_outcome_capacity_error_matches_fraction_construction(monkeypatch, J, J0, ys):
    # (2, 0) holds 3 types x 2**2 vectors = 12 entries at most, past cap 10
    PY = feasible_outcome_table(DesignConfig(J, J0), ys, Random(J))
    monkeypatch.setattr(witness, "TABLE_CAP", 10)
    with pytest.raises(CapacityError) as err:
        construct_outcome(PY)
    with pytest.raises(CapacityError) as want:
        construct_outcome_by_fractions(PY, cap=10)
    assert str(err.value) == str(want.value)
    assert str(err.value).startswith("witness table would hold up to ")
