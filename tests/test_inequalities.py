"""Inequality families: generation counts, exact checks, outcome
extension, and the brute-force partition oracle."""

import math
import re
from fractions import Fraction as F
from itertools import product
from random import Random

import numpy as np
import pytest

from encdesign import inequalities
from encdesign.core import DesignConfig, ObservedDistribution, pushforward
from encdesign.errors import CapacityError
from encdesign.inequalities import (
    OutcomeDistribution,
    check,
    check_outcome,
    generate,
    generate_outcome,
    partition_family_specs,
    product_family,
)
from helpers import (
    brute_force_partition_check,
    check_by_family,
    encouragement_specs,
    feasible_outcome_table,
    feasible_table,
    marginal,
    partition_check,
    random_measure,
    random_outcome_table,
    random_table,
    report_from_slacks,
    spec_slack,
)


def perfect_compliance(J: int) -> ObservedDistribution:
    config = DesignConfig(J, 0)
    rows = {z: tuple(F(int(j == z)) for j in range(J)) for z in range(J)}
    return ObservedDistribution(config, rows)


def test_family_sizes():
    assert len(generate(DesignConfig(3, 0))) == 8
    assert len(generate(DesignConfig(2, 0))) == 1
    assert len(generate(DesignConfig(4, 0))) == 81


def test_reduced_family_for_base_state_designs():
    specs = generate(DesignConfig(3, 1))
    assert len(specs) == 4
    assert {s.pair for s in specs} == {(0, 1), (0, 2), (1, 2), (2, 1)}
    for s in specs:
        (k, j), = s.lhs
        assert s.rhs == ((0, j),)
        assert s.pair == (j, k)


def test_static_rows_are_one_cell_against_one_cell_of_another_arm_with_bound_zero():
    # stats.test_model relies on all three: it takes the bound of every
    # static row as 0, unpacks one cell per side, and adds each cell's
    # variance term to its own arm alone
    for J in range(2, 8):
        for J0 in range(J):
            config = DesignConfig(J, J0)
            for ny in (1, 2, 3):
                static = list(generate_outcome(config, (3, 5, 8)[:ny]))
                if J0:
                    static += generate(config)
                for spec in static:
                    assert spec.bound == 0, (J, J0, ny, spec)
                    assert len(spec.lhs) == len(spec.rhs) == 1, (J, J0, ny, spec)
                    assert spec.lhs[0][0] != spec.rhs[0][0], (J, J0, ny, spec)


def test_single_inequality_at_two_choices():
    (spec,) = generate(DesignConfig(2, 0))
    # z(0) = 1, z(1) = 0: P{D=0|Z=1} + P{D=1|Z=0} <= 1
    assert set(spec.lhs) == {(1, 0), (0, 1)}
    assert spec.bound == 1


def test_selector_family_respects_targeted_sets():
    config = DesignConfig(4, 2)
    specs = generate(config, full=True)
    assert len(specs) == 3 * 3 * 2 * 2  # |Z(0)|*|Z(1)|*|Z(2)|*|Z(3)| with Z={0,2,3}
    for s in specs:
        for j, z in enumerate(s.selector):
            assert z in config.targeted_set(j)


def test_family_capacity_cap(monkeypatch):
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 10_000)
    with pytest.raises(CapacityError):
        generate(DesignConfig(9, 0))


@pytest.mark.parametrize(
    "J, J0, ny", [(2, 0, 1), (3, 0, 1), (4, 0, 1), (4, 2, 1), (3, 0, 2), (4, 0, 2), (3, 1, 3)]
)
def test_product_family_lists_the_selector_and_partition_members(J, J0, ny):
    config = DesignConfig(J, J0)
    family = product_family(config, ny)
    assert family == [list(product(config.targeted_set(j), repeat=ny)) for j in range(J)]
    size = 1
    for j in range(J):
        size *= len(config.targeted_set(j)) ** ny
    assert math.prod(map(len, family)) == size
    if ny == 1:
        want = list(product(*(config.targeted_set(j) for j in range(J))))
        assert [s.selector for s in generate(config, full=True)] == want


def test_product_family_cap_is_on_the_member_count(monkeypatch):
    config = DesignConfig(4, 0)  # 3^4 = 81 selectors
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 81)
    assert len(product_family(config)) == 4
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 80)
    with pytest.raises(CapacityError, match="^family would hold more than 80 inequalities$"):
        product_family(config)
    with pytest.raises(CapacityError, match="^family would hold more than 80 inequalities$"):
        generate(config)
    with pytest.raises(CapacityError, match="^family would hold more than 80 inequalities$"):
        partition_family_specs(DesignConfig(3, 0), (0, 1, 2, 3))  # 2^12 members


def test_pairwise_base_family_cap_is_on_the_member_count(monkeypatch):
    config = DesignConfig(5, 1)  # (J - 1)(J - J0) = 16 pairs
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 15)
    with pytest.raises(CapacityError, match="^family would hold more than 15 inequalities$"):
        generate(config)
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 16)
    specs = generate(config)
    assert len(specs) == 16 and all(s.tag == "pairwise-base" for s in specs)


def test_product_family_refuses_a_wide_alphabet_before_listing(monkeypatch):
    def no_options(*args, **kwargs):
        raise AssertionError("an option was listed")

    monkeypatch.setattr(inequalities, "product", no_options)
    with pytest.raises(CapacityError) as err:
        product_family(DesignConfig(4, 0), ny=100_000)
    assert str(err.value) == "family would hold more than 1000000 inequalities"


def test_check_cap_refuses_before_building_specs(monkeypatch):
    P = random_table(DesignConfig(5, 0), Random(41))
    monkeypatch.setattr(inequalities, "FAMILY_CAP", 10)
    report = check(P)
    assert not report.passed

    def no_spec(*args, **kwargs):
        raise AssertionError("a spec was built")

    monkeypatch.setattr(inequalities, "InequalitySpec", no_spec)
    with pytest.raises(CapacityError, match="would emit more than 10 violations"):
        report.violations


def test_check_perfect_compliance():
    report = check(perfect_compliance(3))
    assert report.passed
    assert report.min_slack == 1


def test_check_known_violation():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(2, 5), F(3, 5)), 1: (F(3, 5), F(2, 5))})
    report = check(P)
    assert not report.passed
    assert report.min_slack == F(-1, 5)
    assert len(report.violations) == 1


def test_pushforward_of_admissible_measure_always_passes():
    rng = Random(17)
    for J, J0 in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2)]:
        config = DesignConfig(J, J0)
        for _ in range(30):
            P = pushforward(random_measure(config, rng))
            assert check(P).passed


def test_reduced_and_full_families_agree_with_base_state():
    rng = Random(23)
    for J, J0 in [(3, 1), (3, 2), (4, 2)]:
        config = DesignConfig(J, J0)
        seen = {True: 0, False: 0}
        for i in range(150):
            P = random_table(config, rng) if i % 2 else feasible_table(config, rng)
            reduced = check(P).passed
            full = check_by_family(P, full=True).passed
            assert reduced == full
            seen[reduced] += 1
        assert seen[True] > 0 and seen[False] > 0


def test_passing_table_satisfies_encouragement_form():
    rng = Random(29)
    for J, J0 in [(3, 0), (4, 0), (3, 1)]:
        config = DesignConfig(J, J0)
        for _ in range(40):
            P = feasible_table(config, rng)
            for spec in encouragement_specs(config):
                assert spec_slack(spec, P) >= 0


# ------------------------------------------------------------- outcomes


def test_outcome_family_is_balke_pearl_at_two_choices():
    expected = {
        (((0, 1, y),), ((1, 1, y),)) for y in (0, 1)
    } | {
        (((1, 0, y),), ((0, 0, y),)) for y in (0, 1)
    }
    for J0 in (0, 1):
        specs = generate_outcome(DesignConfig(2, J0), (0, 1))
        assert {(s.lhs, s.rhs) for s in specs} == expected
        assert len(specs) == 4


def test_outcome_check_product_table_inherits_from_marginal():
    rng = Random(31)
    config = DesignConfig(3, 0)
    ys = (0, 1)
    for _ in range(20):
        P = feasible_table(config, rng)
        w = rng.randint(1, 5)
        y_dist = {0: F(w, 6), 1: F(6 - w, 6)}
        cells = {
            z: {j: {y: P.p(z, j) * y_dist[y] for y in ys} for j in range(3)}
            for z in config.z_support
        }
        PY = OutcomeDistribution(config, ys, cells)
        assert check_outcome(PY).passed


def test_outcome_check_flags_single_cell_breach():
    config = DesignConfig(2, 0)
    ys = (0, 1)
    cells = {
        0: {0: {0: F(1, 10), 1: F(2, 10)}, 1: {0: F(4, 10), 1: F(3, 10)}},
        1: {0: {0: F(2, 10), 1: F(3, 10)}, 1: {0: F(2, 10), 1: F(3, 10)}},
    }
    PY = OutcomeDistribution(config, ys, cells)
    report = check_outcome(PY)
    assert not report.passed
    breached = {
        (s.lhs[0], s.rhs[0]) for s, _ in report.violations if s.tag == "outcome-target"
    }
    assert ((0, 1, 0), (1, 1, 0)) in breached


def test_partition_check_equals_brute_force():
    rng = Random(37)
    cases = 0
    for J0 in (0, 1):
        config = DesignConfig(3, J0)
        for ny in (2, 3):
            ys = tuple(range(ny))
            for _ in range(40):
                PY = random_outcome_table(config, ys, rng)
                assert partition_check(PY).passed == brute_force_partition_check(PY)
                cases += 1
    assert cases == 160


def test_full_outcome_check_implies_brute_force():
    rng = Random(41)
    config = DesignConfig(3, 0)
    for _ in range(40):
        PY = random_outcome_table(config, (0, 1), rng)
        if check_outcome(PY).passed:
            assert brute_force_partition_check(PY)


def test_feasible_outcome_tables_pass_everything():
    rng = Random(43)
    for J, J0, ny in [(2, 0, 2), (3, 0, 2), (3, 1, 2), (3, 2, 3)]:
        config = DesignConfig(J, J0)
        ys = tuple(range(ny))
        for _ in range(15):
            PY = feasible_outcome_table(config, ys, rng)
            assert check_outcome(PY).passed
            assert brute_force_partition_check(PY)


def test_degenerate_outcome_agrees_with_treatment_check():
    rng = Random(47)
    config = DesignConfig(3, 0)
    for _ in range(40):
        P = random_table(config, rng)
        cells = {
            z: {j: {0: P.p(z, j)} for j in range(3)} for z in config.z_support
        }
        PY = OutcomeDistribution(config, (0,), cells)
        assert brute_force_partition_check(PY) == check(P).passed
        assert check_outcome(PY).passed == check(P).passed


def test_outcome_check_implies_marginal_check():
    rng = Random(53)
    for J, J0 in [(3, 0), (3, 1)]:
        config = DesignConfig(J, J0)
        for _ in range(60):
            PY = random_outcome_table(config, (0, 1), rng)
            if check_outcome(PY).passed:
                assert check(marginal(PY)).passed


def test_partition_family_specs_count():
    config = DesignConfig(3, 0)
    specs = partition_family_specs(config, (0, 1))
    assert len(specs) == (2**2) ** 3
    for s in specs:
        assert s.bound == 1
        assert len(s.lhs) == 6


def test_brute_force_capacity_cap():
    config = DesignConfig(3, 0)
    PY = feasible_outcome_table(config, (0, 1, 2, 3), Random(1))
    with pytest.raises(CapacityError):
        brute_force_partition_check(PY, cap=100)


def _half_cells():
    """Outcome cells of a feasible (2, 0) table over y in {0, 1}."""
    row = {0: {0: F(1, 2)}, 1: {1: F(1, 2)}}
    return {z: {j: dict(by_y) for j, by_y in row.items()} for z in (0, 1)}


def _edit(change):
    def build():
        cells = _half_cells()
        change(cells)
        return cells
    return build


@pytest.mark.parametrize(
    "ys, cells, message",
    [
        ((), _half_cells, "outcome support must be nonempty"),
        ((0, 1, 0), _half_cells, "outcome support has duplicate values"),
        ((0, 1), _edit(lambda c: c.pop(1)), "missing slice for instrument value 1"),
        ((0, 1), _edit(lambda c: c[0].update({2: {0: F(0)}})), "choice 2 out of range at z=0"),
        ((0, 1), _edit(lambda c: c[1][0].update({5: F(0)})), "outcome 5 not in support at z=1"),
        (
            (0, 1),
            _edit(lambda c: c[0].update({0: {0: F(-1, 2)}, 1: {1: F(3, 2)}})),
            "negative probability at (z=0, j=0, y=0)",
        ),
        ((0, 1), _edit(lambda c: c[1][1].update({1: F(1, 4)})), "slice for z=1 sums to 3/4, not 1"),
        ((0, 1), _edit(lambda c: c.update({2: c[0]})), "cells contain instrument values outside the support"),
        # several faults: the first slice's first fault is named, and a
        # cell's fault before its slice's sum
        (
            (0, 1),
            _edit(lambda c: (c[0][0].update({0: F(1, 3)}), c[1][1].update({1: F(-1, 2)}))),
            "slice for z=0 sums to 5/6, not 1",
        ),
        (
            (0, 1),
            _edit(lambda c: c[0].update({0: {0: F(3, 2)}, 1: {1: F(-1, 3), 0: F(-1, 6)}})),
            "negative probability at (z=0, j=1, y=1)",
        ),
        (
            (0, 1),
            _edit(lambda c: c[1].update({1: {7: F(0), 1: F(-1, 2)}})),
            "outcome 7 not in support at z=1",
        ),
        (
            (0, 1),
            _edit(lambda c: (c[0][1].update({1: F(2, 3)}), c[1].update({3: {}}))),
            "slice for z=0 sums to 7/6, not 1",
        ),
        # the keys are checked before any slice
        ((0, 1), _edit(lambda c: (c.pop(1), c[0][0].update({0: F(3, 4)}))), "missing slice for instrument value 1"),
        (
            (0, 1),
            _edit(lambda c: (c.update({2: c[0]}), c[0][0].update({0: F(3, 4)}))),
            "cells contain instrument values outside the support",
        ),
    ],
    ids=["empty", "duplicate", "missing-z", "choice", "outcome", "negative", "sum", "extra-z",
         "sum-first", "negative-first", "outcome-first", "sum-before-choice",
         "missing-z-first", "extra-z-first"],
)
def test_outcome_distribution_rejects_malformed_tables(ys, cells, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OutcomeDistribution(DesignConfig(2, 0), ys, cells())


@pytest.mark.parametrize(
    "ys, cells, message",
    [
        ((0.5, 1.5), _half_cells, "outcome support value must be an integer, got float"),
        ((False, True), _half_cells, "outcome support value must be an integer, got bool"),
        ((0, 1), _edit(lambda c: c[0].update({1.0: c[0].pop(1)})), "choice key must be an integer, got float"),
        ((0, 1), _edit(lambda c: c[1].update({True: c[1].pop(1)})), "choice key must be an integer, got bool"),
        ((0, 1), _edit(lambda c: c[0][1].update({1.5: c[0][1].pop(1)})), "outcome key must be an integer, got float"),
        ((0, 1), _edit(lambda c: c[1][0].update({"0": c[1][0].pop(0)})), "outcome key must be an integer, got str"),
    ],
    ids=["float-support", "bool-support", "float-choice", "bool-choice", "float-outcome", "str-outcome"],
)
def test_outcome_distribution_rejects_non_integer_labels(ys, cells, message):
    # int() would truncate 0.5 and 1.5 to (0, 1) and read True as choice 1
    with pytest.raises(TypeError, match=f"^{message}$"):
        OutcomeDistribution(DesignConfig(2, 0), ys, cells())


def test_outcome_distribution_stores_numpy_integer_labels_as_int():
    cells = {
        z: {np.int64(j): {np.int32(y): v for y, v in by_y.items()} for j, by_y in by_j.items()}
        for z, by_j in _half_cells().items()
    }
    PY = OutcomeDistribution(DesignConfig(2, 0), (np.int64(0), np.int64(1)), cells)
    assert PY == OutcomeDistribution(DesignConfig(2, 0), (0, 1), _half_cells())
    assert all(type(y) is int for y in PY.y_support)
    assert all(type(k) is int for by_j in PY.cells.values() for j, by_y in by_j.items() for k in (j, *by_y))


def test_report_needs_a_nonempty_family():
    with pytest.raises(ValueError, match="^cannot build a report from an empty family$"):
        report_from_slacks(())
