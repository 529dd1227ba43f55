"""Inequality families: generation counts, exact checks, outcome
extension, and the brute-force partition oracle."""

from fractions import Fraction as F
from random import Random

import pytest

from encdesign.core import DesignConfig, ObservedDistribution, pushforward
from encdesign.errors import CapacityError
from encdesign.inequalities import (
    OutcomeDistribution,
    check,
    check_outcome,
    generate,
    generate_outcome,
    partition_family_specs,
)
from helpers import (
    brute_force_partition_check,
    check_by_family,
    encouragement_specs,
    feasible_outcome_table,
    feasible_table,
    partition_check,
    random_measure,
    random_outcome_table,
    random_table,
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


def test_family_capacity_cap():
    with pytest.raises(CapacityError):
        generate(DesignConfig(9, 0), cap=10_000)


def test_check_cap_refuses_before_building_specs(monkeypatch):
    from encdesign import inequalities

    P = random_table(DesignConfig(5, 0), Random(41))
    report = check(P, cap=10)
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
                assert spec.slack(P) >= 0


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
                assert check(PY.marginal()).passed


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
