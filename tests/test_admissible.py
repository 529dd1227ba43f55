"""Admissible-set enumeration, default choices, and the comparison
predicates."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encdesign.admissible import (
    closed_form_count,
    default_choice,
    enumerate_admissible,
    is_admissible,
    satisfies_example_restrictions,
    satisfies_pairwise_restriction,
)
from encdesign.core import DesignConfig, ResponseType
from encdesign.errors import CapacityError

J3_TYPES = {
    (0, 0, 0),
    (1, 1, 1),
    (2, 2, 2),
    (0, 1, 0),
    (0, 0, 2),
    (1, 1, 2),
    (0, 1, 1),
    (2, 1, 2),
    (0, 2, 2),
    (0, 1, 2),
}


def test_enumeration_matches_published_list_for_three_choices():
    got = enumerate_admissible(DesignConfig(3, 0))
    assert {t.d for t in got} == J3_TYPES
    assert len(got) == 10


def test_enumeration_small_base_state_designs():
    assert {t.d for t in enumerate_admissible(DesignConfig(2, 1))} == {
        (0, 0),
        (0, 1),
        (1, 1),
    }
    assert {t.d for t in enumerate_admissible(DesignConfig(3, 2))} == {
        (0, 0),
        (0, 2),
        (1, 1),
        (1, 2),
        (2, 2),
    }


def test_enumeration_is_sorted_and_duplicate_free():
    for J, J0 in [(2, 0), (3, 1), (4, 0), (4, 2)]:
        types = enumerate_admissible(DesignConfig(J, J0))
        ds = [t.d for t in types]
        assert ds == sorted(ds)
        assert len(set(ds)) == len(ds)


def test_closed_form_counts_match_enumeration():
    for J in range(2, 6):
        for J0 in range(0, J):
            config = DesignConfig(J, J0)
            assert len(enumerate_admissible(config)) == closed_form_count(config)


def test_enumeration_capacity_cap():
    with pytest.raises(CapacityError):
        enumerate_admissible(DesignConfig(10, 0), cap=1000)


def test_is_admissible_examples():
    assert is_admissible(DesignConfig(3, 0), ResponseType((0, 1, 0)))
    assert not is_admissible(DesignConfig(3, 1), ResponseType((0, 1, 1)))
    assert not is_admissible(DesignConfig(2, 0), ResponseType((1, 0)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_admissible_equals_literal_default_existence(data):
    J = data.draw(st.integers(2, 4))
    config = DesignConfig(J, 0)
    d = tuple(data.draw(st.integers(0, J - 1)) for _ in range(J))
    rt = ResponseType(d)
    literal = any(
        all(d[z] in (z, j_star) for z in range(J)) for j_star in range(J)
    )
    assert is_admissible(config, rt) == literal


def test_base_state_set_nests_inside_unrestricted_set():
    # The J0 = k admissible set equals the J0 = 0 set restricted to the
    # smaller support, keeping vectors whose default matches the base choice.
    for J0 in (1, 2):
        config = DesignConfig(3, J0)
        free = DesignConfig(3, 0)
        projected = set()
        for t in enumerate_admissible(free):
            if t.d[0] in default_choice(free, t):
                projected.add(tuple(t.d[free.z_index(z)] for z in config.z_support))
        got = {t.d for t in enumerate_admissible(config)}
        assert got == projected
    assert len(enumerate_admissible(DesignConfig(3, 1))) == 8


def test_default_choice_examples():
    config = DesignConfig(3, 0)
    assert default_choice(config, ResponseType((0, 1, 0))) == {0}
    assert default_choice(config, ResponseType((0, 1, 2))) == {0, 1, 2}
    assert default_choice(DesignConfig(3, 1), ResponseType((1, 1, 2))) == {1}


def test_default_choice_singleton_off_diagonal():
    for J, J0 in [(2, 0), (3, 0), (4, 0), (3, 1), (3, 2), (4, 2)]:
        config = DesignConfig(J, J0)
        diagonal = tuple(config.z_support)
        for t in enumerate_admissible(config):
            feasible = default_choice(config, t)
            if config.J0 == 0 and t.d == diagonal:
                assert feasible == set(range(J))
            else:
                assert len(feasible) == 1


def test_default_choice_rejects_inadmissible():
    with pytest.raises(ValueError):
        default_choice(DesignConfig(2, 0), ResponseType((1, 0)))


def test_pairwise_restriction_witness_at_four_choices():
    config = DesignConfig(4, 0)
    witness = ResponseType((1, 1, 2, 2))
    assert satisfies_pairwise_restriction(config, witness)
    assert not is_admissible(config, witness)


def test_pairwise_restriction_on_diagonal():
    assert satisfies_pairwise_restriction(DesignConfig(4, 0), ResponseType((0, 1, 2, 3)))


def test_pairwise_restriction_equals_admissibility_at_three_choices():
    config = DesignConfig(3, 0)
    for d in product(range(3), repeat=3):
        rt = ResponseType(d)
        assert satisfies_pairwise_restriction(config, rt) == is_admissible(config, rt)


def test_admissibility_strictly_inside_pairwise_at_four_choices():
    config = DesignConfig(4, 0)
    strict = 0
    for d in product(range(4), repeat=4):
        rt = ResponseType(d)
        if is_admissible(config, rt):
            assert satisfies_pairwise_restriction(config, rt)
        elif satisfies_pairwise_restriction(config, rt):
            strict += 1
    assert strict > 0


def test_example_restrictions_match_admissibility_exactly():
    for J0 in (1, 2):
        config = DesignConfig(3, J0)
        size = len(config.z_support)
        for d in product(range(3), repeat=size):
            rt = ResponseType(d)
            assert satisfies_example_restrictions(config, rt) == is_admissible(
                config, rt
            ), (J0, d)


def test_example_restrictions_specific_vectors():
    kw = DesignConfig(3, 2)
    assert satisfies_example_restrictions(kw, ResponseType((1, 2)))
    assert not satisfies_example_restrictions(kw, ResponseType((1, 0)))
    klm = DesignConfig(3, 1)
    assert satisfies_example_restrictions(klm, ResponseType((2, 1, 2)))


def test_example_restrictions_unsupported_config():
    with pytest.raises(ValueError):
        satisfies_example_restrictions(DesignConfig(4, 1), ResponseType((0, 1, 2, 3)))


def test_pairwise_restriction_needs_no_base_state():
    with pytest.raises(ValueError, match="^the pairwise restriction is defined for J0 = 0$"):
        satisfies_pairwise_restriction(DesignConfig(3, 1), ResponseType((0, 1, 2)))


# (5,0) with caps 0 and 15 refuse on J - J0 - 1 >= the cap's bit length
# alone; the others compare the closed-form count with the cap
@pytest.mark.parametrize("J, J0, cap", [(5, 0, 0), (5, 0, 15), (4, 0, 28), (11, 1, 1000), (12, 11, 22)])
def test_enumeration_cap_names_the_cap(J, J0, cap):
    config = DesignConfig(J, J0)
    assert closed_form_count(config) > cap
    with pytest.raises(CapacityError, match=f"^enumeration would emit more than {cap} types$"):
        enumerate_admissible(config, cap=cap)
    assert len(enumerate_admissible(config, cap=closed_form_count(config))) == closed_form_count(config)
