"""Core objects: configurations, exact tables, the observation map, and
the pushforward; and the package's import graph, in which the exact
oracles take these objects from core alone."""

import ast
import dataclasses
from fractions import Fraction as F
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encdesign
from encdesign.core import (
    DesignConfig,
    ObservedDistribution,
    OutcomeDistribution,
    ResponseMeasure,
    ResponseType,
    as_fraction,
    pushforward,
)
from helpers import mix, observation_map, random_measure, z_index_by_fork, z_support_by_fork


def test_config_supports():
    assert DesignConfig(3, 0).z_support == (0, 1, 2)
    assert DesignConfig(3, 2).z_support == (0, 2)
    assert DesignConfig(5, 2).z_support == (0, 2, 3, 4)
    assert DesignConfig(2, 1).z_support == (0, 1)


def test_config_base_state():
    assert DesignConfig(3, 0).base is None
    for J0 in (1, 2):
        config = DesignConfig(3, J0)
        assert config.base == 0 == config.z_support[0]
        # derived from J0, not a field
        with pytest.raises(AttributeError):
            config.base = 1
    assert "base" not in dataclasses.asdict(DesignConfig(3, 1))


def test_config_support_sizes():
    for J in range(2, 7):
        assert len(DesignConfig(J, 0).z_support) == J
        for J0 in range(1, J):
            config = DesignConfig(J, J0)
            assert len(config.z_support) == J - J0 + 1
            assert 0 in config.z_support
            assert all(j in config.z_support for j in range(J0, J))


def test_config_support_and_index_match_the_forked_definitions():
    for J in range(2, 9):
        for J0 in range(J):
            config = DesignConfig(J, J0)
            support = config.z_support
            assert support == z_support_by_fork(config)
            assert config.z_support is support
            for z in range(-2, J + 2):
                for value in (z, np.int64(z), np.int16(z)):
                    try:
                        want = z_index_by_fork(config, value)
                    except ValueError as err:
                        with pytest.raises(ValueError) as got:
                            config.z_index(value)
                        assert str(got.value) == str(err)
                    else:
                        assert config.z_index(value) == want


def test_config_cached_support_leaves_equality_hash_and_repr_to_the_fields():
    config, fresh = DesignConfig(5, 2), DesignConfig(5, 2)
    config.z_index(3)  # fills the cached support and positions
    assert config == fresh and hash(config) == hash(fresh)
    assert repr(config) == repr(fresh) == "DesignConfig(J=5, J0=2)"
    assert config != DesignConfig(5, 1)
    with pytest.raises(AttributeError):
        config.z_support = (0,)


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DesignConfig(1, 0)
    with pytest.raises(ValueError):
        DesignConfig(3, 3)
    with pytest.raises(ValueError):
        DesignConfig(3, -1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3.0,), "J must be an integer, got float"),
        ((True,), "J must be an integer, got bool"),
        ((3, True), "J0 must be an integer, got bool"),
        (("3",), "J must be an integer, got str"),
    ],
    ids=["float-J", "bool-J", "bool-J0", "str-J"],
)
def test_config_rejects_non_integer_fields(args, message):
    with pytest.raises(TypeError, match=message):
        DesignConfig(*args)


def test_config_stores_numpy_integers_as_int():
    config = DesignConfig(np.int64(3), np.int64(1))
    assert config == DesignConfig(3, 1) and repr(config) == repr(DesignConfig(3, 1))
    assert type(config.J) is int and type(config.J0) is int


@pytest.mark.parametrize(
    "d, got",
    [((0.9, 1.2), "float"), ((True, 1), "bool"), ((1, "0"), "str"), ((0, None), "NoneType")],
    ids=["float", "bool", "str", "none"],
)
def test_response_type_rejects_non_integer_entries(d, got):
    # int() would store (0.9, 1.2) as (0, 1) and (True, 1) as (1, 1)
    with pytest.raises(TypeError, match=f"^response type entry must be an integer, got {got}$"):
        ResponseType(d)
    with pytest.raises(TypeError, match="^response type entry must be an integer"):
        ResponseMeasure(DesignConfig(2, 0), {d: 1})


def test_response_type_stores_numpy_integers_as_int():
    rt = ResponseType((np.int64(1), np.int32(0)))
    assert rt == ResponseType((1, 0)) and repr(rt) == repr(ResponseType((1, 0)))
    assert all(type(v) is int for v in rt.d)


def test_targeted_set():
    config = DesignConfig(3, 1)
    assert config.targeted_set(0) == (0, 1, 2)
    assert config.targeted_set(1) == (0, 2)
    assert config.targeted_set(2) == (0, 1)
    assert DesignConfig(3, 0).targeted_set(0) == (1, 2)


def test_as_fraction_exact_decimal():
    assert as_fraction("0.3") == F(3, 10)
    assert as_fraction("0.1") == F(1, 10)
    assert as_fraction("2/7") == F(2, 7)
    assert as_fraction(1) == F(1)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.3)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_observation_map_examples():
    config = DesignConfig(3, 0)
    assert observation_map(config, ResponseType((0, 1, 2)), 1) == 1
    # (0,1,0) is one of the ten admissible vectors at J=3
    assert observation_map(config, ResponseType((0, 1, 0)), 2) == 0
    kw = DesignConfig(3, 2)
    assert observation_map(kw, ResponseType((1, 2)), 2) == 2
    with pytest.raises(ValueError):
        observation_map(kw, ResponseType((1, 2)), 1)


def test_pushforward_diagonal_unit_mass():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(config, {ResponseType((0, 1, 2)): F(1)})
    P = pushforward(q)
    for z in range(3):
        for j in range(3):
            assert P.p(z, j) == (1 if j == z else 0)


def test_pushforward_constant_types():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(
        config,
        {ResponseType((v, v, v)): F(1, 3) for v in range(3)},
    )
    P = pushforward(q)
    assert all(P.p(z, j) == F(1, 3) for z in range(3) for j in range(3))


def test_pushforward_base_state_example():
    config = DesignConfig(2, 1)
    q = ResponseMeasure(
        config,
        {
            ResponseType((0, 0)): F(1, 2),
            ResponseType((0, 1)): F(1, 4),
            ResponseType((1, 1)): F(1, 4),
        },
    )
    P = pushforward(q)
    assert P.rows[0] == (F(3, 4), F(1, 4))
    assert P.rows[1] == (F(1, 2), F(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    seed1=st.integers(0, 10**6),
    seed2=st.integers(0, 10**6),
    num=st.integers(0, 12),
    den=st.integers(12, 24),
)
def test_pushforward_linearity(seed1, seed2, num, den):
    config = DesignConfig(3, 1)
    lam = F(num, den)
    q1 = random_measure(config, Random(seed1))
    q2 = random_measure(config, Random(seed2))
    mixed = pushforward(mix(lam, q1, q2))
    p1, p2 = pushforward(q1), pushforward(q2)
    for z in config.z_support:
        for j in range(config.J):
            assert mixed.p(z, j) == lam * p1.p(z, j) + (1 - lam) * p2.p(z, j)


def test_pushforward_rows_sum_to_one():
    rng = Random(5)
    for J, J0 in [(2, 0), (3, 0), (3, 2), (4, 1)]:
        config = DesignConfig(J, J0)
        P = pushforward(random_measure(config, rng))
        for z in config.z_support:
            assert sum(P.rows[z]) == 1


def test_pushforward_summation_order_is_irrelevant():
    config = DesignConfig(3, 0)
    rng = Random(11)
    q = random_measure(config, rng)
    shuffled = list(q.mass.items())
    Random(3).shuffle(shuffled)
    q2 = ResponseMeasure(config, dict(shuffled))
    assert pushforward(q).rows == pushforward(q2).rows


def test_observed_distribution_validates_rows():
    config = DesignConfig(2, 0)
    with pytest.raises(ValueError):
        ObservedDistribution(config, {0: (F(1, 2), F(1, 4)), 1: (F(1), F(0))})
    with pytest.raises(ValueError):
        ObservedDistribution(config, {0: (F(1), F(0))})


def test_response_measure_rejects_inadmissible_support():
    config = DesignConfig(2, 0)
    with pytest.raises(ValueError):
        ResponseMeasure(config, {ResponseType((1, 0)): F(1)})


def test_response_measure_requires_unit_total():
    config = DesignConfig(2, 0)
    with pytest.raises(ValueError):
        ResponseMeasure(config, {ResponseType((0, 0)): F(1, 2)})


UNIT_ROWS = {0: (F(1), F(0)), 1: (F(0), F(1))}
UNIT_SLICES = {0: {0: {0: F(1)}}, 1: {1: {1: F(1)}}}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda c: c.targeted_set(2), "choice 2 out of range"),
        (lambda c: ObservedDistribution(c, {0: (F(1),), 1: (F(0), F(1))}), "row for z=0 must have 2 entries"),
        (
            lambda c: ObservedDistribution(c, {0: (F(3, 2), F(-1, 2)), 1: (F(0), F(1))}),
            "probability 3/2 outside [0, 1] at z=0",
        ),
        (
            lambda c: ObservedDistribution(c, {**UNIT_ROWS, 2: (F(1), F(0))}),
            "rows contain instrument values outside the support",
        ),
        # the keys are checked before any row
        (lambda c: ObservedDistribution(c, {0: (F(1),)}), "missing row for instrument value 1"),
        (
            lambda c: ObservedDistribution(c, {0: (F(1),), 1: (F(0), F(1)), 2: (F(1), F(0))}),
            "rows contain instrument values outside the support",
        ),
        (
            lambda c: ResponseMeasure(c, {(0, 1): F(3, 2), (0, 0): F(-1, 2)}),
            "negative mass -1/2 on (0, 0)",
        ),
        # several faults: the first row's first fault is named, and a
        # range fault before its row's sum
        (
            lambda c: ObservedDistribution(c, {0: (F(1, 3), F(-1, 2)), 1: (F(2), "x")}),
            "probability -1/2 outside [0, 1] at z=0",
        ),
        (
            lambda c: ObservedDistribution(c, {0: (F(1, 2), F(5, 3)), 1: (F(-1), F(2))}),
            "probability 5/3 outside [0, 1] at z=0",
        ),
        (
            lambda c: ObservedDistribution(c, {0: ("1/2", "1/3"), 1: (F(-1), F(2))}),
            "row for z=0 sums to 5/6, not 1",
        ),
        (
            lambda c: ObservedDistribution(c, {0: (F(1), F(0)), 1: ("2/3", "1/2")}),
            "row for z=1 sums to 7/6, not 1",
        ),
        (
            lambda c: ObservedDistribution(c, {0: (F(1, 2), F(1, 3)), 1: (F(1), F(0), F(0))}),
            "row for z=0 sums to 5/6, not 1",
        ),
        (
            lambda c: ObservedDistribution(c, {0: (F(1), F(0)), 1: (F(3, 2), F(-1, 4), F(0))}),
            "row for z=1 must have 2 entries",
        ),
        # refused before Fraction builds 10**9999999, which takes seconds
        (
            lambda c: ObservedDistribution(c, {0: ("1e-9999999", "1"), 1: (F(0), F(1))}),
            "probability '1e-9999999' needs more than 4300 digits",
        ),
        # a cell outside the table: a row is a tuple, so p(0, -1) once
        # read p(0, 1)
        (lambda c: ObservedDistribution(c, UNIT_ROWS).p(0, -1), "choice -1 out of range for J=2"),
        (lambda c: ObservedDistribution(c, UNIT_ROWS).p(0, 2), "choice 2 out of range for J=2"),
        (lambda c: OutcomeDistribution(c, (0, 1), UNIT_SLICES).p(0, -1, 0), "choice -1 out of range for J=2"),
        (lambda c: OutcomeDistribution(c, (0, 1), UNIT_SLICES).p(0, 2, 0), "choice 2 out of range for J=2"),
        (lambda c: OutcomeDistribution(c, (0, 1), UNIT_SLICES).p(0, 0, 5), "outcome 5 not in support (0, 1)"),
    ],
)
def test_core_input_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as err:
        build(DesignConfig(2, 0))
    assert str(err.value) == message


def test_response_measure_keeps_zero_masses_and_merges_repeated_types():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(config, {(2, 1, 2): F(0), ResponseType((0, 1, 2)): F(1, 3), (0, 1, 2): F(2, 3)})
    assert list(q.mass.items()) == [(ResponseType((0, 1, 2)), F(1)), (ResponseType((2, 1, 2)), F(0))]
    assert q.support() == (ResponseType((0, 1, 2)),)
    with pytest.raises(ValueError, match=r"^masses sum to 5/6, not 1$"):
        ResponseMeasure(config, {(0, 1, 2): F(1, 2), (0, 0, 0): F(1, 3)})
    with pytest.raises(ValueError, match=r"^masses sum to 0, not 1$"):
        ResponseMeasure(config, {})


ORACLES = {"inequalities", "witness", "lp"}
# every private name one module of src/encdesign imports from another
PRIVATE_IMPORTS = {
    ("cli", "core", "_check_instrument_keys"),
    ("cli", "core", "_validate_pz"),
    ("simulate", "core", "_validate_pz"),
    ("stats", "inequalities", "_cap_family"),
    ("stats", "simulate", "_chunk_rng"),
}


def _package_imports(path: Path):
    """(module, name) for each name a module imports from the package,
    name None for a whole module, at any depth of the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: keep only encdesign's own modules
                if module != "encdesign" and not module.startswith("encdesign."):
                    continue
                module = module[len("encdesign.") :]
            for alias in node.names:
                # from . import witness, or from .core import ZERO
                yield (module.rpartition(".")[2], alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("encdesign."):
                    yield alias.name.rpartition(".")[2], None


def test_the_exact_oracles_import_only_core():
    src = Path(encdesign.__file__).parent
    imports = {path.stem: set(_package_imports(path)) for path in src.glob("*.py")}
    assert ORACLES | {"core"} <= imports.keys()
    for name in ORACLES | {"core"}:
        assert not {m for m, _ in imports[name]} & (ORACLES - {name}), name
    for name in ("inequalities", "witness"):
        assert not {n for m, n in imports[name] if m == "core" and n.startswith("_")}, name
    private = {(name, m, n) for name, pairs in imports.items() for m, n in pairs if n and n.startswith("_")}
    assert private <= PRIVATE_IMPORTS
