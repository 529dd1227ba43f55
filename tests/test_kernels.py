"""Semantics of the sampling kernels; the argmax kernel against the
per-row loop and the ``axis=1`` reductions, and the column-major
constraint test against the row-major one, all kept as oracles in
tests/helpers.py."""

import numpy as np
import pytest

from encdesign import kernels
from encdesign.core import DesignConfig

from helpers import (
    potential_type_codes_by_argmax,
    potential_type_codes_by_rows,
    region_accept_by_rows,
)


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_potential_codes_basic():
    eps = np.array([[3.0, 1.0, 2.0]])
    d, ties = kernels.potential_type_codes(eps, [0.0, 0.0, 0.0], [0, 1, 2])
    assert d.tolist() == [[0, 0, 0]]
    assert not ties[0]
    d, _ = kernels.potential_type_codes(eps, [0.0, 5.0, 0.0], [0, 1, 2])
    assert d.tolist() == [[0, 1, 0]]


def test_potential_codes_base_state_support():
    eps = np.array([[0.0, 2.0, 1.0]])
    d, _ = kernels.potential_type_codes(eps, [0.0, 0.0, 5.0], [0, 2])
    assert d.tolist() == [[1, 2]]


def test_tie_detection():
    eps = np.array([[1.0, 1.0, 0.0]])
    _, ties = kernels.potential_type_codes(eps, [0.0, 0.0, 0.0], [0, 1, 2])
    assert ties[0]
    # boosting breaks the tie
    _, ties = kernels.potential_type_codes(eps, [0.5, 0.5, 0.5], [0])
    assert not ties[0]
    # exact ties at the top: the first index wins and both rows are tied
    eps = np.array([[1.0, 1.0, 0.5], [0.25, 0.75, 0.75]])
    d, ties = kernels.potential_type_codes(eps, np.zeros(3), np.array([0, 1, 2]))
    assert d[0, 0] == 0
    assert ties.tolist() == [True, True]


def test_region_accept_semantics():
    eps = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
    mask = kernels.region_accept(eps, [0, 0], [1, 2], [0.0, 0.0])
    assert mask.tolist() == [True, False]
    # strictness: equal values fail
    eps = np.array([[1.0, 1.0]])
    assert kernels.region_accept(eps, [0], [1], [0.0]).tolist() == [False]


# J0 = 0 supports and base-state supports, J = 2..6
DESIGNS = sorted({(J, J0) for J in range(2, 7) for J0 in (0, 1, J - 1)})


@pytest.mark.parametrize("J,J0", DESIGNS)
@pytest.mark.parametrize("boosted", [False, True])
def test_potential_codes_match_row_loop_on_exact_ties(J, J0, boosted):
    rng = np.random.default_rng(1000 * J + 10 * J0 + boosted)
    # integer-valued shocks on a narrow range make exact ties frequent
    eps = rng.integers(-2, 3, size=(400, J)).astype(np.float64)
    betas = rng.integers(1, 3, size=J).astype(np.float64) if boosted else np.zeros(J)
    z_support = DesignConfig(J, J0).z_support
    d, ties = kernels.potential_type_codes(eps, betas, list(z_support))
    want_d, want_ties = potential_type_codes_by_rows(eps, betas, z_support)
    assert d.dtype == np.int64 and d.shape == (400, len(z_support))
    assert d.tolist() == want_d
    assert ties.tolist() == want_ties
    assert any(want_ties) and not all(want_ties)


SPECIAL_ROWS = [
    [-0.0] * 8,
    [0.0, -0.0] * 4,
    [np.inf] * 8,
    [-np.inf] * 8,
    [-np.inf, np.inf, np.inf, 0.0, -0.0, 1.0, -np.inf, np.inf],
    [1.0, -np.inf, -0.0, np.inf, 2.0, 0.0, np.inf, -1.0],
    [-0.0, -np.inf, 0.0, -1.0, -np.inf, -0.0, 2.0, 0.0],
]


def _shocks_with_ties(rng, n, J):
    """Integer-valued shocks on a narrow range, about a tenth of the
    entries replaced by ±0.0 or ±inf, and the special rows first."""
    eps = rng.integers(-2, 3, size=(n, J)).astype(np.float64)
    special = rng.random((n, J)) < 0.1
    eps[special] = rng.choice([-0.0, 0.0, np.inf, -np.inf], size=int(special.sum()))
    for i, row in enumerate(SPECIAL_ROWS[:n]):
        eps[i] = row[:J]
    return eps


@pytest.mark.parametrize("n", [0, 1, 7, 400, 65_537])
@pytest.mark.parametrize("J,J0", sorted({(J, J0) for J in range(2, 9) for J0 in (0, 1, J - 1)}))
def test_potential_codes_match_axis_reductions_bit_for_bit(J, J0, n):
    rng = np.random.default_rng([J, J0, n])
    eps = _shocks_with_ties(rng, n, J)
    betas = np.where(np.arange(J) < J0, 0.0, rng.integers(1, 3, size=J).astype(np.float64))
    z_support = list(DesignConfig(J, J0).z_support)
    # and boosts that rounding absorbs on the targeted choice J - 1: its
    # boosted column then meets the unboosted top exactly
    absorbed = [np.where(np.arange(J) == J - 1, b, betas) for b in (2.0**-1074, 1e-300)]
    for b in [betas, *absorbed]:
        d, ties = kernels.potential_type_codes(eps, b, z_support)
        want_d, want_ties = potential_type_codes_by_argmax(eps, b, z_support)
        assert d.dtype == want_d.dtype == np.int64 and d.shape == (n, len(z_support))
        assert ties.dtype == want_ties.dtype == bool and ties.shape == (n,)
        assert np.array_equal(d, want_d)
        assert np.array_equal(ties, want_ties)
        if n <= 400:
            rows_d, rows_ties = potential_type_codes_by_rows(eps, b, z_support)
            assert d.tolist() == rows_d and ties.tolist() == rows_ties
        if n >= 400:
            assert ties.any() and not ties.all()


@pytest.mark.parametrize("n", [0, 1, 7, 400, 14_000])
@pytest.mark.parametrize("J", [2, 4, 8])
def test_region_accept_matches_row_major_oracle(J, n):
    rng = np.random.default_rng([J, n, 5])
    eps = _shocks_with_ties(rng, n, J)
    # a region's shape: one pivot column against every other; integer
    # offsets make exact equalities (rejected) frequent, and a -0.0
    # offset exercises the signed zero
    p = int(rng.integers(0, J))
    rhs = np.array([j for j in range(J) if j != p])
    lhs = np.full(J - 1, p)
    offsets = rng.integers(0, 3, J - 1).astype(np.float64)
    offsets[0] = -0.0
    mask = kernels.region_accept(eps, lhs, rhs, offsets)
    want = region_accept_by_rows(eps, lhs, rhs, offsets)
    assert mask.dtype == bool and mask.shape == (n,)
    assert np.array_equal(mask, want)
    if n:
        assert any(want) and not all(want) or n < 400
        lists = (eps.tolist(), lhs.tolist(), rhs.tolist(), offsets.tolist())
        assert np.array_equal(kernels.region_accept(*lists), want)


@pytest.mark.parametrize("J", [255, 256, 300])
def test_potential_codes_match_argmax_past_the_counter_boundary(J):
    # the first-index count reaches J on rows whose top is in column 0:
    # uint8 up to J = 255, uint16 from 256
    rng = np.random.default_rng(J)
    eps = rng.integers(-2, 3, size=(40, J)).astype(np.float64)
    eps[0] = 1.0  # all tied
    eps[1] = np.inf
    eps[2] = -np.inf
    eps[3] = np.where(np.arange(J) % 2, np.inf, -np.inf)
    eps[4, 0] = 10.0  # top in column 0 alone
    eps[5, -1] = 10.0  # top in the last column alone
    betas = np.where(np.arange(J) % 3 == 0, 0.0, 1.0)
    z_targets = [0, 1, 2, 128, 254, J - 1]
    d, ties = kernels.potential_type_codes(eps, betas, z_targets)
    want_d, want_ties = potential_type_codes_by_argmax(eps, betas, z_targets)
    assert d.dtype == np.int64
    assert np.array_equal(d, want_d)
    assert np.array_equal(ties, want_ties)
    assert d[0, 0] == 0 and ties[0] and not ties[4] and d[5].tolist() == [J - 1] * len(z_targets)


@pytest.mark.parametrize("J", [2, 4, 7])
def test_kernels_do_not_depend_on_the_memory_order(J):
    # C-ordered rows against column-major rows (the region sampler's view
    # of its columns, which the kernels read without a copy) and a
    # strided slice
    rng = np.random.default_rng([J, 9])
    eps = _shocks_with_ties(rng, 1000, J)
    layouts = [np.asfortranarray(eps), np.repeat(eps, 2, axis=0)[::2]]
    assert not any(x.flags.c_contiguous for x in layouts)
    betas = rng.integers(0, 3, size=J).astype(np.float64)
    z_support = list(range(J))
    p = int(rng.integers(0, J))
    rhs = [j for j in range(J) if j != p]
    lhs, offsets = [p] * (J - 1), rng.integers(0, 3, J - 1).astype(np.float64)
    want_d, want_ties = kernels.potential_type_codes(eps, betas, z_support)
    want_mask = kernels.region_accept(eps, lhs, rhs, offsets)
    for x in layouts:
        d, ties = kernels.potential_type_codes(x, betas, z_support)
        assert np.array_equal(d, want_d) and np.array_equal(ties, want_ties)
        assert np.array_equal(kernels.region_accept(x, lhs, rhs, offsets), want_mask)
    assert want_ties.any() and want_mask.any() and not want_mask.all()
