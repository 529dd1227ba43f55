"""Semantics of the sampling kernels, and the argmax kernel against the
per-row loop kept as an oracle in tests/helpers.py."""

import numpy as np
import pytest

from encdesign import kernels
from encdesign.core import DesignConfig

from helpers import potential_type_codes_by_rows


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
