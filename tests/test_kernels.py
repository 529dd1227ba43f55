"""Backend agreement and semantics of the sampling kernels."""

import numpy as np
import pytest

from encdesign import kernels


def test_backend_reported():
    assert kernels.BACKEND in ("compiled", "python")
    assert "python" in kernels.available_backends()


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


def test_region_accept_semantics():
    eps = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
    mask = kernels.region_accept(eps, [0, 0], [1, 2], [0.0, 0.0])
    assert mask.tolist() == [True, False]
    # strictness: equal values fail
    eps = np.array([[1.0, 1.0]])
    assert kernels.region_accept(eps, [0], [1], [0.0]).tolist() == [False]


@pytest.mark.skipif(
    kernels.BACKEND != "compiled", reason="compiled backend not built"
)
def test_backends_bit_identical():
    rng = np.random.default_rng(0)
    backends = kernels.available_backends()
    eps = rng.normal(size=(4096, 4))
    betas = np.array([0.0, 0.7, 1.3, 2.0])
    targets = np.array([0, 2, 3])
    d_c, t_c = kernels.potential_type_codes(eps, betas, targets, impl=backends["compiled"])
    d_p, t_p = kernels.potential_type_codes(eps, betas, targets, impl=backends["python"])
    assert np.array_equal(d_c, d_p)
    assert np.array_equal(t_c, t_p)


@pytest.mark.skipif(
    kernels.BACKEND != "compiled", reason="compiled backend not built"
)
def test_backends_agree_on_exact_ties():
    backends = kernels.available_backends()
    eps = np.array([[1.0, 1.0, 0.5], [0.25, 0.75, 0.75]])
    for name, impl in backends.items():
        d, ties = kernels.potential_type_codes(
            eps, np.zeros(3), np.array([0, 1, 2]), impl=impl
        )
        assert d[0, 0] == 0  # first index wins
        assert ties.tolist() == [True, True], name
