"""``verify_mixture`` on designs where sampling each region from the whole
shock box took too long: (5,0) ran for seconds and (6,2) fell below the
acceptance floor. Regions are certified from their constraints, and
none is sampled, so each answers well inside the time bound."""

import time
from random import Random

import pytest

from encdesign.core import DesignConfig
from encdesign.simulate import build_epsilon_mixture, verify_mixture
from helpers import random_measure


@pytest.mark.parametrize("J, J0", [(5, 0), (6, 0), (6, 2)])
def test_mixture_verifies_large_designs(J, J0):
    rng = Random(9100 + 10 * J + J0)
    q = random_measure(DesignConfig(J, J0), rng)
    mix = build_epsilon_mixture(q)
    start = time.perf_counter()
    error = verify_mixture(mix, 20_000, seed=rng.randint(0, 2**31))
    elapsed = time.perf_counter() - start
    assert error <= 0.02, (J, J0, error)
    assert elapsed < 2.0, f"verify_mixture took {elapsed:.2f} s"
