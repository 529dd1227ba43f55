"""The LP's pricing against a scan of the enumerated admissible set: on
every dual vector both must name the same column of least (reduced
cost, key). The test names date from the greedy walk that once found
the first negative column; they are kept so the test ids stay stable."""

from random import Random

import pytest

from encdesign import lp
from encdesign.core import DesignConfig
from helpers import most_negative_by_scan, type_column_keys

# base states with several untargeted choices: (4,3) to (6,5)
TREATMENT = [(J, J0) for J in range(2, 9) for J0 in (0, 1, 2) if J0 < J] + [
    (4, 3),
    (5, 3),
    (6, 3),
    (6, 5),
]
OUTCOME = [
    (J, J0, ny)
    for J, J0 in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2)]
    for ny in (1, 2, 3)
] + [(4, 3, 2), (4, 3, 3)]


def _duals(columns, rng):
    """Dual vectors with small entries, many zeros and ties: each kind
    once with every cell drawn from a narrow range, once mostly zeros, and
    with the normalization entry set so that the columns priced below
    zero are none, exactly the cheapest few, or a tie at zero."""
    keys = type_column_keys(columns)
    for spread, zeros in [(1, 0.0), (2, 0.5), (3, 0.8), (6, 0.3)]:
        cells = [
            0 if rng.random() < zeros else rng.randint(-spread, spread)
            for _ in range(columns.m - 1)
        ]
        sums = sorted({sum(cells[r] for r in columns.rows(key)[:-1]) for key in keys})
        # the k-th smallest column sum as threshold: columns strictly
        # below it are negative (none for k = 0)
        for k in sorted({min(k, len(sums) - 1) for k in (0, 1, 2, len(sums))}):
            yield cells + [-sums[k]]
        yield cells + [-sums[-1] - 1]  # every column is negative
        yield cells + [rng.randint(-4, 4)]


def _check_pricing(columns, rng):
    found = 0
    for priced in _duals(columns, rng):
        want = most_negative_by_scan(columns, priced)
        assert columns.most_negative(priced) == want, priced
        found += want is not None
    return found


@pytest.mark.parametrize("J, J0", TREATMENT)
def test_walk_finds_first_negative_type(J, J0):
    columns = lp._TypeColumns(DesignConfig(J, J0), 1)
    rng = Random(401 + 10 * J + J0)
    assert _check_pricing(columns, rng) > 0


@pytest.mark.parametrize("J, J0, ny", OUTCOME)
def test_walk_finds_first_negative_outcome_column(J, J0, ny):
    columns = lp._TypeColumns(DesignConfig(J, J0), ny)
    rng = Random(409 + 100 * ny + 10 * J + J0)
    assert _check_pricing(columns, rng) > 0


@pytest.mark.parametrize("J, J0, ny", [(2, 0, 1), (3, 1, 2), (5, 0, 1), (4, 2, 3), (8, 0, 1)])
def test_walk_returns_none_without_a_negative_column(J, J0, ny):
    columns = lp._TypeColumns(DesignConfig(J, J0), ny)
    rng = Random(419 + J)
    for _ in range(5):
        priced = [rng.randint(0, 3) for _ in range(columns.m)]
        assert columns.most_negative(priced) is None
    # every column sums to exactly zero: none is negative
    assert columns.most_negative([0] * columns.m) is None


@pytest.mark.parametrize(
    "J, J0, ny",
    [(2, 0, 1), (3, 0, 1), (3, 1, 1), (4, 2, 1), (5, 0, 1), (6, 2, 1), (2, 1, 2), (3, 0, 2),
     (3, 1, 3), (4, 2, 3), (4, 3, 2)],
)
def test_pricing_never_takes_a_closed_cell(J, J0, ny):
    # closed cells, implied ones among them, price at +inf: the scan over
    # the keys that cross none of them is the oracle
    config = DesignConfig(J, J0)
    rng = Random(433 + 100 * ny + 10 * J + J0)
    cells = [(k, c) for k in range(len(config.z_support)) for c in range(J * ny)]
    found = 0
    for share in (0.1, 0.2, 0.3, 0.5):
        columns = lp._TypeColumns(config, ny, [cell for cell in cells if rng.random() < share])
        if type_column_keys(columns):
            found += _check_pricing(columns, rng)
        else:
            assert columns.most_negative([-1] * columns.m) is None
    assert found > 0
    # every column closed: none is priced, however negative its cells
    columns = lp._TypeColumns(config, ny, cells)
    assert columns.most_negative([-1] * columns.m) is None
