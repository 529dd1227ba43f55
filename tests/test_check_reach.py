"""``check`` on designs whose selector family, of (J-1)^J inequalities,
was once built in full: (8,0) raised CapacityError. The verdict comes from
per-choice maxima and the violations are listed only when read."""

from random import Random

import pytest

from encdesign.core import DesignConfig, pushforward
from encdesign.errors import ConstructionError
from encdesign.inequalities import check
from encdesign.lp import feasible
from encdesign.witness import construct
from helpers import boundary_measure, feasible_table, random_table


def _constructs(P) -> bool:
    try:
        construct(P)
    except ConstructionError:
        return False
    return True


@pytest.mark.parametrize("J", [8, 10, 12])
def test_check_answers_large_designs_without_listing_violations(J):
    config = DesignConfig(J, 0)
    rng = Random(9000 + J)
    tables = {
        "feasible": feasible_table(config, rng),
        "boundary": pushforward(boundary_measure(config, rng)),
        "random": random_table(config, rng),
    }
    reports = {kind: check(P) for kind, P in tables.items()}
    for kind, report in reports.items():
        P = tables[kind]
        assert report.passed == _constructs(P), kind
        if J == 8:
            assert report.passed == feasible(P)[0], kind
    assert reports["feasible"].passed and reports["boundary"].passed
    assert reports["boundary"].min_slack == 0
    assert not reports["random"].passed and reports["random"].min_slack < 0
    # the lazy list was never computed
    assert all("violations" not in vars(r) for r in reports.values())
    assert reports["feasible"].violations == ()
