"""Finite-sample moment-inequality test: estimation, decisions, and
limiting behavior."""

from fractions import Fraction as F

import numpy as np
import pytest

from encdesign import stats
from encdesign.core import DesignConfig, ObservedDistribution
from encdesign.simulate import MicroData, RumSpec, simulate
from encdesign.stats import TestReport as Report
from encdesign.stats import estimate
from encdesign.stats import test_model as run_model_test

from helpers import assert_same_report, p_hat
from helpers import test_model_by_specs as model_test_by_specs


def draw_from_table(P: ObservedDistribution, n: int, rng) -> MicroData:
    """Rows i.i.d. from an exact table with equal arm probabilities."""
    zs = list(P.config.z_support)
    z = np.array([zs[i] for i in rng.integers(0, len(zs), n)])
    d = np.empty(n, dtype=np.int64)
    for zv in zs:
        arm = z == zv
        probs = [float(P.p(zv, j)) for j in range(P.config.J)]
        d[arm] = rng.choice(P.config.J, size=int(arm.sum()), p=probs)
    return MicroData(d, z)


def test_estimate_counting_example():
    config = DesignConfig(2, 1)
    data = MicroData(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
    est = estimate(data, config)
    assert est.arm_counts == {0: 2, 1: 2}
    assert p_hat(est, 0, 0) == 1.0 and p_hat(est, 0, 1) == 0.0
    assert p_hat(est, 1, 0) == 0.0 and p_hat(est, 1, 1) == 1.0


def test_estimate_matches_simulation_table():
    spec = RumSpec(
        config=DesignConfig(3, 0), betas=(1.0, 1.0, 1.0),
        pz={z: F(1, 3) for z in range(3)}, n=5000, seed=9,
    )
    res = simulate(spec)
    est = estimate(res.data, spec.config)
    for z in range(3):
        for j in range(3):
            assert p_hat(est, z, j) == float(res.table.p(z, j))


def test_estimate_errors():
    config = DesignConfig(2, 0)
    with pytest.raises(ValueError, match="instrument value 1"):
        estimate(MicroData(np.array([0, 0]), np.array([0, 0])), config)
    with pytest.raises(ValueError, match="row 1"):
        estimate(MicroData(np.array([0, 5]), np.array([0, 1])), config)
    with pytest.raises(ValueError, match="row 0"):
        estimate(MicroData(np.array([0, 0]), np.array([7, 1])), config)


def test_estimate_outcome_alphabet_inferred():
    config = DesignConfig(2, 0)
    data = MicroData(
        np.array([0, 1, 1, 0]), np.array([0, 1, 0, 1]), np.array([3, 5, 3, 5])
    )
    est = estimate(data, config)
    assert est.y_support == (3, 5)
    assert p_hat(est, 0, 0, 3) == 0.5


def test_test_model_parameter_validation():
    config = DesignConfig(2, 0)
    data = MicroData(np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ValueError):
        run_model_test(data, config, B=50)
    with pytest.raises(ValueError):
        run_model_test(data, config, alpha=1.5)


def test_test_model_deterministic():
    rng = np.random.default_rng(13)
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(1, 2), F(1, 2)), 1: (F(1, 2), F(1, 2))})
    data = draw_from_table(P, 800, rng)
    a = run_model_test(data, config, B=199, seed=3)
    b = run_model_test(data, config, B=199, seed=3)
    assert_same_report(a, b)


def test_null_data_rarely_rejects():
    rejections = 0
    for r in range(40):
        spec = RumSpec(
            config=DesignConfig(3, 0), betas=(1.0, 1.0, 1.0),
            pz={z: F(1, 3) for z in range(3)}, n=2000, seed=100 + r,
        )
        res = simulate(spec)
        report = run_model_test(res.data, spec.config, alpha=0.05, B=149, seed=r)
        rejections += report.reject
    assert rejections <= 4


def test_size_controlled_at_fully_binding_null():
    # with no encouragement every inequality binds exactly, the hardest
    # point of the null; the recentred bootstrap should hold the level
    config = DesignConfig(3, 0)
    rejections = 0
    for r in range(100):
        spec = RumSpec(
            config=config, betas=(0.0, 0.0, 0.0),
            pz={z: F(1, 3) for z in range(3)}, n=2000, seed=50_000 + r,
        )
        res = simulate(spec)
        report = run_model_test(res.data, config, alpha=0.05, B=199, seed=r)
        rejections += report.reject
    assert rejections / 100 <= 0.12


def test_violating_table_is_rejected():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(3, 10), F(7, 10)), 1: (F(1, 2), F(1, 2))})
    rng = np.random.default_rng(17)
    data = draw_from_table(P, 2000, rng)
    report = run_model_test(data, config, alpha=0.05, B=199, seed=5)
    assert report.reject
    assert report.statistic > 5


def test_statistic_diverges_with_sample_size():
    config = DesignConfig(2, 0)
    P = ObservedDistribution(config, {0: (F(3, 10), F(7, 10)), 1: (F(1, 2), F(1, 2))})
    medians = []
    for n in (500, 2000, 8000):
        stats = []
        for r in range(20):
            rng = np.random.default_rng(1000 * n + r)
            data = draw_from_table(P, n, rng)
            stats.append(run_model_test(data, config, B=99, seed=r).statistic)
        medians.append(float(np.median(stats)))
    assert medians[0] < medians[1] < medians[2]


def test_degenerate_data_gives_unit_p_value():
    # all mass on one cell per arm: every moment has zero variance and
    # zero bootstrap spread
    config = DesignConfig(2, 1)
    data = MicroData(np.array([0] * 50 + [1] * 50), np.array([0] * 50 + [1] * 50))
    report = run_model_test(data, config, B=99, seed=1)
    assert report.p_value == 1.0
    assert not report.reject
    assert any(report.floored)


def test_outcome_family_used_when_y_present():
    rng = np.random.default_rng(23)
    config = DesignConfig(2, 0)
    n = 1000
    z = rng.integers(0, 2, n)
    d = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    report = run_model_test(MicroData(d, z, y), config, B=99, seed=2)
    # pointwise family (4) plus the single partition inequality: each
    # targeted set is a singleton at J=2, so only one partition exists
    assert len(report.slacks) == 4 + 1



def test_summary_binds_the_first_moment_that_attains_the_statistic():
    # studentized violations -0.5, 2, 2, 2: three moments tie at the top
    report = Report(
        arm_counts={1: 3, 0: 2}, p_hat={"0": [1.0, 0.0], "1": [0.0, 1.0]},
        slacks=[0.5, -2.0, -1.0, -2.0], standard_errors=[1.0, 1.0, 0.5, 1.0],
        floored=[False, True, False, True], statistic=2.0, binding=1, critical_value=1.5,
        p_value=0.01, reject=True, alpha=0.05, B=99, seed=4,
    )
    summary = report.summary_dict()
    assert (summary["binding"], summary["moment_count"], summary["floored_count"]) == (1, 4, 2)
    assert list(summary["arm_counts"].items()) == [("0", 2), ("1", 3)]
    assert set(report.to_dict()) - set(summary) == {"slacks", "standard_errors", "floored"}
    assert report.slacks.dtype == np.float64 and report.floored.dtype == bool
    for values in (report.slacks, report.standard_errors, report.floored):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0


def _arm_rows(counts: dict) -> MicroData:
    """Rows (d, z) with counts[z][d] rows of each pair."""
    pairs = [(d, z) for z, by_d in counts.items() for d, n in enumerate(by_d) for _ in range(n)]
    d, z = map(np.array, zip(*pairs))
    return MicroData(d, z)


def test_binding_is_the_first_maximum_across_chunks(monkeypatch):
    # At (3,1) the moments are p(1,0) - p(0,0), p(2,0) - p(0,0),
    # p(2,1) - p(0,1) and p(1,2) - p(0,2). With arms z = 1 and z = 2 each
    # other's mirror, the last two violate by 0.4 - 0.25 with equal
    # standard errors, bit for bit, so the maximum ties; one row moved
    # from d = 1 to d = 2 at z = 1 makes the last one larger. A chunk
    # holds 103 doubles per moment at B = 99: one moment, three (so the
    # tie straddles the boundary), or all four.
    config = DesignConfig(3, 1)
    for chunk_doubles in (4, 3 * 103, 1 << 17):
        monkeypatch.setattr(stats, "_CHUNK_DOUBLES", chunk_doubles)
        for first, at_one in ((2, [40, 20, 40]), (3, [40, 19, 41])):
            data = _arm_rows({0: [50, 25, 25], 1: at_one, 2: [40, 40, 20]})
            report = run_model_test(data, config, B=99, seed=4)
            studentized = -report.slacks / report.standard_errors
            assert int(np.argmax(studentized)) == first
            assert (studentized[2] == studentized[3]) == (first == 2)
            assert report.binding == report.summary_dict()["binding"] == first
            assert report.statistic == studentized[first]
            assert_same_report(report, model_test_by_specs(data, config, B=99, seed=4))
