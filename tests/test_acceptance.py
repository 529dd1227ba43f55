"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete."""

import functools
import json
import math
import time
from fractions import Fraction as F
from random import Random

import numpy as np

from encdesign import cli
from encdesign.admissible import enumerate_admissible, is_admissible
from encdesign.core import (
    DesignConfig,
    ObservedDistribution,
    ResponseType,
    pushforward,
    pushforward_outcome,
)
from encdesign.errors import ConstructionError
from encdesign.inequalities import check, generate, generate_outcome
from encdesign.lp import feasible
from encdesign.simulate import RumSpec, build_epsilon_mixture, simulate, verify_mixture
from encdesign.stats import test_model as run_model_test
from encdesign.witness import construct, construct_outcome
from helpers import (
    boundary_measure,
    brute_force_partition_check,
    feasible_outcome_table,
    feasible_table,
    partition_check,
    random_measure,
    random_outcome_table,
    random_table,
    satisfies_pairwise_restriction,
)

ROUNDTRIP_CONFIGS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2)]

J3_TYPES = {
    (0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0), (0, 0, 2),
    (1, 1, 2), (0, 1, 1), (2, 1, 2), (0, 2, 2), (0, 1, 2),
}


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return wrapper

    return deco


@criterion(1, "response-type enumeration matches the published list in < 10 ms")
def test_criterion_01_enumeration(capsys):
    code = cli.run(["enumerate", "--J", "3", "--J0", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["count"] == 10
    assert {tuple(t) for t in doc["types"]} == J3_TYPES
    elapsed = min(
        _timed(lambda: enumerate_admissible(DesignConfig(3, 0))) for _ in range(5)
    )
    assert elapsed < 0.010, f"enumeration took {elapsed * 1000:.2f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(2, "inequality family counts: 8 at (3,0), 1 at (2,0), 81 at (4,0)")
def test_criterion_02_family_counts():
    assert len(generate(DesignConfig(3, 0))) == 8
    assert len(generate(DesignConfig(2, 0))) == 1
    assert len(generate(DesignConfig(4, 0))) == 81


@criterion(3, "pairwise restriction admits (1,1,2,2) at J=4 while the model rules it out")
def test_criterion_03_pairwise_witness():
    config = DesignConfig(4, 0)
    witness = ResponseType((1, 1, 2, 2))
    assert satisfies_pairwise_restriction(config, witness) is True
    assert is_admissible(config, witness) is False


@criterion(4, "base-state normalization: rules out types at J=3, innocuous at J=2")
def test_criterion_04_normalization():
    for d in ((0, 1, 1), (0, 2, 2)):
        rt = ResponseType(d)
        assert not is_admissible(DesignConfig(3, 1), rt)
        assert is_admissible(DesignConfig(3, 0), rt)
    rng = Random(404)
    verdicts = set()
    for _ in range(1000):
        rows = random_table(DesignConfig(2, 0), rng).rows
        free = check(ObservedDistribution(DesignConfig(2, 0), rows)).passed
        base = check(ObservedDistribution(DesignConfig(2, 1), rows)).passed
        assert free == base
        verdicts.add(free)
    assert verdicts == {True, False}


@criterion(5, "500 witness roundtrips per config are bit-exact in < 30 s")
def test_criterion_05_sharpness_roundtrip():
    rng = Random(505)
    start = time.perf_counter()
    for J, J0 in ROUNDTRIP_CONFIGS:
        config = DesignConfig(J, J0)
        for _ in range(500):
            P = pushforward(random_measure(config, rng))
            assert check(P).passed
            q = construct(P)
            assert pushforward(q).rows == P.rows
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"roundtrips took {elapsed:.1f} s"


@criterion(6, "check, LP, and construction agree on 500 mixed tables per config")
def test_criterion_06_triple_oracle():
    rng = Random(606)
    disagreements = 0
    for J, J0 in ROUNDTRIP_CONFIGS:
        config = DesignConfig(J, J0)
        for i in range(500):
            if i % 3 == 0:
                P = feasible_table(config, rng)
            elif i % 3 == 1:
                P = random_table(config, rng)
            else:
                P = pushforward(boundary_measure(config, rng))
            passed = check(P).passed
            lp_ok, certificate = feasible(P)
            try:
                construct(P)
                built = True
            except ConstructionError:
                built = False
            if not (passed == lp_ok == built):
                disagreements += 1
            if lp_ok:
                assert pushforward(certificate).rows == P.rows
    assert disagreements == 0


@criterion(7, "outcome partition reduction matches brute-force enumeration, 200 tables per case")
def test_criterion_07_outcome_reduction():
    rng = Random(707)
    disagreements = 0
    for J0 in (0, 1):
        config = DesignConfig(3, J0)
        for ny in (2, 3):
            ys = tuple(range(ny))
            for i in range(200):
                PY = (
                    feasible_outcome_table(config, ys, rng)
                    if i % 4 == 0
                    else random_outcome_table(config, ys, rng)
                )
                if partition_check(PY).passed != brute_force_partition_check(PY):
                    disagreements += 1
    assert disagreements == 0


@criterion(8, "binary-design outcome family is the four textbook inequalities; 200 roundtrips")
def test_criterion_08_balke_pearl():
    expected = {
        (((0, 1, y),), ((1, 1, y),)) for y in (0, 1)
    } | {
        (((1, 0, y),), ((0, 0, y),)) for y in (0, 1)
    }
    for J0 in (0, 1):
        specs = generate_outcome(DesignConfig(2, J0), (0, 1))
        assert {(s.lhs, s.rhs) for s in specs} == expected
    rng = Random(808)
    for J0 in (0, 1):
        config = DesignConfig(2, J0)
        for _ in range(100):
            PY = feasible_outcome_table(config, (0, 1), rng)
            qstar = construct_outcome(PY)
            assert pushforward_outcome(qstar).cells == PY.cells


def _random_rum_specs(count, n, seed):
    rng = Random(seed)
    configs = [(3, 0), (3, 1), (3, 2), (2, 0), (2, 1), (4, 0)]
    families = ("gumbel", "normal", "uniform")
    specs = []
    for i in range(count):
        J, J0 = configs[i % len(configs)]
        config = DesignConfig(J, J0)
        betas = tuple(
            0.0 if j < J0 else rng.uniform(0.8, 2.5) for j in range(J)
        )
        weights = [rng.randint(2, 6) for _ in config.z_support]
        total = sum(weights)
        pz = {z: F(w, total) for z, w in zip(config.z_support, weights)}
        specs.append(
            RumSpec(
                config=config, betas=betas, pz=pz, n=n,
                seed=rng.randint(0, 2**63), eps_family=families[i % 3],
            )
        )
    return specs


@criterion(9, "20 simulations of 100k draws: admissible throughout, slacks within 4/sqrt(n), < 60 s")
def test_criterion_09_simulation_end_to_end():
    start = time.perf_counter()
    tolerance = -4.0 / math.sqrt(100_000)
    for spec in _random_rum_specs(20, 100_000, seed=909):
        result = simulate(spec)
        assert sum(result.type_counts.values()) == spec.n
        for rt in result.type_counts:
            assert is_admissible(spec.config, rt)
        report = check(result.table)
        assert float(report.min_slack) >= tolerance, (
            spec.config, spec.eps_family, float(report.min_slack),
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"simulations took {elapsed:.1f} s"


@criterion(10, "region mixtures reproduce 20 random measures within 0.02 at 100k draws")
def test_criterion_10_region_mixture():
    rng = Random(1010)
    configs = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    for i in range(20):
        config = DesignConfig(*configs[i % len(configs)])
        q = random_measure(config, rng)
        mixture = build_epsilon_mixture(q)
        error = verify_mixture(mixture, 100_000, seed=rng.randint(0, 2**31))
        assert error <= 0.02, (config, error)


@criterion(11, "test size <= 0.10 under the null and power >= 0.9 at a 0.2 violation, < 5 min each")
def test_criterion_11_statistical_test():
    # size: valid random utility model, 200 replications
    start = time.perf_counter()
    rejections = 0
    config = DesignConfig(3, 0)
    pz = {z: F(1, 3) for z in range(3)}
    for r in range(200):
        spec = RumSpec(config=config, betas=(1.0, 1.0, 1.0), pz=pz, n=2000,
                       seed=11_000 + r)
        result = simulate(spec)
        report = run_model_test(result.data, config, alpha=0.05, B=199, seed=r)
        rejections += report.reject
    size_elapsed = time.perf_counter() - start
    assert rejections / 200 <= 0.05 + 0.05, f"size {rejections / 200:.3f}"
    assert size_elapsed < 300, f"size suite took {size_elapsed:.1f} s"

    # power: single inequality violated by exactly 0.2
    start = time.perf_counter()
    config2 = DesignConfig(2, 0)
    violating = ObservedDistribution(
        config2, {0: (F(3, 10), F(7, 10)), 1: (F(1, 2), F(1, 2))}
    )
    assert check(violating).min_slack == F(-1, 5)
    rejections = 0
    for r in range(200):
        rng = np.random.default_rng(22_000 + r)
        z = rng.integers(0, 2, 2000)
        u = rng.random(2000)
        d = np.where(
            z == 0,
            (u < float(violating.p(0, 1))).astype(np.int64),
            (u < float(violating.p(1, 1))).astype(np.int64),
        )
        from encdesign.simulate import MicroData

        report = run_model_test(MicroData(d, z), config2, alpha=0.05, B=199, seed=r)
        rejections += report.reject
    power_elapsed = time.perf_counter() - start
    assert rejections / 200 >= 0.9, f"power {rejections / 200:.3f}"
    assert power_elapsed < 300, f"power suite took {power_elapsed:.1f} s"
