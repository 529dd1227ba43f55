"""Random utility simulation and the region-mixture realization."""

import copy
import dataclasses
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from encdesign import kernels
from encdesign import simulate as simulate_module
from encdesign.admissible import default_choice, is_admissible
from encdesign.core import DesignConfig, ObservedDistribution, ResponseMeasure, ResponseType
from encdesign.inequalities import check
from encdesign.simulate import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    MicroData,
    Region,
    RegionMixture,
    RumSpec,
    _certified,
    _chunk_rng,
    _codes_for,
    _draw_eps,
    build_epsilon_mixture,
    simulate,
    verify_mixture,
)
from helpers import (
    full_support_mixture,
    potential_type_codes_by_rows,
    random_measure,
    region_points_by_box_rejection,
    satisfies_example_restrictions,
    simulate_by_chunks,
)


def uniform_pz(config):
    m = len(config.z_support)
    return {z: F(1, m) for z in config.z_support}


def make_spec(J, J0, betas, n=20000, seed=1, eps="gumbel"):
    config = DesignConfig(J, J0)
    return RumSpec(
        config=config, betas=betas, pz=uniform_pz(config), n=n, seed=seed,
        eps_family=eps,
    )


def potential_vectors(config, betas, eps):
    """The response type of each shock row; no row may tie."""
    codes, ties = kernels.potential_type_codes(eps, betas, config.z_support)
    assert not ties.any()
    return [ResponseType(row) for row in codes.tolist()]


def test_potential_vector_examples():
    config = DesignConfig(3, 0)
    assert potential_vectors(config, (0, 0, 0), [(3, 1, 2)])[0].d == (0, 0, 0)
    assert potential_vectors(config, (0, 5, 0), [(3, 1, 2)])[0].d == (0, 1, 0)


def test_potential_vector_always_admissible():
    rng = np.random.default_rng(3)
    for J, J0 in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 0)]:
        config = DesignConfig(J, J0)
        betas = tuple(0.0 if j < J0 else float(rng.uniform(0, 2)) for j in range(J))
        for rt in potential_vectors(config, betas, rng.normal(size=(300, J))):
            assert is_admissible(config, rt)


def test_realized_default_contains_shock_argmax():
    rng = np.random.default_rng(7)
    config = DesignConfig(3, 0)
    eps = rng.gumbel(size=(300, 3))
    for row, rt in zip(eps, potential_vectors(config, (0.8, 1.4, 0.3), eps)):
        assert int(np.argmax(row)) in default_choice(config, rt)


def test_rum_spec_validation():
    config = DesignConfig(3, 1)
    with pytest.raises(ValueError):
        RumSpec(config=config, betas=(1.0, 1.0, 1.0), pz=uniform_pz(config), n=10, seed=0)
    with pytest.raises(ValueError):
        RumSpec(config=config, betas=(0.0, -1.0, 1.0), pz=uniform_pz(config), n=10, seed=0)
    with pytest.raises(ValueError):
        make_spec(3, 0, (1.0, 1.0, 1.0), eps="cauchy")
    with pytest.raises(ValueError):
        RumSpec(
            config=DesignConfig(2, 0), betas=(1.0, 1.0),
            pz={0: F(1, 2), 1: F(1, 3)}, n=10, seed=0,
        )


def test_simulate_is_deterministic():
    spec = make_spec(3, 1, (0.0, 1.0, 0.5), n=CHUNK_SIZE + 1234, seed=11)
    a = simulate(spec)
    b = simulate(spec)
    assert np.array_equal(a.data.d, b.data.d)
    assert np.array_equal(a.data.z, b.data.z)
    assert a.table.rows == b.table.rows
    assert a.type_counts == b.type_counts


def test_chunk_prefix_stability():
    # the first chunk does not depend on how many later chunks there are
    small = simulate(make_spec(2, 0, (0.5, 0.5), n=CHUNK_SIZE, seed=4))
    large = simulate(make_spec(2, 0, (0.5, 0.5), n=CHUNK_SIZE + 500, seed=4))
    assert np.array_equal(small.data.d, large.data.d[:CHUNK_SIZE])
    assert np.array_equal(small.data.z, large.data.z[:CHUNK_SIZE])


def test_simulate_realized_types_admissible_and_counts_add_up():
    for J, J0, eps in [(3, 0, "gumbel"), (3, 1, "normal"), (3, 2, "uniform")]:
        betas = tuple(0.0 if j < J0 else 1.0 for j in range(J))
        res = simulate(make_spec(J, J0, betas, n=30000, seed=21, eps=eps))
        config = DesignConfig(J, J0)
        assert sum(res.type_counts.values()) == len(res.data)
        for rt in res.type_counts:
            assert is_admissible(config, rt)
        assert check(res.table).min_slack >= F(-4) / int(math.isqrt(len(res.data)))


def test_simulate_packs_types_past_int64():
    # 17^17 > 2^63: a packed type code no longer fits in int64
    res = simulate(make_spec(17, 0, (1.0,) * 17, n=100, seed=1))
    config = DesignConfig(17, 0)
    assert sum(res.type_counts.values()) == 100
    for rt in res.type_counts:
        assert is_admissible(config, rt)


def test_simulate_type_counts_match_row_decode_at_sixteen_choices():
    # 16^16 = 2^64: packed into int64 the largest codes would wrap
    spec = make_spec(16, 0, (1.0,) * 16, n=500, seed=3)
    res = simulate(spec)
    eps = _draw_eps(_chunk_rng(spec.seed, 0), spec.n, spec)
    codes, ties = kernels.potential_type_codes(eps, spec.betas, spec.config.z_support)
    assert not ties.any()
    assert res.type_counts == dict(Counter(ResponseType(row) for row in codes.tolist()))


def test_strong_encouragement_forces_compliance():
    res = simulate(make_spec(3, 0, (1e9, 1e9, 1e9), n=20000, seed=31))
    for j in range(3):
        assert float(res.table.p(j, j)) > 1 - 4 / math.sqrt(20000)


def test_zero_encouragement_rows_agree_across_arms():
    res = simulate(make_spec(3, 0, (0.0, 0.0, 0.0), n=60000, seed=41))
    tol = 4 / math.sqrt(20000)
    for j in range(3):
        vals = [float(res.table.p(z, j)) for z in range(3)]
        assert max(vals) - min(vals) < tol


def test_gumbel_shocks_reproduce_logit_probabilities():
    # independent Gumbel shocks make the boosted argmax a multinomial
    # logit: P{D=j | Z=z} = exp(b * 1{j=z}) / (exp(b) + J - 1)
    b = 1.0
    res = simulate(make_spec(3, 0, (b, b, b), n=100_000, seed=2024))
    tol = 4 / math.sqrt(100_000 / 3)
    boosted = math.exp(b) / (math.exp(b) + 2)
    other = 1 / (math.exp(b) + 2)
    for z in range(3):
        for j in range(3):
            expected = boosted if j == z else other
            assert abs(float(res.table.p(z, j)) - expected) < tol, (z, j)


def test_binary_logit_take_up():
    res = simulate(make_spec(2, 1, (0.0, 1.5), n=100_000, seed=2025))
    tol = 4 / math.sqrt(100_000 / 2)
    assert abs(float(res.table.p(1, 1)) - 1 / (1 + math.exp(-1.5))) < tol
    assert abs(float(res.table.p(0, 1)) - 0.5) < tol


def test_simulate_empty_arm_errors():
    config = DesignConfig(2, 0)
    spec = RumSpec(
        config=config, betas=(1.0, 1.0),
        pz={0: F(999, 1000), 1: F(1, 1000)}, n=3, seed=12,
    )
    with pytest.raises(ValueError, match="instrument value"):
        simulate(spec)


def test_correlated_normal_shocks():
    # the inequalities hold under dependent shocks: correlated normal
    # shocks, drawn independently of a uniform instrument, through the
    # kernel's observation map
    config = DesignConfig(3, 0)
    n = 20000
    rng = np.random.default_rng(51)
    cov = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    eps = rng.multivariate_normal(np.zeros(3), cov, size=n, method="cholesky")
    codes, ties = kernels.potential_type_codes(eps, np.ones(3), np.asarray(config.z_support))
    assert not ties.any()
    z = rng.integers(0, 3, n)
    d = codes[np.arange(n), z]
    rows = {}
    for zi in config.z_support:
        counts = np.bincount(d[z == zi], minlength=3).tolist()
        rows[zi] = tuple(F(c, sum(counts)) for c in counts)
    assert check(ObservedDistribution(config, rows)).min_slack >= F(-4) / int(math.isqrt(n))


def test_example_design_predicates_hold_on_every_draw():
    for J0 in (1, 2):
        config = DesignConfig(3, J0)
        betas = tuple(0.0 if j < J0 else 1.2 for j in range(3))
        res = simulate(
            RumSpec(config=config, betas=betas, pz=uniform_pz(config),
                    n=20000, seed=61 + J0)
        )
        for rt in res.type_counts:
            assert satisfies_example_restrictions(config, rt)


def test_mixture_unit_mass():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(config, {ResponseType((0, 0, 0)): F(1)})
    mix = build_epsilon_mixture(q)
    assert mix.betas == (0.0, 0.0, 0.0)
    assert verify_mixture(mix, 5000, seed=3) == 0.0


def test_mixture_constant_types():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(config, {ResponseType((v, v, v)): F(1, 3) for v in range(3)})
    mix = build_epsilon_mixture(q)
    assert len(mix.components) == 3
    err = verify_mixture(mix, 50000, seed=5)
    assert err <= 4 * math.sqrt(math.log(10) / (2 * 50000))


def test_mixture_diagonal_only():
    config = DesignConfig(3, 0)
    q = ResponseMeasure(config, {ResponseType((0, 1, 2)): F(1)})
    mix = build_epsilon_mixture(q)
    assert mix.betas == (1.0, 1.0, 1.0)
    assert verify_mixture(mix, 5000, seed=7) == 0.0


def test_mixture_random_measures():
    rng = Random(71)
    for J, J0 in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        config = DesignConfig(J, J0)
        q = random_measure(config, rng)
        mix = build_epsilon_mixture(q)
        err = verify_mixture(mix, 50000, seed=rng.randint(0, 10**6))
        assert err <= 4 * math.sqrt(math.log(10) / (2 * 50000)), (J, J0)


def test_mixture_weights_match_measure():
    config = DesignConfig(3, 1)
    q = random_measure(config, Random(77))
    mix = build_epsilon_mixture(q)
    assert {c.rtype: c.weight for c in mix.components} == dict(q.mass)


def test_mixture_type_check_catches_swapped_region():
    config = DesignConfig(3, 0)
    q = random_measure(config, Random(79))
    mix = build_epsilon_mixture(q)
    first, second = mix.components[:2]
    swapped = (
        dataclasses.replace(first, rtype=second.rtype),
        dataclasses.replace(second, rtype=first.rtype),
    ) + mix.components[2:]
    bad = dataclasses.replace(mix, components=swapped)
    message = f"region for {second.rtype.d} does not realize it; region bug"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        verify_mixture(bad, 20000, seed=11)


CERTIFIED_DESIGNS = [
    (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0),
    (4, 2), (5, 0), (6, 2), (8, 0), (8, 4), (10, 3),
]


@pytest.mark.parametrize("J, J0", CERTIFIED_DESIGNS)
def test_every_built_region_is_certified(J, J0):
    # two random measures and the full support, the diagonal included;
    # each region writes an ordered pair once
    config = DesignConfig(J, J0)
    rng = Random(89 + 10 * J + J0)
    mixtures = [build_epsilon_mixture(random_measure(config, rng)) for _ in range(2)]
    for mix in mixtures + [full_support_mixture(J, J0)]:
        for region in mix.components:
            assert _certified(config, mix.betas, region), region.rtype.d
            pairs = [(a, b) for a, b, _ in region.constraints]
            assert len(set(pairs)) == len(pairs), region.rtype.d


def test_certificate_refuses_a_comparison_that_needs_a_chain():
    # eps[0] > eps[1] > eps[2] realizes the constant type 0 at zero
    # encouragement, but eps[0] > eps[2] follows only from the chain; box
    # rejection finds no point of another type, and the direct constraint
    # makes the region pass
    config = DesignConfig(3, 0)
    rtype = ResponseType((0, 0, 0))
    chain = Region(rtype, F(1), ((0, 1, 0.0), (1, 2, 0.0)), (1.0, 0.0, -1.0))
    mix = RegionMixture(config, (0.0, 0.0, 0.0), 6.0, (chain,))
    points = region_points_by_box_rejection(mix, chain, 2000, np.random.default_rng(5))
    assert points.shape == (2000, 3)
    message = "region for (0, 0, 0) does not realize it; region bug"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        verify_mixture(mix, 10, seed=1)
    direct = dataclasses.replace(chain, constraints=chain.constraints + ((0, 2, 0.0),))
    assert verify_mixture(dataclasses.replace(mix, components=(direct,)), 10, seed=1) == 0.0


def test_mixture_error_is_the_multinomial_gap():
    rng = Random(83)
    for J, J0 in [(2, 0), (3, 0), (3, 1), (4, 2)]:
        q = random_measure(DesignConfig(J, J0), rng)
        mix = build_epsilon_mixture(q)
        n, seed = 3000, rng.randint(0, 10**6)
        weights = np.array([float(c.weight) for c in mix.components])
        counts = _chunk_rng(seed, 0).multinomial(n, weights / weights.sum())
        want = max(
            abs(int(c) / n - float(q.mass[region.rtype]))
            for region, c in zip(mix.components, counts)
        )
        assert verify_mixture(mix, n, seed) == want, (J, J0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_chunk_rng_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
        _chunk_rng(seed, 0)


def test_chunk_rng_accepts_the_largest_64_bit_seed():
    seq = np.random.SeedSequence(entropy=(2**64 - 1, 3))
    assert _chunk_rng(2**64 - 1, 3).random() == np.random.default_rng(seq).random()


def test_codes_for_redraws_exactly_the_tied_rows():
    # integer shocks and zero encouragement: about half the rows tie
    config = DesignConfig(3, 0)
    spec = make_spec(3, 0, (0.0, 0.0, 0.0), n=500, eps="normal")
    gen = np.random.default_rng(8)
    eps = gen.integers(0, 3, size=(500, 3)).astype(np.float64)
    betas = np.zeros(3)
    codes, tied = kernels.potential_type_codes(eps, betas, config.z_support)
    assert 0 < tied.sum() < len(tied)
    untied = codes[~tied].copy()
    stream = copy.deepcopy(gen)
    _codes_for(gen, spec, betas, np.asarray(config.z_support), codes, np.flatnonzero(tied))
    # normal shocks do not tie: one draw of a row per tied row, in order
    eps[tied] = stream.normal(size=(int(tied.sum()), 3))
    assert gen.random() == stream.random()
    assert codes[~tied].tolist() == untied.tolist()
    want_codes, want_ties = potential_type_codes_by_rows(eps, betas, config.z_support)
    assert not any(want_ties)
    assert codes.tolist() == want_codes


def _parity_spec(J, J0, family, n):
    config = DesignConfig(J, J0)
    betas = tuple(0.0 if j < J0 else 0.4 + 0.2 * j for j in range(J))
    weights = [1 + i % 3 for i in range(len(config.z_support))]
    pz = {z: F(w, sum(weights)) for z, w in zip(config.z_support, weights)}
    return RumSpec(config, betas, pz, n, 31 + n % 7, family)


def _same_result(got, want):
    assert got.data.d.tobytes() == want.data.d.tobytes()
    assert got.data.z.tobytes() == want.data.z.tobytes()
    assert got.table == want.table
    assert list(got.type_counts.items()) == list(want.type_counts.items())


def _same_simulation(spec):
    """simulate and its whole-chunk oracle give the same rows, table and
    type counts in the same order, or the same error."""
    try:
        want = simulate_by_chunks(spec)
    except Exception as err:
        with pytest.raises(type(err)) as got:
            simulate(spec)
        assert str(got.value) == str(err)
        return
    _same_result(simulate(spec), want)


@pytest.mark.parametrize("family", ["gumbel", "normal", "uniform"])
@pytest.mark.parametrize("J, J0", [(2, 0), (3, 1), (5, 0), (6, 2)])
def test_simulate_matches_whole_chunk_draws(J, J0, family):
    # one row (no draw on most instrument values: the same error), a
    # block and a chunk each +-1, and several chunks with a short last one
    sizes = [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, CHUNK_SIZE - 1, CHUNK_SIZE,
             CHUNK_SIZE + 1, 150_000, 3 * CHUNK_SIZE + 1]
    for n in sizes:
        _same_simulation(_parity_spec(J, J0, family, n))


@pytest.mark.parametrize("J, J0, n", [(3, 0, 3 * CHUNK_SIZE + 1), (6, 2, 150_000), (2, 0, BLOCK_SIZE + 1)])
def test_simulate_matches_whole_chunk_draws_when_half_the_rows_tie(monkeypatch, J, J0, n):
    # shocks in {-2, -1, 0, 1} and no encouragement: a quarter (J = 2) to
    # over a half of the rows tie, and a chunk's redraws span its blocks
    sizes = []

    def integer_shocks(rng, k, spec):
        sizes.append(k)
        return np.floor(2 * rng.uniform(-1.0, 1.0, size=(k, spec.config.J)))

    monkeypatch.setattr(simulate_module, "_draw_eps", integer_shocks)
    config = DesignConfig(J, J0)
    spec = RumSpec(config, (0.0,) * J, uniform_pz(config), n, 3, "uniform")
    want = simulate_by_chunks(spec)
    sizes.clear()
    _same_result(simulate(spec), want)
    assert sum(sizes) - n > n // 5
    # first draws come a block at a time; a larger one is a redraw
    assert max(sizes) > BLOCK_SIZE or n < CHUNK_SIZE


def test_simulate_memory_is_blocks_not_chunks():
    # 150,000 (6,2) rows: the output rows (2.4 MB), one chunk's codes
    # under every instrument value and one block through the kernel.
    # Whole-chunk shocks peaked at 21.4 MB
    config = DesignConfig(6, 2)
    spec = RumSpec(config, (0, 0, 1, 1, 1, 1), uniform_pz(config), 150_000, 7, "gumbel")
    tracemalloc.start()
    try:
        simulate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_spec(2, 0, (1.0,)), "need 2 encouragement sizes, got 1"),
        (lambda: make_spec(2, 0, (1.0, 1.0), n=0), "draw count must be at least 1"),
        (lambda: MicroData(np.zeros(3), np.zeros(2)), "d and z must be one-dimensional and equally long"),
        (lambda: MicroData(np.zeros(2), np.zeros(2), np.zeros(3)), "y must have the same length as d and z"),
    ],
)
def test_simulate_input_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
