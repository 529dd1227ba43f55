"""The benchmark's per-layer tracing wraps package functions by name from
outside the package; every name it wraps must exist, and its undo must put
every original back."""

import importlib
import os
from fractions import Fraction as F
from random import Random

import numpy as np

from encdesign import cli, lp, simulate, stats, witness
from encdesign.core import DesignConfig
from encdesign.simulate import MicroData, RumSpec
from helpers import feasible_outcome_table, feasible_table, random_measure
from perfbench import tracing


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.WRAPS
    }


def test_install_wraps_every_name_and_undo_restores_it():
    before = _originals()
    kernels, codes_for = simulate.kernels, simulate._codes_for
    undo = tracing.install(tracing.Tracer())
    try:
        for key, original in before.items():
            assert _originals()[key] is not original, key
        assert simulate.kernels is not kernels
        assert simulate._codes_for is not codes_for
    finally:
        undo()
    for key, original in before.items():
        assert _originals()[key] is original, key
    assert simulate.kernels is kernels
    assert simulate._codes_for is codes_for


def _data(config, with_y):
    rng = np.random.default_rng(4)
    zs = np.asarray(config.z_support)
    z = zs[rng.integers(0, len(zs), 600)]
    d = rng.integers(0, config.J, 600)
    return MicroData(d, z, rng.integers(0, 2, 600) if with_y else None)


def test_test_model_spans_count_only_the_explicit_family():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        stats.test_model(_data(DesignConfig(3, 0), True), DesignConfig(3, 0), B=99)
        stats.test_model(_data(DesignConfig(3, 0), False), DesignConfig(3, 0), B=99)
        assert tracer.calls["inequalities.generate"] == 0
        stats.test_model(_data(DesignConfig(3, 1), False), DesignConfig(3, 1), B=99)
    finally:
        undo()
    assert tracer.calls["stats.test_model"] == 3
    assert tracer.calls["inequalities.partition_family_specs"] == 0
    assert tracer.calls["inequalities.generate"] == 1


def test_every_count_function_reads_what_its_function_returns(tmp_path):
    # one call of each counted function on a tiny input: a count function
    # that reads a deleted field or argument raises here
    config = DesignConfig(3, 0)
    table = feasible_table(config, Random(1))
    outcome_table = feasible_outcome_table(DesignConfig(2, 0), (0, 1), Random(2))
    q = random_measure(config, Random(3))
    spec = RumSpec(config, (1.0, 1.0, 1.0), {z: F(1, 3) for z in range(3)}, 500, 1)
    eps = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    path = str(tmp_path / "d.csv")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        lp.feasible(table)
        measure = witness.construct_outcome(outcome_table)
        data = simulate.simulate(spec).data
        mixture = simulate.build_epsilon_mixture(q)
        mask = simulate.kernels.region_accept(eps, (0,), (1,), (0.0,))
        report = stats.test_model(_data(config, False), config, B=99)
        cli.write_csv(data, path)
        cli.read_csv(path, False)
    finally:
        undo()
    assert mask.tolist() == [False, True, False]
    size = os.path.getsize(path)
    assert dict(tracer.counts) == {
        ("lp.feasible", "vars"): 10,
        ("lp.feasible", "rows"): 7,
        ("witness.construct_outcome", "support"): len(measure.mass),
        ("simulate.simulate", "rows"): 500,
        ("kernels.potential_type_codes", "rows"): 500,
        ("kernels.potential_type_codes", "bytes_computed"): 500 * (8 * 3 + 8 * 3 + 1),
        ("kernels.potential_type_codes", "tie_redraw_calls"): 0,
        ("simulate.build_epsilon_mixture", "regions"): len(q.support()),
        ("kernels.region_accept", "rows_proposed"): 3,
        ("kernels.region_accept", "rows_accepted"): 1,
        ("stats.test_model", "moments"): len(report.slacks),
        ("stats.test_model", "floored"): int(np.count_nonzero(report.floored)),
        ("cli.write_csv", "bytes"): size,
        ("cli.read_csv", "bytes"): size,
    }
