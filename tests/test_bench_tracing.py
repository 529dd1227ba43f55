"""The benchmark's per-layer tracing wraps package functions by name from
outside the package; every name it wraps must exist, and its undo must put
every original back."""

import importlib

import numpy as np

from encdesign import simulate, stats
from encdesign.core import DesignConfig
from encdesign.simulate import MicroData
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
