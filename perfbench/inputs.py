"""Seeded input generators for the benchmark.

Everything here is derived from a string key (workload seed, case, index)
through ``random.Random``, whose string seeding is stable across processes
and platforms, so one seed always yields the same inputs. Measures are
built by sampling a default choice plus a compliance subset, never by
enumerating the admissible set, so generation stays cheap at J = 8.

Three table kinds per design:

* ``feasible``: the pushforward of a random measure over admissible types;
* ``boundary``: a feasible table whose binding inequality has slack
  exactly 0 (every type with default j refuses one fixed instrument value
  z_j != j, and no type complies everywhere);
* ``random``: independent random rows, usually infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import numpy as np

from encdesign.core import DesignConfig, ObservedDistribution
from encdesign.inequalities import OutcomeDistribution

from . import exact

KINDS = ("feasible", "boundary", "random")


def rng_for(*key) -> Random:
    return Random(":".join(str(k) for k in key))


def _sample_type(config: DesignConfig, rng: Random, default: int, refuse=()) -> tuple:
    """An admissible type with the given default: each instrument value
    complies with probability 1/2 unless it is in ``refuse``."""
    zs = config.z_support
    start = 1 if config.J0 else 0
    d = [default] * len(zs)
    for i in range(start, len(zs)):
        z = zs[i]
        if z not in refuse and rng.random() < 0.5:
            d[i] = z
    return tuple(d)


def _refusals(config: DesignConfig, rng: Random, boundary: bool) -> dict:
    """Per default choice, the instrument values its types never comply
    with. Empty unless ``boundary``; then chosen so one inequality binds."""
    if not boundary:
        return {}
    if config.J0 == 0:
        return {j: {rng.choice([z for z in config.z_support if z != j])} for j in range(config.J)}
    j0 = rng.randrange(config.J)
    return {j0: {rng.choice([z for z in config.z_support[1:] if z != j0])}}


def _sample_keys(config: DesignConfig, rng: Random, boundary: bool, count: int):
    refuse = _refusals(config, rng, boundary)
    # with a base state the binding pair needs mass on its default
    defaults = [rng.randrange(config.J) for _ in range(count)]
    if config.J0 and boundary:
        defaults[0] = next(iter(refuse))
    keys = []
    for j in defaults:
        keys.append(_sample_type(config, rng, j, refuse.get(j, ())))
    return keys


def _weights(rng: Random, keys) -> dict:
    raw = [rng.randint(1, 20) for _ in keys]
    total = sum(raw)
    out: dict = {}
    for k, w in zip(keys, raw):
        out[k] = out.get(k, Fraction(0)) + Fraction(w, total)
    return out


def treatment_measure(config: DesignConfig, rng: Random, boundary: bool) -> dict:
    """Random exact measure {type tuple: mass} over admissible types."""
    return _weights(rng, _sample_keys(config, rng, boundary, 3 * config.J))


def treatment_table(config: DesignConfig, kind: str, rng: Random) -> ObservedDistribution:
    if kind == "random":
        rows = {}
        for z in config.z_support:
            w = [rng.randint(0, 6) for _ in range(config.J)]
            if not any(w):
                w[rng.randrange(config.J)] = 1
            rows[z] = tuple(Fraction(v, sum(w)) for v in w)
        return ObservedDistribution(config, rows)
    q = treatment_measure(config, rng, kind == "boundary")
    return ObservedDistribution(config, exact.pushforward(config, q))


def outcome_measure(config: DesignConfig, ys, rng: Random, boundary: bool) -> dict:
    """Random exact measure {(type tuple, outcome vector): mass}."""
    keys = [
        (d, tuple(rng.choice(ys) for _ in range(config.J)))
        for d in _sample_keys(config, rng, boundary, 4 * config.J)
    ]
    return _weights(rng, keys)


def outcome_table(config: DesignConfig, ys, kind: str, rng: Random) -> OutcomeDistribution:
    ys = tuple(ys)
    if kind == "random":
        cells = {}
        for z in config.z_support:
            w = [rng.randint(0, 6) for _ in range(config.J * len(ys))]
            if not any(w):
                w[0] = 1
            it = iter(w)
            cells[z] = {
                j: {y: Fraction(next(it), sum(w)) for y in ys} for j in range(config.J)
            }
        return OutcomeDistribution(config, ys, cells)
    q = outcome_measure(config, ys, rng, kind == "boundary")
    return OutcomeDistribution(config, ys, exact.pushforward_outcome(config, ys, q))


def outcome_rows(config: DesignConfig, ys, n: int, rng: Random):
    """n micro-data rows (y, d, z) drawn from a random feasible outcome
    measure, with the instrument uniform over its support."""
    q = outcome_measure(config, tuple(ys), rng, boundary=False)
    keys = list(q)
    probs = np.array([float(q[k]) for k in keys])
    gen = np.random.default_rng(rng.getrandbits(64))
    pick = gen.choice(len(keys), size=n, p=probs / probs.sum())
    zi = gen.integers(0, len(config.z_support), size=n)
    d_of = np.array([k[0] for k in keys], dtype=np.int64)
    y_of = np.array([k[1] for k in keys], dtype=np.int64)
    d = d_of[pick, zi]
    y = y_of[pick, d]
    z = np.asarray(config.z_support, dtype=np.int64)[zi]
    return y, d, z


def write_rows_csv(path: str, y, d, z) -> None:
    """Write a y,d,z CSV in the CLI's format."""
    body = np.column_stack([y, d, z])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,d,z\n")
        np.savetxt(fh, body, fmt="%d", delimiter=",")


def all_types(config: DesignConfig) -> list:
    """Every admissible type, as a default choice plus a compliance subset
    (no scan of all J^|Z| vectors)."""
    zs = config.z_support
    start = 1 if config.J0 else 0
    free = range(start, len(zs))
    out = set()
    for j in range(config.J):
        for mask in range(2 ** len(free)):
            d = [j] * len(zs)
            for bit, i in enumerate(free):
                if mask >> bit & 1:
                    d[i] = zs[i]
            out.add(tuple(d))
    return sorted(out)


def full_support_table(config: DesignConfig, rng: Random) -> ObservedDistribution:
    """Pushforward of a measure with positive mass on every admissible type."""
    q = _weights(rng, all_types(config))
    return ObservedDistribution(config, exact.pushforward(config, q))
