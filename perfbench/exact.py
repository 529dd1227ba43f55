"""The benchmark's own exact arithmetic for the correctness gate.

Round trips are recomputed here from the definitions, in ``Fraction``,
without calling the package: a measure over admissible response types is
pushed through the observation map and compared with the input table
cell by cell.
"""

from __future__ import annotations

from fractions import Fraction


class WrongOutput(Exception):
    """A program output failed the correctness gate."""


def admissible(config, d) -> bool:
    """Some default choice j* gives d_z in {z, j*} at every (targeted) z."""
    zs = config.z_support
    if len(d) != len(zs) or any(not 0 <= v < config.J for v in d):
        return False
    if config.J0:
        return all(v in (z, d[0]) for z, v in zip(zs[1:], d[1:]))
    return len({v for z, v in zip(zs, d) if v != z}) <= 1


def pushforward(config, mass) -> dict:
    """{z: row} for a measure {type tuple: mass}."""
    rows = {z: [Fraction(0)] * config.J for z in config.z_support}
    for d, m in mass.items():
        for z, j in zip(config.z_support, d):
            rows[z][j] += m
    return {z: tuple(r) for z, r in rows.items()}


def pushforward_outcome(config, ys, mass) -> dict:
    """{z: {j: {y: p}}} for a measure {(type tuple, outcome vector): mass}."""
    cells = {
        z: {j: {y: Fraction(0) for y in ys} for j in range(config.J)}
        for z in config.z_support
    }
    for (d, yvec), m in mass.items():
        for z, j in zip(config.z_support, d):
            cells[z][j][yvec[j]] += m
    return cells


def _check_measure(config, keys_and_masses, type_of) -> None:
    total = Fraction(0)
    for key, m in keys_and_masses:
        if not isinstance(m, Fraction) or m < 0:
            raise WrongOutput(f"mass {m!r} on {key} is not a nonnegative Fraction")
        if not admissible(config, type_of(key)):
            raise WrongOutput(f"measure puts mass on inadmissible type {type_of(key)}")
        total += m
    if total != 1:
        raise WrongOutput(f"measure sums to {total}, not 1")


def check_roundtrip(table, measure, what: str) -> None:
    """The measure is a probability over admissible types whose
    pushforward equals the treatment table exactly."""
    config = table.config
    mass = {rt.d: m for rt, m in measure.mass.items()}
    _check_measure(config, mass.items(), lambda d: d)
    got = pushforward(config, mass)
    for z in config.z_support:
        if got[z] != tuple(table.rows[z]):
            raise WrongOutput(f"{what} pushforward differs from the table at z={z}")


def check_outcome_roundtrip(table, measure, what: str) -> None:
    config = table.config
    mass = {(rt.d, yvec): m for (rt, yvec), m in measure.mass.items()}
    _check_measure(config, mass.items(), lambda key: key[0])
    got = pushforward_outcome(config, table.y_support, mass)
    for z in config.z_support:
        for j in range(config.J):
            for y in table.y_support:
                if got[z][j][y] != table.p(z, j, y):
                    raise WrongOutput(
                        f"{what} pushforward differs at (z={z}, j={j}, y={y})"
                    )
