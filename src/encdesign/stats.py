"""Finite-sample moment-inequality test from micro-data.

The procedure is a deliberately simple, self-contained default: the
statistic is the largest studentized violation across the model's
inequality family evaluated on arm-level frequencies, and the critical
value comes from a Gaussian multiplier bootstrap of the recentred
moments. Floating point is confined to this module; nothing here feeds
back into the exact-arithmetic paths.

Without a base state the family is a product over choices (one cell
per choice for treatment tables, one cell per choice and outcome value
for the partition family), with up to 10^6 members. Its weight rows are
never materialised as a whole: ``test_model`` builds them from their
index, block by block, and keeps only the per-moment slack and standard
error and a running bootstrap maximum. Memory is O(B x block) plus the
report; at J = 4 with three outcome values (531,477 moments, B = 99)
the tracemalloc peak is about 56 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .core import DesignConfig, ObservedDistribution
# ``generate`` and ``partition_family_specs`` stay names of this module:
# the benchmark's per-layer tracing (perfbench/tracing.py) wraps them
# here. ``test_model`` calls ``generate`` for base-state designs only and
# builds the partition family from indices, not through
# ``partition_family_specs``.
from .inequalities import (  # noqa: F401
    OutcomeDistribution,
    check,
    check_outcome,
    generate,
    generate_outcome,
    partition_family_size,
    partition_family_specs,
    selector_family_size,
)
from .simulate import MicroData

SE_FLOOR = 1e-6


@dataclass(frozen=True)
class EstimatedTables:
    """Arm-level cell frequencies. ``cells`` maps each instrument value
    to a (J,) vector, or a (J, |Y|) matrix when outcomes are present."""

    config: DesignConfig
    arm_counts: Mapping[int, int]
    cells: Mapping[int, np.ndarray]
    y_support: tuple[int, ...] | None
    degenerate_arms: tuple[int, ...]

    def p_hat(self, z, j, y=None) -> float:
        cell = self.cells[z][j] if y is None else self.cells[z][j, self.y_support.index(y)]
        return float(cell) / self.arm_counts[z]


def estimate(
    data: MicroData, config: DesignConfig, y_support=None
) -> EstimatedTables:
    """Cell counts within each instrument arm. Every supported instrument
    value must appear; out-of-range rows are reported by index. The
    outcome alphabet is inferred from the data unless supplied."""
    d = np.asarray(data.d)
    z = np.asarray(data.z)
    bad_d = np.flatnonzero((d < 0) | (d >= config.J))
    if len(bad_d):
        i = int(bad_d[0])
        raise ValueError(f"row {i}: treatment {d[i]} out of range for J={config.J}")
    z_ok = np.zeros(len(z), dtype=bool)
    for zv in config.z_support:
        z_ok |= z == zv
    bad_z = np.flatnonzero(~z_ok)
    if len(bad_z):
        i = int(bad_z[0])
        raise ValueError(f"row {i}: instrument {z[i]} not in support {config.z_support}")
    ys = None
    if data.y is not None:
        y = np.asarray(data.y)
        if y_support is not None:
            ys = tuple(int(v) for v in y_support)
        else:
            ys = tuple(int(v) for v in np.unique(y))
        # each row's position in ys (the last one if ys repeats a value)
        order = np.argsort(ys, kind="stable")
        sorted_ys = np.asarray(ys, dtype=np.int64)[order]
        at = np.searchsorted(sorted_ys, y, side="right") - 1
        known = at >= 0
        known[known] = sorted_ys[at[known]] == y[known]
        bad_y = np.flatnonzero(~known)
        if len(bad_y):
            i = int(bad_y[0])
            raise ValueError(f"row {i}: outcome {y[i]} not in support {ys}")
        cell_code = d * len(ys) + order[at]
    arm_counts = {}
    cells = {}
    for zv in config.z_support:
        arm = z == zv
        n_z = int(arm.sum())
        if n_z == 0:
            raise ValueError(f"no rows with instrument value {zv}")
        arm_counts[zv] = n_z
        if ys is None:
            cells[zv] = np.bincount(d[arm], minlength=config.J).astype(float)
        else:
            counts = np.bincount(cell_code[arm], minlength=config.J * len(ys))
            cells[zv] = counts.reshape(config.J, len(ys)).astype(float)
    degenerate = tuple(zv for zv, c in arm_counts.items() if c == 1)
    return EstimatedTables(config, arm_counts, cells, ys, degenerate)


@dataclass(frozen=True)
class TestReport:
    arm_counts: Mapping[int, int]
    p_hat: Mapping
    slacks: tuple[float, ...]
    standard_errors: tuple[float, ...]
    floored: tuple[bool, ...]
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    B: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "arm_counts": {str(z): n for z, n in sorted(self.arm_counts.items())},
            "p_hat": self.p_hat,
            "slacks": list(self.slacks),
            "standard_errors": list(self.standard_errors),
            "floored": list(self.floored),
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "B": self.B,
            "seed": self.seed,
        }


def _block_rows(B: int) -> int:
    """Moments per block: the largest power of two whose B x rows block
    of bootstrap statistics fits in 2**20 doubles, and at least 8.

    Every block then starts at a multiple of 8, and BLAS ``gemv`` (which
    groups rows by eight) sums each row of W @ p in the same order as on
    the whole family. A block start off that grid changes some slacks in
    the last bit, and so does threaded ``gemv`` on the whole family."""
    rows = max(1, (1 << 20) // B)
    return max(8, 1 << (rows.bit_length() - 1))


def _fill_product_rows(W: np.ndarray, options, first: int) -> None:
    """Write rows ``first, first + 1, ...`` of a product family into the
    zeroed block ``W``. A member picks one row of ``options[j]`` (cell
    indices) for every choice j and puts weight 1 on those cells; members
    are numbered as ``itertools.product`` numbers them, last choice
    fastest."""
    members = np.arange(first, first + len(W))
    rows = np.arange(len(W))[:, None]
    stride = 1
    for opts in reversed(options):
        W[rows, opts[(members // stride) % len(opts)]] = 1.0
        stride *= len(opts)


def _as_tuple(values: np.ndarray) -> tuple:
    """The entries of ``values`` as a tuple of Python scalars.

    A function of its own because tracemalloc records the calling line
    of each of the ~10^6 floats made here, and Python 3.11 finds that
    line by scanning the caller's line table: inside ``test_model`` the
    conversion ran about 20 times slower under tracemalloc."""
    return tuple(values.tolist())


def test_model(
    data: MicroData,
    config: DesignConfig,
    alpha: float = 0.05,
    B: int = 999,
    seed: int = 0,
    y_support=None,
) -> TestReport:
    """Max studentized violation with a multiplier-bootstrap critical
    value. Rejects when the statistic exceeds the (1 - alpha) bootstrap
    quantile of the recentred statistic.

    The moments are the base-state family or the static outcome family,
    built spec by spec, followed without a base state by the selector or
    partition family, whose weight rows are built from their index.
    Rows are processed in blocks of ``_block_rows(B)``; only one block
    of W and of the B x moments bootstrap matrix exists at a time."""
    if B < 99:
        raise ValueError("need at least 99 bootstrap replications")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    use_y = data.y is not None
    est = estimate(data, config, y_support=y_support if use_y else None)
    ys = est.y_support

    # Flatten cells to a vector; each moment is a weight vector w and the
    # moment is w . p_hat - bound.
    coords = []
    for z in config.z_support:
        if ys is None:
            coords.extend((z, j) for j in range(config.J))
        else:
            coords.extend((z, j, y) for j in range(config.J) for y in ys)
    index = {c: i for i, c in enumerate(coords)}
    n_cells = len(coords)
    p_vec = np.array([est.p_hat(*c) for c in coords])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    n_arms = len(config.z_support)
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    raw_counts = p_vec * arm_n[arm_of]

    # Without a base state the selector or partition family follows the
    # static rows: per choice, the cells each member may put weight on.
    # The capacity check comes before any row is built.
    n_product, options = 0, []
    if config.J0 == 0:
        if ys is None:
            n_product = selector_family_size(config)
        else:
            n_product = partition_family_size(config, ys)
        for j in range(config.J):
            zs = config.targeted_set(j)
            if ys is None:
                options.append(np.array([[index[(z, j)]] for z in zs]))
            else:
                options.append(np.array([
                    [index[(z, j, y)] for z, y in zip(a, ys)]
                    for a in product(zs, repeat=len(ys))
                ]))
    if ys is None:
        static = generate(config) if config.J0 else ()
    else:
        static = generate_outcome(config, ys)
    n_static = len(static)
    W_static = np.zeros((n_static, n_cells))
    bounds_static = np.zeros(n_static)
    for i, spec in enumerate(static):
        for c in spec.lhs:
            W_static[i, index[c]] += 1.0
        for c in spec.rhs:
            W_static[i, index[c]] -= 1.0
        bounds_static[i] = float(spec.bound)

    # Multiplier bootstrap. The moments depend on the data only through
    # per-cell multiplier sums, which are independent N(0, count) across
    # cells, so those sums are drawn directly.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    S = rng.normal(size=(B, n_cells)) * np.sqrt(raw_counts)
    G = np.empty_like(S)
    for a in range(n_arms):
        sel = arm_of == a
        arm_total = S[:, sel].sum(axis=1, keepdims=True)
        G[:, sel] = (S[:, sel] - p_vec[sel] * arm_total) / arm_n[a]

    n_moments = n_static + n_product
    violations = np.empty(n_moments)
    se = np.empty(n_moments)
    floored = np.empty(n_moments, dtype=bool)
    t_star = np.full(B, -np.inf)
    block = _block_rows(B)
    for start in range(0, n_moments, block):
        stop = min(start + block, n_moments)
        W = np.zeros((stop - start, n_cells))
        bounds = np.ones(stop - start)
        if start < n_static:
            top = min(stop, n_static)
            W[: top - start] = W_static[start:top]
            bounds[: top - start] = bounds_static[start:top]
        if stop > n_static:
            first = max(start, n_static)
            _fill_product_rows(W[first - start:], options, first - n_static)

        viol = W @ p_vec - bounds
        variances = np.zeros(len(W))
        for a in range(n_arms):
            sel = arm_of == a
            W_arm = W[:, sel]
            wp = W_arm * p_vec[sel]
            variances += ((W_arm ** 2 * p_vec[sel]).sum(axis=1) - wp.sum(axis=1) ** 2) / arm_n[a]
        se_block = np.sqrt(np.maximum(variances, 0.0))
        floored[start:stop] = se_block < SE_FLOOR
        se_block = np.maximum(se_block, SE_FLOOR)
        violations[start:stop] = viol
        se[start:stop] = se_block
        np.maximum(t_star, ((G @ W.T) / se_block).max(axis=1), out=t_star)

    statistic = float(np.max(violations / se))
    k = min(B - 1, max(0, math.ceil((1 - alpha) * (B + 1)) - 1))
    critical = float(np.sort(t_star)[k])
    p_value = float((1 + (t_star >= statistic).sum()) / (B + 1))

    p_hat_out: dict = {}
    for z in config.z_support:
        if ys is None:
            p_hat_out[str(z)] = [est.p_hat(z, j) for j in range(config.J)]
        else:
            p_hat_out[str(z)] = {
                str(j): {str(y): est.p_hat(z, j, y) for y in ys}
                for j in range(config.J)
            }
    return TestReport(
        arm_counts=dict(est.arm_counts),
        p_hat=p_hat_out,
        slacks=_as_tuple(-violations),
        standard_errors=_as_tuple(se),
        floored=_as_tuple(floored),
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        alpha=alpha,
        B=B,
        seed=seed,
    )


def population_decision(table) -> bool:
    """The infinite-sample limit of the test: feeding an exact table
    reduces the decision to the exact check's verdict. True = reject."""
    if isinstance(table, OutcomeDistribution):
        return not check_outcome(table).passed
    if isinstance(table, ObservedDistribution):
        return not check(table).passed
    raise TypeError("expected an exact treatment or outcome table")
