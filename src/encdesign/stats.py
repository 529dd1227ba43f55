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
report, whose per-moment fields are float64 and bool arrays; at J = 4
with three outcome values (531,477 moments, B = 99 or 999) the
tracemalloc peak is about 27 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DesignConfig
# ``generate`` and ``partition_family_specs`` stay names of this module:
# the benchmark's per-layer tracing (perfbench/tracing.py) wraps them
# here. ``test_model`` calls ``generate`` for base-state designs only and
# builds the selector and partition families from ``product_family``'s
# options, not through ``partition_family_specs``.
from .inequalities import (  # noqa: F401
    generate,
    generate_outcome,
    partition_family_specs,
    product_family,
)
from .simulate import MicroData, _chunk_rng

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


def estimate(data: MicroData, config: DesignConfig) -> EstimatedTables:
    """Cell counts within each instrument arm. Every supported instrument
    value must appear; out-of-range rows are reported by index. The
    outcome alphabet is the sorted set of outcomes in the data.

    Every cell is counted by one ``bincount`` over the row's cell index
    (arm position, treatment[, outcome index])."""
    d = np.asarray(data.d)
    z = np.asarray(data.z)
    J = config.J
    bad_d = np.flatnonzero((d < 0) | (d >= J))
    if len(bad_d):
        i = int(bad_d[0])
        raise ValueError(f"row {i}: treatment {d[i]} out of range for J={J}")
    # The support lies in [0, J). Clipping sends every other value to -1
    # or J, and both read the sentinel position -1 at the lookup's end.
    position = np.full(J + 1, -1)
    position[list(config.z_support)] = np.arange(len(config.z_support))
    arm = position[np.clip(z, -1, J)]
    bad_z = np.flatnonzero(arm < 0)
    if len(bad_z):
        i = int(bad_z[0])
        raise ValueError(f"row {i}: instrument {z[i]} not in support {config.z_support}")
    ys = None
    shape = (len(config.z_support), J)
    code = arm * J + d
    if data.y is not None:
        values, y_index = np.unique(np.asarray(data.y), return_inverse=True)
        ys = tuple(values.tolist())
        shape += (len(ys),)
        code = code * len(ys) + y_index
    counts = np.bincount(code, minlength=math.prod(shape)).reshape(shape)
    arm_counts = dict(zip(config.z_support, counts.sum(axis=tuple(range(1, len(shape)))).tolist()))
    for zv, n_z in arm_counts.items():
        if n_z == 0:
            raise ValueError(f"no rows with instrument value {zv}")
    cells = dict(zip(config.z_support, counts.astype(float)))
    degenerate = tuple(zv for zv, c in arm_counts.items() if c == 1)
    return EstimatedTables(config, arm_counts, cells, ys, degenerate)


@dataclass(frozen=True, eq=False)
class TestReport:
    """The test's verdict and, per moment in family order (static rows
    first, then the product members in ``itertools.product`` order), its
    slack, standard error and floored flag as read-only float64 and bool
    arrays. Arrays have no single truth value, so reports compare by
    identity."""

    arm_counts: Mapping[int, int]
    p_hat: Mapping
    slacks: np.ndarray
    standard_errors: np.ndarray
    floored: np.ndarray
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    B: int
    seed: int

    def __post_init__(self):
        for name, dtype in (("slacks", np.float64), ("standard_errors", np.float64), ("floored", bool)):
            values = np.asarray(getattr(self, name), dtype=dtype).view()
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def _verdict(self) -> dict:
        return {
            "arm_counts": {str(z): n for z, n in sorted(self.arm_counts.items())},
            "p_hat": self.p_hat,
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "B": self.B,
            "seed": self.seed,
        }

    def summary_dict(self) -> dict:
        """The verdict with the moment and floored counts and ``binding``,
        the index of the first moment whose studentized violation is the
        statistic."""
        return {
            **self._verdict(),
            "moment_count": len(self.slacks),
            "floored_count": int(self.floored.sum()),
            "binding": int(np.argmax(-self.slacks / self.standard_errors)),
        }

    def to_dict(self) -> dict:
        """The verdict with every moment's slack, standard error and
        floored flag."""
        return {
            **self._verdict(),
            "slacks": self.slacks.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "floored": self.floored.tolist(),
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


def test_model(
    data: MicroData,
    config: DesignConfig,
    alpha: float = 0.05,
    B: int = 999,
    seed: int = 0,
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
    est = estimate(data, config)
    ys = est.y_support

    # Flatten cells to a vector; each moment is a weight vector w and the
    # moment is w . p_hat - bound. A treatment cell (z, j) is an outcome
    # cell (z, j, y) without its y.
    tails = [()] if ys is None else [(y,) for y in ys]
    coords = [(z, j, *t) for z in config.z_support for j in range(config.J) for t in tails]
    index = {c: i for i, c in enumerate(coords)}
    n_cells = len(coords)

    # Without a base state the selector or partition family follows the
    # static rows: per choice, the cells each member may put weight on.
    # The capacity check comes before any frequency or row is computed.
    n_product, options = 0, []
    if config.J0 == 0:
        options = [
            np.array([[index[(z, j, *t)] for z, t in zip(option, tails)] for option in opts])
            for j, opts in enumerate(product_family(config, len(tails)))
        ]
        n_product = math.prod(map(len, options))
    # per arm, the (J,) or (J, |Y|) frequencies; raveled in coords order
    p_arm = [est.cells[z] / est.arm_counts[z] for z in config.z_support]
    p_vec = np.concatenate([p.ravel() for p in p_arm])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    n_arms = len(config.z_support)
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    raw_counts = p_vec * arm_n[arm_of]
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
    rng = _chunk_rng(seed, 0)
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
    y_keys = None if ys is None else [str(y) for y in ys]
    for z, p in zip(config.z_support, p_arm):
        if ys is None:
            p_hat_out[str(z)] = p.tolist()
        else:
            p_hat_out[str(z)] = {str(j): dict(zip(y_keys, row)) for j, row in enumerate(p.tolist())}
    return TestReport(
        arm_counts=dict(est.arm_counts),
        p_hat=p_hat_out,
        slacks=-violations,
        standard_errors=se,
        floored=floored,
        statistic=statistic,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        alpha=alpha,
        B=B,
        seed=seed,
    )
