"""Finite-sample moment-inequality test from micro-data.

The procedure is a deliberately simple, self-contained default: the
statistic is the largest studentized violation across the model's
inequality family evaluated on arm-level frequencies, and the critical
value comes from a Gaussian multiplier bootstrap of the recentred
moments. Floating point is confined to this module; nothing here feeds
back into the exact-arithmetic paths.

A static row (base-state or outcome family) is its lhs cell minus its
rhs cell. Without a base state a product over choices follows, with up
to 10^6 members, each taking one option per choice: one cell for
treatment tables, one cell per outcome value for the partition family.
No weight matrix is built. A member's sum, for its slack, its per-arm
variance and each bootstrap draw, adds each choice's cells in outcome
order, then the choice sums left to right, as outer sums in
``itertools.product`` order; so the output does not depend on how a BLAS
library groups sums. A moment's variance adds (|s_a| - s_a^2)/n_a over
arms a, s_a its sum w p over its cells in arm a: a static row's two cells
lie in different arms and product members weigh each cell +1, so |s_a|
is exactly the sum of |w| p.

All of a moment's sums (its slack, its s_a per arm and its B bootstrap
draws) are taken in one pass over chunks of whole moments, in one buffer
of at most 2**17 doubles (1 MiB, which stays in a 2 MiB L2 cache). On a
2-core x86-64 host buffers of 2**16 to 2**20 doubles ran within noise of
one another at J = 4 with three outcome values, the smaller ones with
lower peaks. The statistic and the summary's binding moment are found a
chunk at a time as well, so no array the size of the family is built
besides the report's own. At J = 4 with three outcome values (531,477
moments, B = 99 or 999) the tracemalloc peak is about 11 MB, 9.1 MB of
it the report's float64 and bool arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DesignConfig
# ``generate`` and ``partition_family_specs`` stay names of this module:
# the benchmark's per-layer tracing (perfbench/tracing.py) wraps them here.
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

    arm_counts: Mapping[int, int]
    cells: Mapping[int, np.ndarray]
    y_support: tuple[int, ...] | None


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
    return EstimatedTables(arm_counts, cells, ys)


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
            "floored_count": int(np.count_nonzero(self.floored)),
            "binding": _largest_violation(self.slacks, self.standard_errors)[1],
        }

    def to_dict(self) -> dict:
        """The verdict with every moment's slack, standard error and
        floored flag, as lists of Python floats and bools."""
        return {
            **self._verdict(),
            "slacks": self.slacks.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "floored": self.floored.tolist(),
        }


# No buffer of the moment pass holds more than this many doubles.
_CHUNK_DOUBLES = 1 << 17


def _largest_violation(slacks: np.ndarray, se: np.ndarray) -> tuple[float, int]:
    """The largest studentized violation -slack / se and the first
    moment attaining it, taken over _CHUNK_DOUBLES moments at a time."""
    best, at = -math.inf, 0
    scratch = np.empty(min(_CHUNK_DOUBLES, len(slacks)))
    for lo in range(0, len(slacks), _CHUNK_DOUBLES):
        ratio = np.negative(slacks[lo:lo + _CHUNK_DOUBLES], out=scratch[: len(slacks) - lo])
        np.divide(ratio, se[lo:lo + _CHUNK_DOUBLES], out=ratio)
        i = int(np.argmax(ratio))
        if lo == 0 or ratio[i] > best:
            best, at = float(ratio[i]), lo + i
    return best, at


def _option_sums(values: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Per option of one choice (a row of cell indices), the sum of its
    cells' rows of ``values``, added in outcome order."""
    return functools.reduce(np.add, (values[column] for column in options.T))


def _fold(pieces, out: np.ndarray, head=None) -> np.ndarray:
    """Write into ``out`` (and return it) one sum per member of a product
    over choices, in ``itertools.product`` order: ``head`` if given, then
    the member's row of each piece, added left to right."""
    acc, rest = (pieces[0], pieces[1:]) if head is None else (head[None], pieces)
    for i, piece in enumerate(rest, 1):
        shape = (len(acc), *piece.shape)
        dest = out.reshape(shape) if i == len(rest) else np.empty(shape)
        acc = np.add(acc[:, None], piece, out=dest).reshape(-1, *piece.shape[1:])
    return out


def _product_chunks(pieces, buf: np.ndarray, head=None):
    """The members' sums in ``itertools.product`` order, in chunks of
    whole members written into ``buf``: a range of the first choice's
    options with all members of the later choices, or, if those alone
    overflow ``buf``, each option in turn as the head of their chunks."""
    first, rest = pieces[0], pieces[1:]
    tail = math.prod(map(len, rest))
    if tail > len(buf):
        for option in first:
            yield from _product_chunks(rest, buf, option if head is None else head + option)
        return
    width = len(buf) // tail
    for lo in range(0, len(first), width):
        yield _fold([first[lo:lo + width], *rest], buf[: len(first[lo:lo + width]) * tail], head)


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

    The moments are the static rows (the base-state family or the static
    outcome family), followed without a base state by the selector or
    partition family, summed in the order the module docstring states."""
    if B < 99:
        raise ValueError("need at least 99 bootstrap replications")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    est = estimate(data, config)
    ys = est.y_support

    # Flatten cells to a vector. A treatment cell (z, j) is an outcome
    # cell (z, j, y) without its y.
    tails = [()] if ys is None else [(y,) for y in ys]
    coords = [(z, j, *t) for z in config.z_support for j in range(config.J) for t in tails]
    index = {c: i for i, c in enumerate(coords)}

    # Without a base state the product family follows the static rows:
    # per choice, each option's cell indices. The capacity check comes
    # before any frequency or moment is computed.
    options = [
        np.array([[index[(z, j, *t)] for z, t in zip(option, tails)] for option in opts])
        for j, opts in enumerate(product_family(config, len(tails)))
    ] if config.J0 == 0 else []
    # per arm, the (J,) or (J, |Y|) frequencies; raveled in coords order
    p_arm = [est.cells[z] / est.arm_counts[z] for z in config.z_support]
    p_vec = np.concatenate([p.ravel() for p in p_arm])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    static = generate_outcome(config, ys) if ys is not None else generate(config) if config.J0 else ()
    # a static row has one cell on each side
    pairs = [(index[left], index[right]) for (left,), (right,) in ((sp.lhs, sp.rhs) for sp in static)]
    lhs, rhs = np.array(pairs, dtype=int).reshape(-1, 2).T
    n_static = len(static)
    n_moments = n_static + (math.prod(map(len, options)) if options else 0)
    del static, pairs, index  # Python objects, about 1.3 MB at |Y| = 300

    # One row per cell and one column per sum a moment needs: B bootstrap
    # draws, then its frequency p (the slack), then p on each arm's cells
    # and 0 elsewhere (the variance term s_a). The moments are summed over
    # all columns at once, a chunk at a time.
    A = len(arm_n)
    width = len(coords) // A
    W = np.zeros((len(coords), B + 1 + A))
    W[:, B] = p_vec
    for a in range(A):
        W[a * width : (a + 1) * width, B + 1 + a] = p_vec[a * width : (a + 1) * width]

    # Multiplier bootstrap. The moments depend on the data only through
    # per-cell multiplier sums, which are independent N(0, count) across
    # cells, so those sums are drawn directly: one (B, cells) stream,
    # drawn a block of rows at a time and transposed into G, which holds
    # one row per cell. Each arm's cells are one row range of G,
    # recentred in place.
    rng = _chunk_rng(seed, 0)
    G = W[:, :B]
    draws = max(1, _CHUNK_DOUBLES // len(coords))
    for lo in range(0, B, draws):
        G[:, lo:lo + draws] = rng.normal(size=(min(draws, B - lo), len(coords))).T
    G *= np.sqrt(p_vec * arm_n[arm_of])[:, None]
    row = np.empty(B)
    for a, n_a in enumerate(arm_n):
        block, p = G[a * width : (a + 1) * width], p_vec[a * width : (a + 1) * width]
        # summed along the rows, which adds the cells in order
        arm_total = block.sum(axis=0)
        for cell, p_c in zip(block, p.tolist()):
            cell -= np.multiply(arm_total, p_c, out=row)
        block /= n_a
    del block, row

    buf = np.empty((min(max(1, _CHUNK_DOUBLES // W.shape[1]), n_moments), W.shape[1]))

    def static_chunks():
        # take() buffers its output in the default mode="raise", and a
        # gather of the rhs rows would be one more buffer: the lhs rows
        # are taken in mode="clip" (the indices are in range) and each
        # rhs row is subtracted in place
        for lo in range(0, n_static, len(buf)):
            out = np.take(W, lhs[lo:lo + len(buf)], axis=0, out=buf[: n_static - lo], mode="clip")
            for diff, right in zip(out, rhs[lo:lo + len(buf)].tolist()):
                diff -= W[right]
            yield out

    chunks = static_chunks()
    if options:
        chunks = itertools.chain(chunks, _product_chunks([_option_sums(W, o) for o in options], buf))
    slacks, se = np.empty(n_moments), np.empty(n_moments)
    floored = np.empty(n_moments, dtype=bool)
    # a chunk's slack and per-arm sums as contiguous rows, and its
    # per-arm variance terms
    sums, terms = np.empty((1 + A, len(buf))), np.empty((A, len(buf)))
    t_star, start = np.full(B, -np.inf), 0
    for out in chunks:
        stop = start + len(out)
        chunk_sums, q = sums[:, : len(out)], terms[:, : len(out)]
        np.copyto(chunk_sums, out[:, B:].T)
        # a static row's bound is 0 (``generate``'s base-state rows and
        # ``generate_outcome``'s rows), a product member's is 1
        bound = 0.0 if start < n_static else 1.0
        slack = slacks[start:stop]
        np.negative(np.subtract(chunk_sums[0], bound, out=slack), out=slack)
        # the variance adds (|s_a| - s_a^2)/n_a arm by arm from 0.0, s_a
        # the sum of w p over the moment's cells in arm a (see the module
        # docstring)
        se_c = se[start:stop]
        s = chunk_sums[1:]
        np.subtract(np.abs(s, out=q), np.multiply(s, s, out=s), out=q)
        np.divide(q, arm_n[:, None], out=q)
        se_c[:] = 0.0
        for q_a in q:
            se_c += q_a
        np.sqrt(np.maximum(se_c, 0.0, out=se_c), out=se_c)
        np.less(se_c, SE_FLOOR, out=floored[start:stop])
        np.maximum(se_c, SE_FLOOR, out=se_c)
        # the whole contiguous chunk is divided, its spent sums included,
        # which runs about twice as fast as a strided view of the draws
        np.divide(out, se_c[:, None], out=out)
        np.maximum(t_star, out[:, :B].max(axis=0), out=t_star)
        start = stop
    statistic = _largest_violation(slacks, se)[0]
    k = min(B - 1, max(0, math.ceil((1 - alpha) * (B + 1)) - 1))
    critical = float(np.sort(t_star)[k])
    p_value = float((1 + (t_star >= statistic).sum()) / (B + 1))

    p_hat = [p.tolist() for p in p_arm]
    if ys is not None:
        p_hat = [{str(j): dict(zip(map(str, ys), row)) for j, row in enumerate(p)} for p in p_hat]
    return TestReport(
        arm_counts=dict(est.arm_counts),
        p_hat=dict(zip(map(str, config.z_support), p_hat)),
        slacks=slacks,
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
