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

The moments are taken in chunks of static rows and groups of product
members, in one buffer of at most 2**17 doubles (1 MiB, which stays in a
2 MiB L2 cache). On a 2-core x86-64 host buffers of 2**16 to 2**20
doubles ran within noise of one another at J = 4 with three outcome
values, the smaller ones with lower peaks. A group is a block of sums
over all but the last choice, acc, with the last choice's options:
member (i, k) sums acc[i] + last[k]. Its report pass adds only the
slack and per-arm columns. Its bootstrap pass first bounds every row of
acc in every draw b, using two monotone roundings: fl(x + y) is monotone
in y, so acc[i, b] + max_k last[k, b] is exactly the row's largest
member sum, and fl(G / se) is monotone in G and, for G >= 0, falls as se
grows, so that sum over the row's least standard error bounds every
studentized draw of the row. A draw whose bound is at most a positive
running maximum cannot move it; the others are evaluated exactly, and a
group that needs more than a quarter of its draws is evaluated whole
(see ``_group_max``). Since the maximum only grows, the critical value
is bit for bit the one that every moment would give. The statistic and
its binding moment are found a chunk at a time as well, so no array the
size of the family is built besides the report's own. At J = 4 with
three outcome values (531,477 moments, B = 99 or 999) the tracemalloc
peak is about 11 MB, 9.1 MB of it the report's float64 and bool arrays,
and the bootstrap pass evaluates 7% of the members' draws at B = 99
and 3% at B = 999 (100,000 rows of a random feasible measure).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DesignConfig
# ``generate`` and ``partition_family_specs`` stay names of this module:
# the benchmark's per-layer tracing (perfbench/tracing.py) wraps them here.
from .inequalities import (  # noqa: F401
    _cap_family,
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
    arrays. ``binding`` is the index of the first moment whose studentized
    violation -slack / se is the statistic. Arrays have no single truth
    value, so reports compare by identity."""

    arm_counts: Mapping[int, int]
    p_hat: Mapping
    slacks: np.ndarray
    standard_errors: np.ndarray
    floored: np.ndarray
    statistic: float
    binding: int
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
        """The verdict with the moment and floored counts and ``binding``."""
        return {
            **self._verdict(),
            "moment_count": len(self.slacks),
            "floored_count": int(np.count_nonzero(self.floored)),
            "binding": self.binding,
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


# The moment pass works in one buffer of at most this many doubles.
_CHUNK_DOUBLES = 1 << 17
# Most cells the bootstrap evaluates on their own at a time: the index
# temporaries of whole groups took fresh pages on every call (about 400
# page faults per call at J = 3 with three outcome values and B = 999,
# against 9 in blocks of 2**10 cells).
_SPARSE_CELLS = 1 << 11


def _option_sums(values: np.ndarray, options: np.ndarray) -> np.ndarray:
    """Per option of one choice (a row of cell indices), the sum of its
    cells' rows of ``values``, added in outcome order."""
    return functools.reduce(np.add, (values[column] for column in options.T))


def _fold(pieces, out: np.ndarray, head=None) -> np.ndarray:
    """One sum per member of a product over choices, in
    ``itertools.product`` order: ``head`` if given, then the member's row
    of each piece, added left to right. The sums are written into ``out``,
    except that a lone piece without a head is its own sums."""
    acc, rest = (pieces[0], pieces[1:]) if head is None else (head[None], pieces)
    for i, piece in enumerate(rest, 1):
        shape = (len(acc), *piece.shape)
        dest = out.reshape(shape) if i == len(rest) else np.empty(shape)
        acc = np.add(acc[:, None], piece, out=dest).reshape(-1, *piece.shape[1:])
    return acc


def _product_chunks(pieces, buf: np.ndarray, head=None):
    """The members in ``itertools.product`` order, in groups ``(acc,
    last)`` of whole members: member (i, k) of a group sums acc[i] +
    last[k], ``last`` the last choice's options and ``acc`` the earlier
    choices' sums folded into ``buf``, a range of the first choice's
    options with all members of the choices between or, if those alone
    overflow ``buf``, each option in turn as the head of their groups."""
    first, *rest, last = pieces
    tail = math.prod(map(len, rest))
    if tail > len(buf):
        for option in first:
            yield from _product_chunks([*rest, last], buf, option if head is None else head + option)
        return
    width = len(buf) // tail
    for lo in range(0, len(first), width):
        yield _fold([first[lo:lo + width], *rest], buf[: len(first[lo:lo + width]) * tail], head), last


def _dense_max(t_star: np.ndarray, acc, last, se: np.ndarray, work: np.ndarray) -> None:
    """Fold into ``t_star`` the studentized draws (acc[i] + last[k]) /
    se[i, k] of every member of a group, in member order, as many rows of
    ``acc`` at a time as ``work`` holds."""
    B = len(t_star)
    rows = work.size // (len(last) * B)
    for lo in range(0, len(acc), rows):
        block = work[: len(acc[lo:lo + rows]) * len(last) * B].reshape(-1, len(last), B)
        np.add(acc[lo:lo + rows, None, :B], last[:, :B], out=block)
        np.divide(block, se[lo:lo + rows, :, None], out=block)
        np.maximum(t_star, block.reshape(-1, B).max(axis=0), out=t_star)


def _sparse_max(t_star: np.ndarray, acc, last, se: np.ndarray, hit: np.ndarray, work: np.ndarray) -> None:
    """Fold into ``t_star`` the draws of the cells (i, b) that ``hit``
    marks: for each, the largest (acc[i, b] + last[k, b]) / se[i, k] over
    k, in blocks of at most _SPARSE_CELLS cells within ``work``."""
    B, k = len(t_star), len(last)
    se_by_option = np.ascontiguousarray(se.T)
    cells = np.flatnonzero(hit)
    step = min(work.size // (2 * k), _SPARSE_CELLS)
    for lo in range(0, len(cells), step):
        i, b = np.divmod(cells[lo:lo + step], B)
        # one row per option of the last choice; x + y and y + x round alike
        draws, scale = work[: 2 * k * len(i)].reshape(2, k, len(i))
        np.add(np.take(last, b, axis=1, out=draws), np.take(acc, i * acc.shape[1] + b), out=draws)
        np.divide(draws, np.take(se_by_option, i, axis=1, out=scale), out=draws)
        np.maximum.at(t_star, b, draws.max(axis=0))


def _group_max(t_star: np.ndarray, acc, last, se: np.ndarray, work: np.ndarray, hit: np.ndarray) -> None:
    """Fold into ``t_star`` the studentized draws of a group's members,
    which leave it as ``_dense_max`` would.

    Each row i of ``acc`` is bounded in each draw b first. fl(x + y) is
    monotone in y, so T = acc[i, b] + max_k last[k, b] is the row's
    largest member sum; fl(G / se) is monotone in G and, for G >= 0,
    falls as se grows, so T / min_k se[i, k] bounds every studentized
    draw of the row (for T < 0 they are all negative). A cell whose bound
    is at most a positive t_star[b] cannot move it; the others are
    evaluated exactly, cell by cell. A group that fits in one block of
    ``work`` is evaluated whole, and so is one with more than a quarter
    of its cells to evaluate: on a 2-core x86-64 host a cell cost 50 to
    370 ns and a whole row of k members about 4k ns. Of 0.0 and -0.0 the
    maximum is the later in member order, which the cells do not keep,
    so a group that leaves a zero in t_star is evaluated again, whole."""
    B, m = len(t_star), len(acc)
    if len(last) * m * B > work.size:
        bound = np.add(acc[:, :B], last[:, :B].max(axis=0), out=work[: m * B].reshape(m, B))
        np.divide(bound, se.min(axis=1)[:, None], out=bound)
        np.greater(bound, np.where(t_star > 0, t_star, -np.inf), out=hit)
        if 4 * np.count_nonzero(hit) <= m * B:
            before = t_star.copy()
            _sparse_max(t_star, acc, last, se, hit, work)
            if t_star.all():
                return
            np.copyto(t_star, before)
    _dense_max(t_star, acc, last, se, work)


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
    # The capacity check comes before any count, frequency or moment is
    # computed. Without a base state the selector family is the smallest
    # partition family, so one it refuses is refused for every |Y|; with
    # one, the outcome family's base rows alone hold the treatment family's
    # count at |Y| = 1, and the outcome family is counted once |Y| is known.
    if config.J0 == 0:
        product_family(config)
    else:
        _cap_family((config.J - 1) * (config.J - config.J0))
    static = generate(config) if config.J0 and data.y is None else ()
    est = estimate(data, config)
    ys = est.y_support

    # Flatten cells to a vector. A treatment cell (z, j) is an outcome
    # cell (z, j, y) without its y.
    tails = [()] if ys is None else [(y,) for y in ys]
    coords = [(z, j, *t) for z in config.z_support for j in range(config.J) for t in tails]
    index = {c: i for i, c in enumerate(coords)}

    # Without a base state the product family follows the static rows:
    # per choice, each option's cell indices.
    options = [
        np.array([[index[(z, j, *t)] for z, t in zip(option, tails)] for option in opts])
        for j, opts in enumerate(product_family(config, len(tails)))
    ] if config.J0 == 0 else []
    # per arm, the (J,) or (J, |Y|) frequencies; raveled in coords order
    p_arm = [est.cells[z] / est.arm_counts[z] for z in config.z_support]
    p_vec = np.concatenate([p.ravel() for p in p_arm])
    arm_of = np.array([config.z_index(c[0]) for c in coords])
    arm_n = np.array([est.arm_counts[z] for z in config.z_support], dtype=float)
    if ys is not None:
        # targeted rows, then (with a base state) base rows, per outcome
        rivals = len(config.z_support) - 1 + (config.J - 1 if config.J0 else 0)
        _cap_family((config.J - config.J0) * rivals * len(ys))
        static = generate_outcome(config, ys)
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

    # One buffer of at most _CHUNK_DOUBLES doubles (more only if one
    # moment alone needs it). It holds a chunk of static rows, then their
    # slack and per-arm sums as contiguous rows and the per-arm variance
    # terms. For the product members it holds a group's sums over all but
    # the last choice, ``acc``, and after them the group's slack and
    # per-arm sums, then its bounds, then its blocks of draws. A group is
    # up to m_max rows of acc with all K options of the last choice or,
    # where those overflow the buffer, one row with k_step of them.
    C = W.shape[1]
    rows = max(1, min(_CHUNK_DOUBLES // (C + 1 + 2 * A), n_static))
    size = rows * (C + 1 + 2 * A) if n_static else 0
    m_max = 0
    if options:
        K = len(options[-1])
        k_step = max(1, min(K, (_CHUNK_DOUBLES - C) // max(B, 1 + 2 * A)))
        m_max = 1
        if k_step == K:
            # per row of acc, the row and its members' sums and variance
            # terms or its bounds; and one row's draws
            fit = min(_CHUNK_DOUBLES // (C + max(B, (1 + 2 * A) * K)), (_CHUNK_DOUBLES - K * B) // C)
            m_max = min(fit, (n_moments - n_static) // K)
        # and room for a whole group's draws where the buffer allows
        need = m_max * C + max(m_max * max(B, (1 + 2 * A) * k_step), k_step * B)
        size = max(size, need, min(_CHUNK_DOUBLES, m_max * (C + k_step * B)))
    arena = np.empty(size)
    slacks, se = np.empty(n_moments), np.empty(n_moments)
    floored = np.empty(n_moments, dtype=bool)
    t_star, start, statistic, binding = np.full(B, -np.inf), 0, -np.inf, 0

    def moments(sums: np.ndarray, count: int, bound: float) -> np.ndarray:
        """The next ``count`` moments' slacks, standard errors and floored
        flags from ``sums``, which holds their slack row and per-arm rows
        and room for as many more; returns their standard errors."""
        nonlocal start, statistic, binding
        stop = start + count
        slack, se_c = slacks[start:stop], se[start:stop]
        s = sums[count : (1 + A) * count].reshape(A, count)
        q = sums[(1 + A) * count : (1 + 2 * A) * count].reshape(A, count)
        np.negative(np.subtract(sums[:count], bound, out=slack), out=slack)
        # the variance adds (|s_a| - s_a^2)/n_a arm by arm from 0.0, s_a
        # the sum of w p over the moment's cells in arm a (see the module
        # docstring)
        np.subtract(np.abs(s, out=q), np.multiply(s, s, out=s), out=q)
        np.divide(q, arm_n[:, None], out=q)
        se_c[:] = 0.0
        for q_a in q:
            se_c += q_a
        np.sqrt(np.maximum(se_c, 0.0, out=se_c), out=se_c)
        np.less(se_c, SE_FLOOR, out=floored[start:stop])
        np.maximum(se_c, SE_FLOOR, out=se_c)
        # the statistic and the first moment attaining it
        ratio = np.divide(np.negative(slack, out=q[0]), se_c, out=q[0])
        i = int(np.argmax(ratio))
        if ratio[i] > statistic:
            statistic, binding = float(ratio[i]), start + i
        start = stop
        return se_c

    # Static rows, the lhs row minus the rhs row. take() buffers its
    # output in the default mode="raise", and a gather of the rhs rows
    # would be one more buffer: the lhs rows are taken in mode="clip" (the
    # indices are in range) and each rhs row is subtracted in place.
    for lo in range(0, n_static, rows):
        out = arena[: rows * C].reshape(rows, C)[: n_static - lo]
        np.take(W, lhs[lo:lo + rows], axis=0, out=out, mode="clip")
        for diff, right in zip(out, rhs[lo:lo + rows].tolist()):
            diff -= W[right]
        sums = arena[rows * C :]
        np.copyto(sums[: (1 + A) * len(out)].reshape(1 + A, -1), out[:, B:].T)
        # ``generate``'s base-state rows and ``generate_outcome``'s rows
        # have bound 0
        se_c = moments(sums, len(out), 0.0)
        # the whole contiguous chunk is divided, its spent sums included,
        # which runs about twice as fast as a strided view of the draws
        np.divide(out, se_c[:, None], out=out)
        np.maximum(t_star, out[:, :B].max(axis=0), out=t_star)

    # Product members, a group at a time: first their slacks and standard
    # errors from the 1 + A trailing columns alone, then their draws.
    acc_buf = arena[: m_max * C].reshape(m_max, C)
    groups = _product_chunks([_option_sums(W, o) for o in options], acc_buf) if options else ()
    work = arena[m_max * C :]
    hit = np.empty((m_max, B), dtype=bool)
    for acc, last in groups:
        for lo in range(0, len(last), k_step):
            part = last[lo:lo + k_step]
            m, k = len(acc), len(part)
            sums = work[: (1 + A) * m * k].reshape(1 + A, m, k)
            np.add(acc[:, B:].T[:, :, None], part[:, B:].T[:, None, :], out=sums)
            # a product member's bound is 1
            _group_max(t_star, acc, part, moments(work, m * k, 1.0).reshape(m, k), work, hit[:m])
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
        binding=binding,
        critical_value=critical,
        p_value=p_value,
        reject=statistic > critical,
        alpha=alpha,
        B=B,
        seed=seed,
    )
