"""Monte Carlo side: draw data from explicit additive random utility
models, and realize a given response-type measure as a mixture of
uniform distributions on shock-space regions. ``verify_mixture``
certifies each region exactly from its constraints and samples no shock
in it; only the multinomial draw of component labels is random.

All draws are chunked with per-chunk seeding derived from (seed, chunk
index), so results do not depend on scheduling. Floating point lives
here and in stats only; empirical tables are returned as exact counts
over n.

Inside a chunk, ``simulate`` draws its shocks and instrument uniforms
BLOCK_SIZE rows at a time. numpy's gumbel, normal and uniform draws give
the same values in consecutive blocks as in one call over the chunk, so
the rows are those of whole-chunk draws (numpy 2.4.6;
tests/test_simulate.py checks it against the whole-chunk oracle). A
block's shocks and the kernel's columns over them take about
3 MB at J = 6, where a whole chunk's took four times that: on 150,000
rows at (6,2) the tracemalloc peak is about 10 MB, 2.4 MB of it the
output rows, against 21 MB with whole-chunk draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import kernels
from .admissible import default_choice, is_admissible
from .core import (
    EPS_FAMILIES,
    DesignConfig,
    ObservedDistribution,
    ResponseMeasure,
    ResponseType,
    _validate_pz,
)

CHUNK_SIZE = 65536
# rows of a chunk drawn and run through the kernel at a time: a block's
# shocks and the kernel's columns over them stay near a 2 MiB L2 cache
BLOCK_SIZE = CHUNK_SIZE // 4


@dataclass(frozen=True)
class RumSpec:
    """A simulated random utility model: encouragement sizes, shock
    family, instrument marginal, draw count, and seed."""

    config: DesignConfig
    betas: tuple[float, ...]
    pz: Mapping[int, Fraction]
    n: int
    seed: int
    eps_family: str = "gumbel"

    def __post_init__(self):
        config = self.config
        betas = tuple(float(b) for b in self.betas)
        if len(betas) != config.J:
            raise ValueError(f"need {config.J} encouragement sizes, got {len(betas)}")
        for j, b in enumerate(betas):
            if not math.isfinite(b):
                raise ValueError(f"encouragement size for choice {j} is not finite")
            if b < 0:
                raise ValueError(f"encouragement size for choice {j} is negative")
            if j < config.J0 and b != 0:
                raise ValueError(f"choice {j} is unaffected by the instrument; its size must be 0")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "pz", _validate_pz(config, self.pz))
        if self.n < 1:
            raise ValueError("draw count must be at least 1")
        if self.eps_family not in EPS_FAMILIES:
            raise ValueError(f"unknown shock family {self.eps_family!r}")


@dataclass(frozen=True)
class MicroData:
    """Row-level observed records; outcomes are optional."""

    d: np.ndarray
    z: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.int64)
        z = np.asarray(self.z, dtype=np.int64)
        if d.shape != z.shape or d.ndim != 1:
            raise ValueError("d and z must be one-dimensional and equally long")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "z", z)
        if self.y is not None:
            y = np.asarray(self.y, dtype=np.int64)
            if y.shape != d.shape:
                raise ValueError("y must have the same length as d and z")
            object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class SimulationResult:
    data: MicroData
    table: ObservedDistribution
    type_counts: Mapping[ResponseType, int]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator of one chunk; every seeded draw starts here."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk_index)))


def _draw_eps(rng: np.random.Generator, k: int, spec: RumSpec) -> np.ndarray:
    J = spec.config.J
    if spec.eps_family == "gumbel":
        return rng.gumbel(size=(k, J))
    if spec.eps_family == "uniform":
        return rng.uniform(-1.0, 1.0, size=(k, J))
    return rng.normal(size=(k, J))


def _codes_for(rng, spec: RumSpec, betas, z_support, codes: np.ndarray, tied: np.ndarray) -> None:
    """Tie resampling: the ``tied`` rows of ``codes`` get fresh shocks
    from the same stream, all of them in one draw, until none tie.
    The benchmark's tracer (perfbench/tracing.py) wraps this function by
    name and counts the kernel calls made in it beyond the first as tie
    redraws, so a chunk whose ties take r rounds reads r - 1 there."""
    while len(tied):
        sub_codes, sub_ties = kernels.potential_type_codes(
            _draw_eps(rng, len(tied), spec), betas, z_support
        )
        codes[tied] = sub_codes
        tied = tied[sub_ties]


def simulate(spec: RumSpec) -> SimulationResult:
    """Draw n i.i.d. records: shocks independent of the instrument, the
    instrument from its marginal, the choice through the observation map.
    Returns the rows, the exact empirical table (counts over arm sizes),
    and the realized response-type counts.

    A chunk's stream holds its shocks, then its instrument uniforms, then
    its tie redraws. Both draws are taken BLOCK_SIZE rows at a time,
    which gives the values of one draw over the chunk, and each block of
    shocks goes through the kernel as it is drawn; only the chunk's
    chosen treatments under every instrument value and its instrument
    positions are held until its ties are redrawn."""
    config = spec.config
    z_support = np.asarray(config.z_support, dtype=np.int64)
    betas = np.asarray(spec.betas, dtype=np.float64)
    cum = np.cumsum([float(spec.pz[z]) for z in config.z_support])
    cum[-1] = 1.0
    # a uniform u < 1 lies at position sum_i [cum_i <= u], what
    # searchsorted(cum, u, side="right") returns; cum[-1] = 1 never counts
    steps = cum[:-1].tolist()

    d_out = np.empty(spec.n, dtype=np.int64)
    z_out = np.empty(spec.n, dtype=np.int64)
    type_counts: dict[ResponseType, int] = {}
    m = len(z_support)
    # a type packs into one base-J integer; past int64 it packs into Python ints
    code_dtype = np.int64 if config.J**m <= 2**63 else object
    code_weights = np.array([config.J ** (m - 1 - i) for i in range(m)], dtype=code_dtype)
    # counts[zi * J + j]: the draws on instrument position zi that chose j
    counts = np.zeros(m * config.J, dtype=np.int64)
    codes = np.empty((min(CHUNK_SIZE, spec.n), m), dtype=np.int64)
    zidx = np.empty(len(codes), dtype=np.intp)
    filled = 0
    chunk_index = 0
    while filled < spec.n:
        k = min(CHUNK_SIZE, spec.n - filled)
        rng = _chunk_rng(spec.seed, chunk_index)
        blocks = [(lo, min(lo + BLOCK_SIZE, k)) for lo in range(0, k, BLOCK_SIZE)]
        tied = []
        for lo, hi in blocks:
            codes[lo:hi], ties = kernels.potential_type_codes(
                _draw_eps(rng, hi - lo, spec), betas, z_support
            )
            tied.append(lo + np.flatnonzero(ties))
        for lo, hi in blocks:
            u = rng.random(hi - lo)
            zi = zidx[lo:hi]
            zi[:] = 0
            for step in steps:
                zi += step <= u
        _codes_for(rng, spec, betas, z_support, codes, np.concatenate(tied))
        for lo, hi in blocks:
            zi, block = zidx[lo:hi], codes[lo:hi]
            d = d_out[filled + lo : filled + hi]
            d[:] = block[np.arange(hi - lo), zi]
            z_out[filled + lo : filled + hi] = z_support[zi]
            counts += np.bincount(zi * config.J + d, minlength=m * config.J)
        for code, count in zip(*np.unique(codes[:k] @ code_weights, return_counts=True)):
            digits = []
            v = int(code)
            for _ in range(m):
                digits.append(v % config.J)
                v //= config.J
            rt = ResponseType(tuple(reversed(digits)))
            if not is_admissible(config, rt):
                raise RuntimeError(f"realized type {rt.d} not admissible; model bug")
            type_counts[rt] = type_counts.get(rt, 0) + int(count)
        filled += k
        chunk_index += 1

    rows = {}
    for z, arm in zip(config.z_support, counts.reshape(m, config.J).tolist()):
        size = sum(arm)
        if size == 0:
            raise ValueError(f"no draws landed on instrument value {z}; increase n")
        rows[z] = tuple(Fraction(c, size) for c in arm)
    table = ObservedDistribution(config, rows)
    ordered = dict(sorted(type_counts.items(), key=lambda kv: kv[0].d))
    return SimulationResult(MicroData(d_out, z_out), table, ordered)


@dataclass(frozen=True)
class Region:
    """One shock-space region: uniform sampling inside reproduces one
    response type. Constraints are strict inequalities
    eps[lhs] + offset > eps[rhs]; the box |eps| <= M is separate."""

    rtype: ResponseType
    weight: Fraction
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    offsets: tuple[float, ...]
    interior: tuple[float, ...]


@dataclass(frozen=True)
class RegionMixture:
    config: DesignConfig
    betas: tuple[float, ...]
    M: float
    components: tuple[Region, ...]


def _region(config: DesignConfig, betas, rt: ResponseType):
    """The inequality system whose solutions realize ``rt``, and a point
    inside it: the default is the plain argmax, complying coordinates win
    when boosted, the rest lose to the default even when boosted."""
    J = config.J
    defaults = default_choice(config, rt)
    if len(defaults) > 1:  # full-compliance diagonal, J0 = 0
        cons = [(z, k, betas[z]) for z in config.z_support for k in range(J) if k != z]
        step = min(b for b in betas if b > 0) / (2 * J) if any(betas) else 0.0
        return cons, tuple(-j * step for j in range(J))
    j_star = next(iter(defaults))
    lam = [z for z in config.z_support if rt.d_at(config, z) == z and z != j_star]
    cons = [(j_star, k, 0.0) for k in range(J) if k != j_star]
    vals = [0.0] * J
    for i, z in enumerate(lam):
        cons.extend((z, k, betas[z]) for k in range(J) if k != z)
        vals[z] = -betas[z] / 2 - (i + 1) * betas[z] / (8 * (len(lam) + 1))
    cons.extend((j_star, z, -betas[z]) for z in config.z_support if z != j_star and z not in lam)
    low = -(1.0 + max(betas))
    rest = [j for j in range(J) if j != j_star and j not in lam]
    for i, j in enumerate(rest):
        vals[j] = low - (i + 1) * 0.25
    return cons, tuple(vals)


def _point_in_region(point, cons, M: float) -> bool:
    return all(abs(v) <= M for v in point) and all(
        point[a] + c > point[b] for a, b, c in cons
    )


def build_epsilon_mixture(q: ResponseMeasure) -> RegionMixture:
    """Realize a response-type measure as a shock distribution: unit
    encouragement for every choice some supported type switches into,
    one bounded region per supported type, uniform density inside each.
    Every positively weighted region is certified nonempty by an explicit
    interior point; ``verify_mixture`` certifies that it realizes its
    type."""
    config = q.config
    J = config.J
    betas = [0.0] * J
    support = q.support()
    for j in config.z_support:
        if j == config.base:
            continue
        for rt in support:
            if rt.d_at(config, j) == j and any(v != j for v in rt.d):
                betas[j] = 1.0
                break
    M = 3.0 * (1.0 + max(betas)) + J
    components = []
    for rt in support:
        cons, point = _region(config, betas, rt)
        if not _point_in_region(point, cons, M):
            raise RuntimeError(
                f"no interior point found for region of {rt.d}; construction bug"
            )
        lhs, rhs, offs = zip(*cons) if cons else ((), (), ())
        components.append(
            Region(rt, q.mass[rt], tuple(lhs), tuple(rhs), tuple(offs), point)
        )
    return RegionMixture(config, tuple(betas), M, tuple(components))


def _certified(config: DesignConfig, betas, region: Region) -> bool:
    """Whether one constraint of the region settles each comparison its
    type makes: under every instrument value z, with t = d_z and g(x) =
    betas[z] at x = z and 0.0 elsewhere, the region must hold
    eps[t] + c > eps[k] with c <= g(t) - g(k) for every k != t. Then every
    shock vector in it has eps[t] + g(t) > eps[k] + g(k), so t is the
    strict argmax under z. One of g(t) and g(k) is 0.0, so the difference
    and the comparison are exact. The rule is sufficient, not necessary:
    a comparison that follows only from a chain of constraints is
    refused, and ``_region`` writes each one as a single constraint."""
    tightest = {}
    for a, b, c in zip(region.lhs, region.rhs, region.offsets):
        tightest[a, b] = min(c, tightest.get((a, b), c))
    for z, t in zip(config.z_support, region.rtype.d):
        for k in range(config.J):
            if k == t:
                continue
            gap = (betas[z] if t == z else 0.0) - (betas[z] if k == z else 0.0)
            if tightest.get((t, k), math.inf) > gap:
                return False
    return True


def verify_mixture(mix: RegionMixture, n: int, seed: int) -> float:
    """Certify every region, then draw n component labels by weight.
    Each region must hold its interior point and pass ``_certified``, so
    every shock in it realizes its type; raise if one does not. Return
    the largest absolute gap between a component's share of the n draws
    and its weight: the realized type frequencies are the component
    counts, and no shock is sampled."""
    if n < 1:
        raise ValueError("draw count must be at least 1")
    rng = _chunk_rng(seed, 0)
    for region in mix.components:
        cons = list(zip(region.lhs, region.rhs, region.offsets))
        if not (
            _point_in_region(region.interior, cons, mix.M)
            and _certified(mix.config, mix.betas, region)
        ):
            raise RuntimeError(f"region for {region.rtype.d} does not realize it; region bug")
    weights = np.array([float(c.weight) for c in mix.components])
    weights = weights / weights.sum()
    counts = rng.multinomial(n, weights).tolist()
    return max(abs(want / n - float(c.weight)) for c, want in zip(mix.components, counts))
