"""Sampling kernels, in numpy; there is one implementation of each.

``potential_type_codes`` is the argmax of the additive random utility
model under each instrument value; ``region_accept`` checks a system of
strict pairwise shock constraints. No code in the package calls
``region_accept``: the benchmark's tracer wraps it by name and the tests'
box-rejection oracle calls it. Inputs are coerced to contiguous float64
and int64 arrays, so Python lists are accepted. ``BACKEND`` is a
constant kept for the benchmark's environment stamp.

Shocks are finite or ±inf: no sampler makes NaN, and the encouragement
sizes are finite and at least 0, so the argmax kernel keeps one
unboosted top per row. The kernels fold over the J columns one elementwise
operation at a time instead of reducing along ``axis=1``: a reduction
over only J columns runs a short inner loop per row, and on a
(20000, 4) array ``min(axis=1)`` takes 1.1 ms against 45 µs for a fold
over the columns, while ``argmax(axis=1)`` and ``all(axis=1)`` take
about 0.5 ms each (numpy 2.4.6, 2-core x86-64 Xeon). Maxima and
equality tests are exact, so a fold returns the same bits as the
reduction it replaces.

Both kernels work on contiguous (J, n) columns of the shocks, so each
column they read is a unit-stride row. They copy the shocks into that
layout only when the input is not already column-major: the (n, J)
transpose of (J, n) columns costs no copy. ``region_accept`` tests every
constraint on two such columns: on a (14000, 4) array with 12
constraints that takes 0.14-0.19 ms against 0.28-0.41 ms for the same
tests on strided ``eps[:, j]`` views (same hardware), with the same
mask, since the sums and comparisons are the same.
"""

import numpy as np

# perfbench's environment stamp reads this (perfbench/harness.py).
BACKEND = "python"


def potential_type_codes(eps, betas, z_targets):
    """Argmax choice under each instrument value, row by row.

    eps is (n, J), betas (J,), z_targets (m,) instrument values; the
    instrument value z boosts choice z by betas[z]. Returns the (n, m)
    int64 matrix of chosen treatments (the first index attaining the
    maximum) and an (n,) tie mask marking rows where some top utility
    was attained twice exactly. The betas must be finite and at least 0.

    Then fl(eps_z + betas[z]) >= eps_z, so under z the top utility is
    the larger of the row's unboosted maximum, shared by every z, and
    the boosted column. Scanning the columns against the top,
    ``seen`` marks rows whose top has already appeared, a second hit
    is a tie, and the count of columns at which the top has been seen
    is J minus the first index attaining it."""
    cols = np.ascontiguousarray(np.asarray(eps, dtype=np.float64).T)  # (J, n)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    z_targets = np.ascontiguousarray(z_targets, dtype=np.int64)
    J, n = cols.shape
    peak = np.maximum(cols[0], cols[1])  # the unboosted maximum of each row (J >= 2)
    for j in range(2, J):
        np.maximum(peak, cols[j], out=peak)
    d = np.empty((n, len(z_targets)), dtype=np.int64)
    ties = np.zeros(n, dtype=bool)
    boosted = np.empty(n)
    top = np.empty(n)
    seen = np.empty(n, dtype=bool)
    eq = np.empty(n, dtype=bool)
    again = np.empty(n, dtype=bool)
    # the count never exceeds J: uint8 up to J = 255
    found = np.empty(n, dtype=np.min_scalar_type(J))
    for t, z in enumerate(z_targets.tolist()):
        np.add(cols[z], betas[z], out=boosted)
        # peak may count column z unboosted; that value never exceeds
        # boosted, so the larger of the two is the top under z
        np.maximum(peak, boosted, out=top)
        seen[:] = False
        found[:] = 0
        for j in range(J):
            np.equal(boosted if j == z else cols[j], top, out=eq)
            ties |= np.logical_and(seen, eq, out=again)
            seen |= eq
            found += seen
        np.subtract(J, found, out=d[:, t])
    return d, ties


def region_accept(eps, lhs, rhs, offsets):
    """Acceptance mask for a system of strict pairwise shock constraints
    eps[:, lhs[k]] + offsets[k] > eps[:, rhs[k]].

    It has no caller in the package; it is kept for the benchmark's
    tracer (perfbench/tracing.py) and the tests' box-rejection oracle.

    The shocks are read as contiguous (J, n) columns, copied only if
    they are not column-major, and each constraint is tested on two of
    them, indexed by Python ints."""
    cols = np.ascontiguousarray(np.asarray(eps, dtype=np.float64).T)  # (J, n)
    lhs = np.asarray(lhs, dtype=np.int64).tolist()
    rhs = np.asarray(rhs, dtype=np.int64).tolist()
    offsets = np.asarray(offsets, dtype=np.float64).tolist()
    mask = np.ones(cols.shape[1], dtype=bool)
    for a, b, c in zip(lhs, rhs, offsets):
        mask &= cols[a] + c > cols[b]
    return mask
