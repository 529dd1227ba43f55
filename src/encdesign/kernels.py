"""Sampling kernels, in numpy; there is one implementation of each.

``potential_type_codes`` is the argmax of the additive random utility
model under each instrument value; ``region_accept`` checks a system of
strict pairwise shock constraints. Inputs are coerced to contiguous
float64 and int64 arrays, so Python lists are accepted. ``BACKEND`` is
a constant kept for the benchmark's environment stamp.
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
    was attained twice exactly.
    """
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    z_targets = np.ascontiguousarray(z_targets, dtype=np.int64)
    n = eps.shape[0]
    d = np.empty((n, len(z_targets)), dtype=np.int64)
    ties = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    for t, z in enumerate(z_targets):
        util = eps.copy()
        util[:, z] += betas[z]
        arg = util.argmax(axis=1)
        d[:, t] = arg
        top = util[rows, arg]
        ties |= (util == top[:, None]).sum(axis=1) > 1
    return d, ties


def region_accept(eps, lhs, rhs, offsets):
    """Acceptance mask for a system of strict pairwise shock constraints
    eps[:, lhs[k]] + offsets[k] > eps[:, rhs[k]]."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    lhs = np.ascontiguousarray(lhs, dtype=np.int64)
    rhs = np.ascontiguousarray(rhs, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    mask = np.ones(eps.shape[0], dtype=bool)
    for a, b, c in zip(lhs, rhs, offsets):
        mask &= eps[:, a] + c > eps[:, b]
    return mask
