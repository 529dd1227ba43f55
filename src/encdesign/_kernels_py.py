"""Pure-numpy implementations of the sampling kernels.

``potential_type_codes`` is kept in lockstep with the compiled version in
``_ckernels.pyx``: both use the same float64 additions and strict
comparisons, so their outputs are bit-identical on the same input.
"""

import numpy as np


def potential_type_codes(eps, betas, z_targets):
    """Argmax choice under each instrument value, row by row.

    eps is (n, J), betas (J,), z_targets (m,) instrument values; the
    instrument value z boosts choice z by betas[z]. Returns the (n, m)
    int64 matrix of chosen treatments and an (n,) tie mask marking rows
    where some top utility was attained twice exactly.
    """
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
    """Rows of eps satisfying every strict constraint
    eps[:, lhs[k]] + offsets[k] > eps[:, rhs[k]]."""
    mask = np.ones(eps.shape[0], dtype=bool)
    for a, b, c in zip(lhs, rhs, offsets):
        mask &= eps[:, a] + c > eps[:, b]
    return mask
