"""Sampling kernels with a compiled fast path.

The Cython extension is optional: when it is missing, the numpy fallback
is used instead. The compiled extension carries only the argmax kernel
``potential_type_codes``, whose per-row loop it runs several times
faster; both backends compute the same float64 operations in the same
order, so results are bit-identical either way, and tests assert this
whenever the compiled backend is present. ``benchmarks/`` compares their
throughput. The region constraint check is numpy only.
"""

import numpy as np

from . import _kernels_py

try:
    from . import _ckernels as _compiled
except ImportError:
    _compiled = None

BACKEND = "compiled" if _compiled is not None else "python"


def available_backends() -> dict:
    backends = {"python": _kernels_py}
    if _compiled is not None:
        backends["compiled"] = _compiled
    return backends


def _prepare(eps, betas, z_targets):
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    z_targets = np.ascontiguousarray(z_targets, dtype=np.int64)
    return eps, betas, z_targets


def potential_type_codes(eps, betas, z_targets, impl=None):
    """Chosen treatment under each instrument value for a batch of utility
    shocks; see _kernels_py.potential_type_codes for the contract."""
    eps, betas, z_targets = _prepare(eps, betas, z_targets)
    impl = impl if impl is not None else (_compiled or _kernels_py)
    d, ties = impl.potential_type_codes(eps, betas, z_targets)
    return np.asarray(d), np.asarray(ties, dtype=bool)


def region_accept(eps, lhs, rhs, offsets):
    """Acceptance mask for a system of strict pairwise shock constraints
    eps[:, lhs[k]] + offsets[k] > eps[:, rhs[k]]."""
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    lhs = np.ascontiguousarray(lhs, dtype=np.int64)
    rhs = np.ascontiguousarray(rhs, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    return np.asarray(_kernels_py.region_accept(eps, lhs, rhs, offsets), dtype=bool)
