# cython: boundscheck=False, wraparound=False, language_level=3
"""Compiled argmax kernel; mirrors _kernels_py.potential_type_codes bit for bit."""

from libc.stdint cimport int64_t

import numpy as np


def potential_type_codes(double[:, ::1] eps, double[::1] betas,
                         int64_t[::1] z_targets):
    cdef Py_ssize_t n = eps.shape[0]
    cdef Py_ssize_t J = eps.shape[1]
    cdef Py_ssize_t m = z_targets.shape[0]
    d_arr = np.empty((n, m), dtype=np.int64)
    tie_arr = np.zeros(n, dtype=np.uint8)
    cdef int64_t[:, ::1] d = d_arr
    cdef unsigned char[::1] tie = tie_arr
    cdef Py_ssize_t i, t, j
    cdef int64_t z, arg
    cdef double best, u
    cdef bint tied
    for i in range(n):
        for t in range(m):
            z = z_targets[t]
            best = eps[i, 0] + (betas[0] if z == 0 else 0.0)
            arg = 0
            tied = False
            for j in range(1, J):
                u = eps[i, j]
                if j == z:
                    u = u + betas[j]
                if u > best:
                    best = u
                    arg = j
                    tied = False
                elif u == best:
                    tied = True
            d[i, t] = arg
            if tied:
                tie[i] = 1
    return d_arr, tie_arr.astype(bool)
