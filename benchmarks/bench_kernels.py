#!/usr/bin/env python3
"""Throughput comparison of the sampling kernel backends.

Runs the potential-type argmax through the numpy fallback and, when
built, the compiled extension, and prints rows per second. Invoke from
the repo root:

    python3 benchmarks/bench_kernels.py [--n 2000000] [--repeats 5]
"""

import argparse
import time

import numpy as np

from encdesign import kernels


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_potential(n, J, repeats):
    rng = np.random.default_rng(0)
    eps = rng.gumbel(size=(n, J))
    betas = np.linspace(0.5, 1.5, J)
    targets = np.arange(J, dtype=np.int64)
    rows = {}
    for name, impl in kernels.available_backends().items():
        rows[name] = time_call(
            lambda: kernels.potential_type_codes(eps, betas, targets, impl=impl),
            repeats,
        )
    return rows


def report(label, n, rows):
    print(f"\n{label} (n = {n:,})")
    python = rows["python"]
    for name in sorted(rows):
        rate = n / rows[name] / 1e6
        note = ""
        if name != "python":
            note = f"  ({python / rows[name]:.1f}x vs python)"
        print(f"  {name:>9}: {rows[name] * 1000:8.1f} ms   {rate:7.1f} M rows/s{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2_000_000)
    parser.add_argument("--J", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"active backend: {kernels.BACKEND}")
    if kernels.BACKEND != "compiled":
        print("compiled extension not built; timing the fallback only")
    report("potential-type argmax", args.n, bench_potential(args.n, args.J, args.repeats))


if __name__ == "__main__":
    main()
