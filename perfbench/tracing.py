"""Per-layer spans and counts, recorded from outside the package.

Each traced function is replaced, at the module where its caller looks
it up, by a wrapper that records a span (job, name, start, end, parent
span, failed) and the counts listed in ``WRAPS``. Nothing inside
``encdesign`` changes; ``install`` returns a function that puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import defaultdict

from encdesign.errors import ConstructionError


class Deadline(BaseException):
    """A call ran past its per-call deadline. Derived from BaseException
    so no handler inside the package can swallow it."""


def _admissible_count(config) -> int:
    J, J0 = config.J, config.J0
    if J0 == 0:
        return J * 2 ** (J - 1) - (J - 1)
    return J0 * 2 ** (J - J0) + (J - J0) * 2 ** (J - J0 - 1)


def _family_size(config) -> int:
    """Size of the family ``check`` evaluates, from (J, J0) alone."""
    if config.J0 == 0:
        return (config.J - 1) ** config.J
    targeted = config.J - config.J0
    return config.J * targeted - targeted


def _check_counts(args, result):
    return {"family_size": _family_size(args[0].config)}


def _lp_counts(args, result):
    config = args[0].config
    return {
        "vars": _admissible_count(config),
        "rows": len(config.z_support) * (config.J - 1) + 1,
    }


def _lp_outcome_counts(args, result):
    table = args[0]
    config, ny = table.config, len(table.y_support)
    return {
        "vars": _admissible_count(config) * ny ** config.J,
        "rows": len(config.z_support) * (config.J * ny - 1) + 1,
    }


def _size(args, result):
    return {} if result is None else {"size": len(result)}


def _support(args, result):
    return {} if result is None else {"support": len(result.mass)}


def _sim_rows(args, result):
    return {"rows": args[0].n}


def _regions(args, result):
    return {} if result is None else {"regions": len(result.components)}


def _ptc_counts(args, result):
    eps, targets = args[0], args[2]
    rows = len(eps)
    # shocks read, codes written, tie mask written
    return {"rows": rows, "bytes_computed": rows * (8 * eps.shape[1] + 8 * len(targets) + 1)}


def _accept_counts(args, result):
    if result is None:
        return {"rows_proposed": len(args[0])}
    return {"rows_proposed": len(args[0]), "rows_accepted": int(result.sum())}


def _test_counts(args, result):
    if result is None:
        return {}
    return {"moments": len(result.slacks), "floored": sum(result.floored)}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _read_bytes(args, result):
    return {"bytes": _file_bytes(args[0])}


def _write_bytes(args, result):
    return {"bytes": _file_bytes(args[1])}


# (module where the caller looks the name up, attribute, span name, counts)
WRAPS = (
    ("encdesign.lp", "enumerate_admissible", "admissible.enumerate_admissible", None),
    ("encdesign.admissible", "enumerate_admissible", "admissible.enumerate_admissible", None),
    ("encdesign.inequalities", "check", "inequalities.check", _check_counts),
    ("encdesign.inequalities", "check_outcome", "inequalities.check_outcome", None),
    ("encdesign.stats", "generate", "inequalities.generate", _size),
    ("encdesign.stats", "partition_family_specs", "inequalities.partition_family_specs", _size),
    ("encdesign.witness", "construct", "witness.construct", None),
    ("encdesign.witness", "diagnose", "witness.diagnose", None),
    ("encdesign.witness", "construct_outcome", "witness.construct_outcome", _support),
    ("encdesign.lp", "feasible", "lp.feasible", _lp_counts),
    ("encdesign.lp", "feasible_outcome", "lp.feasible_outcome", _lp_outcome_counts),
    ("encdesign.simulate", "simulate", "simulate.simulate", _sim_rows),
    ("encdesign.simulate", "build_epsilon_mixture", "simulate.build_epsilon_mixture", _regions),
    ("encdesign.simulate", "verify_mixture", "simulate.verify_mixture", None),
    ("encdesign.stats", "estimate", "stats.estimate", None),
    ("encdesign.stats", "test_model", "stats.test_model", _test_counts),
    ("encdesign.cli", "read_csv", "cli.read_csv", _read_bytes),
    ("encdesign.cli", "write_csv", "cli.write_csv", _write_bytes),
    ("encdesign.cli", "load_distribution", "cli.load_distribution", None),
    ("encdesign.cli", "load_measure", "cli.load_measure", None),
    ("encdesign.cli", "run", "cli.run", None),
)
KERNEL_WRAPS = (
    ("potential_type_codes", "kernels.potential_type_codes", _ptc_counts),
    ("region_accept", "kernels.region_accept", _accept_counts),
)


class Tracer:
    """Spans and counts in memory. A span is
    [job, name, start, end, parent index, failed]."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.job = None
        self._stack: list = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [self.job, name, time.perf_counter(), None, self._stack[-1] if self._stack else None, False]
            self.spans.append(span)
            self.calls[name] += 1
            self._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except ConstructionError:
                raise  # a verdict on an infeasible table, not a failure
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if counts is not None:
                    for stat, value in counts(args, result).items():
                        self.counts[(name, stat)] += value

        return traced


def install(tracer: Tracer):
    """Wrap every traced function; returns the undo function."""
    saved = []
    for module_name, attr, name, counts in WRAPS:
        module = importlib.import_module(module_name)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))

    simulate = importlib.import_module("encdesign.simulate")
    kernels = simulate.kernels
    proxy = types.ModuleType(kernels.__name__)
    proxy.__dict__.update(vars(kernels))
    for attr, name, counts in KERNEL_WRAPS:
        setattr(proxy, attr, tracer.wrap(name, getattr(kernels, attr), counts))
    saved.append((simulate, "kernels", kernels))
    simulate.kernels = proxy

    # kernel calls inside _codes_for beyond the first are tie redraws
    codes_for = simulate._codes_for

    @functools.wraps(codes_for)
    def counted(*args, **kwargs):
        before = tracer.calls["kernels.potential_type_codes"]
        try:
            return codes_for(*args, **kwargs)
        finally:
            redraws = tracer.calls["kernels.potential_type_codes"] - before - 1
            tracer.counts[("kernels.potential_type_codes", "tie_redraw_calls")] += max(redraws, 0)

    saved.append((simulate, "_codes_for", codes_for))
    simulate._codes_for = counted

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo
