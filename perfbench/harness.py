"""The closed loop, failure accounting, metrics and environment stamp.

One client in one process issues jobs one after another. A job is a few
operations (oracle calls or CLI invocations) issued back to back; its
latency is the time from the first operation to the return of the last.
CLI invocations run ``encdesign.cli.run`` in this process with stdout
captured, so their timing shares the in-process reference scaling below;
process start and import are measured on their own as ``setup_s``. The
benchmark's own correctness checks run after each job, outside the timed
region. An operation fails on a capacity cap (``CapacityError``, exit code
4), an uncaught exception or unexpected exit code, or its per-call
deadline; a job with a failed operation is a failed job.
"""

from __future__ import annotations

import glob
import hashlib
import io
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from encdesign import cli as encdesign_cli
from encdesign.errors import CapacityError

from .exact import WrongOutput
from .tracing import Deadline, Tracer, install

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FAILED = object()
EXIT_CAPACITY = 4
SETUP_PROBES = 7


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


@contextmanager
def deadline(seconds: float):
    """Raise Deadline in this thread if the block runs longer than
    ``seconds`` (pure-Python code is interrupted within milliseconds)."""

    def expire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Job:
    """``run(ctx)`` issues the operations and returns what ``verify``
    checks; ``verify`` raises WrongOutput on a wrong answer."""

    case: str
    run: Callable
    verify: Callable
    reach: bool = False
    rows: int = 0


@dataclass
class JobContext:
    case: str
    deadline_s: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    cli_walls: list = field(default_factory=list)

    def _fail(self, layer, op, reason, detail=""):
        self.failures.append(
            {"case": self.case, "layer": layer, "op": op, "reason": reason, "detail": detail[-200:]}
        )
        return FAILED

    def call(self, layer, fn, *args, verdicts=()):
        """One in-process oracle call. Exceptions listed in ``verdicts``
        are answers and are returned; any other failure returns FAILED."""
        self.attempted += 1
        op = fn.__name__
        try:
            with deadline(self.deadline_s):
                return fn(*args)
        except verdicts as exc:
            return exc
        except CapacityError as exc:
            return self._fail(layer, op, "capacity", str(exc))
        except Deadline:
            return self._fail(layer, op, "deadline", f"past {self.deadline_s} s")
        except Exception as exc:  # an uncaught exception is a failed operation
            return self._fail(layer, op, "exception", repr(exc))

    def cli(self, args, verdict_codes=(0,)):
        """One CLI invocation through ``encdesign.cli.run``; returns its
        stdout as bytes, or FAILED."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        reason = detail = None
        start = time.perf_counter()
        try:
            with deadline(self.deadline_s), redirect_stdout(out), redirect_stderr(err):
                code = encdesign_cli.run(list(args))
        except Deadline:
            reason, detail = "deadline", f"past {self.deadline_s} s"
        except Exception as exc:  # uncaught in the CLI: a failed invocation
            reason, detail = "exception", repr(exc)
        else:
            if code not in verdict_codes:
                reason = "capacity" if code == EXIT_CAPACITY else "exception"
                detail = (err.getvalue().strip().splitlines() or [f"exit {code}"])[-1]
        self.cli_walls.append((args[0], time.perf_counter() - start))
        if reason is not None:
            return self._fail("cli", args[0], reason, detail)
        return out.getvalue().encode("utf-8")


@dataclass
class Record:
    """One job's outcome. ``scale`` puts its raw wall times at reference
    speed (see ``reference_ms``)."""

    job: Job
    raw_latency: float
    attempted: int
    failures: list
    raw_cli_walls: list
    scale: float = 1.0

    @property
    def latency(self) -> float:
        return self.raw_latency * self.scale

    @property
    def cli_walls(self) -> list:
        return [(sub, wall * self.scale) for sub, wall in self.raw_cli_walls]


def run_job(job: Job, deadline_s: float, tracer: Tracer | None = None) -> Record:
    ctx = JobContext(job.case, deadline_s)
    undo = None
    if tracer is not None:
        undo = install(tracer)
    try:
        start = time.perf_counter()
        out = job.run(ctx)
        latency = time.perf_counter() - start
    finally:
        if undo is not None:
            undo()
    job.verify(out)
    return Record(job, latency, ctx.attempted, ctx.failures, ctx.cli_walls)


# What reference_ms() takes at reference speed. On a shared machine the
# same pure-Python code runs up to 2x slower from one minute to the next;
# a job's times are multiplied by REFERENCE_MS / (reference time measured
# around it), so runs made at different moments compare.
REFERENCE_MS = 10.0


def reference_ms() -> float:
    """Time a fixed pure-Python workload (exact rational sums, tuple keys,
    dict stores) that does not touch the package, so no change to the
    program can move it."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 5000):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
        seen[(i % 50, i % 7)] = acc
    return 1000 * (time.perf_counter() - start)


def rescale(records, refs) -> None:
    """Set each record's scale from the reference times taken just before
    and just after its job (``refs`` has one more entry than ``records``)."""
    for i, record in enumerate(records):
        record.scale = REFERENCE_MS / ((refs[i] + refs[i + 1]) / 2)


def percentiles(latencies_s, failed) -> dict:
    """Median and the highest percentile with at least ten jobs beyond
    it. A failed job ranks slower than every answered job."""
    ranked = sorted(latencies_s) + [math.inf] * failed
    n = len(ranked)
    if n < 11:
        raise RuntimeError(f"{n} jobs is too few for a tail with ten jobs beyond it")
    tail_rank = n - 10  # 1-based rank with exactly ten jobs above it
    return {
        "p50_ms": 1000 * statistics.median(ranked),
        "tail_ms": 1000 * ranked[tail_rank - 1],
        "tail_level": round(100 * tail_rank / n, 2),
        "tail_count": n,
    }


def setup_seconds(module: str) -> float:
    """Median fresh-process time until ``import module`` returns, after
    one warm-up that fills the bytecode cache."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=child_env(), check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_byte_identical(args) -> None:
    """Two invocations of one fixed CLI call print the same bytes."""
    outs = [
        subprocess.run([sys.executable, "-m", "encdesign.cli", *args], cwd=ROOT, env=child_env(),
                       capture_output=True, timeout=120)
        for _ in range(2)
    ]
    if any(o.returncode for o in outs) or outs[0].stdout != outs[1].stdout:
        raise WrongOutput(f"stdout of `encdesign {' '.join(args)}` differs between two invocations")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _blas_threads():
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "encdesign", "*"))):
        if os.path.isfile(path):
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def stamp(seed: int, trace: bool) -> dict:
    import numpy

    from encdesign import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "kernels_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "trace": trace,
    }
