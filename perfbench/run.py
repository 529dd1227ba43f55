#!/usr/bin/env python3
"""encdesign benchmark: one command per workload.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The run generates its
inputs from the seed, times a closed loop of jobs, checks every output and
exits 1 on a wrong one. It prints a detail report (environment stamp,
failures, per-case medians) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run issues the workload's reach slice once and then
``ceil(seconds / cycle_s)`` whole cycles (at least ``min_cycles``) of its
regular cases, where ``cycle_s`` is the cycle time measured at the seed
commit on a 2-core machine; a traced run issues half as many cycles and
runs every job twice, untraced then traced. So every run of a workload
does the same mix of work, and at the seed commit it measures at least
``--seconds`` of it. Times are reported at reference speed (see
``harness.reference_ms``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# traced function -> extra counts; each also gets calls, self_ms, failed
LAYERS = {
    "admissible.enumerate_admissible": (),
    "inequalities.check": ("family_size",),
    "inequalities.check_outcome": (),
    "inequalities.generate": ("size",),
    "inequalities.partition_family_specs": ("size",),
    "witness.construct": (),
    "witness.diagnose": (),
    "witness.construct_outcome": ("support",),
    "lp.feasible": ("vars", "rows"),
    "lp.feasible_outcome": ("vars", "rows"),
    "simulate.simulate": ("rows",),
    "simulate.build_epsilon_mixture": ("regions",),
    "simulate.verify_mixture": (),
    "kernels.potential_type_codes": ("rows", "bytes_computed", "tie_redraw_calls"),
    "kernels.region_accept": ("rows_proposed", "rows_accepted", "accept_ratio"),
    "stats.estimate": (),
    "stats.test_model": ("moments", "floored"),
    "cli.read_csv": ("bytes",),
    "cli.write_csv": ("bytes",),
    "cli.load_distribution": (),
    "cli.load_measure": (),
    "cli.run": (),
}
SUBCOMMANDS = ("simulate", "test", "construct", "mixture-verify")

# ROADMAP item 1's seed baseline, for the traced run's cross-check
BASELINE_MS = {
    "inequalities.check (5,0)": 11,
    "inequalities.check (6,0)": 217,
    "admissible.enumerate_admissible (6,0)": 137,
    "lp.feasible (4,0)": 22,
    "lp.feasible (5,0)": 172,
    "lp.feasible_outcome (3,0)|Y|=3": 408,
}
BASELINE_SIMULATE_ROWS_PER_S = 3.6e6


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _import_package():
    """Import encdesign from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "encdesign", "__init__.py")):
        sys.exit(f"error: no package source at {os.path.join(SRC, 'encdesign')}")
    sys.path[:0] = [SRC, ROOT]
    import encdesign

    if not os.path.realpath(encdesign.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: encdesign imported from {encdesign.__file__}, not from {SRC}")


def end_to_end(wl, records, setup_s) -> tuple[dict, dict]:
    from perfbench.harness import peak_rss_mb, percentiles

    answered = [r for r in records if not r.failures]
    failed_jobs = len(records) - len(answered)
    # time spent on failed jobs is left out: how long a failure takes is
    # set by a cap or a deadline, and failed_frac and the ranks count it
    busy = sum(r.latency for r in answered)
    attempted = sum(r.attempted for r in records)
    failed_ops = sum(len(r.failures) for r in records)
    pct = percentiles([r.latency for r in answered], failed_jobs)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "jobs_per_s": _metric(len(answered) / busy, "1/s"),
        "job_p50_ms": _metric(pct["p50_ms"], "ms"),
        "job_tail_ms": _metric(pct["tail_ms"], "ms"),
        "failed_frac": _metric(failed_ops / attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    extra = {
        "job_tail_level_pct": pct["tail_level"],
        "job_count": pct["tail_count"],
        "answered_jobs": len(answered),
        "busy_s": busy,
    }
    rows = sum(r.job.rows for r in answered)
    if rows:
        key = "draws_per_s" if wl.name == "mixture" else "rows_per_s"
        extra[key] = rows / busy
    raw = percentiles([r.raw_latency for r in answered], failed_jobs)
    extra["unscaled"] = {
        "jobs_per_s": len(answered) / sum(r.raw_latency for r in answered),
        "job_p50_ms": raw["p50_ms"],
        "job_tail_ms": raw["tail_ms"],
    }
    return metrics, extra


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, _, start, end, _, _) in enumerate(spans)]


def per_layer(tracer, plain, traced) -> tuple[dict, dict]:
    n = len(traced)
    stats = defaultdict(lambda: {"calls": 0, "failed": 0, "self_s": 0.0})
    for span, self_s in zip(tracer.spans, _self_times(tracer.spans)):
        s = stats[span[1]]
        s["calls"] += 1
        s["failed"] += span[5]
        s["self_s"] += self_s * traced[span[0]].scale
    metrics = {}
    for name, counts in LAYERS.items():
        s = stats[name]
        metrics[f"{name}.calls"] = _metric(s["calls"] / n, "calls/job")
        metrics[f"{name}.self_ms"] = _metric(1000 * s["self_s"] / n, "ms/job")
        metrics[f"{name}.failed"] = _metric(s["failed"] / n, "calls/job")
        for stat in counts:
            if stat == "accept_ratio":
                proposed = tracer.counts[(name, "rows_proposed")]
                value = tracer.counts[(name, "rows_accepted")] / proposed if proposed else 0.0
                metrics[f"{name}.{stat}"] = _metric(value, "ratio")
            else:
                metrics[f"{name}.{stat}"] = _metric(tracer.counts[(name, stat)] / n, "count/job")
    walls = defaultdict(list)
    for r in plain:
        for sub, wall in r.cli_walls:
            walls[sub].append(wall)
    for sub in SUBCOMMANDS:
        value = 1000 * statistics.median(walls[sub]) if walls[sub] else 0.0
        metrics[f"cli.{sub}.wall_ms"] = _metric(value, "ms")

    top = defaultdict(float)
    for job, _, start, end, parent, _ in tracer.spans:
        if parent is None:
            top[job] += end - start
    traced_s = sum(r.latency for r in traced)
    uncovered = sum(max(r.raw_latency - top[i], 0.0) * r.scale for i, r in enumerate(traced))
    metrics["trace.uncovered_share"] = _metric(uncovered / traced_s, "ratio")
    overhead = (traced_s - sum(r.latency for r in plain)) / n
    metrics["trace.overhead_ms"] = _metric(1000 * overhead, "ms/job")
    return metrics, cross_check(tracer, traced)


def cross_check(tracer, traced) -> dict:
    """Per-design medians of the layers ROADMAP item 1 gives numbers for,
    in unscaled wall time like that table."""
    by_design = defaultdict(list)
    sim_s = 0.0
    for job, name, start, end, _, failed in tracer.spans:
        if name == "simulate.simulate" and not failed:
            sim_s += end - start
        if failed:
            continue
        design = traced[job].job.case.split(" ")[0]
        by_design[f"{name} {design}"].append(1000 * (end - start))
    sim_rows = tracer.counts[("simulate.simulate", "rows")]
    wanted = ("inequalities.check ", "admissible.enumerate_admissible ", "lp.feasible ", "lp.feasible_outcome ")
    medians = {
        key: round(statistics.median(v), 3) for key, v in sorted(by_design.items()) if key.startswith(wanted)
    }
    out = {"median_ms": medians, "roadmap_seed_ms": BASELINE_MS}
    if sim_s:
        out["simulate_rows_per_s"] = sim_rows / sim_s
        out["roadmap_simulate_rows_per_s"] = BASELINE_SIMULATE_ROWS_PER_S
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from perfbench import harness
    from perfbench.exact import WrongOutput
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s = None if trace else harness.setup_seconds(wl.setup_module)
        if wl.gate_args is not None:
            harness.check_byte_identical(wl.gate_args(args.seed))
        cycles = max(wl.min_cycles, math.ceil(args.seconds / (wl.cycle_s * (2 if trace else 1))))
        reach, regular = wl.jobs(args.seed, cycles, workdir)
        plain, traced = [], []
        tracer = Tracer() if trace else None
        refs = [harness.reference_ms()]
        for job in reach + regular:
            plain.append(harness.run_job(job, wl.deadline_s))
            if trace:
                tracer.job = len(traced)
                traced.append(harness.run_job(job, wl.deadline_s, tracer))
            refs.append(harness.reference_ms())
        harness.rescale(plain, refs)
        harness.rescale(traced, refs)
    except WrongOutput as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": wl.name,
        "stamp": harness.stamp(args.seed, trace),
        "cycles": cycles,
        "deadline_s": wl.deadline_s,
        "failures": [f for r in plain for f in r.failures],
        "failed_jobs": {
            "reach": sum(bool(r.failures) for r in plain if r.job.reach),
            "regular": sum(bool(r.failures) for r in plain if not r.job.reach),
        },
        "case_median_ms": {
            case: round(1000 * statistics.median(r.latency for r in plain if r.job.case == case), 3)
            for case in dict.fromkeys(r.job.case for r in plain)
        },
    }
    if trace:
        metrics, report["cross_check"] = per_layer(tracer, plain, traced)
    else:
        metrics, report["end_to_end_extra"] = end_to_end(wl, plain, setup_s)
    report["reference_ms"] = {"nominal": harness.REFERENCE_MS, "median": statistics.median(refs)}
    print(json.dumps({"report": report}, sort_keys=True))
    attempted = sum(r.attempted for r in plain)
    failed = sum(len(r.failures) for r in plain)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
