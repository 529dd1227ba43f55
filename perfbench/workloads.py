"""The four workloads.

Each workload turns a seed into a list of jobs: a reach slice of cases
that fail at the seed commit (listed in BENCHMARK.json with the reason),
issued once per run, then whole cycles of the regular cases. Every cycle
holds the same cases, with fresh seeded inputs, so every run does the
same mix of work whatever its length.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from encdesign import inequalities, lp, witness
from encdesign.core import DesignConfig
from encdesign.errors import ConstructionError

from . import exact, inputs
from .exact import WrongOutput
from .harness import FAILED, Job


def _label(config, ys=None) -> str:
    base = f"({config.J},{config.J0})"
    return base if ys is None else f"{base}|Y|={len(ys)}"


def _agree(verdicts: dict, case: str, must_pass: bool) -> None:
    if len(set(verdicts.values())) > 1:
        raise WrongOutput(f"{case}: oracles disagree: {verdicts}")
    if must_pass and not all(verdicts.values()):
        raise WrongOutput(f"{case}: a feasible-by-construction table was rejected: {verdicts}")


# ------------------------------------------------------------------ exact


def exact_job(config, kind, table, reach=False) -> Job:
    case = f"{_label(config)} {kind}"

    def run(ctx):
        report = ctx.call("inequalities", inequalities.check, table)
        q = ctx.call("witness", witness.construct, table, verdicts=(ConstructionError,))
        trace = None
        if isinstance(q, ConstructionError):
            trace = ctx.call("witness", witness.diagnose, table)
        return report, q, trace, ctx.call("lp", lp.feasible, table)

    def verify(out):
        report, q, trace, lp_out = out
        verdicts = {}
        if report is not FAILED:
            verdicts["check"] = report.passed
            if kind == "boundary" and report.min_slack != 0:
                raise WrongOutput(f"{case}: min_slack {report.min_slack}, built to be 0")
        if isinstance(q, ConstructionError):
            verdicts["construct"] = False
            if trace is not FAILED and trace.feasible:
                raise WrongOutput(f"{case}: construct raised but diagnose reports feasible")
        elif q is not FAILED:
            exact.check_roundtrip(table, q, f"{case} witness")
            verdicts["construct"] = True
        if lp_out is not FAILED:
            ok, certificate = lp_out
            verdicts["lp"] = ok
            if ok:
                exact.check_roundtrip(table, certificate, f"{case} LP certificate")
        _agree(verdicts, case, kind != "random")

    return Job(case, run, verify, reach)


class Exact:
    name = "exact"
    setup_module = "encdesign"
    gate_args = None
    deadline_s = 30.0
    cycle_s = 5.3
    min_cycles = 1
    # design -> tables of each kind per cycle; the extra (4,0) tables put
    # the median job inside one design's group instead of between two
    designs = {(3, 0): 1, (4, 0): 3, (5, 0): 1, (6, 0): 1, (4, 2): 1, (6, 2): 1}
    # six failing jobs above the answered ones put the tail inside the
    # (6,0) group
    reach = {(8, 0): 1, (8, 2): 1}

    def jobs(self, seed, cycles, workdir):
        def jobs_for(c, designs, reach=False):
            out = []
            for d, copies in designs.items():
                config = DesignConfig(*d)
                for kind in inputs.KINDS:
                    for i in range(copies):
                        table = inputs.treatment_table(config, kind, inputs.rng_for(seed, c, d, kind, i))
                        out.append(exact_job(config, kind, table, reach))
            return out

        reach = jobs_for("reach", self.reach, reach=True)
        return reach, [job for c in range(cycles) for job in jobs_for(c, self.designs)]


# ---------------------------------------------------------------- exact-y


def outcome_job(config, ys, kind, table, reach=False) -> Job:
    case = f"{_label(config, ys)} {kind}"

    def run(ctx):
        report = ctx.call("inequalities", inequalities.check_outcome, table)
        q = ctx.call("witness", witness.construct_outcome, table, verdicts=(ConstructionError,))
        return report, q, ctx.call("lp", lp.feasible_outcome, table)

    def verify(out):
        report, q, ok = out
        verdicts = {}
        if report is not FAILED:
            verdicts["check"] = report.passed
            if kind == "boundary" and report.min_slack != 0:
                raise WrongOutput(f"{case}: min_slack {report.min_slack}, built to be 0")
        if isinstance(q, ConstructionError):
            verdicts["construct"] = False
        elif q is not FAILED:
            exact.check_outcome_roundtrip(table, q, f"{case} witness")
            verdicts["construct"] = True
        if ok is not FAILED:
            verdicts["lp"] = ok
        _agree(verdicts, case, kind != "random")

    return Job(case, run, verify, reach)


class ExactY:
    name = "exact-y"
    setup_module = "encdesign"
    gate_args = None
    deadline_s = 10.0
    cycle_s = 11.5
    min_cycles = 1
    # (J, J0, |Y|) -> tables of each kind per cycle; the extra copies put
    # the median and the tail inside one case's group of jobs
    cases = {(2, 0, 2): 1, (3, 0, 2): 1, (3, 0, 3): 1, (3, 1, 2): 1, (3, 1, 3): 2,
             (4, 2, 2): 2, (4, 2, 3): 2, (4, 0, 2): 1}
    reach = ((4, 0, 3),)

    def _job(self, seed, c, case, kind, i=0, reach=False):
        J, J0, ny = case
        config, ys = DesignConfig(J, J0), tuple(range(ny))
        table = inputs.outcome_table(config, ys, kind, inputs.rng_for(seed, c, case, kind, i))
        return outcome_job(config, ys, kind, table, reach)

    def jobs(self, seed, cycles, workdir):
        reach = [self._job(seed, "reach", case, "feasible", reach=True) for case in self.reach]
        regular = [
            self._job(seed, c, case, kind, i)
            for c in range(cycles)
            for case, copies in self.cases.items()
            for kind in inputs.KINDS
            for i in range(copies)
        ]
        return reach, regular


# -------------------------------------------------------------- microdata


def gate_args(seed):
    """A fixed CLI call whose stdout must be byte-identical on two runs."""
    return ["simulate", "--J", "3", "--betas", "1,1,1", "--pz", "1/3,1/3,1/3",
            "--n", "20000", "--seed", str(seed)]


def _parse(stdout) -> dict:
    return json.loads(stdout.decode("utf-8"))


def _frac_csv(values) -> str:
    return ",".join(str(v) for v in values)


def treatment_micro_job(config, shocks, rows, rng, path) -> Job:
    case = f"{_label(config)} {shocks}"
    m = len(config.z_support)
    betas = [0.0 if j < config.J0 else round(rng.uniform(0.5, 1.5), 2) for j in range(config.J)]
    weights = [rng.randint(1, 4) for _ in range(m)]
    pz = [Fraction(w, sum(weights)) for w in weights]
    seed = rng.getrandbits(32)
    design = ["--J", str(config.J), "--J0", str(config.J0)]

    def run(ctx):
        sim = ctx.cli(["simulate", *design, "--betas", _frac_csv(betas), "--eps", shocks,
                       "--pz", _frac_csv(pz), "--n", str(rows), "--seed", str(seed), "--out", path])
        test = FAILED
        if sim is not FAILED:
            test = ctx.cli(["test", "--data", path, *design, "--B", "999", "--seed", str(seed)],
                           verdict_codes=(0, 3))
        return sim, test

    def verify(out):
        if os.path.exists(path):
            os.remove(path)
        sim, test = out
        if sim is FAILED or test is FAILED:
            return
        sim, test = _parse(sim), _parse(test)
        if sim["n"] != rows or sum(sim["type_counts"].values()) != rows:
            raise WrongOutput(f"{case}: type counts do not sum to n={rows}")
        for key in sim["type_counts"]:
            if not exact.admissible(config, tuple(int(v) for v in key.split(","))):
                raise WrongOutput(f"{case}: simulated type {key} is not admissible")
        if sum(test["arm_counts"].values()) != rows:
            raise WrongOutput(f"{case}: test arm counts do not sum to n={rows}")
        for z, by_j in sim["table"]["p"].items():
            for j, p in by_j.items():
                if test["p_hat"][z][int(j)] != float(Fraction(p)):
                    raise WrongOutput(f"{case}: p_hat[{z}][{j}] differs from the simulated table")

    return Job(case, run, verify, rows=rows)


def outcome_micro_job(config, ys, rows, rng, path, B, reach=False) -> Job:
    """The y,d,z CSV is written here, before the timed loop."""
    case = f"{_label(config, ys)} test"
    y, d, z = inputs.outcome_rows(config, ys, rows, rng)
    inputs.write_rows_csv(path, y, d, z)
    seed = rng.getrandbits(32)
    observed = [int(v) for v in np.unique(y)]
    expected_p = {}
    expected_arms = {}
    for zv in config.z_support:
        arm = z == zv
        expected_arms[str(zv)] = int(arm.sum())
        counts = np.zeros((config.J, len(observed)))
        np.add.at(counts, (d[arm], np.searchsorted(observed, y[arm])), 1)
        expected_p[str(zv)] = {
            str(j): {str(yv): float(counts[j, i]) / expected_arms[str(zv)] for i, yv in enumerate(observed)}
            for j in range(config.J)
        }

    def run(ctx):
        return ctx.cli(["test", "--data", path, "--J", str(config.J), "--J0", str(config.J0),
                        "--y", "--B", str(B), "--seed", str(seed)], verdict_codes=(0, 3))

    def verify(out):
        if out is FAILED:
            return
        test = _parse(out)
        if test["arm_counts"] != expected_arms:
            raise WrongOutput(f"{case}: arm counts differ from the written CSV")
        if test["p_hat"] != expected_p:
            raise WrongOutput(f"{case}: p_hat differs from count/arm of the written CSV")

    return Job(case, run, verify, reach, rows=rows)


class Microdata:
    name = "microdata"
    setup_module = "encdesign.cli"
    deadline_s = 60.0
    cycle_s = 12.5
    min_cycles = 1
    treatment_rows = 150_000
    outcome_rows = 100_000
    outcome_B = 99
    designs = ((3, 0), (5, 0), (6, 2))
    shocks = ("gumbel", "normal", "uniform")
    outcome_cases = ((3, 0, 2), (4, 2, 3), (4, 0, 3))
    reach = ((4, 0, 4),)

    def _outcome(self, seed, c, case, workdir, reach=False):
        J, J0, ny = case
        path = os.path.join(workdir, f"y{c}_{J}{J0}{ny}.csv")
        return outcome_micro_job(DesignConfig(J, J0), tuple(range(ny)), self.outcome_rows,
                                 inputs.rng_for(seed, c, case), path, self.outcome_B, reach)

    def jobs(self, seed, cycles, workdir):
        reach = [self._outcome(seed, "reach", case, workdir, True) for case in self.reach]
        regular = []
        for c in range(cycles):
            for d in self.designs:
                for shocks in self.shocks:
                    path = os.path.join(workdir, "sim.csv")
                    regular.append(treatment_micro_job(
                        DesignConfig(*d), shocks, self.treatment_rows, inputs.rng_for(seed, c, d, shocks), path))
            regular.extend(self._outcome(seed, c, case, workdir) for case in self.outcome_cases)
        return reach, regular

    gate_args = staticmethod(gate_args)


# ---------------------------------------------------------------- mixture


def _write_table(path, table) -> None:
    doc = {
        "J": table.config.J,
        "J0": table.config.J0,
        "p": {str(z): {str(j): str(v) for j, v in enumerate(row)} for z, row in table.rows.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_measure(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {tuple(int(v) for v in k.split(",")): Fraction(m) for k, m in doc["mass"].items()}


MIXTURE_TOLERANCE = 0.02


def mixture_job(config, draws, rng, workdir, index, reach=False) -> Job:
    case = _label(config)
    table = inputs.full_support_table(config, rng)
    table_path = os.path.join(workdir, f"t{index}.json")
    q_path = os.path.join(workdir, f"q{index}.json")
    _write_table(table_path, table)
    seed = rng.getrandbits(32)

    def run(ctx):
        built = ctx.cli(["construct", "--input", table_path, "--output", q_path])
        if built is FAILED:
            return FAILED
        return ctx.cli(["mixture-verify", "--q", q_path, "--n", str(draws), "--seed", str(seed)])

    def verify(out):
        if os.path.exists(q_path):
            q = _read_measure(q_path)
            if any(m < 0 or not exact.admissible(config, d) for d, m in q.items()) or sum(q.values()) != 1:
                raise WrongOutput(f"{case}: witness is not a measure over admissible types")
            if exact.pushforward(config, q) != {z: tuple(r) for z, r in table.rows.items()}:
                raise WrongOutput(f"{case}: witness pushforward differs from the table")
        if out is FAILED:
            return
        doc = _parse(out)
        if doc["n"] != draws or not 0 <= doc["max_error"] <= MIXTURE_TOLERANCE:
            raise WrongOutput(f"{case}: max_error {doc['max_error']} over tolerance {MIXTURE_TOLERANCE}")

    return Job(case, run, verify, reach, rows=draws)


class Mixture:
    name = "mixture"
    setup_module = "encdesign.cli"
    deadline_s = 4.0
    cycle_s = 1.25
    min_cycles = 3  # eleven jobs at least, for the tail
    draws = 20_000
    designs = ((3, 0), (4, 2), (4, 0))
    reach = ((5, 0), (6, 2))

    def jobs(self, seed, cycles, workdir):
        reach = [
            mixture_job(DesignConfig(*d), self.draws, inputs.rng_for(seed, "reach", d), workdir, f"r{i}", True)
            for i, d in enumerate(self.reach)
        ]
        regular = [
            mixture_job(DesignConfig(*d), self.draws, inputs.rng_for(seed, c, d), workdir, f"{c}_{i}")
            for c in range(cycles)
            for i, d in enumerate(self.designs)
        ]
        return reach, regular

    gate_args = staticmethod(gate_args)


WORKLOADS = {w.name: w for w in (Exact(), ExactY(), Microdata(), Mixture())}
