"""Command-line surface: subcommands, file formats, exit codes, and
deterministic output."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from encdesign.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    distribution_doc,
    load_distribution,
    load_measure,
    load_outcome_measure,
    measure_doc,
    outcome_measure_doc,
    read_csv,
    report_doc,
    run,
    write_csv,
)
from encdesign.core import DesignConfig, ObservedDistribution, pushforward
from encdesign.simulate import MicroData
from helpers import (
    boundary_measure,
    check_by_family,
    feasible_outcome_table,
    feasible_table,
    random_measure,
    random_outcome_measure,
    random_table,
)
import numpy as np


UNIFORM3 = {
    "J": 3,
    "J0": 0,
    "p": {
        str(z): {str(j): "1/3" for j in range(3)} for z in range(3)
    },
}

VIOLATING2 = {
    "J": 2,
    "J0": 0,
    "p": {"0": {"0": "2/5", "1": "3/5"}, "1": {"0": "3/5", "1": "2/5"}},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_enumerate_three_choices(capsys):
    code, doc = run_json(capsys, ["enumerate", "--J", "3", "--J0", "0"])
    assert code == EXIT_OK
    assert doc["count"] == 10
    assert [0, 1, 0] in doc["types"]


def test_enumerate_capacity_exit(capsys):
    assert run(["enumerate", "--J", "9", "--J0", "0", "--cap", "100"]) == EXIT_CAPACITY


def test_inequalities_count_and_full_flag(capsys):
    code, doc = run_json(capsys, ["inequalities", "--J", "3", "--J0", "1"])
    assert code == EXIT_OK and doc["count"] == 4
    code, doc = run_json(capsys, ["inequalities", "--J", "3", "--J0", "1", "--full"])
    assert code == EXIT_OK and doc["count"] == 12


def test_check_pass_and_fail(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", UNIFORM3)
    code, doc = run_json(capsys, ["check", "--input", good])
    assert code == EXIT_OK and doc["passed"] and doc["min_slack"] == "0"
    bad = write_json(tmp_path / "bad.json", VIOLATING2)
    code, doc = run_json(capsys, ["check", "--input", bad])
    assert code == EXIT_VERDICT and not doc["passed"]
    assert doc["violations"][0]["slack"] == "-1/5"


def test_check_stdout_matches_explicit_family(tmp_path, capsys):
    rng = Random(31)
    tables = [
        load_distribution(write_json(tmp_path / "uniform.json", UNIFORM3)),
        load_distribution(write_json(tmp_path / "violating.json", VIOLATING2)),
    ]
    for J, J0 in [(2, 0), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2), (5, 0)]:
        config = DesignConfig(J, J0)
        for _ in range(2):
            tables.append(feasible_table(config, rng))
            tables.append(pushforward(boundary_measure(config, rng)))
            tables.append(random_table(config, rng))
    violated = 0
    for i, P in enumerate(tables):
        path = write_json(tmp_path / f"t{i}.json", distribution_doc(P))
        want = check_by_family(P)
        code = run(["check", "--input", path])
        assert code == (EXIT_OK if want.passed else EXIT_VERDICT)
        out = capsys.readouterr().out
        assert out == json.dumps(report_doc(want), sort_keys=True, indent=2) + "\n"
        violated += bool(want.violations)
    assert violated >= 10


def test_check_answers_eight_choices(tmp_path, capsys):
    P = feasible_table(DesignConfig(8, 0), Random(37))
    path = write_json(tmp_path / "p.json", distribution_doc(P))
    code, doc = run_json(capsys, ["check", "--input", path])
    assert code == EXIT_OK
    assert doc["passed"] and doc["violations"] == []


def test_check_rejects_float_probabilities(tmp_path, capsys):
    doc = {"J": 2, "J0": 0, "p": {"0": {"0": 0.5, "1": 0.5}, "1": {"0": 0.5, "1": 0.5}}}
    path = write_json(tmp_path / "f.json", doc)
    assert run(["check", "--input", path]) == EXIT_INPUT


def test_construct_roundtrip_through_files(tmp_path, capsys):
    rng = Random(3)
    P = feasible_table(DesignConfig(3, 1), rng)
    src = write_json(tmp_path / "p.json", distribution_doc(P))
    out = tmp_path / "q.json"
    code, doc = run_json(capsys, ["construct", "--input", src, "--output", str(out)])
    assert code == EXIT_OK
    q = load_measure(str(out))
    from encdesign.core import pushforward

    assert pushforward(q).rows == P.rows
    assert doc["witness"]["mass"] == measure_doc(q)["mass"]


def test_construct_trace_on_infeasible(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", VIOLATING2)
    code, doc = run_json(capsys, ["construct", "--input", bad, "--trace"])
    assert code == EXIT_VERDICT
    assert not doc["trace"]["feasible"]
    assert "error" in doc
    code = run(["construct", "--input", bad])
    assert code == EXIT_VERDICT
    capsys.readouterr()


def test_lp_check(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", UNIFORM3)
    code, doc = run_json(capsys, ["lp-check", "--input", good])
    assert code == EXIT_OK and doc["feasible"] and "certificate" in doc
    bad = write_json(tmp_path / "bad.json", VIOLATING2)
    code, doc = run_json(capsys, ["lp-check", "--input", bad])
    assert code == EXIT_VERDICT and not doc["feasible"]


def test_outcome_commands(tmp_path, capsys):
    rng = Random(5)
    PY = feasible_outcome_table(DesignConfig(2, 1), (0, 1), rng)
    src = write_json(tmp_path / "py.json", distribution_doc(PY))
    code, doc = run_json(capsys, ["check-y", "--input", src])
    assert code == EXIT_OK and doc["passed"]
    out = tmp_path / "qy.json"
    code, doc = run_json(capsys, ["construct-y", "--input", src, "--output", str(out)])
    assert code == EXIT_OK
    qstar = load_outcome_measure(str(out))
    from encdesign.witness import pushforward_outcome

    assert pushforward_outcome(qstar).cells == PY.cells
    code, doc = run_json(capsys, ["lp-check-y", "--input", src])
    assert code == EXIT_OK and doc["feasible"]


def test_y_and_plain_commands_reject_wrong_table_kind(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", UNIFORM3)
    assert run(["check-y", "--input", good]) == EXIT_INPUT
    rng = Random(7)
    PY = feasible_outcome_table(DesignConfig(2, 0), (0, 1), rng)
    src = write_json(tmp_path / "py.json", distribution_doc(PY))
    assert run(["check", "--input", src]) == EXIT_INPUT
    capsys.readouterr()


def test_simulate_writes_csv_and_table(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, doc = run_json(
        capsys,
        ["simulate", "--J", "2", "--J0", "1", "--betas", "0,1.5", "--pz",
         "0.5,0.5", "--n", "4000", "--seed", "7", "--out", str(out)],
    )
    assert code == EXIT_OK
    assert doc["table"]["J"] == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "d,z"
    assert len(lines) == 4001
    data = read_csv(str(out), want_y=False)
    assert len(data) == 4000


def test_simulate_pz_length_mismatch(capsys):
    code = run(["simulate", "--J", "3", "--J0", "0", "--betas", "1,1,1",
                "--pz", "0.5,0.5", "--n", "10", "--seed", "1"])
    assert code == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("betas, choice", [("nan,1,1", 0), ("inf,1,1", 0), ("1,-inf,1", 1)])
def test_simulate_rejects_non_finite_sizes(capsys, betas, choice):
    code = run(["simulate", "--J", "3", "--betas", betas, "--pz", "1/3,1/3,1/3",
                "--n", "1000", "--seed", "1"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: encouragement size for choice {choice} is not finite\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--betas", "-inf,1,1", "encouragement size for choice 0 is not finite"),
        ("--betas", "-0.5,1,1", "encouragement size for choice 0 is negative"),
        ("--pz", "-1,1,1", "pz[0] must be strictly positive, got -1"),
    ],
)
@pytest.mark.parametrize("joined", [False, True])
def test_simulate_reads_negative_looking_values(capsys, option, value, message, joined):
    # "--betas -inf,1,1" must reach the input check like "--betas=-inf,1,1"
    args = {"--betas": "1,1,1", "--pz": "1/3,1/3,1/3", option: value}
    argv = ["simulate", "--J", "3", "--n", "100", "--seed", "1"]
    for name, v in args.items():
        argv += [f"{name}={v}"] if joined else [name, v]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_mixture_verify_rejects_draw_counts_below_one(tmp_path, capsys, n):
    src = tmp_path / "q.json"
    src.write_text(json.dumps(measure_doc(random_measure(DesignConfig(2, 1), Random(9)))))
    assert run(["mixture-verify", "--q", str(src), "--n", n, "--seed", "3"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: draw count must be at least 1\n"


def test_exact_commands_do_not_import_numpy(tmp_path):
    good = write_json(tmp_path / "good.json", UNIFORM3)
    commands = [
        ["check", "--input", good],
        ["construct", "--input", good, "--output", str(tmp_path / "q.json")],
        ["lp-check", "--input", good],
        ["enumerate", "--J", "3"],
    ]
    script = (
        "import sys\n"
        "from encdesign.cli import run\n"
        f"codes = [run(argv) for argv in {commands!r}]\n"
        "sys.stderr.write(repr((codes, 'numpy' in sys.modules)))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode() == repr(([EXIT_OK] * 4, False))


def test_mixture_verify_roundtrip(tmp_path, capsys):
    rng = Random(9)
    q = random_measure(DesignConfig(2, 1), rng)
    src = tmp_path / "q.json"
    src.write_text(json.dumps(measure_doc(q)))
    code, doc = run_json(
        capsys, ["mixture-verify", "--q", str(src), "--n", "20000", "--seed", "3"]
    )
    assert code == EXIT_OK
    assert doc["max_error"] <= 0.02


def test_test_command_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(11)
    n = 1500
    z = rng.integers(0, 2, n)
    u = rng.random(n)
    # violating table: P{D=1|Z=0} = 0.7 > P{D=1|Z=1} = 0.5
    d = np.where(z == 0, (u < 0.7).astype(np.int64), (u < 0.5).astype(np.int64))
    bad = tmp_path / "bad.csv"
    write_csv(MicroData(d, z), str(bad))
    code, doc = run_json(
        capsys,
        ["test", "--data", str(bad), "--J", "2", "--J0", "0", "--alpha", "0.05",
         "--B", "199", "--seed", "1"],
    )
    assert code == EXIT_VERDICT and doc["reject"]
    # compliant data
    d2 = np.where(z == 0, (u < 0.3).astype(np.int64), (u < 0.6).astype(np.int64))
    good = tmp_path / "good.csv"
    write_csv(MicroData(d2, z), str(good))
    code, doc = run_json(
        capsys,
        ["test", "--data", str(good), "--J", "2", "--J0", "0", "--B", "199",
         "--seed", "1"],
    )
    assert code == EXIT_OK and not doc["reject"]


def test_test_command_rejects_values_past_int64(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("d,z\n0,1\n99999999999999999999,0\n", encoding="utf-8")
    code = run(["test", "--data", str(path), "--J", "2", "--J0", "0", "--B", "99"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: row 1: d=99999999999999999999 is outside the int64 range\n"


def test_test_command_with_outcomes(tmp_path, capsys):
    rng = np.random.default_rng(31)
    n = 1200
    z = rng.integers(0, 2, n)
    d = z.copy()  # perfect compliance
    y = rng.integers(0, 2, n)
    path = tmp_path / "ydata.csv"
    write_csv(MicroData(d, z, y), str(path))
    code, doc = run_json(
        capsys,
        ["test", "--data", str(path), "--J", "2", "--J0", "0", "--y",
         "--B", "199", "--seed", "4"],
    )
    assert code == EXIT_OK and not doc["reject"]
    assert len(doc["slacks"]) == 5  # four pointwise plus one partition moment


def test_test_stdout_does_not_depend_on_blas_threads(tmp_path):
    # 531,477 moments at (4,0) with |Y| = 3: one BLAS gemv over all of
    # them split its rows differently with one and with two threads
    from perfbench import inputs

    config = DesignConfig(4, 0)
    y, d, z = inputs.outcome_rows(config, (0, 1, 2), 100_000, inputs.rng_for(11, 0, (4, 0, 3)))
    path = tmp_path / "y403.csv"
    inputs.write_rows_csv(str(path), y, d, z)
    src = str(Path(__file__).parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "encdesign.cli", "test", "--data", str(path),
             "--J", "4", "--J0", "0", "--y", "--B", "99", "--seed", "11"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode in (EXIT_OK, EXIT_VERDICT), proc.stderr
        outputs.append(proc.stdout)
    assert len(json.loads(outputs[0])["slacks"]) == 3 ** 12 + 36
    assert outputs[0] == outputs[1]


def test_usage_errors(capsys):
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["check"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_file_is_input_error(capsys):
    assert run(["check", "--input", "/nonexistent/x.json"]) == EXIT_INPUT
    capsys.readouterr()


def test_out_of_range_choice_keys_are_input_errors(tmp_path, capsys):
    for j_key in ("-1", "5"):
        doc = {
            "J": 2,
            "J0": 0,
            "p": {"0": {"0": "1", j_key: "0"}, "1": {"0": "1"}},
        }
        path = write_json(tmp_path / f"j{j_key}.json", doc)
        assert run(["check", "--input", path]) == EXIT_INPUT
    capsys.readouterr()


def test_zero_denominator_is_input_error(tmp_path, capsys):
    doc = {"J": 2, "J0": 0, "p": {"0": {"0": "1/0", "1": "0"}, "1": {"0": "1"}}}
    path = write_json(tmp_path / "zd.json", doc)
    assert run(["check", "--input", path]) == EXIT_INPUT
    capsys.readouterr()


def test_stdout_is_byte_identical_across_invocations(tmp_path, capsys):
    src = write_json(tmp_path / "p.json", UNIFORM3)
    run(["construct", "--input", src, "--trace"])
    first = capsys.readouterr().out
    run(["construct", "--input", src, "--trace"])
    second = capsys.readouterr().out
    assert first == second
    run(["simulate", "--J", "2", "--J0", "0", "--betas", "1,1", "--pz", "1/2,1/2",
         "--n", "500", "--seed", "3"])
    first = capsys.readouterr().out
    run(["simulate", "--J", "2", "--J0", "0", "--betas", "1,1", "--pz", "1/2,1/2",
         "--n", "500", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_serialization_roundtrips_exactly(tmp_path):
    rng = Random(13)
    for J, J0 in [(2, 0), (3, 1), (3, 2)]:
        config = DesignConfig(J, J0)
        P = feasible_table(config, rng)
        path = write_json(tmp_path / f"p{J}{J0}.json", distribution_doc(P))
        assert load_distribution(path).rows == P.rows
        PY = feasible_outcome_table(config, (0, 1), rng)
        path = write_json(tmp_path / f"py{J}{J0}.json", distribution_doc(PY))
        assert load_distribution(path).cells == PY.cells
        q = random_measure(config, rng)
        path = tmp_path / f"q{J}{J0}.json"
        path.write_text(json.dumps(measure_doc(q)))
        assert load_measure(str(path)).mass == q.mass
        qy = random_outcome_measure(config, (0, 1), rng)
        path = tmp_path / f"qy{J}{J0}.json"
        path.write_text(json.dumps(outcome_measure_doc(qy)))
        assert load_outcome_measure(str(path)).mass == qy.mass


def test_csv_roundtrip_with_outcomes(tmp_path):
    data = MicroData(
        np.array([0, 1, 1]), np.array([0, 1, 0]), np.array([5, 2, 5])
    )
    path = tmp_path / "rows.csv"
    write_csv(data, str(path))
    assert path.read_text().splitlines()[0] == "y,d,z"
    back = read_csv(str(path), want_y=True)
    assert back.d.tolist() == [0, 1, 1]
    assert back.z.tolist() == [0, 1, 0]
    assert back.y.tolist() == [5, 2, 5]


def test_pz_survives_distribution_roundtrip(tmp_path):
    config = DesignConfig(2, 1)
    P = ObservedDistribution(
        config,
        {0: (F(1, 2), F(1, 2)), 1: (F(1, 4), F(3, 4))},
        pz={0: F(1, 3), 1: F(2, 3)},
    )
    path = write_json(tmp_path / "pz.json", distribution_doc(P))
    back = load_distribution(path)
    assert back.pz == P.pz
