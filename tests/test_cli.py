"""Command-line surface: subcommands, file formats, exit codes, and
deterministic output."""

import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from encdesign import admissible, stats
from encdesign.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    _build_parser,
    distribution_doc,
    load_distribution,
    load_measure,
    measure_doc,
    outcome_measure_doc,
    read_csv,
    report_doc,
    run,
    write_csv,
)
from encdesign.core import DesignConfig, pushforward
from encdesign.simulate import MicroData
from helpers import (
    boundary_measure,
    check_by_family,
    feasible_outcome_table,
    feasible_table,
    load_outcome_measure,
    outcome_table_doc,
    random_measure,
    random_outcome_measure,
    random_outcome_table,
    random_table,
)
from helpers import test_model_by_specs as model_test_by_specs
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


def test_enumerate_capacity_exit(monkeypatch, capsys):
    monkeypatch.setattr(admissible, "ENUMERATION_CAP", 100)
    assert run(["enumerate", "--J", "9", "--J0", "0"]) == EXIT_CAPACITY


@pytest.mark.parametrize(
    "argv, message",
    [
        # the selector family is refused on its second factor: listing
        # every targeted set first peaked at about 607 MB
        (["inequalities", "--J", "4000"], "family would hold more than 1000000 inequalities"),
        # J * 2^(J-1) has over 30,000 digits here, too many to format as text
        (["enumerate", "--J", "100000"], "enumeration would emit more than 1000000 types"),
    ],
)
def test_capacity_checks_build_no_large_integer(capsys, argv, message):
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CAPACITY and peak < 5e6, peak
    assert capsys.readouterr().err == f"capacity error: {message}\n"


UNIFORM24 = {"J": 24, "p": {str(z): {str(j): "1/24" for j in range(24)} for z in range(24)}}
NO_COMPLIER8 = {"J": 8, "p": {str(z): {str(j): "0" if j == z else "1/7" for j in range(8)} for z in range(8)}}
UNIFORM6_Y6 = {
    "J": 6,
    "y_support": list(range(6)),
    "p": {str(z): {str(j): {str(y): "1/36" for y in range(6)} for j in range(6)} for z in range(6)},
}


@pytest.mark.parametrize(
    "doc, argv, code, message",
    [
        (UNIFORM24, ["lp-check"], EXIT_CAPACITY, "capacity error: LP basis inverse could hold 306362 entries (553 rows), cap is 200000"),
        (UNIFORM24, ["check"], EXIT_OK, None),
        (UNIFORM24, ["construct"], EXIT_OK, None),
        (NO_COMPLIER8, ["check"], EXIT_CAPACITY, "capacity error: check would emit more than 1000000 violations"),
        (NO_COMPLIER8, ["construct"], EXIT_VERDICT, None),
        (NO_COMPLIER8, ["lp-check"], EXIT_VERDICT, None),
        (UNIFORM6_Y6, ["construct"], EXIT_CAPACITY, "capacity error: witness table would hold up to 8724672 entries, cap is 1000000"),
        # 17 * 2^16 - 16 = 1,114,096 types
        (None, ["enumerate", "--J", "17"], EXIT_CAPACITY, "capacity error: enumeration would emit more than 1000000 types"),
        # the cap is a constant, not an option
        (None, ["enumerate", "--J", "3", "--cap", "5"], EXIT_USAGE, "usage error: unrecognized arguments: --cap 5"),
    ],
    ids=["u24-lp", "u24-check", "u24-construct", "v8-check", "v8-construct", "v8-lp", "y6-construct",
         "e17-enumerate", "e3-cap-option"],
)
def test_shipped_caps_refuse_at_their_values(tmp_path, capsys, doc, argv, code, message):
    # every other refusal test lowers a cap; these tables meet the LP's
    # store cap, check's violation cap and the outcome witness's table cap
    # at their shipped values, and the other oracles still answer;
    # enumerate meets its cap at J = 17
    if doc is not None:
        argv = [*argv, "--input", write_json(tmp_path / "table.json", doc)]
    assert run(argv) == code
    err = capsys.readouterr().err
    if message is None:
        assert "capacity error" not in err
    else:
        assert err == f"{message}\n"


def test_pairwise_base_family_is_refused_before_any_spec(monkeypatch, capsys):
    # 1001 * 1001 pairs at (1002, 1): past the cap of 10^6 members
    from encdesign import inequalities

    def no_spec(*args, **kwargs):
        raise AssertionError("a spec was built")

    monkeypatch.setattr(inequalities, "InequalitySpec", no_spec)
    assert run(["inequalities", "--J", "1002", "--J0", "1"]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "capacity error: family would hold more than 1000000 inequalities\n"


def test_memory_error_is_a_capacity_error(monkeypatch, capsys):
    # no real allocation: whether a huge one fails at once depends on the
    # host's overcommit setting
    from encdesign import simulate

    def too_large(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(simulate, "simulate", too_large)
    argv = ["simulate", "--J", "3", "--betas", "1,1,1", "--pz", "1/3,1/3,1/3",
            "--n", "1000000000000", "--seed", "1"]
    assert run(argv) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "capacity error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"
    )


@pytest.mark.parametrize("command", ["inequalities", "mixture-verify"])
def test_integers_too_large_for_a_c_integer_are_input_errors(tmp_path, capsys, command):
    huge = "99999999999999999999"
    if command == "inequalities":
        argv = ["inequalities", "--J", huge]
    else:
        argv = _seeded_argv(tmp_path, command) + ["--n", huge, "--seed", "1"]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "too large" in captured.err


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
    src = write_json(tmp_path / "py.json", outcome_table_doc(PY))
    code, doc = run_json(capsys, ["check", "--input", src])
    assert code == EXIT_OK and doc["passed"]
    out = tmp_path / "qy.json"
    code, doc = run_json(capsys, ["construct", "--input", src, "--output", str(out)])
    assert code == EXIT_OK
    qstar = load_outcome_measure(str(out))
    from encdesign.witness import pushforward_outcome

    assert pushforward_outcome(qstar).cells == PY.cells
    code, doc = run_json(capsys, ["lp-check", "--input", src])
    assert code == EXIT_OK and doc["feasible"]


def test_exact_commands_read_the_table_kind_from_the_file(tmp_path, capsys):
    from encdesign.inequalities import check_outcome
    from encdesign.lp import feasible_outcome
    from encdesign.witness import construct_outcome

    rng = Random(7)
    config = DesignConfig(2, 0)
    codes = set()
    for name, PY in [
        ("feasible", feasible_outcome_table(config, (0, 1), rng)),
        ("random", random_outcome_table(config, (0, 1), rng)),
    ]:
        src = write_json(tmp_path / f"{name}.json", outcome_table_doc(PY))
        report = check_outcome(PY)
        code = run(["check", "--input", src])
        assert code == (EXIT_OK if report.passed else EXIT_VERDICT)
        assert capsys.readouterr().out == json.dumps(report_doc(report), sort_keys=True, indent=2) + "\n"
        codes.add(code)

        if report.passed:
            out = tmp_path / f"{name}-q.json"
            witness = outcome_measure_doc(construct_outcome(PY))
            assert run(["construct", "--input", src, "--output", str(out)]) == EXIT_OK
            assert capsys.readouterr().out == json.dumps({"witness": witness}, sort_keys=True, indent=2) + "\n"
            assert out.read_text(encoding="utf-8") == json.dumps(witness, sort_keys=True, indent=2) + "\n"
        else:
            assert run(["construct", "--input", src]) == EXIT_VERDICT
            assert capsys.readouterr().out == ""

        ok = feasible_outcome(PY)
        assert run(["lp-check", "--input", src]) == (EXIT_OK if ok else EXIT_VERDICT)
        assert capsys.readouterr().out == json.dumps({"feasible": ok}, sort_keys=True, indent=2) + "\n"

        assert run(["construct", "--input", src, "--trace"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --trace needs a treatment table\n"
        for command in ("check-y", "construct-y", "lp-check-y"):
            assert run([command, "--input", src]) == EXIT_USAGE
            assert "invalid choice" in capsys.readouterr().err
    assert codes == {EXIT_OK, EXIT_VERDICT}


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


def _seeded_argv(tmp_path, command):
    """A small valid call of a seeded command, without its seed."""
    if command == "simulate":
        return ["simulate", "--J", "2", "--betas", "1,1", "--pz", "1/2,1/2", "--n", "100"]
    if command == "mixture-verify":
        src = tmp_path / "q.json"
        src.write_text(json.dumps(measure_doc(random_measure(DesignConfig(2, 1), Random(9)))))
        return ["mixture-verify", "--q", str(src), "--n", "100"]
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    write_csv(MicroData(rng.integers(0, 2, 200), rng.integers(0, 2, 200)), str(data))
    return ["test", "--data", str(data), "--J", "2", "--B", "99"]


SEEDED_COMMANDS = ["simulate", "mixture-verify", "test"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_seeds_outside_64_bits_are_input_errors(tmp_path, capsys, command, seed):
    assert run(_seeded_argv(tmp_path, command) + ["--seed", seed]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: seed must be a 64-bit unsigned integer\n"


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_largest_64_bit_seed_is_accepted(tmp_path, capsys, command):
    code, doc = run_json(capsys, _seeded_argv(tmp_path, command) + ["--seed", str(2**64 - 1)])
    assert code in (EXIT_OK, EXIT_VERDICT)
    assert doc["seed"] == 2**64 - 1


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


def test_mixture_verify_refuses_an_outcome_witness(tmp_path, capsys):
    # construct --output writes an outcome witness for a table with
    # y_support; its keys "d|y" are not the treatment witness's "d"
    row = {"0": {"0": "1/2"}, "1": {"1": "1/2"}}
    src = write_json(tmp_path / "py.json", {"J": 2, "y_support": [0, 1], "p": {"0": row, "1": row}})
    witness = tmp_path / "qy.json"
    assert run(["construct", "--input", src, "--output", str(witness)]) == EXIT_OK
    assert "|" in next(iter(json.loads(witness.read_text())["mass"]))
    capsys.readouterr()
    assert run(["mixture-verify", "--q", str(witness), "--n", "100", "--seed", "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: a treatment witness is needed, not an outcome witness (it has y_support)\n"
    )


@pytest.mark.parametrize("rows", [1, 5, 30, None])
def test_test_prints_the_sign_of_a_zero_critical_value(tmp_path, capsys, monkeypatch, rows):
    # every unit takes d = z, so every draw of every moment is 0.0 or
    # -0.0 and each bootstrap maximum is the last zero in moment order:
    # at (4,0) with seed 14 the critical value is -0.0. The 81 selector
    # moments fall into groups of ``rows`` rows of sums or the default.
    z = np.repeat(np.arange(4), 20)
    data = MicroData(z.copy(), z)
    path = tmp_path / "d.csv"
    write_csv(data, str(path))
    if rows:
        monkeypatch.setattr(stats, "_CHUNK_DOUBLES", 105 * rows)
    want = model_test_by_specs(data, DesignConfig(4, 0), B=99, seed=14)
    assert str(want.critical_value) == "-0.0"
    argv = ["test", "--data", str(path), "--J", "4", "--B", "99", "--seed", "14"]
    for moments, doc in (([], want.summary_dict()), (["--moments"], want.to_dict())):
        assert run(argv + moments) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("quoted", [False, True])
def test_test_command_reports_oversized_csv_fields_as_input_errors(tmp_path, capsys, quoted):
    # csv.reader refuses a field longer than csv.field_size_limit()
    field = "7" * 200_000
    if quoted:
        field = f'"{field}"'
    path = tmp_path / "big.csv"
    path.write_text(f"d,z\n0,1\n{field},0\n", encoding="utf-8")
    assert run(["test", "--data", str(path), "--J", "2", "--B", "99"]) == EXIT_INPUT
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"input error: field larger than field limit ({limit})\n"


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
         "--B", "199", "--seed", "4", "--moments"],
    )
    assert code == EXIT_OK and not doc["reject"]
    assert len(doc["slacks"]) == 5  # four pointwise plus one partition moment


def test_test_on_a_wide_outcome_alphabet_is_capacity_error(tmp_path, capsys):
    # 20,000 distinct outcomes: the partition family would hold 3^80,000
    # members, a number too long to format as text
    n = 20_000
    rng = np.random.default_rng(5)
    path = tmp_path / "wide.csv"
    write_csv(MicroData(rng.integers(0, 4, n), np.arange(n) % 4, np.arange(n)), str(path))
    code = run(["test", "--data", str(path), "--J", "4", "--J0", "0", "--y", "--B", "99"])
    captured = capsys.readouterr()
    assert code == EXIT_CAPACITY
    assert captured.err == "capacity error: family would hold more than 1000000 inequalities\n"
    assert captured.out == ""


def test_test_stdout_does_not_depend_on_blas_threads(tmp_path):
    # 531,477 moments at (4,0) with |Y| = 3: one BLAS gemv over all of
    # them once split its rows differently with one and with two threads;
    # test now sums every moment in a fixed order and calls no BLAS
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
             "--J", "4", "--J0", "0", "--y", "--B", "99", "--seed", "11", "--moments"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode in (EXIT_OK, EXIT_VERDICT), proc.stderr
        outputs.append(proc.stdout)
    assert len(json.loads(outputs[0])["slacks"]) == 3 ** 12 + 36
    assert outputs[0] == outputs[1]


def test_default_outcome_test_memory_is_bounded(tmp_path, capsys):
    # (4,0) with |Y| = 3: 531,477 moments. The summary reads counts and
    # one argmax from the report's arrays; printing every moment as JSON
    # peaked at about 120 MB
    from perfbench import inputs

    config = DesignConfig(4, 0)
    y, d, z = inputs.outcome_rows(config, (0, 1, 2), 100_000, inputs.rng_for(11, 0, (4, 0, 3)))
    path = tmp_path / "y403.csv"
    inputs.write_rows_csv(str(path), y, d, z)
    argv = ["test", "--data", str(path), "--J", "4", "--J0", "0", "--y", "--B", "99", "--seed", "11"]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert code in (EXIT_OK, EXIT_VERDICT)
    assert doc["moment_count"] == 3 ** 12 + 36 and "slacks" not in doc
    assert peak < 60e6, peak


def test_moments_outcome_test_memory_is_bounded(tmp_path, capsys):
    # the same test with --moments: json.dump streams the report's lists
    # to the capture, which holds the 32.6 MB of JSON; the peak is about
    # 89 MB (building the whole text with json.dumps first peaked at 207 MB)
    from perfbench import inputs

    config = DesignConfig(4, 0)
    y, d, z = inputs.outcome_rows(config, (0, 1, 2), 100_000, inputs.rng_for(11, 0, (4, 0, 3)))
    path = tmp_path / "y403.csv"
    inputs.write_rows_csv(str(path), y, d, z)
    argv = ["test", "--data", str(path), "--J", "4", "--J0", "0", "--y", "--B", "99", "--seed", "11", "--moments"]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert code in (EXIT_OK, EXIT_VERDICT)
    assert len(doc["slacks"]) == len(doc["floored"]) == 3 ** 12 + 36
    assert peak < 125e6, peak


def test_usage_errors(capsys):
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["check"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_file_is_input_error(capsys):
    assert run(["check", "--input", "/nonexistent/x.json"]) == EXIT_INPUT
    capsys.readouterr()


def test_malformed_outcome_table_is_input_error(tmp_path, capsys):
    row = {"0": {"0": "1/2"}, "1": {"1": "1/2", "5": "0"}}
    doc = {"J": 2, "J0": 0, "y_support": [0, 1], "p": {"0": row, "1": row}}
    assert run(["check", "--input", write_json(tmp_path / "py.json", doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: outcome 5 not in support at z=0\n"


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


@pytest.mark.parametrize(
    "command, option, doc, message",
    [
        ("check", "--input", {"J": 2, "J0": 0, "p": []}, "p must be a JSON object, got list"),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "p": {"0": "1", "1": {"0": "1"}}},
            'p["0"] must be a JSON object, got str',
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "pz": ["1/2", "1/2"], "p": {"0": {"0": "1"}, "1": {"0": "1"}}},
            "pz must be a JSON object, got list",
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "y_support": [0, 1], "p": {"0": {"0": "1"}, "1": {"0": {"0": "1"}}}},
            'p["0"]["0"] must be a JSON object, got str',
        ),
        (
            "mixture-verify",
            "--q",
            {"J": 2, "J0": 1, "mass": [["0,1", "1"]]},
            "mass must be a JSON object, got list",
        ),
        ("check", "--input", ["J", 2], "the top level must be a JSON object, got list"),
        (
            "check",
            "--input",
            {"J": 2.7, "J0": 0, "p": {"0": {"0": "1"}, "1": {"0": "1"}}},
            "J must be a JSON integer, got float",
        ),
        (
            "check",
            "--input",
            {"J": True, "J0": 0, "p": {"0": {"0": "1"}, "1": {"0": "1"}}},
            "J must be a JSON integer, got bool",
        ),
        (
            "mixture-verify",
            "--q",
            {"J": 2, "J0": 1.0, "mass": {"0,1": "1"}},
            "J0 must be a JSON integer, got float",
        ),
        (
            "check",
            "--input",
            {
                "J": 2,
                "J0": 0,
                "y_support": "01",
                "p": {"0": {"0": {"0": "1"}}, "1": {"0": {"0": "1"}}},
            },
            "y_support must be a JSON list, got str",
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "p": {"0": {"0": "1"}, "00": {"0": "1"}, "1": {"0": "1"}}},
            'p keys "0" and "00" both read as 0',
        ),
        (
            "mixture-verify",
            "--q",
            {"J": 2, "J0": 1, "mass": {"0,1": "1/2", "00,1": "1/2"}},
            'mass keys "0,1" and "00,1" both read as (0, 1)',
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "pz": {"0": "1"}, "p": {"0": {"0": "1"}, "1": {"1": "1"}}},
            "pz missing instrument value 1",
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "pz": {"0": "1/2", "1": "1/2", "2": "1"}, "p": {"0": {"0": "1"}, "1": {"1": "1"}}},
            "pz has entries outside the instrument support",
        ),
        (
            "check",
            "--input",
            {"J": 2, "J0": 0, "pz": {"0": "1", "1": "0"}, "p": {"0": {"0": "1"}, "1": {"0": "1"}}},
            "pz[1] must be strictly positive, got 0",
        ),
    ],
    ids=[
        "p",
        "row",
        "pz",
        "outcome-map",
        "mass",
        "top-level",
        "J-float",
        "J-bool",
        "J0-float",
        "y_support-str",
        "repeated-row",
        "repeated-type",
        "pz-missing",
        "pz-outside",
        "pz-non-positive",
    ],
)
def test_non_object_json_fields_are_input_errors(tmp_path, capsys, command, option, doc, message):
    path = write_json(tmp_path / "doc.json", doc)
    argv = [command, option, path]
    if command == "mixture-verify":
        argv += ["--n", "10", "--seed", "1"]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_key_written_twice_is_input_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"J": 2, "J0": 0, "p": {"0": {"0": "1"}, "0": {"1": "1"}, "1": {"0": "1"}}}')
    assert run(["check", "--input", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'input error: key "0" appears twice in one JSON object\n'


@pytest.mark.parametrize(
    "command,option",
    [("check", "--input"), ("construct", "--input"), ("lp-check", "--input"), ("mixture-verify", "--q")],
)
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command, option):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, option, str(path)]
    if command == "mixture-verify":
        argv += ["--n", "10", "--seed", "1"]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: the JSON document is nested too deeply\n"


def test_mixture_verify_answers_the_full_compliance_witness_at_j26(tmp_path, capsys):
    # the full-compliance diagonal at J = 26, whose region box rejection
    # hits less than once in 10**6 proposals: it is certified from its
    # constraints, with nothing sampled
    d = tuple(range(26))
    path = write_json(tmp_path / "q.json", {"J": 26, "mass": {",".join(map(str, d)): "1"}})
    start = time.perf_counter()
    code = run(["mixture-verify", "--q", path, "--n", "10", "--seed", "1"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    captured = capsys.readouterr()
    betas = ",\n".join(["    1.0"] * 26)
    assert captured.out == (
        f'{{\n  "betas": [\n{betas}\n  ],\n  "bound": 32.0,\n  "max_error": 0.0,\n'
        '  "n": 10,\n  "seed": 1\n}\n'
    )
    assert captured.err == ""
    assert elapsed < 1.0, elapsed


def test_zero_denominator_is_input_error(tmp_path, capsys):
    doc = {"J": 2, "J0": 0, "p": {"0": {"0": "1/0", "1": "0"}, "1": {"0": "1"}}}
    path = write_json(tmp_path / "zd.json", doc)
    assert run(["check", "--input", path]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"J": 10**6, "p": {"0": {"0": "1"}}}, "missing row for instrument value 1"),
        ({"J": 10**6, "y_support": [0], "p": {"0": {"0": {"0": "1"}}}}, "missing slice for instrument value 1"),
        ({"J": 10**7, "p": {"0": {"0": "1"}}}, "missing row for instrument value 1"),
        ({"J": 10**7, "y_support": [0], "p": {"0": {"0": {"0": "1"}}}}, "missing slice for instrument value 1"),
        # a key fault is named before a fault inside a row
        ({"J": 3, "p": {"0": {"0": "1", "7": "0"}, "1": {"1": "1"}}}, "missing row for instrument value 2"),
        # and before a fault inside a slice
        ({"J": 3, "y_support": [0], "p": {"0": {"0": {"0": 0.5}}}}, "missing slice for instrument value 1"),
    ],
    ids=[
        "treatment", "outcome", "treatment-1e7", "outcome-1e7", "key-and-choice-faults",
        "key-and-float-faults",
    ],
)
@pytest.mark.parametrize("command", ["check", "construct", "lp-check"])
def test_a_missing_instrument_key_is_named_before_any_row_is_built(tmp_path, capsys, doc, message, command):
    # a one-row file at J = 10^6 once built and checked its whole padded
    # row (or a J x |Y| slice) first: 1.3 to 4.4 s per call. At J = 10^7
    # the support tuple and the padded row alone took 0.45 to 0.88 s and
    # 400 to 552 MB; the keys are now checked over range(J0, J) first
    path = write_json(tmp_path / "one_row.json", doc)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = run([command, "--input", path])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err == f"input error: {message}\n"
    assert elapsed < 1.0, elapsed
    assert peak < 1e6, peak


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


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_runs_in_one_process_share_no_state(monkeypatch, tmp_path, capsys):
    # run reuses one parser; each call must still see only its own
    # arguments and the declared defaults
    src = write_json(tmp_path / "p.json", UNIFORM3)
    code, doc = run_json(capsys, ["construct", "--input", src, "--trace"])
    assert code == EXIT_OK and "trace" in doc
    code, doc = run_json(capsys, ["construct", "--input", src])
    assert code == EXIT_OK and sorted(doc) == ["witness"]

    assert run(["check"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    code, doc = run_json(capsys, ["check", "--input", src])
    assert code == EXIT_OK and doc["passed"]

    monkeypatch.setattr(admissible, "ENUMERATION_CAP", 100)
    assert run(["enumerate", "--J", "9"]) == EXIT_CAPACITY
    capsys.readouterr()
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    write_csv(MicroData(rng.integers(0, 2, 200), rng.integers(0, 2, 200)), str(data))
    for flag, has_moments in (["--moments"], True), ([], False):
        code, doc = run_json(capsys, ["test", "--data", str(data), "--J", "2", "--B", "99", *flag])
        assert code in (EXIT_OK, EXIT_VERDICT) and ("slacks" in doc) == has_moments
    parse = _build_parser().parse_args
    assert vars(parse(["enumerate", "--J", "3"])) == {"command": "enumerate", "J": 3, "J0": 0}
    assert parse(["simulate", "--J", "2", "--betas", "1,1", "--pz", "1/2,1/2", "--n", "5",
                  "--seed", "1", "--eps", "normal"]).eps == "normal"
    args = parse(["simulate", "--J", "2", "--betas", "1,1", "--pz", "1/2,1/2", "--n", "5",
                  "--seed", "1"])
    assert (args.eps, args.J0, args.out) == ("gumbel", 0, None)


def test_serialization_roundtrips_exactly(tmp_path):
    rng = Random(13)
    for J, J0 in [(2, 0), (3, 1), (3, 2)]:
        config = DesignConfig(J, J0)
        P = feasible_table(config, rng)
        path = write_json(tmp_path / f"p{J}{J0}.json", distribution_doc(P))
        assert load_distribution(path).rows == P.rows
        PY = feasible_outcome_table(config, (0, 1), rng)
        path = write_json(tmp_path / f"py{J}{J0}.json", outcome_table_doc(PY))
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


@pytest.mark.parametrize("kind", ["treatment", "outcome"])
def test_a_valid_pz_leaves_the_exact_commands_output_unchanged(tmp_path, capsys, kind):
    # a file's instrument marginal is checked and dropped: the exact
    # commands print the same bytes and write the same witness with it as
    # without it, on a feasible and on an infeasible table
    rng = Random(29)
    config = DesignConfig(3, 1)
    if kind == "treatment":
        tables = [distribution_doc(feasible_table(config, rng)), distribution_doc(random_table(config, rng))]
    else:
        tables = [
            outcome_table_doc(feasible_outcome_table(config, (0, 1), rng)),
            outcome_table_doc(random_outcome_table(config, (0, 1), rng)),
        ]
    pz = {"0": "1/6", "1": "1/3", "2": "1/2"}
    for i, doc in enumerate(tables):
        plain = write_json(tmp_path / f"t{i}.json", doc)
        with_pz = write_json(tmp_path / f"t{i}_pz.json", {**doc, "pz": pz})
        for command in ("check", "construct", "lp-check"):
            outputs = []
            for src in (plain, with_pz):
                argv = [command, "--input", src]
                if command == "construct":
                    argv += ["--output", str(tmp_path / "q.json")]
                code = run(argv)
                captured = capsys.readouterr()
                written = (tmp_path / "q.json").read_bytes() if code == EXIT_OK and command == "construct" else None
                (tmp_path / "q.json").unlink(missing_ok=True)
                outputs.append((code, captured.out, captured.err, written))
            assert outputs[0] == outputs[1], (kind, i, command)
