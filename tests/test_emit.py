"""The CLI's JSON output: the stdout and ``--output`` files of every
subcommand are the text of ``json.dumps(sort_keys=True, indent=2)``.
``test --moments`` prints every field of the report, and the default
summary agrees with it."""

import io
import json
from pathlib import Path
from random import Random

import numpy as np

from encdesign import cli
from encdesign.cli import EXIT_OK, EXIT_VERDICT, distribution_doc, run, write_csv
from encdesign.core import DesignConfig
from encdesign.simulate import MicroData
from helpers import (
    feasible_outcome_table,
    feasible_table,
    outcome_table_doc,
    random_table,
    report_doc_by_fields,
)
from helpers import test_model_by_specs as model_test_by_specs


def _same_text(got: str, want: str) -> None:
    """Assert two texts are equal, naming the first difference (pytest's
    own diff of texts this long takes minutes)."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        start = max(at - 30, 0)
        raise AssertionError(f"texts differ at {at}: {got[start:at + 30]!r} != {want[start:at + 30]!r}")


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _invocations(tmp_path) -> list:
    """Every subcommand on fixed inputs, with the files each one writes."""
    rng = Random(17)
    good = _write_json(tmp_path / "good.json", distribution_doc(feasible_table(DesignConfig(3, 1), rng)))
    bad = _write_json(tmp_path / "bad.json", distribution_doc(random_table(DesignConfig(4, 0), Random(2))))
    outcome = _write_json(
        tmp_path / "py.json",
        outcome_table_doc(feasible_outcome_table(DesignConfig(2, 1), (0, 1, 2), rng)),
    )
    q, qy = str(tmp_path / "q.json"), str(tmp_path / "qy.json")
    csv, ycsv = str(tmp_path / "d.csv"), str(tmp_path / "y.csv")
    data = np.random.default_rng(5)
    z = data.integers(0, 3, 3000)
    write_csv(MicroData(np.where(data.random(3000) < 0.5, z, data.integers(0, 3, 3000)), z,
                        data.integers(0, 4, 3000)), ycsv)
    return [
        (["enumerate", "--J", "4", "--J0", "1"], []),
        (["inequalities", "--J", "3", "--J0", "1", "--full"], []),
        (["check", "--input", good], []),
        (["check", "--input", bad], []),
        (["lp-check", "--input", good], []),
        (["lp-check", "--input", bad], []),
        (["construct", "--input", good, "--output", q, "--trace"], [q]),
        (["construct", "--input", bad, "--trace"], []),
        (["check", "--input", outcome], []),
        (["construct", "--input", outcome, "--output", qy], [qy]),
        (["lp-check", "--input", outcome], []),
        (["mixture-verify", "--q", q, "--n", "5000", "--seed", "2"], []),
        (["simulate", "--J", "3", "--betas", "1,0.5,2", "--pz", "1/3,1/3,1/3", "--n", "4000",
          "--seed", "3", "--out", csv], []),
        (["test", "--data", csv, "--J", "3", "--B", "99", "--seed", "1", "--moments"], []),
        # (3,0) with |Y| = 4: 4,120 moments
        (["test", "--data", ycsv, "--J", "3", "--y", "--B", "99", "--seed", "1", "--moments"], []),
    ]


def test_every_subcommand_writes_the_oracles_bytes(tmp_path, capsys):
    # stdout and every --output file hold the text that
    # json.dumps(sort_keys=True, indent=2) writes, and a line end
    texts = []
    for argv, files in _invocations(tmp_path):
        assert run(argv) in (EXIT_OK, EXIT_VERDICT), argv
        texts.append(capsys.readouterr().out)
        texts.extend(Path(f).read_text(encoding="utf-8") for f in files)
    for text in texts:
        _same_text(text, json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    assert len(json.loads(texts[-1])["slacks"]) == 4**6 + 24


def _test_calls(tmp_path, capsys) -> list:
    """The ``test`` invocations without ``--moments``, with their parsed
    arguments: one treatment test, on the CSV that ``simulate`` writes
    first, and one outcome test."""
    invocations = _invocations(tmp_path)
    for argv, _ in invocations:
        if argv[0] == "simulate":
            assert run(argv) == EXIT_OK
    capsys.readouterr()
    argvs = [argv[:-1] for argv, _ in invocations if argv[0] == "test" and argv[-1] == "--moments"]
    assert len(argvs) == 2
    return [(argv, cli._build_parser().parse_args(argv)) for argv in argvs]


def _report_by_specs(args):
    data = cli.read_csv(args.data, want_y=args.y)
    return model_test_by_specs(data, DesignConfig(args.J, args.J0), alpha=args.alpha, B=args.B, seed=args.seed)


def test_moments_flag_prints_every_report_field(tmp_path, capsys):
    # the document test printed by default before its summary, byte for byte
    for argv, args in _test_calls(tmp_path, capsys):
        assert run(argv + ["--moments"]) in (EXIT_OK, EXIT_VERDICT)
        want = json.dumps(report_doc_by_fields(_report_by_specs(args)), sort_keys=True, indent=2) + "\n"
        _same_text(capsys.readouterr().out, want)


def test_summary_is_the_verdict_with_counts_and_the_binding_moment(tmp_path, capsys):
    for argv, args in _test_calls(tmp_path, capsys):
        docs = []
        for extra in ([], ["--moments"]):
            assert run(argv + extra) in (EXIT_OK, EXIT_VERDICT)
            docs.append(json.loads(capsys.readouterr().out))
        summary, full = docs
        counts = {"moment_count", "floored_count", "binding"}
        moments = {"slacks", "standard_errors", "floored"}
        assert set(summary) - counts == set(full) - moments
        assert all(summary[key] == full[key] for key in set(summary) - counts)

        report = _report_by_specs(args)
        assert summary["moment_count"] == len(report.slacks) == len(full["slacks"])
        assert summary["floored_count"] == int(report.floored.sum()) == sum(full["floored"])
        studentized = [-s / e for s, e in zip(full["slacks"], full["standard_errors"])]
        assert summary["binding"] == studentized.index(max(studentized))
        assert studentized[summary["binding"]] == summary["statistic"] == report.statistic


def test_write_json_batches_the_encoders_chunks_into_the_same_text():
    # more than three batches of 4096 chunks, the last one short, over
    # nested objects, lists, strings, floats and empty containers
    doc = {
        "rows": [{"z": z, "p": [f"{j}/7" for j in range(3)], "w": z / 7} for z in range(1500)],
        "empty": [{}, []],
        "b": True,
        "none": None,
    }
    chunks = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc))
    assert chunks > 3 * 4096 and chunks % 4096
    out = io.StringIO()
    cli._write_json(doc, out)
    _same_text(out.getvalue(), json.dumps(doc, sort_keys=True, indent=2) + "\n")
