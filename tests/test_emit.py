"""The CLI's JSON writer ``cli.dumps`` against its oracle, the stdlib
``json.dumps(sort_keys=True, indent=2)``: on generated documents, on
float lists on both sides of the bulk threshold, and on the stdout and
``--output`` files of every subcommand. ``test --moments`` prints every
field of the report, and the default summary agrees with it."""

import json
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encdesign import cli, stats
from encdesign.cli import BULK_FLOATS, EXIT_OK, EXIT_VERDICT, distribution_doc, dumps, run, write_csv
from encdesign.core import DesignConfig
from encdesign.simulate import MicroData
from helpers import (
    dumps_by_json,
    feasible_outcome_table,
    feasible_table,
    random_table,
    report_doc_by_fields,
)
from helpers import test_model_by_specs as model_test_by_specs

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    FLOATS,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.text(),
)
# lists of one scalar type take the writer's joined path
UNIFORM_LISTS = st.one_of(
    st.lists(st.none()),
    st.lists(st.booleans()),
    st.lists(st.integers(min_value=-(2**70), max_value=2**70)),
    st.lists(FLOATS),
    st.lists(st.text()),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(FLOATS, children, max_size=4),
    )


DOCS = st.recursive(SCALARS | UNIFORM_LISTS, _containers, max_leaves=40)


def _same_text(got: str, want: str) -> None:
    """Assert two texts are equal, naming the first difference (pytest's
    own diff of texts this long takes minutes)."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        start = max(at - 30, 0)
        raise AssertionError(f"texts differ at {at}: {got[start:at + 30]!r} != {want[start:at + 30]!r}")


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_dumps_matches_json_on_generated_docs(doc):
    assert dumps(doc) == dumps_by_json(doc)


def _floats(rng: np.random.Generator, n: int) -> list:
    """Floats with heavy repetition, as in a moment family's slacks, and
    some NaN, infinities, signed zeros and subnormals."""
    pool = np.concatenate([rng.normal(size=50), [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324]])
    return pool[rng.integers(0, len(pool), n)].tolist()


@pytest.mark.parametrize("n", [1, BULK_FLOATS - 1, BULK_FLOATS, BULK_FLOATS + 1, 3 * BULK_FLOATS])
def test_float_lists_on_both_sides_of_the_bulk_threshold(n):
    rng = np.random.default_rng(n)
    for values in (_floats(rng, n), rng.normal(size=n).tolist()):
        _same_text(dumps(values), dumps_by_json(values))
        _same_text(dumps({"x": values}), dumps_by_json({"x": values}))


def test_signed_zeros_stay_apart_in_bulk():
    values = [0.0, -0.0] * 5000
    text = dumps(values)
    _same_text(text, dumps_by_json(values))
    assert text.count("-0.0") == 5000


def test_numpy_float64_items():
    rng = np.random.default_rng(3)
    for n in (3, BULK_FLOATS + 7):
        values = list(np.concatenate([rng.normal(size=n), [np.nan, -np.inf, -0.0]]))
        assert type(values[0]) is np.float64
        doc = {"values": values, "mixed": values[:2] + [0.5, 1], "one": values[0]}
        _same_text(dumps(doc), dumps_by_json(doc))


def test_flat_arrays_are_written_as_their_lists():
    rng = np.random.default_rng(4)
    for n in (0, 1, BULK_FLOATS - 1, BULK_FLOATS, 2 * BULK_FLOATS):
        values = np.array(_floats(rng, n))
        flags = values > 0
        doc = {"x": values, "flags": flags, "pair": [values[:3], flags[:2]]}
        lists = {"x": values.tolist(), "flags": flags.tolist(), "pair": [values[:3].tolist(), flags[:2].tolist()]}
        _same_text(dumps(doc), dumps_by_json(lists))
        _same_text(dumps(doc), dumps_by_json(doc))


@pytest.mark.parametrize(
    "doc",
    [
        {"x": object()}, [np.int64(1)], {(1, 2): 0}, {"b": [np.bool_(True)]},
        {"i": np.arange(3)}, {"f": np.ones(3, dtype=np.float32)}, {"m": np.ones((2, 2))},
        {"s": np.zeros(())},
    ],
)
def test_unsupported_values_raise_as_json_does(doc):
    with pytest.raises(TypeError) as want:
        dumps_by_json(doc)
    with pytest.raises(TypeError) as got:
        dumps(doc)
    assert str(got.value) == str(want.value)


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
        distribution_doc(feasible_outcome_table(DesignConfig(2, 1), (0, 1, 2), rng)),
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
        # (3,0) with |Y| = 4: 4,102 moments, past the bulk threshold
        (["test", "--data", ycsv, "--J", "3", "--y", "--B", "99", "--seed", "1", "--moments"], []),
    ]


def test_every_subcommand_writes_the_oracles_bytes(tmp_path, capsys, monkeypatch):
    invocations = _invocations(tmp_path)
    outputs = []
    for writer in (dumps, dumps_by_json):
        monkeypatch.setattr(cli, "dumps", writer)
        texts = []
        for argv, files in invocations:
            assert run(argv) in (EXIT_OK, EXIT_VERDICT), argv
            texts.append(capsys.readouterr().out)
            texts.extend(Path(f).read_text(encoding="utf-8") for f in files)
        outputs.append(texts)
    for got, want in zip(*outputs):
        _same_text(got, want)
    assert len(json.loads(outputs[0][-1])["slacks"]) > BULK_FLOATS


def test_large_outcome_report_matches_the_oracle():
    # the (4,0) |Y| = 3 report: 531,477 slacks, standard errors and flags
    from perfbench import inputs

    config = DesignConfig(4, 0)
    y, d, z = inputs.outcome_rows(config, (0, 1, 2), 100_000, inputs.rng_for(11, 0, (4, 0, 3)))
    doc = stats.test_model(MicroData(d, z, y), config, B=99, seed=11).to_dict()
    assert len(doc["slacks"]) == 3**12 + 36
    _same_text(dumps(doc), dumps_by_json(doc))


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
        want = dumps_by_json(report_doc_by_fields(_report_by_specs(args))) + "\n"
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
