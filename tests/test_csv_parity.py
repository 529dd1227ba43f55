r"""``cli.read_csv`` reads the file once and parses the header with one
``csv.reader``. It parses the body from its bytes when it is in the bulk
grammar (fields ``-?[0-9]{1,18}`` separated by ``,``, lines ending in
``\n`` or ``\r\n``, one field count) and on anything else lets a
``csv.reader`` go on row by row over the same text, where the header
ended; on every input both must give the same
arrays or the same error as the ``csv.DictReader`` oracle.
``cli.write_csv`` takes each column's alphabet as the range from its least
to its greatest value, formats each value of it once and gathers the body
from a table of line texts when the ranges multiply to at most one entry
per row, and formats one line per row otherwise; on both sides of that
guard it must write the bytes of the row-by-row writer, and its memory
stays linear in the number of rows."""

import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encdesign import cli
from encdesign.core import DesignConfig
from encdesign.simulate import MicroData, RumSpec, simulate
from helpers import read_csv_rows, write_csv_rows
from perfbench.inputs import outcome_rows

CORPUS = {
    "plain": "d,z\n0,1\n1,0\n2,2\n",
    "with_y": "y,d,z\n3,0,1\n5,1,0\n3,2,2\n",
    "reordered": "z,y,d\n1,3,0\n0,5,1\n",
    "extra_int_column": "d,z,w\n0,1,7\n1,0,8\n",
    "extra_text_column": "d,z,name\n0,1,ann\n1,0,bob\n",
    "quoted_extra_column": 'name,d,z\n"a,1",2,0\n"b",1,1\n',
    "quoted_field": 'd,z\n"1",0\n0,"1"\n',
    "quoted_header": '"d","z"\n1,0\n',
    "multiline_quoted_header": '"a\nb",d,z\n9,1,0\n',
    "blank_lines": "d,z\n0,1\n\n1,0\n\n",
    "whitespace_line": "d,z\n0,1\n   \n1,0\n",
    "crlf": "y,d,z\r\n1,0,1\r\n0,1,0\r\n",
    "lone_cr": "d,z\r0,1\r1,0\r",
    "padded_spaces": "y,d,z\n 1 , 0 ,1\n0,1 , 0\n",
    "unicode_space": "d,z\n\u20031,0\xa0\n",
    "unicode_digit": "d,z\n\u0661,0\n",
    "underscore": "d,z\n1_0,0\n",
    "float_literal": "d,z\n3.0,0\n",
    "exponent": "d,z\n1e3,0\n",
    "hex": "d,z\n0x1,0\n",
    "negative": "y,d,z\n-1,-2,0\n",
    "plus_sign": "d,z\n+1,0\n",
    "leading_zeros": "d,z\n007,0\n",
    "missing_field": "d,z\n1\n0,1\n",
    "short_rows_everywhere": "d,z\n1\n0\n",
    "short_unused_column": "y,d,z,w\n1,0,1\n0,1,0\n",
    "extra_field_once": "d,z\n1,0,5\n0,1\n",
    "extra_field_everywhere": "d,z\n1,0,5\n0,1,6\n",
    "trailing_comma": "d,z\n1,0,\n0,1,\n",
    "empty_field": "d,z\n1,\n",
    "past_int64": "d,z\n99999999999999999999,0\n",
    "negative_past_int64": "d,z\n-99999999999999999999,0\n",
    "int64_limits": "d,z\n9223372036854775807,-9223372036854775808\n",
    "comment_line": "d,z\n#note\n1,0\n",
    "nul_unused_column": "d,z,w\n1,0,\x00\n",
    "duplicate_column": "d,d,z\n1,2,0\n3,4,1\n",
    "header_only": "d,z\n",
    "header_and_blank_lines": "d,z\n\n\n",
    "empty_file": "",
    "blank_header": "\nd,z\n1,0\n",
    "missing_z_column": "d,w\n1,0\n",
    "padded_header": "d, z\n1,0\n",
    "bom_header": "\ufeffd,z\n1,0\n",
    "no_y_column": "d,z\n1,0\n",
    "invalid_utf8_body": b"d,z\n1,0\n\xff,1\n",
    "invalid_utf8_header": b"d,z,\xc3\n1,0,2\n",
    "invalid_utf8_second_header_line": b'"a\nb\xff",d,z\n1,0,0\n',
    "split_line": "d,z\n1,0\n1\n0\n",
    "digits_18": "y,d,z\n123456789012345678,-999999999999999999,0\n",
    "digits_19": "y,d,z\n1234567890123456789,0,-9223372036854775808\n",
    "digits_19_past_int64": "d,z\n9999999999999999999,0\n",
    "digits_20": "d,z\n12345678901234567890,0\n",
    "negative_zero": "d,z\n-0,0\n",
    "lone_minus": "d,z\n-,0\n",
    "double_minus": "d,z\n--1,0\n",
    "inner_minus": "d,z\n1-2,0\n",
    "mixed_lf_crlf": "y,d,z\n1,0,1\r\n0,1,0\n5,2,2\r\n",
    "crlf_then_lone_cr": "d,z\r\n0,1\r\n1,0\r",
    "trailing_cr": "d,z\n0,1\n1,0\r",
    "cr_inside_line": "d,z\n0\r,1\n",
    "no_final_newline": "y,d,z\n1,0,1\n0,1,0",
    "nul_field": "d,z\n1,\x00\n",
    "form_feed": "d,z\n1,\x0c0\n",
    "next_line": "d,z\n1,0\x85\n",
    "next_line_byte": b"d,z\n1,0\x85\n",
}


def _write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def _read(reader, path, want_y):
    try:
        data = reader(path, want_y)
    except Exception as exc:  # the outcome compared is the exception itself
        return ("error", type(exc), str(exc))
    y = None if data.y is None else (data.y.dtype, data.y.tolist())
    return ("data", data.d.dtype, data.d.tolist(), data.z.dtype, data.z.tolist(), y)


@pytest.mark.parametrize("want_y", [False, True])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_read_csv_matches_row_reader(tmp_path, name, want_y):
    path = tmp_path / f"{name}.csv"
    _write(path, CORPUS[name])
    assert _read(cli.read_csv, str(path), want_y) == _read(read_csv_rows, str(path), want_y)


# bodies of the bulk grammar's bytes and of its near misses: any string of
# its alphabet, or k-field lines of integers (up to 20 digits), with at
# most one field swapped for a near miss and the end cut by a byte or two
_BODY_BYTES = st.text(alphabet='0123456789,-+\r\n "x', max_size=60)
_NEAR_MISSES = st.sampled_from(["", "-", "-0", "--1", "1-2", "+1", " 1", "1\r", "x", "1,2", "\r\n"])


@st.composite
def _bodies(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(_BODY_BYTES)
    k = draw(st.integers(1, 4))
    values = st.one_of(st.integers(-9, 99), st.integers(-(10**20), 10**20))
    lines = draw(st.lists(st.lists(values.map(str), min_size=k, max_size=k), max_size=8))
    fields = [field for line in lines for field in line]
    if fields and draw(st.booleans()):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_NEAR_MISSES)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    body = "".join(",".join(fields[i * k : (i + 1) * k]) + end for i, end in enumerate(ends))
    return body[: len(body) - draw(st.integers(0, 2))]


@settings(max_examples=400, deadline=None)
@given(
    header=st.sampled_from(["d,z\n", "y,d,z\r\n", "z,w,d,y\n", '"d",z\n', '"a\nb",d,z\n', "d,z\r"]),
    body=_bodies(),
    want_y=st.booleans(),
)
def test_read_csv_matches_row_reader_on_drawn_bodies(header, body, want_y):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.csv"
        _write(path, header + body)
        assert _read(cli.read_csv, str(path), want_y) == _read(read_csv_rows, str(path), want_y)


def _refuse_rows(monkeypatch):
    def refuse(reader, columns, names):
        raise AssertionError("fell back to the row reader")

    monkeypatch.setattr(cli, "_read_rows", refuse)


@pytest.mark.parametrize("quoted", [False, True])
def test_read_csv_opens_the_file_once(tmp_path, monkeypatch, quoted):
    # the bulk parser and the row reader both work on the bytes of one read
    text = CORPUS["with_y"]
    if quoted:
        text = "".join(",".join(f'"{v}"' for v in line.split(",")) + "\n" for line in text.splitlines())
    path = tmp_path / "once.csv"
    _write(path, text)
    want = _read(read_csv_rows, str(path), True)
    assert want[0] == "data"
    opened = []

    def counting(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting, raising=False)
    assert _read(cli.read_csv, str(path), True) == want
    assert opened == [str(path)]


@pytest.mark.parametrize("header", ["d,z\r", "\u00e9,d,z\r"])
def test_read_csv_parses_the_body_after_a_lone_cr_header_in_bulk(tmp_path, monkeypatch, header):
    # the body's offset is the header's UTF-8 length: after a trailing \r
    # the text view's tell() is an opaque cookie, not a byte offset
    path = tmp_path / "cr.csv"
    _write(path, header + "".join(f"{i},{i % 2},{1 - i % 2}\n" for i in range(4)))
    want = _read(read_csv_rows, str(path), False)
    assert want[0] == "data"
    _refuse_rows(monkeypatch)
    assert _read(cli.read_csv, str(path), False) == want


@pytest.mark.parametrize(
    "name", ["plain", "with_y", "reordered", "extra_int_column", "quoted_header", "multiline_quoted_header",
             "crlf", "negative", "leading_zeros", "extra_field_everywhere", "digits_18", "negative_zero",
             "mixed_lf_crlf", "no_final_newline"],
)
def test_read_csv_parses_grammar_files_in_bulk(tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.csv"
    _write(path, CORPUS[name])
    want_y = "y" in CORPUS[name].split("\n")[0]
    want = _read(read_csv_rows, str(path), want_y)
    assert want[0] == "data"
    _refuse_rows(monkeypatch)
    assert _read(cli.read_csv, str(path), want_y) == want


def test_read_csv_parses_simulate_output_in_bulk_in_linear_memory(tmp_path, monkeypatch, capsys):
    # a 150,000-row (5,0) simulate file: the peak holds its bytes, the
    # separators' positions, the field starts and one int64 array per
    # read column, about 60 bytes per row
    n = 150_000
    path = str(tmp_path / "sim.csv")
    cli.run(["simulate", "--J", "5", "--betas", "1,1,1,1,1", "--pz", "1/5,1/5,1/5,1/5,1/5",
             "--n", str(n), "--seed", "3", "--out", path])
    capsys.readouterr()
    want = read_csv_rows(path, False)
    _refuse_rows(monkeypatch)
    tracemalloc.start()
    try:
        data = cli.read_csv(path, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.d.tolist() == want.d.tolist() and data.z.tolist() == want.z.tolist()
    assert data.d.dtype == data.z.dtype == np.int64 and data.y is None
    assert peak < 128 * n, peak


def test_read_csv_parses_integer_files_in_bulk(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    body = rng.integers(-5, 9, size=(2000, 4))
    path = tmp_path / "ints.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("w,z,y,d\r\n")
        np.savetxt(fh, body, fmt="%d", delimiter=",", newline="\r\n")
    expected = read_csv_rows(str(path), True)
    _refuse_rows(monkeypatch)
    data = cli.read_csv(str(path), True)
    assert data.d.tolist() == expected.d.tolist() == body[:, 3].tolist()
    assert data.z.tolist() == expected.z.tolist() == body[:, 1].tolist()
    assert data.y.tolist() == expected.y.tolist() == body[:, 2].tolist()
    assert data.d.flags.c_contiguous and data.y.flags.c_contiguous


@pytest.mark.parametrize("past", ["past_int64", "negative_past_int64"])
def test_values_past_int64_are_row_errors(tmp_path, past):
    path = tmp_path / "big.csv"
    _write(path, CORPUS[past])
    value = CORPUS[past].split("\n")[1].split(",")[0]
    with pytest.raises(ValueError, match=f"^row 0: d={value} is outside the int64 range$"):
        cli.read_csv(str(path), False)


def _micro_files(tmp_path, data):
    new, old = tmp_path / "bulk.csv", tmp_path / "rows.csv"
    cli.write_csv(data, str(new))
    write_csv_rows(data, str(old))
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("with_y", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 997])
def test_write_csv_matches_row_writer(tmp_path, n, with_y):
    rng = np.random.default_rng(n)
    d = rng.integers(-3, 9, n)
    z = rng.integers(-12, 4, n)
    y = rng.integers(-(2**62), 2**62, n) if with_y else None
    got, want = _micro_files(tmp_path, MicroData(d, z, y))
    assert got == want
    assert got.count(b"\n") == n + 1
    if n > 2:
        assert b"-" in got.split(b"\n", 1)[1]


def test_write_csv_round_trips_int64_limits(tmp_path):
    limits = np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64)
    data = MicroData(limits, limits[::-1].copy(), limits)
    got, want = _micro_files(tmp_path, data)
    assert got == want
    back = cli.read_csv(str(tmp_path / "bulk.csv"), True)
    assert back.d.tolist() == limits.tolist() and back.y.tolist() == limits.tolist()


def _alphabet_product(data):
    """The number of lines in a table of every line whose fields lie
    between each column's least and greatest value."""
    columns = (data.d, data.z) if data.y is None else (data.y, data.d, data.z)
    return math.prod(int(c.max()) - int(c.min()) + 1 for c in columns)


def test_write_csv_matches_row_writer_on_simulate_output(tmp_path):
    # the line table holds the J x |Z| = 36 possible lines
    config = DesignConfig(6, 0)
    pz = {z: Fraction(1, 6) for z in config.z_support}
    data = simulate(RumSpec(config, (0.5,) * 6, pz, 100_000, 17)).data
    assert _alphabet_product(data) == 36
    got, want = _micro_files(tmp_path, data)
    assert got == want
    assert got.count(b"\n") == 100_001


def test_write_csv_matches_row_writer_on_distinct_values(tmp_path):
    # every value distinct: the alphabets multiply to about 3n^3 lines, so
    # each row is formatted on its own
    n = 5000
    rng = np.random.default_rng(23)
    data = MicroData(rng.permutation(n) - 2500, rng.permutation(n) * 3, rng.permutation(n))
    assert _alphabet_product(data) == n * n * (3 * n - 2)
    got, want = _micro_files(tmp_path, data)
    assert got == want


@pytest.mark.parametrize("sizes", [(2, 1, 1), (1, 1, 30), (30, 1, 1), (2, 3, 5), (2, 4, 4)])
def test_write_csv_matches_row_writer_at_the_table_guard(tmp_path, sizes):
    # n = 30 rows: alphabets multiplying to at most 30 take the line
    # table, (2, 3, 5) exactly at the guard, in which the last column
    # varies fastest; (2, 4, 4) multiplies to 32 and is formatted per row
    n = 30
    rng = np.random.default_rng(sum(sizes))
    y, d, z = (rng.permutation(np.arange(n) % k) - k // 2 for k in sizes)
    data = MicroData(d, z, y)
    assert _alphabet_product(data) == int(np.prod(sizes))
    got, want = _micro_files(tmp_path, data)
    assert got == want


@pytest.mark.parametrize("with_y", [False, True])
def test_write_csv_formats_sparse_alphabets_per_row(tmp_path, monkeypatch, with_y):
    # z in {0, 10^9}: two values, but 10^9 + 1 between the least and the
    # greatest, far more than the 1,000 rows, so no line table is built
    def refuse(*texts):
        raise AssertionError("a line table was built")

    n = 1000
    rng = np.random.default_rng(31)
    y = rng.integers(-2, 3, n) if with_y else None
    data = MicroData(rng.integers(0, 3, n), rng.integers(0, 2, n) * 10**9, y)
    assert len(np.unique(data.z)) == 2 and _alphabet_product(data) > n
    monkeypatch.setattr(cli, "itertools", SimpleNamespace(product=refuse))
    got, want = _micro_files(tmp_path, data)
    assert got == want


def test_write_csv_memory_is_linear_in_rows(tmp_path):
    # three columns of 20,000 distinct values: a table of every possible
    # line would hold 8e12 entries, and even one of 2n lines would add
    # about 3 MB; the per-row path peaks near 230 bytes per row
    n = 20_000
    rng = np.random.default_rng(29)
    data = MicroData(rng.permutation(n), rng.permutation(n) - n, rng.permutation(n) * 7)
    path = str(tmp_path / "wide.csv")
    tracemalloc.start()
    try:
        cli.write_csv(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * n, peak
    assert cli.read_csv(path, True).y.tolist() == data.y.tolist()


def test_quoted_outcome_file_is_read_row_by_row(tmp_path, capsys, monkeypatch):
    # quoted fields make the bulk parser refuse the body, so the y column
    # comes from the row reader; the test must not see the difference
    y, d, z = outcome_rows(DesignConfig(3, 0), (0, 1), 600, Random(11))
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    cli.write_csv(MicroData(d, z, y), str(plain))
    header, *body = plain.read_text(encoding="utf-8").splitlines()
    assert header == "y,d,z"
    quoted_body = [",".join(f'"{v}"' for v in line.split(",")) for line in body]
    quoted.write_text("\n".join([header, *quoted_body]) + "\n", encoding="utf-8")

    calls = []
    row_reader = cli._read_rows

    def recording(reader, columns, names):
        calls.append((columns, names))
        return row_reader(reader, columns, names)

    monkeypatch.setattr(cli, "_read_rows", recording)
    got = _read(cli.read_csv, str(quoted), True)
    assert calls == [([1, 2, 0], ("d", "z", "y"))]
    assert got == _read(read_csv_rows, str(quoted), True)
    data = cli.read_csv(str(plain), True)
    assert (data.d.tolist(), data.z.tolist(), data.y.tolist()) == (got[2], got[4], got[5][1])

    stdout = []
    for path in (plain, quoted):
        cli.run(["test", "--data", str(path), "--J", "3", "--J0", "0", "--y", "--B", "99", "--seed", "3"])
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1] and '"reject"' in stdout[0]
