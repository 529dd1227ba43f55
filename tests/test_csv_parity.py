"""``cli.read_csv`` parses the body in bulk and falls back to the row-by-row
reader on anything else; on every input both must give the same arrays or
the same error as the row-by-row oracle. ``cli.write_csv`` formats the body
in one pass and must write the bytes of the row-by-row writer."""

import numpy as np
import pytest

from encdesign import cli
from encdesign.simulate import MicroData
from helpers import read_csv_rows, write_csv_rows

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
}


def _read(reader, path, want_y):
    try:
        data = reader(path, want_y)
    except Exception as exc:  # the outcome compared is the exception itself
        return ("error", type(exc), str(exc))
    y = None if data.y is None else (data.y.dtype, data.y.tolist())
    return ("data", data.d.dtype, data.d.tolist(), data.z.dtype, data.z.tolist(), y, data.provenance)


@pytest.mark.parametrize("want_y", [False, True])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_read_csv_matches_row_reader(tmp_path, name, want_y):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    assert _read(cli.read_csv, str(path), want_y) == _read(read_csv_rows, str(path), want_y)


def test_read_csv_parses_integer_files_in_bulk(tmp_path, monkeypatch):
    def refuse(path, want_y):
        raise AssertionError("fell back to the row reader")

    rng = np.random.default_rng(3)
    body = rng.integers(-5, 9, size=(2000, 4))
    path = tmp_path / "ints.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("w,z,y,d\r\n")
        np.savetxt(fh, body, fmt="%d", delimiter=",", newline="\r\n")
    expected = read_csv_rows(str(path), True)
    monkeypatch.setattr(cli, "_read_csv_rows", refuse)
    data = cli.read_csv(str(path), True)
    assert data.d.tolist() == expected.d.tolist() == body[:, 3].tolist()
    assert data.z.tolist() == expected.z.tolist() == body[:, 1].tolist()
    assert data.y.tolist() == expected.y.tolist() == body[:, 2].tolist()
    assert data.d.flags.c_contiguous and data.y.flags.c_contiguous


@pytest.mark.parametrize("past", ["past_int64", "negative_past_int64"])
def test_values_past_int64_are_row_errors(tmp_path, past):
    path = tmp_path / "big.csv"
    path.write_bytes(CORPUS[past].encode("utf-8"))
    value = CORPUS[past].split("\n")[1].split(",")[0]
    with pytest.raises(ValueError, match=f"^row 0: d={value} is outside the int64 range$"):
        cli.read_csv(str(path), False)


def _micro_files(tmp_path, data):
    new, old = tmp_path / "bulk.csv", tmp_path / "rows.csv"
    cli.write_csv(data, str(new))
    write_csv_rows(data, str(old))
    return new.read_bytes(), old.read_bytes()


@pytest.mark.parametrize("with_y", [False, True])
@pytest.mark.parametrize("n", [1, 2, 997])
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
