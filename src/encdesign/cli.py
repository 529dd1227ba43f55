"""Command-line surface and file formats.

Subcommands wrap every operation in the package and emit deterministic
JSON on stdout (sorted keys, canonical "a/b" rationals) so identical
invocations produce byte-identical output. The exact commands (check,
construct, lp-check) take a treatment table or, when the file has
y_support, an outcome table, and run the matching oracle. Probabilities
in input files must be strings or integers; JSON floats are rejected
because they have already lost exactness. Exit codes: 0 success/pass,
1 usage error, 2 input or validation error, 3 negative model or
statistical verdict, 4 capacity cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import admissible, inequalities, lp, witness
from .core import (
    EPS_FAMILIES,
    DesignConfig,
    ObservedDistribution,
    OutcomeDistribution,
    OutcomeResponseMeasure,
    ResponseMeasure,
    ResponseType,
    _check_instrument_keys,
    _validate_pz,
    as_fraction,
)
from .errors import CapacityError, ConstructionError

# numpy, simulate and stats are imported by the commands that use them,
# so the exact commands start without loading numpy.
if TYPE_CHECKING:
    from .simulate import MicroData

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_CAPACITY = 4

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as "-inf,1,1" or "-0.5,1,1" is an option's argument,
        # not an unknown option: widen argparse's negative-number test
        # (digits only) to the prefixes Python's float() reads.
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise ValueError(
            f"probability {value!r} is a JSON float; write it as a string to keep it exact"
        )
    return as_fraction(value)


def _object(value, field: str) -> dict:
    """``value`` when it is a JSON object; otherwise a ValueError that
    names the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    return value


def _int(value, field: str) -> int:
    """``value`` when it is a JSON integer (not true or false); otherwise
    a ValueError that names the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be a JSON integer, got {type(value).__name__}")
    return value


def _int_list(value, field: str) -> tuple[int, ...]:
    """``value`` when it is a JSON list of integers, as a tuple."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON list, got {type(value).__name__}")
    return tuple(_int(v, f"{field}[{i}]") for i, v in enumerate(value))


def _keyed(value, field: str, parse=int) -> dict:
    """The JSON object ``value`` with its keys read by ``parse``. Two keys
    that read the same ("0" and "00") raise a ValueError naming the
    field, since one would silently overwrite the other."""
    out = {}
    texts = {}
    for text, item in _object(value, field).items():
        key = parse(text)
        if key in out:
            raise ValueError(f'{field} keys "{texts[key]}" and "{text}" both read as {key}')
        out[key] = item
        texts[key] = text
    return out


def _ints(text: str) -> tuple[int, ...]:
    """The integers of a comma-joined witness key such as "0,1"."""
    return tuple(int(v) for v in text.split(","))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice is a ValueError."""
    doc = {}
    for text, item in pairs:
        if text in doc:
            raise ValueError(f'key "{text}" appears twice in one JSON object')
        doc[text] = item
    return doc


def _load_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the JSON document is nested too deeply") from None
    return _object(doc, "the top level")


def _design(doc: dict) -> DesignConfig:
    return DesignConfig(_int(doc["J"], "J"), _int(doc.get("J0", 0), "J0"))


def _write_json(doc, fh) -> None:
    """Write ``doc`` to ``fh`` as ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a line end. The encoder's chunks are joined 4096 at a
    time: the text is streamed, never held whole, in one write per batch
    rather than ``json.dump``'s one per chunk."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    while batch := list(itertools.islice(chunks, 4096)):
        fh.write("".join(batch))
    fh.write("\n")


def _emit(doc) -> None:
    _write_json(doc, sys.stdout)


# ---------------------------------------------------------------- files


def load_distribution(path: str):
    """Parse a distribution file into an exact table; the presence of
    y_support selects the outcome form. An optional instrument marginal
    ``pz`` is checked once the table is built, then dropped."""
    doc = _load_object(path)
    config = _design(doc)
    pz = None
    if "pz" in doc:
        pz = {z: _frac(v) for z, v in _keyed(doc["pz"], "pz").items()}
    p = _keyed(doc["p"], "p")
    outcome = "y_support" in doc
    # each row is padded to J entries (each slice to J x |Y|), so the keys
    # come first
    _check_instrument_keys(config, p, *(("slice", "cells") if outcome else ("row", "rows")))
    if outcome:
        ys = _int_list(doc["y_support"], "y_support")
        cells = {
            z: {
                j: {y: _frac(v) for y, v in _keyed(by_y, f'p["{z}"]["{j}"]').items()}
                for j, by_y in _keyed(by_j, f'p["{z}"]').items()
            }
            for z, by_j in p.items()
        }
        table = OutcomeDistribution(config, ys, cells)
    else:
        rows = {}
        for z, by_j in p.items():
            row = [Fraction(0)] * config.J
            for j, v in _keyed(by_j, f'p["{z}"]').items():
                if not 0 <= j < config.J:
                    raise ValueError(f"choice {j} out of range for J={config.J}")
                row[j] = _frac(v)
            rows[z] = tuple(row)
        table = ObservedDistribution(config, rows)
    _validate_pz(config, pz)
    return table


def distribution_doc(P: ObservedDistribution) -> dict:
    """The file form of a treatment table, as ``simulate`` prints it."""
    return {
        "J": P.config.J,
        "J0": P.config.J0,
        "p": {
            str(z): {str(j): str(P.p(z, j)) for j in range(P.config.J)}
            for z in P.config.z_support
        },
    }


def measure_doc(q: ResponseMeasure) -> dict:
    return {
        "J": q.config.J,
        "J0": q.config.J0,
        "mass": {",".join(map(str, rt.d)): str(m) for rt, m in q.mass.items()},
    }


def load_measure(path: str) -> ResponseMeasure:
    """Parse a treatment witness file into a response-type measure. An
    outcome witness, whose keys also carry outcome vectors, is refused."""
    doc = _load_object(path)
    if "y_support" in doc:
        raise ValueError("a treatment witness is needed, not an outcome witness (it has y_support)")
    config = _design(doc)
    mass = {ResponseType(d): _frac(m) for d, m in _keyed(doc["mass"], "mass", _ints).items()}
    return ResponseMeasure(config, mass)


def outcome_measure_doc(q: OutcomeResponseMeasure) -> dict:
    return {
        "J": q.config.J,
        "J0": q.config.J0,
        "y_support": list(q.y_support),
        "mass": {
            ",".join(map(str, rt.d)) + "|" + ",".join(map(str, yvec)): str(m)
            for (rt, yvec), m in q.mass.items()
        },
    }


def write_csv(data: MicroData, path: str) -> None:
    """Write the rows as a y,d,z (or d,z) CSV with LF line ends.

    Each column's alphabet is taken as the range from its least to its
    greatest value. When these ranges multiply to at most one entry per
    row (J x |Z| lines for ``simulate`` output), every possible line is
    formatted once, in mixed radix with the last column fastest, and the
    body is gathered from that table by each row's index. Wider or
    sparser alphabets, where such a table could outgrow the file, take
    one ``str.format`` per row, so memory stays linear in the number of
    rows."""
    import numpy as np

    columns = (data.y, data.d, data.z) if data.y is not None else (data.d, data.z)
    n = len(columns[0])
    ranges, size = [], 1
    for c in columns:
        lo, hi = (int(c.min()), int(c.max())) if n else (0, -1)
        size *= hi - lo + 1
        if size > n:
            break
        ranges.append((lo, hi))
    if size <= n:
        texts = [list(map(str, range(lo, hi + 1))) for lo, hi in ranges]
        table = np.array([",".join(parts) + "\n" for parts in itertools.product(*texts)], dtype=object)
        code = 0
        for c, (lo, hi) in zip(columns, ranges):
            code = code * (hi - lo + 1) + (c - lo)
        body = "".join(table[code].tolist())
    else:
        line = ",".join(["{}"] * len(columns)) + "\n"
        body = "".join(map(line.format, *(c.tolist() for c in columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,d,z\n" if data.y is not None else "d,z\n")
        fh.write(body)


def read_csv(path: str, want_y: bool) -> MicroData:
    r"""Read a micro-data CSV with a header naming columns d, z and, with
    ``want_y``, y, in any order among other columns.

    The file is read once, as bytes. One ``csv.reader`` over a text view
    of them parses the header, so quoted and multi-line headers are read
    as usual. The body is parsed in bulk from its bytes when every field
    is ``-?[0-9]{1,18}``, fields are separated by ``,``, lines end in
    ``\n`` or ``\r\n`` (the last line's ``\n`` may be missing) and every
    line has the same number of fields, more than the highest needed
    column index. Any other body (quoted fields, spaces, ``+``, blank
    lines, a lone ``\r``, values of 19 or more digits, non-ASCII bytes,
    short rows or no rows) is read row by row by a ``csv.reader`` that
    goes on over the same text view in ``_read_rows``, which returns the
    same arrays where both accept a body and raises the row-indexed
    errors."""
    from .simulate import MicroData

    names = ("d", "z", "y") if want_y else ("d", "z")
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    # the header's lines are kept: their UTF-8 length is the body's offset
    # (tell() is an opaque cookie, not an offset, after a trailing \r)
    head = []
    header = next(csv.reader(head.append(line) or line for line in text), [])
    if "d" not in header or "z" not in header:
        raise ValueError("data file needs a header with at least columns d and z")
    if want_y and "y" not in header:
        raise ValueError("outcome test requested but the data file has no y column")
    column = {name: i for i, name in enumerate(header)}
    columns = [column[name] for name in names]
    body = _parse_body(raw, len("".join(head).encode()), columns)
    if body is None:
        body = _read_rows(csv.reader(text), columns, names)
    d, z, *y = body
    return MicroData(d, z, y[0] if want_y else None)


def _parse_body(raw: bytes, pos: int, columns: list[int]):
    r"""The int64 arrays of the given columns of the body ``raw[pos:]``,
    or None when the body is empty or outside ``read_csv``'s bulk grammar.

    Every field ends at one separator (``,`` or ``\n``), so the
    separators' bytes, reshaped to (rows, k), show the line structure.
    A field's digits are its span between separators less a leading
    ``-`` and the ``\r`` of a ``\r\n``. The body is in the grammar when
    every field has 1 to 18 digits, every ``-`` and ``\r`` in it is one
    of those, and every other byte is a digit or a separator."""
    import numpy as np

    if len(raw) == pos:
        return None
    if not raw.endswith(b"\n"):
        raw, pos = raw[pos:] + b"\n", 0
    # find scans at memchr speed, count much slower; most bodies hold neither
    n_cr, n_minus = (raw.count(c, pos) if raw.find(c, pos) >= 0 else 0 for c in (b"\r", b"-"))
    buf = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    kinds = buf[sep]
    k = int(np.argmax(kinds == ord("\n"))) + 1
    rows = len(sep) // k
    if rows * k != len(sep) or k <= max(columns):
        return None
    kinds = kinds.reshape(rows, k)
    if not ((kinds[:, -1] == ord("\n")).all() and (kinds[:, :-1] == ord(",")).all()):
        return None
    values = buf - np.uint8(ord("0"))
    if np.count_nonzero(values < 10) != len(buf) - len(sep) - n_cr - n_minus:
        return None
    if n_cr:
        crlf = buf[sep[k - 1 :: k] - 1] == ord("\r")
        if np.count_nonzero(crlf) != n_cr:
            return None
    starts = np.empty_like(sep)
    starts[0] = 0
    np.add(sep[:-1], 1, out=starts[1:])
    digits = np.subtract(sep, starts, out=sep)
    if n_cr:
        digits[k - 1 :: k] -= crlf
    if n_minus:
        negative = buf[starts] == ord("-")
        if np.count_nonzero(negative) != n_minus:
            return None
        digits -= negative
        starts += negative
    if digits.min() < 1 or digits.max() > 18:
        return None
    last = len(values) - 1
    out = []
    for c in columns:
        first, n = starts[c::k], digits[c::k]
        value = values[first].astype(np.int64)
        for w in range(1, int(n.max())):
            value = np.where(n > w, value * 10 + values[np.minimum(first + w, last)], value)
        if n_minus:
            np.negative(value, out=value, where=negative[c::k])
        out.append(value)
    return out


def _read_rows(reader, columns: list[int], names: tuple[str, ...]):
    """The int64 arrays of the given columns of the rows left in
    ``reader``, parsed one at a time as ``csv.DictReader`` and ``int``
    would: blank rows are skipped, a missing field reads as None and
    errors (including values outside int64) are indexed by row."""
    import numpy as np

    out = [[] for _ in columns]
    for i, row in enumerate(filter(None, reader)):
        try:
            values = [int(row[c] if c < len(row) else None) for c in columns]
            for name, v in zip(names, values):
                if not INT64_MIN <= v <= INT64_MAX:
                    raise ValueError(f"{name}={v} is outside the int64 range")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {i}: {exc}") from exc
        for col, v in zip(out, values):
            col.append(v)
    return [np.array(col, dtype=np.int64) for col in out]


# ------------------------------------------------------------- reports


def spec_doc(spec: inequalities.InequalitySpec) -> dict:
    doc = {
        "lhs": [list(c) for c in spec.lhs],
        "rhs": [list(c) for c in spec.rhs],
        "bound": str(spec.bound),
        "tag": spec.tag,
    }
    if spec.selector is not None:
        doc["selector"] = list(spec.selector)
    if spec.pair is not None:
        doc["pair"] = list(spec.pair)
    return doc


def report_doc(report: inequalities.CheckReport) -> dict:
    return {
        "passed": report.passed,
        "min_slack": str(report.min_slack),
        "violations": [
            {"spec": spec_doc(s), "slack": str(v)} for s, v in report.violations
        ],
    }


def trace_doc(trace: witness.ConstructionTrace) -> dict:
    return {
        "feasible": trace.feasible,
        "orderings": {str(j): list(order) for j, order in trace.orderings.items()},
        "entries": [
            {
                "kind": e.kind,
                "target": e.target,
                "step": e.step,
                "type": list(trace.rtype(e).d),
                "mass": str(e.mass),
            }
            for e in trace.entries
        ],
    }


# ------------------------------------------------------------ commands


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    ``run`` in the process; parsing leaves it unchanged."""
    parser = _Parser(prog="encdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def design_args(p):
        p.add_argument("--J", type=int, required=True)
        p.add_argument("--J0", type=int, default=0)

    p = sub.add_parser("enumerate", help="list the admissible response types")
    design_args(p)

    p = sub.add_parser("inequalities", help="emit the inequality family")
    design_args(p)
    p.add_argument("--full", action="store_true", help="unreduced selector family")

    for name in ("check", "lp-check"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)

    p = sub.add_parser("construct", help="build the witness measure")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("simulate", help="draw micro-data from a random utility model")
    design_args(p)
    p.add_argument("--betas", required=True, help="comma-separated encouragement sizes")
    p.add_argument("--eps", default="gumbel", choices=EPS_FAMILIES)
    p.add_argument("--pz", required=True, help="comma-separated instrument probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the rows to this CSV file")

    p = sub.add_parser("mixture-verify", help="realize a measure as a shock mixture and check it")
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("test", help="finite-sample moment-inequality test")
    p.add_argument("--data", required=True)
    design_args(p)
    p.add_argument("--y", action="store_true", help="use the outcome family")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--B", type=int, default=999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--moments",
        action="store_true",
        help="also print every moment's slack, standard error and floored flag",
    )
    return parser


def _dispatch(args) -> int:
    if args.command == "enumerate":
        config = DesignConfig(args.J, args.J0)
        types = admissible.enumerate_admissible(config)
        _emit(
            {
                "J": config.J,
                "J0": config.J0,
                "z_support": list(config.z_support),
                "count": len(types),
                "types": [list(t.d) for t in types],
            }
        )
        return EXIT_OK

    if args.command == "inequalities":
        config = DesignConfig(args.J, args.J0)
        specs = inequalities.generate(config, full=args.full)
        _emit(
            {
                "J": config.J,
                "J0": config.J0,
                "count": len(specs),
                "inequalities": [spec_doc(s) for s in specs],
            }
        )
        return EXIT_OK

    if args.command == "check":
        table = load_distribution(args.input)
        if isinstance(table, OutcomeDistribution):
            report = inequalities.check_outcome(table)
        else:
            report = inequalities.check(table)
        _emit(report_doc(report))
        return EXIT_OK if report.passed else EXIT_VERDICT

    if args.command == "construct":
        table = load_distribution(args.input)
        outcome = isinstance(table, OutcomeDistribution)
        if outcome and args.trace:
            raise UsageError("--trace needs a treatment table")
        doc = {}
        if args.trace:
            doc["trace"] = trace_doc(witness.diagnose(table))
        try:
            q = witness.construct_outcome(table) if outcome else witness.construct(table)
        except ConstructionError as exc:
            if args.trace:
                doc["error"] = str(exc)
                _emit(doc)
                return EXIT_VERDICT
            raise
        doc["witness"] = outcome_measure_doc(q) if outcome else measure_doc(q)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_json(doc["witness"], fh)
        _emit(doc)
        return EXIT_OK

    if args.command == "lp-check":
        table = load_distribution(args.input)
        if isinstance(table, OutcomeDistribution):
            ok, certificate = lp.feasible_outcome(table), None
        else:
            ok, certificate = lp.feasible(table)
        doc = {"feasible": ok}
        if certificate is not None:
            doc["certificate"] = measure_doc(certificate)
        _emit(doc)
        return EXIT_OK if ok else EXIT_VERDICT

    if args.command == "simulate":
        from . import simulate

        config = DesignConfig(args.J, args.J0)
        betas = tuple(float(v) for v in args.betas.split(","))
        pz_values = [as_fraction(v) for v in args.pz.split(",")]
        if len(pz_values) != len(config.z_support):
            raise ValueError(
                f"need {len(config.z_support)} instrument probabilities for support "
                f"{config.z_support}"
            )
        spec = simulate.RumSpec(
            config=config,
            betas=betas,
            pz=dict(zip(config.z_support, pz_values)),
            n=args.n,
            seed=args.seed,
            eps_family=args.eps,
        )
        result = simulate.simulate(spec)
        if args.out:
            write_csv(result.data, args.out)
        _emit(
            {
                "n": spec.n,
                "seed": args.seed,
                "table": distribution_doc(result.table),
                "type_counts": {
                    ",".join(map(str, rt.d)): c for rt, c in result.type_counts.items()
                },
                "rows_written": args.out or None,
            }
        )
        return EXIT_OK

    if args.command == "mixture-verify":
        from . import simulate

        q = load_measure(args.q)
        mixture = simulate.build_epsilon_mixture(q)
        error = simulate.verify_mixture(mixture, args.n, args.seed)
        _emit(
            {
                "max_error": error,
                "n": args.n,
                "seed": args.seed,
                "betas": list(mixture.betas),
                "bound": mixture.M,
            }
        )
        return EXIT_OK

    if args.command == "test":
        from . import stats

        config = DesignConfig(args.J, args.J0)
        data = read_csv(args.data, want_y=args.y)
        report = stats.test_model(
            data, config, alpha=args.alpha, B=args.B, seed=args.seed
        )
        _emit(report.to_dict() if args.moments else report.summary_dict())
        return EXIT_OK if not report.reject else EXIT_VERDICT

    raise UsageError(f"unknown command {args.command!r}")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        # a request larger than the machine can hold, such as numpy's
        # "Unable to allocate ..." for an --n of 10^12 rows
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        ZeroDivisionError,
        OverflowError,
        csv.Error,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
