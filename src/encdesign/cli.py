"""Command-line surface and file formats.

Subcommands wrap every operation in the package and emit deterministic
JSON on stdout (sorted keys, canonical "a/b" rationals) so identical
invocations produce byte-identical output. Probabilities in input files
must be strings or integers; JSON floats are rejected because they have
already lost exactness. Exit codes: 0 success/pass, 1 usage error,
2 input or validation error, 3 negative model or statistical verdict,
4 capacity cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import add
from typing import TYPE_CHECKING

from . import admissible, inequalities, lp, witness
from .core import (
    EPS_FAMILIES,
    DesignConfig,
    ObservedDistribution,
    ResponseMeasure,
    ResponseType,
    as_fraction,
)
from .errors import CapacityError, ConstructionError
from .inequalities import OutcomeDistribution
from .witness import OutcomeResponseMeasure

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


def _emit(doc) -> None:
    sys.stdout.write(dumps(doc) + "\n")


# ---------------------------------------------------------------- JSON

# Float lists at least this long are written through one float64 array,
# deduplicated by bit pattern; shorter ones call float.__repr__ per item.
# Deduplication pays where values repeat, as in the moment families of
# outcome tests (531,477 slacks, 753 distinct, written 6x faster); on
# lists of distinct values it costs about 15% more.
BULK_FLOATS = 4096

_INF = float("inf")
_BOOL_TEXT = {True: "true", False: "false"}


def dumps(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)``, byte for
    byte, written faster.

    Dicts (keys sorted), lists and tuples take json's two-space layout;
    strings go through ``encode_basestring_ascii``, ints through
    ``int.__repr__``, floats through ``float.__repr__`` except that NaN
    and the infinities are spelled as json spells them, and any other
    scalar is left to ``json.dumps``. The items of a container that all
    share one scalar type are written in one pass (``_scalar_texts``)."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indent of the line ``value`` starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys, items = zip(*sorted(value.items()))
        heads = [encode_basestring_ascii(_key_text(k)) + ": " for k in keys]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        items, heads, brackets = value, None, "[]"
    else:
        out.append(_scalar_text(value))
        return
    inner = newline + "  "
    sep = "," + inner
    texts = _scalar_texts(items)
    out.append(brackets[0] + inner)
    if texts is not None:
        out.append(sep.join(texts if heads is None else map(add, heads, texts)))
    else:
        for i, item in enumerate(items):
            if i:
                out.append(sep)
            if heads is not None:
                out.append(heads[i])
            _write(item, inner, out)
    out.append(newline + brackets[1])


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return json.dumps(value)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_texts(items):
    """The texts of ``items`` when all have one type among str, bool,
    int, None and the floats; otherwise None."""
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is str:
        return map(encode_basestring_ascii, items)
    if kind is bool:
        return map(_BOOL_TEXT.__getitem__, items)
    if kind is int:
        return map(int.__repr__, items)
    if kind is type(None):
        return ["null"] * len(items)
    if issubclass(kind, float):
        if len(items) >= BULK_FLOATS:
            return _bulk_float_texts(items)
        return map(float.__repr__ if all(map(isfinite, items)) else _float_text, items)
    return None


def _bulk_float_texts(items) -> list[str]:
    """The texts of many floats: each distinct bit pattern (so 0.0 and
    -0.0 stay apart) is formatted once and its text gathered back into
    item order."""
    import numpy as np

    bits, where = np.unique(np.array(items, dtype=np.float64).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = float.__repr__ if np.isfinite(values).all() else _float_text
    return np.array(list(map(text, values.tolist())), dtype=object)[where].tolist()


# ---------------------------------------------------------------- files


def load_distribution(path: str):
    """Parse a distribution file into an exact table; the presence of
    y_support selects the outcome form."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = DesignConfig(int(doc["J"]), int(doc.get("J0", 0)))
    pz = None
    if "pz" in doc:
        pz = {int(z): _frac(v) for z, v in doc["pz"].items()}
    if "y_support" in doc:
        ys = tuple(int(y) for y in doc["y_support"])
        cells = {
            int(z): {
                int(j): {int(y): _frac(v) for y, v in by_y.items()}
                for j, by_y in by_j.items()
            }
            for z, by_j in doc["p"].items()
        }
        return OutcomeDistribution(config, ys, cells, pz=pz)
    rows = {}
    for z, by_j in doc["p"].items():
        row = [Fraction(0)] * config.J
        for j, v in by_j.items():
            j = int(j)
            if not 0 <= j < config.J:
                raise ValueError(f"choice {j} out of range for J={config.J}")
            row[j] = _frac(v)
        rows[int(z)] = tuple(row)
    return ObservedDistribution(config, rows, pz=pz)


def distribution_doc(table) -> dict:
    doc = {"J": table.config.J, "J0": table.config.J0}
    if isinstance(table, OutcomeDistribution):
        doc["y_support"] = list(table.y_support)
        doc["p"] = {
            str(z): {
                str(j): {str(y): str(table.p(z, j, y)) for y in table.y_support}
                for j in range(table.config.J)
            }
            for z in table.config.z_support
        }
    else:
        doc["p"] = {
            str(z): {str(j): str(table.p(z, j)) for j in range(table.config.J)}
            for z in table.config.z_support
        }
    if table.pz is not None:
        doc["pz"] = {str(z): str(v) for z, v in table.pz.items()}
    return doc


def measure_doc(q: ResponseMeasure) -> dict:
    return {
        "J": q.config.J,
        "J0": q.config.J0,
        "mass": {",".join(map(str, rt.d)): str(m) for rt, m in q.mass.items()},
    }


def load_measure(path: str) -> ResponseMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = DesignConfig(int(doc["J"]), int(doc.get("J0", 0)))
    mass = {
        ResponseType(tuple(int(v) for v in key.split(","))): _frac(m)
        for key, m in doc["mass"].items()
    }
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


def load_outcome_measure(path: str) -> OutcomeResponseMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = DesignConfig(int(doc["J"]), int(doc.get("J0", 0)))
    ys = tuple(int(y) for y in doc["y_support"])
    mass = {}
    for key, m in doc["mass"].items():
        d_part, y_part = key.split("|")
        rt = ResponseType(tuple(int(v) for v in d_part.split(",")))
        yvec = tuple(int(v) for v in y_part.split(","))
        mass[(rt, yvec)] = _frac(m)
    return OutcomeResponseMeasure(config, ys, mass)


def write_csv(data: MicroData, path: str) -> None:
    """Write the rows as a y,d,z (or d,z) CSV with LF line ends, the
    body formatted in one pass over the columns as Python ints."""
    columns = (data.y, data.d, data.z) if data.y is not None else (data.d, data.z)
    line = ",".join(["{}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,d,z\n" if data.y is not None else "d,z\n")
        fh.write("".join(map(line.format, *(c.tolist() for c in columns))))


def read_csv(path: str, want_y: bool) -> MicroData:
    """Read a micro-data CSV with a header naming columns d, z and, with
    ``want_y``, y, in any order among other columns.

    The body is parsed in bulk by numpy when every field of every row is
    an int64 literal. Any other file (quoted fields, whitespace-only or
    short rows, non-integer or out-of-range values, a bad header or no
    rows) is read row by row by ``_read_csv_rows``, which returns the
    same arrays where both accept a file and raises the row-indexed
    errors."""
    import warnings

    import numpy as np

    from .simulate import MicroData

    names = ("d", "z", "y") if want_y else ("d", "z")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), [])
        column = {name: i for i, name in enumerate(header)}
        if all(name in column for name in names):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # loadtxt warns on a body without rows
                    body = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
            except (ValueError, Warning):
                body = None
            if body is not None and max(column[name] for name in names) < body.shape[1]:
                d, z, *y = (np.ascontiguousarray(body[:, column[name]]) for name in names)
                return MicroData(d, z, y[0] if want_y else None, provenance=path)
    return _read_csv_rows(path, want_y)


def _read_csv_rows(path: str, want_y: bool) -> MicroData:
    """Read the CSV one row at a time: the fallback of ``read_csv``, and
    the source of its header and row-indexed error messages."""
    import numpy as np

    from .simulate import MicroData

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "d" not in reader.fieldnames or "z" not in reader.fieldnames:
            raise ValueError("data file needs a header with at least columns d and z")
        if want_y and "y" not in reader.fieldnames:
            raise ValueError("outcome test requested but the data file has no y column")
        names = ("d", "z", "y") if want_y else ("d", "z")
        d, z, y = [], [], []
        for i, row in enumerate(reader):
            try:
                values = [int(row[name]) for name in names]
                for name, v in zip(names, values):
                    if not INT64_MIN <= v <= INT64_MAX:
                        raise ValueError(f"{name}={v} is outside the int64 range")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"row {i}: {exc}") from exc
            d.append(values[0])
            z.append(values[1])
            if want_y:
                y.append(values[2])
    return MicroData(
        np.array(d, dtype=np.int64),
        np.array(z, dtype=np.int64),
        np.array(y, dtype=np.int64) if want_y else None,
        provenance=path,
    )


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
                "type": list(e.rtype.d),
                "mass": str(e.mass),
            }
            for e in trace.entries
        ],
    }


# ------------------------------------------------------------ commands


def _build_parser() -> _Parser:
    parser = _Parser(prog="encdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def design_args(p):
        p.add_argument("--J", type=int, required=True)
        p.add_argument("--J0", type=int, default=0)

    p = sub.add_parser("enumerate", help="list the admissible response types")
    design_args(p)
    p.add_argument(
        "--cap",
        type=int,
        default=admissible.DEFAULT_ENUMERATION_CAP,
        help="largest number of types to emit (exit 4 above it)",
    )

    p = sub.add_parser("inequalities", help="emit the inequality family")
    design_args(p)
    p.add_argument("--full", action="store_true", help="unreduced selector family")

    for name in ("check", "lp-check", "check-y", "lp-check-y"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)

    p = sub.add_parser("construct", help="build the witness measure")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("construct-y", help="build the outcome witness measure")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

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
    return parser


def _require_treatment(table):
    if isinstance(table, OutcomeDistribution):
        raise ValueError("this command needs a treatment-only table; use the -y variant")
    return table


def _require_outcome(table):
    if not isinstance(table, OutcomeDistribution):
        raise ValueError("this command needs an outcome table with y_support")
    return table


def _dispatch(args) -> int:
    if args.command == "enumerate":
        config = DesignConfig(args.J, args.J0)
        types = admissible.enumerate_admissible(config, cap=args.cap).types
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
        table = _require_treatment(load_distribution(args.input))
        report = inequalities.check(table)
        _emit(report_doc(report))
        return EXIT_OK if report.passed else EXIT_VERDICT

    if args.command == "check-y":
        table = _require_outcome(load_distribution(args.input))
        report = inequalities.check_outcome(table)
        _emit(report_doc(report))
        return EXIT_OK if report.passed else EXIT_VERDICT

    if args.command == "construct":
        table = _require_treatment(load_distribution(args.input))
        doc = {}
        if args.trace:
            doc["trace"] = trace_doc(witness.diagnose(table))
        try:
            q = witness.construct(table)
        except ConstructionError as exc:
            if args.trace:
                doc["error"] = str(exc)
                _emit(doc)
                return EXIT_VERDICT
            raise
        doc["witness"] = measure_doc(q)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dumps(doc["witness"]) + "\n")
        _emit(doc)
        return EXIT_OK

    if args.command == "construct-y":
        table = _require_outcome(load_distribution(args.input))
        q = witness.construct_outcome(table)
        doc = {"witness": outcome_measure_doc(q)}
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dumps(doc["witness"]) + "\n")
        _emit(doc)
        return EXIT_OK

    if args.command == "lp-check":
        table = _require_treatment(load_distribution(args.input))
        ok, certificate = lp.feasible(table)
        doc = {"feasible": ok}
        if certificate is not None:
            doc["certificate"] = measure_doc(certificate)
        _emit(doc)
        return EXIT_OK if ok else EXIT_VERDICT

    if args.command == "lp-check-y":
        table = _require_outcome(load_distribution(args.input))
        ok = lp.feasible_outcome(table)
        _emit({"feasible": ok})
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
                "n": result.n,
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
        error = simulate.verify_mixture(mixture, q, args.n, args.seed)
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
        _emit(report.to_dict())
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
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        ZeroDivisionError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
