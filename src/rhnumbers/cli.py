"""Command-line front end.

Subcommands: classify | search | multiplier | family | tables | oeis |
bounds | palsquare.  JSON is the canonical machine format; CSV and
b-file output are projections of it.  Exit codes: 0 success, 1
verification failure or CONFLICT-WITH-PAPER present, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout

from .bounds import digit_bound
from .classify import ARH, MRH, NIVEN, classify, niven_flags
from .digitvec import parse_digits, render_digits
from .families import (
    FamilyParameterError,
    gen_all_ones,
    gen_alternating,
    gen_niven_not_mrh,
    gen_repunit12,
    gen_square_family,
    verify_family,
)
from .oeis import bfile_deviation_note, bfile_lines, bfile_text, first_terms
from .search import (
    ALLOW,
    FORBID,
    SearchConfig,
    numbers_for_multiplier,
    palindromic_square_search,
    paper_bound_conflicts,
    scan_numbers,
    scan_range,
)
from .tables import reproduce_all_tables, reproduce_table, section1_counts

# CLI family name -> (the one parameter it takes, generator of (base, parameter)).
FAMILIES = {
    "repunit12": ("k", lambda base, k: gen_repunit12(k)),
    "all-ones": ("p", gen_all_ones),
    "alternating": ("p", gen_alternating),
    "square": ("k", gen_square_family),
    "niven-not-mrh": ("n", gen_niven_not_mrh),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _add_format(p: argparse.ArgumentParser, *choices: str) -> None:
    p.add_argument("--format", choices=choices, default="json", help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhnumbers",
        description="Additive and multiplicative Ramanujan-Hardy numbers in arbitrary bases",
    )
    # Each subcommand takes only the options it honours.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base", type=int, default=10, help="numeration base (default 10)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify one integer")
    _add_format(p, "json", "csv")
    p.add_argument("n", help="the integer (decimal value, or digit string with --digits)")
    p.add_argument(
        "--digits",
        action="store_true",
        help="interpret N as a base-b digit string instead of a decimal value",
    )

    p = sub.add_parser("search", parents=[common], help="scan an inclusive range")
    _add_format(p, "json", "csv", "bfile")
    p.add_argument("--max", type=_positive_int, required=True, dest="hi")
    p.add_argument("--min", type=_positive_int, default=1, dest="lo")
    p.add_argument("--kind", choices=(ARH, MRH, NIVEN), required=True)
    p.add_argument("--no-zero-digits", action="store_true")
    p.add_argument("--multiplier", type=_positive_int, default=None)

    p = sub.add_parser(
        "multiplier", parents=[common], help="complete number set for one multiplier"
    )
    _add_format(p, "json", "csv", "bfile")
    p.add_argument("--multiplier", type=_positive_int, required=True)
    p.add_argument("--kind", choices=(ARH, MRH), required=True)
    p.add_argument("--no-zero-digits", action="store_true")

    p = sub.add_parser("family", parents=[common], help="generate/verify a family instance")
    p.add_argument("name", choices=sorted(FAMILIES))
    p.add_argument("--k", type=_nonnegative_int, default=None)
    p.add_argument("--p", type=_positive_int, default=None)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("tables", help="reproduce the printed base-10 tables and counts")
    p.add_argument(
        "--which",
        choices=("1", "2", "3", "counts", "all"),
        default="all",
        help="table to reproduce, or the headline counts",
    )

    p = sub.add_parser("oeis", help="emit an OEIS b-file")
    p.add_argument("--seq", choices=("A305130", "A305131"), required=True)
    p.add_argument("--count", type=_positive_int, required=True)

    p = sub.add_parser("bounds", parents=[common], help="digit-count bound for (base, M)")
    p.add_argument("--multiplier", type=_positive_int, required=True)
    p.add_argument("--kind", choices=(ARH, MRH), required=True)

    p = sub.add_parser("palsquare", parents=[common], help="palindromes with zero-free MRH squares")
    _add_format(p, "json", "csv")
    p.add_argument("--limit", type=_positive_int, required=True)
    return parser


def _json_part(obj, newline: str) -> str:
    """json.dumps(obj, indent=2) for a part of a larger document.

    newline is the line break and indent of obj's own level.  JSON
    escapes every line break inside a string, so each raw one is
    structural and takes the indent.
    """
    return json.dumps(obj, indent=2).replace("\n", newline)


_JSON_CONSTANTS = {True: "true", False: "false"}


def _record_json(record, newline: str = "\n") -> str:
    """json.dumps(record.to_json_dict(), indent=2), written from the ClassifyResult's fields.

    newline is the record's own line break and indent.  Each witness is
    (m, x, xr) = (X // s, X, N - X) for ARH and (X // s, X, N // X) for
    MRH, as the record's arh and mrh give it.  N is rendered first, as
    json.dumps renders it, so an N past the int-to-str digit limit
    raises the same ValueError.
    """
    n, base, s, sq_sum, arh, mrh = record
    niven, quad, strong = niven_flags(n, s, sq_sum)
    key, item, field = newline + "  ", newline + "    ", newline + "      "
    if not arh and not mrh:
        return (
            f'{{{key}"n": {n},{key}"base": {base},{key}"niven": {_JSON_CONSTANTS[niven]},'
            f'{key}"arh": [],{key}"mrh": [],{key}"quadratic_niven": {_JSON_CONSTANTS[quad]},'
            f'{key}"strongly_quadratic_niven": {_JSON_CONSTANTS[strong]}{newline}}}'
        )
    parts = [f'{{{key}"n": {n},{key}"base": {base},{key}"niven": {_JSON_CONSTANTS[niven]}']
    for name, xs, reverse in (("arh", arh, n.__sub__), ("mrh", mrh, n.__floordiv__)):
        if not xs:
            parts.append(f'{key}"{name}": []')
            continue
        witnesses = [
            f'{{{field}"m": {x // s},{field}"x": {x},{field}"xr": {reverse(x)}{item}}}'
            for x in xs
        ]
        parts.append(f'{key}"{name}": [{item}' + ("," + item).join(witnesses) + key + "]")
    parts.append(
        f'{key}"quadratic_niven": {_JSON_CONSTANTS[quad]},'
        f'{key}"strongly_quadratic_niven": {_JSON_CONSTANTS[strong]}{newline}}}'
    )
    return ",".join(parts)


def _record_csv(record) -> str:
    """The csv.writer row of the record's fields under _CLASSIFY_HEADER.

    No field holds a comma, quote or line break, so none is quoted.  The
    multiplier lists are joined before N is rendered, as they are when a
    csv.writer row is built from the record's properties, so an int past
    the digit limit raises the same ValueError.
    """
    n, base, s, sq_sum, arh, mrh = record
    niven, quad, strong = niven_flags(n, s, sq_sum)
    arh_m = ";".join([str(x // s) for x in arh]) if arh else ""
    mrh_m = ";".join([str(x // s) for x in mrh]) if mrh else ""
    return f"{n},{base},{niven},{arh_m},{mrh_m},{quad},{strong}\n"


_CLASSIFY_HEADER = (
    "n,base,niven,arh_multipliers,mrh_multipliers,quadratic_niven,strongly_quadratic_niven\n"
)


def _instance_parts(inst, newline: str = "\n") -> list[str]:
    """json.dumps(inst.to_json_dict(), indent=2), as parts for one join.

    Written from the FamilyInstance's fields; newline is the instance's
    own line break and indent.  Each value's digits are rendered once,
    straight into its part, and digit text holds only digits and commas,
    so it needs no escaping.  N is rendered before any multiplier, as
    json.dumps renders it, and every multiplier is below N, so a member
    past the int-to-str digit limit raises the same ValueError.
    """
    base, n = inst.base, inst.number
    key, item, field = newline + "  ", newline + "    ", newline + "      "
    parts = [
        f'{{{key}"family": {json.dumps(inst.family)},{key}"base": {base},'
        f'{key}"params": {_json_part(inst.params, key)},'
        f'{key}"number": {{{item}"value": {n},{item}"digits": "{render_digits(n, base)}"{key}}},'
        f'{key}"predicted_multipliers": ['
    ]
    parts += [
        f'{item}{{{field}"value": {m},{field}"digits": "{render_digits(m, base)}"{item}}},'
        for m in inst.predicted_multipliers
    ]
    if len(parts) > 1:
        parts[-1] = parts[-1][:-1] + key  # no comma after the last multiplier
    claims = _json_part([c.to_json_dict() for c in inst.claims], key)
    parts.append(f'],{key}"claims": {claims}{newline}}}')
    return parts


def _report_parts(report) -> list[str]:
    """json.dumps(report.to_json_dict(), indent=2), as parts for one join."""
    key = "\n  "
    results = _json_part([r.to_json_dict() for r in report.results], key)
    conflicts = _json_part([r.name for r in report.conflicts], key)
    tail = (
        f',{key}"results": {results},{key}"passed": {_JSON_CONSTANTS[report.passed]},'
        f'{key}"conflicts": {conflicts}\n}}'
    )
    return [f'{{{key}"instance": ', *_instance_parts(report.instance, key), tail]


def _write_search(cfg: SearchConfig, fmt: str, out) -> None:
    """search's b-file, CSV or JSON text, written as the scan goes.

    b-file lines and CSV rows are written as their hits come, the header
    with the first row (a scan refused at its first hit prints nothing).
    JSON prints "count" before "results", so it holds the scan's records
    (never their text) until the count is known.
    """
    if fmt == "bfile":
        out.writelines(bfile_lines(scan_numbers(cfg)))
        return
    if fmt == "csv":
        rows = (_record_csv(record) for _, record in scan_range(cfg))
        out.write(_CLASSIFY_HEADER + next(rows, ""))
        out.writelines(rows)
        return
    records = [record for _, record in scan_range(cfg)]
    config = _json_part(cfg._asdict(), "\n  ")
    out.write(f'{{\n  "config": {config},\n  "count": {len(records)},\n  "results": ')
    if not records:
        out.write("[]\n}\n")
        return
    texts = (_record_json(record, "\n    ") for record in records)
    out.write("[\n    " + next(texts))
    out.writelines(",\n    " + text for text in texts)
    out.write("\n  ]\n}\n")


def run_cli(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:  # argparse writes --help and usage errors to the given streams, not the process's
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _dispatch(args, out, err)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2


def _dispatch(args, out, err) -> int:
    if args.command == "classify":
        n = parse_digits(args.n, args.base) if args.digits else int(args.n)
        record = classify(n, args.base)
        if args.format == "csv":
            out.write(_CLASSIFY_HEADER + _record_csv(record))
        else:
            print(_record_json(record), file=out)
        return 0

    if args.command == "search":
        cfg = SearchConfig(
            base=args.base,
            lo=args.lo,
            hi=args.hi,
            kind=args.kind,
            zero_digit_policy=FORBID if args.no_zero_digits else ALLOW,
            multiplier_filter=args.multiplier,
        )
        _write_search(cfg, args.format, out)
        return 0

    if args.command == "multiplier":
        policy = FORBID if args.no_zero_digits else ALLOW
        numbers = numbers_for_multiplier(args.base, args.multiplier, args.kind, policy)
        if args.format == "json":
            doc = {
                "base": args.base,
                "multiplier": args.multiplier,
                "kind": args.kind,
                "zero_digit_policy": policy,
                "multiplicity": len(numbers),
                "numbers": numbers,
            }
            print(json.dumps(doc, indent=2), file=out)
        elif args.format == "csv":
            out.write("n\n" + "".join(f"{n}\n" for n in numbers))
        else:
            print(bfile_text(numbers), end="", file=out)
        conflicts = paper_bound_conflicts(args.base, args.multiplier, args.kind, numbers)
        if conflicts:
            spec = digit_bound(args.base, args.multiplier, args.kind)
            for n in conflicts:
                print(
                    f"CONFLICT-WITH-PAPER: {n} has more than k_max = {spec.k_max} digits "
                    f"({spec.source})",
                    file=err,
                )
            return 1
        return 0

    if args.command == "family":
        inst = _build_family(args)
        if not args.verify:
            print("".join(_instance_parts(inst)), file=out)
            return 0
        report = verify_family(inst)
        print("".join(_report_parts(report)), file=out)
        return 0 if report.passed else 1

    if args.command == "tables":
        if args.which == "counts":
            print(json.dumps(section1_counts().to_json_dict(), indent=2), file=out)
            return 0
        if args.which == "all":
            reports = reproduce_all_tables()
            print(json.dumps([r.to_json_dict() for r in reports], indent=2), file=out)
        else:
            reports = [reproduce_table(f"T{args.which}")]
            print(json.dumps(reports[0].to_json_dict(), indent=2), file=out)
        return 1 if any(r.has_toolkit_mismatch for r in reports) else 0

    if args.command == "oeis":
        terms = first_terms(args.seq, args.count)
        print(bfile_text(terms), end="", file=out)
        note = bfile_deviation_note(args.seq, terms)
        if note:
            print(note, file=err)
        return 0

    if args.command == "bounds":
        spec = digit_bound(args.base, args.multiplier, args.kind)
        print(json.dumps(spec.to_json_dict(), indent=2), file=out)
        return 0

    if args.command == "palsquare":
        hits = palindromic_square_search(args.limit, base=args.base)
        if args.format == "csv":
            rows = "".join(f"{n},{sq},{s}\n" for n, sq, s in hits)
            out.write("n,square,square_digit_sum\n" + rows)
        else:
            doc = [{"n": n, "square": sq, "square_digit_sum": s} for n, sq, s in hits]
            print(json.dumps(doc, indent=2), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _build_family(args):
    param, generate = FAMILIES[args.name]
    for flag in ("k", "p", "n"):
        if flag != param and getattr(args, flag) is not None:
            raise ValueError(f"family {args.name!r} takes --{param}, not --{flag}")
    if args.name == "repunit12" and args.base != 10:
        raise FamilyParameterError("base is 10", "repunit12 is a base-10 family")
    value = getattr(args, param)
    if value is None:
        raise FamilyParameterError(f"--{param}", f"family {args.name!r} requires --{param}")
    return generate(args.base, value)


def main() -> None:
    # A closed stdout (`rhnumbers ... | head`) ends the process quietly, as
    # for other shell tools, instead of a BrokenPipeError traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
