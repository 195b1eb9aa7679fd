"""Command-line front end: exact counts, bound reports, forbiddance-graph
inspection, verification sweeps and convergence tables.

Output is one JSON record per line by default; --format csv/table switch the
rendering of `count`, `bound`, `forbid` and `table`. `verify` prints one
PASS/FAIL line per check unless --format json/csv/table asks for records.
Each flag is defined only on the subcommands that read it, and only the
command line sets it.
Parse failures and cap refusals exit nonzero with a message on stderr;
`verify` exits 0 only when every selected check passes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Optional, Sequence

from . import __version__
from . import enumerate_subsets as enum
from .bounds import _int_str, build_report, even_upper_ratio
from .fib_index import fib_index_exact
from .forbiddance import build_graph, decompose
from .groups import GroupSpec, groups_up_to
from .verify import DEFAULT_SEED, CHECKS, run_checks

_FAMILIES = ("cyclic", "cyclic-even", "cyclic-odd", "zn-x-z2", "all")


def _threads(raw: str) -> int:
    """argparse type of table's --threads: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


def _precision_bits(raw: str) -> int:
    """argparse type of --precision-bits: an integer of at least 64, checked
    before any count runs."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 64:
        raise argparse.ArgumentTypeError(f"precision_bits must be at least 64, got {value}")
    return value


def _seconds(raw: str) -> float:
    """argparse type of --progress: seconds above 0; nan and non-numbers are refused."""
    if not float(raw) > 0:
        raise argparse.ArgumentTypeError(f"expected a number of seconds > 0, got {raw!r}")
    return float(raw)


def _add_format(parser: argparse.ArgumentParser, default: str = "json") -> None:
    """--format json/csv/table; a subcommand with its own text rendering
    passes default="text" to keep it as the default."""
    choices = ("json", "csv", "table")
    if default == "text":
        choices = ("text",) + choices
    parser.add_argument(
        "--format",
        choices=choices,
        default=default,
        help=f"output rendering (default {default}; json is one record per line)",
    )


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
        return
    if not records:
        return
    fields = list(records[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        sys.stdout.write(buf.getvalue())
        return
    widths = {
        f: max(len(f), *(len(str(rec.get(f, ""))) for rec in records)) for f in fields
    }
    print("  ".join(f.ljust(widths[f]) for f in fields))
    for rec in records:
        print("  ".join(str(rec.get(f, "")).ljust(widths[f]) for f in fields))


def _parse_elements(raw: Optional[str]) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(int(p) for p in raw.split(","))


def cmd_count(args: argparse.Namespace) -> int:
    group = GroupSpec.from_string(args.group)
    result = enum.count_mstd(group, cap=args.cap, progress_interval=args.progress)
    _emit([result.to_record()], args.format)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    group = GroupSpec.from_string(args.group)
    exact = None
    if args.exact:
        exact = enum.count_mstd(group).mstd_count
    report = build_report(group, precision_bits=args.precision_bits, exact=exact)
    _emit([report.to_record()], args.format)
    return 0


def cmd_forbid(args: argparse.Namespace) -> int:
    group = GroupSpec.from_string(args.group)
    diffs = _parse_elements(args.diffs)
    sums = _parse_elements(args.sums)
    graph = build_graph(group, diffs, sums)
    dec = decompose(graph)
    index = fib_index_exact(graph)
    record = {
        "group": str(group),
        "diffs": ",".join(str(d) for d in sorted(graph.spec.diffs)),
        "sums": ",".join(str(s) for s in sorted(graph.spec.sums)),
        "independent_sets": _int_str(index),
    }
    record.update(dec.to_record())
    record["components"] = json.dumps(record["components"])
    record["looped"] = ",".join(str(v) for v in dec.looped)
    reduced = {min(d, group.neg(d)) for d in graph.spec.diffs}
    if len(reduced) == 1 and len(graph.spec.sums) == 1:
        (d,) = reduced
        m = group.element_order(d)
        if m % 2 == 1 and m > 1:
            n_p, n_l, _ = dec.prism_ladder_profile(m)
            record["prisms"] = n_p
            record["ladders"] = n_l
    if args.oracle:
        oracle = enum.count_avoiding(group, diffs, sums)
        record["oracle"] = str(oracle)
        record["oracle_match"] = oracle == index
    if args.edges:
        sys.stderr.write(graph.edge_list_text())
    _emit([record], args.format)
    if args.oracle and not record["oracle_match"]:
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    only = args.only.split(",") if args.only else None
    if args.list_checks:
        for name in CHECKS:
            print(name)
        return 0
    results = run_checks(only=only, max_order=args.max_order, seed=args.seed)
    if args.format == "text":
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    else:
        _emit([dataclasses.asdict(res) for res in results], args.format)
    return 0 if all(res.passed for res in results) else 1


def _family_groups(family: str, lo: int, hi: int) -> list[GroupSpec]:
    if family == "cyclic":
        return [GroupSpec((n,)) for n in range(max(lo, 2), hi + 1)]
    if family == "cyclic-even":
        return [GroupSpec((n,)) for n in range(max(lo, 2), hi + 1) if n % 2 == 0]
    if family == "cyclic-odd":
        return [GroupSpec((n,)) for n in range(max(lo, 3), hi + 1) if n % 2 == 1]
    if family == "zn-x-z2":
        return [GroupSpec((n, 2)) for n in range(max(lo, 2), hi + 1)]
    return [g for g in groups_up_to(hi, min_order=max(lo, 2))]


def cmd_table(args: argparse.Namespace) -> int:
    if args.min > args.max:
        raise ValueError("--min must not exceed --max")
    records = []
    for group in _family_groups(args.family, args.min, args.max):
        exact = None
        if group.order <= args.max_order:
            exact = enum.count_mstd(group).mstd_count
        report = build_report(
            group, precision_bits=args.precision_bits, exact=exact
        )
        rec = report.to_record()
        # guaranteed brackets on count/asymptotic; the even case has the
        # sharper closed-form cap on top of upper/asymptotic
        rec["ratio_cap_lower"] = report.over_asymptotic(report.lower)
        if group.order % 2 == 0:
            rec["ratio_cap_upper"] = float(even_upper_ratio(group))
        else:
            rec["ratio_cap_upper"] = report.upper_over_asymptotic
        rec.setdefault("exact", "")
        rec.setdefault("exact_over_asymptotic", "")
        records.append(rec)
    _emit(records, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstd",
        description="Count and bound more-sums-than-differences sets in "
        "finite abelian groups.",
    )
    parser.add_argument("--version", action="version", version=f"mstd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", help="exact MSTD count: pruned walk, one scan block up to order 14"
    )
    p_count.add_argument("-g", "--group", required=True, help='factor list, e.g. "12,2"')
    p_count.add_argument(
        "--cap",
        type=int,
        default=enum.COUNT_CAP,
        help=f"largest group order to count (default {enum.COUNT_CAP})",
    )
    _add_format(p_count)
    p_count.add_argument(
        "--progress",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="walk progress interval on stderr, above order 14 (default: off)",
    )
    p_count.set_defaults(func=cmd_count)

    p_bound = sub.add_parser("bound", help="closed-form bound report")
    p_bound.add_argument("-g", "--group", required=True)
    p_bound.add_argument(
        "--precision-bits",
        type=_precision_bits,
        help="working precision of the asymptotic term, >= 64 (default max(2|G|, 64))",
    )
    p_bound.add_argument(
        "--exact",
        action="store_true",
        help="also run the exact count and attach it",
    )
    _add_format(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_forbid = sub.add_parser(
        "forbid", help="forbiddance graph: decomposition and exact index"
    )
    p_forbid.add_argument("-g", "--group", required=True)
    p_forbid.add_argument("-d", "--diffs", help="forbidden differences, e.g. 1 or 1,3")
    p_forbid.add_argument("-s", "--sums", help="forbidden sums")
    p_forbid.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the index against the exhaustive subset scan",
    )
    p_forbid.add_argument(
        "--edges", action="store_true", help="dump the edge list to stderr"
    )
    _add_format(p_forbid)
    p_forbid.set_defaults(func=cmd_forbid)

    p_verify = sub.add_parser("verify", help="run the verification sweeps")
    p_verify.add_argument(
        "--only", help="comma-separated check names (default: all)"
    )
    p_verify.add_argument(
        "--max-order",
        type=int,
        help="lower the sweep ceilings to this group order (at least 4)",
    )
    p_verify.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized checks",
    )
    p_verify.add_argument(
        "--list-checks", action="store_true", help="list check names and exit"
    )
    _add_format(p_verify, default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser(
        "table", help="bound/convergence table over a group family"
    )
    p_table.add_argument("--family", choices=_FAMILIES, default="cyclic")
    p_table.add_argument("--min", type=int, default=2)
    p_table.add_argument("--max", type=int, required=True)
    p_table.add_argument(
        "--max-order",
        type=int,
        default=enum.COUNT_CAP,
        help="largest order to count exactly (default: the count cap)",
    )
    p_table.add_argument(
        "--precision-bits",
        type=_precision_bits,
        help="working precision of the asymptotic term, >= 64 (default max(2|G|, 64))",
    )
    # perfbench/workloads.py passes --threads; it is checked and otherwise unread
    p_table.add_argument(
        "--threads", type=_threads, help="accepted and checked to be >= 1; counts run on one thread"
    )
    _add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes cap refusals
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
