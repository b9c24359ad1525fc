"""Command-line surface: compute indices, build line graphs, run checks and sweeps.

Exit codes: 0 all good, 1 a checked statement was violated, 2 a usage, parse
or internal error; 141 (as for SIGPIPE) when the reader of stdout goes away
early.  Output is deterministic for a fixed configuration (including seeds).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .checks import CHECK_IDS, DEFAULT_ALPHAS, check_line_zagreb_identity, run_checks
from .enumeration import (
    ENUMERATION_MAX_N,
    census_rows,
    enumerate_connected,
    extremal_search,
    validate_order,
    validate_random_order,
)
from .formats import (
    Graph6Error,
    iter_graph6,
    looks_like_edge_list,
    parse_graph_spec,
    read_edge_list,
    to_graph6,
)
from .graphs import Graph, canonical_form, classify, graph_name
from .indices import all_indices, chi_alpha, m1_alpha, m2_alpha
from .linegraph import GraphFacts, verify_degree_identity
from .report import json_rows
from .sweeps import exhaustive_sweep, random_sweep

# Display floats are float64, so 53 bits is also the most a value can carry.
DEFAULT_PRECISION = 53
MIN_PRECISION = 32
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
PRECISION_ENV = "GAINDEX_PRECISION"


class UsageError(Exception):
    pass


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad alpha {text!r}: {exc}") from exc


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "graphs",
        nargs="*",
        help="inline graphs: named shorthand (P5, C4, S5, K5,20, DS1,2, paw), "
        "graph6 strings, or '-' for stdin",
    )
    sub.add_argument("-i", "--input", help="file of graph6 lines or an edge list")
    sub.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )


def _resolve_precision(args: argparse.Namespace) -> int:
    if args.precision is not None:
        source, bits = "--precision", args.precision
    else:
        env = os.environ.get(PRECISION_ENV)
        if not env:
            return DEFAULT_PRECISION
        try:
            source, bits = PRECISION_ENV, int(env)
        except ValueError as exc:
            raise UsageError(f"bad {PRECISION_ENV}={env!r}: {exc}") from exc
    if not MIN_PRECISION <= bits <= DEFAULT_PRECISION:
        raise UsageError(
            f"{source} must be between {MIN_PRECISION} and {DEFAULT_PRECISION} "
            f"bits, got {bits}"
        )
    return bits


def _read_graphs(text: str) -> list[Graph]:
    """The graphs of an ``--input`` file or of stdin: one edge list, or
    graph6 lines."""
    if looks_like_edge_list(text):
        return [read_edge_list(text)]
    return list(iter_graph6(text))


def _load_graphs(args: argparse.Namespace) -> list[Graph]:
    graphs: list[Graph] = []
    if args.input:
        graphs.extend(_read_graphs(Path(args.input).read_text()))
    for spec in args.graphs:
        if spec == "-":
            graphs.extend(_read_graphs(sys.stdin.read()))
        else:
            graphs.append(parse_graph_spec(spec))
    if not graphs:
        raise UsageError("no input graphs (pass shorthand, graph6, --input or '-')")
    return graphs


def _value_cell(value, precision: int) -> dict:
    exact = value.exact
    return {
        "exact": None if exact is None else str(exact),
        "approx": value.approx if exact is None else exact.to_float(precision),
        "precision_bits": precision,
    }


def _emit_rows(rows: list[dict], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        if rows:
            flat = [_flatten(row) for row in rows]
            keys = sorted({k for row in flat for k in row})
            writer = csv.DictWriter(out, fieldnames=keys)
            writer.writeheader()
            writer.writerows(flat)
    else:
        for row in rows:
            for key, val in row.items():
                out.write(f"{key}: {val}\n")
            out.write("\n")


def _flatten(row: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, val in row.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, prefix=f"{name}."))
        else:
            flat[name] = val
    return flat


def cmd_compute(args: argparse.Namespace) -> int:
    precision = _resolve_precision(args)
    graphs = _load_graphs(args)
    rows = []
    for g in graphs:
        row: dict = {
            "graph6": to_graph6(g),
            "n": g.n,
            "m": g.m,
            "max_degree": g.max_degree,
            "min_degree": g.min_degree,
            "class": str(classify(g)),
            "name": graph_name(g) or "",
        }
        for key, value in all_indices(g).items():
            row[key] = _value_cell(value, precision)
        for alpha in args.alpha or []:
            row[f"M1^{alpha}"] = _value_cell(m1_alpha(g, alpha), precision)
            row[f"M2^{alpha}"] = _value_cell(m2_alpha(g, alpha), precision)
            row[f"chi_{alpha}"] = _value_cell(chi_alpha(g, alpha), precision)
        rows.append(row)
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def cmd_linegraph(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    rows = []
    for g in graphs:
        f = GraphFacts(g)
        lg = f.line.graph
        rows.append(
            {
                "graph6": to_graph6(g),
                "line_graph6": to_graph6(lg),
                "line_n": lg.n,
                "line_m": lg.m,
                "line_max_degree": lg.max_degree,
                "line_min_degree": lg.min_degree,
                "degree_identity": verify_degree_identity(f),
                "zagreb_identity": check_line_zagreb_identity(f)[0].holds,
            }
        )
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def _report_rows(reports, graph6: str) -> list[dict]:
    return [{**report.to_dict(), "graph6": graph6} for report in reports]


def _write_json_rows(rows: list[str], out: io.TextIOBase) -> None:
    """Write ``json_rows`` items as the JSON array ``json.dump`` would.

    One ``write`` per row and per separator, never the joined output: that
    keeps memory flat and no string handed to ``out`` is longer than a row.
    """
    sep = "[\n"
    for row in rows:
        out.write(sep)
        out.write(row)
        sep = ",\n"
    out.write("\n]\n" if rows else "[]\n")


def cmd_check(args: argparse.Namespace) -> int:
    graphs = _load_graphs(args)
    ids = None
    if args.theorems != "all":
        ids = [tok.strip() for tok in args.theorems.split(",") if tok.strip()]
        if not ids:
            raise UsageError(f"no check ids selected; available: {', '.join(CHECK_IDS)}")
        unknown = [tok for tok in ids if tok not in CHECK_IDS]
        if unknown:
            raise UsageError(
                f"unknown check ids {unknown}; available: {', '.join(CHECK_IDS)}"
            )
    alphas = tuple(args.alpha) if args.alpha else DEFAULT_ALPHAS
    as_json = args.format == "json"
    encode = json_rows if as_json else _report_rows
    rows: list = []
    violated = False
    # Every graph is checked and encoded before the first write, so a failure
    # leaves stdout empty.
    for g in graphs:
        reports = run_checks(g, ids=ids, alphas=alphas)
        violated = violated or any(r.violated for r in reports)
        rows.extend(encode(reports, to_graph6(g)))
    if as_json:
        _write_json_rows(rows, sys.stdout)
    else:
        _emit_rows(rows, args.format, sys.stdout)
    return 1 if violated else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # Both parts' arguments are refused before either part runs.
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    validate_order(args.nmax)
    if args.trials:
        validate_random_order(args.random_nmax)
    alphas = tuple(args.alpha) if args.alpha else DEFAULT_ALPHAS
    result = exhaustive_sweep(args.nmax, alphas=alphas)
    if args.trials:
        result.merge(
            random_sweep(
                args.trials, seed=args.seed, n_high=args.random_nmax, alphas=alphas
            )
        )
    rows = [
        {
            "check_id": agg.check_id,
            "tested": agg.tested,
            "skipped": agg.skipped,
            "violations": agg.violations,
            "equalities": agg.equalities,
            "characterization_mismatches": agg.mismatches,
        }
        for agg in sorted(result.aggregates.values(), key=lambda a: a.check_id)
    ]
    for note in result.notes:
        rows.append({"note": note})
    _emit_rows(rows, args.format, sys.stdout)
    if not result.clean:
        sys.stdout.write(f"FAILURES: {len(result.failures)}\n")
        for source, report in result.failures[:20]:
            sys.stdout.write(f"  {source}: {report.check_id}: {report.notes}\n")
        return 1
    return 0


def cmd_extremal(args: argparse.Namespace) -> int:
    optima = extremal_search(args.n, args.m, args.objective)
    rows = []
    for g, value in optima:
        rows.append(
            {
                "graph6": to_graph6(g),
                "name": graph_name(g) or "",
                "canonical_form": canonical_form(g),
                "ga1_exact": str(value),
                "ga1_float": value.to_float(),
            }
        )
    _emit_rows(rows, args.format, sys.stdout)
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    if not 1 <= args.nmax <= ENUMERATION_MAX_N:
        raise UsageError(
            f"--nmax must be between 1 and ENUMERATION_MAX_N = {ENUMERATION_MAX_N}, "
            f"got {args.nmax}"
        )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for n in range(1, args.nmax + 1):
        graphs = enumerate_connected(n)
        g6_path = outdir / f"census_n{n}.g6"
        g6_path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
        rows = census_rows(n)
        csv_path = outdir / f"census_n{n}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=["canonical_form", "name", "n", "m", "ga1_exact", "ga1_float"],
            )
            writer.writeheader()
            writer.writerows(rows)
        sys.stdout.write(f"n={n}: {len(graphs)} graphs -> {g6_path}, {csv_path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaindex",
        description="Exact geometric-arithmetic index computations, line graphs, "
        "and verification sweeps over small graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="compute the index battery per graph")
    _add_io_arguments(sub)
    sub.add_argument(
        "--alpha",
        type=_fraction_arg,
        action="append",
        help="extra exponent for the variable indices (repeatable)",
    )
    sub.add_argument(
        "--precision",
        type=int,
        default=None,
        help=f"float display precision in bits (default {DEFAULT_PRECISION}; "
        f"env {PRECISION_ENV} overrides the default)",
    )
    sub.set_defaults(func=cmd_compute)

    sub = subs.add_parser("linegraph", help="emit line graphs plus identity report")
    _add_io_arguments(sub)
    sub.set_defaults(func=cmd_linegraph)

    sub = subs.add_parser("check", help="run selected checks on input graphs")
    _add_io_arguments(sub)
    sub.add_argument(
        "--theorems",
        default="all",
        help="comma-separated check ids, or 'all' (default)",
    )
    sub.add_argument(
        "--alpha",
        type=_fraction_arg,
        action="append",
        help="alpha samples for the parameterized bounds",
    )
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("sweep", help="exhaustive plus random verification campaign")
    sub.add_argument(
        "--nmax",
        type=int,
        default=6,
        help=f"exhaustive order bound (<= {ENUMERATION_MAX_N})",
    )
    sub.add_argument("--trials", type=int, default=0, help="random graphs to test")
    sub.add_argument("--seed", type=int, default=42, help="seed for the random part")
    sub.add_argument(
        "--random-nmax", type=int, default=12, help="max order of random graphs"
    )
    sub.add_argument(
        "--alpha",
        type=_fraction_arg,
        action="append",
        help="alpha samples for the parameterized bounds",
    )
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("extremal", help="exact extremal graphs for fixed (n, m)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--objective", choices=("min", "max"), required=True)
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(func=cmd_extremal)

    sub = subs.add_parser("census", help="write per-order census files (graph6 + CSV)")
    sub.add_argument(
        "--nmax", type=int, default=7, help=f"largest order (1 to {ENUMERATION_MAX_N})"
    )
    sub.add_argument("--output", default="census", help="output directory")
    sub.set_defaults(func=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``gaindex ... | head``).  Point stdout
        # at devnull so that the flush at interpreter exit cannot fail again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # not backed by a file descriptor
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        # Exit 1 means "a statement was violated"; a crash must not read so.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
