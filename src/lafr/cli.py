"""Command-line frontend.

Subcommands: ``analyze`` (full report for one graph), ``periodic``
(one-vertex periodicity), ``construct`` (emit a constructed graph as
graph6), and ``campaign`` (corpus verification runs).  Exit codes:
0 success / all-pass, 1 counterexample found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .campaigns import (
    campaign_constructions,
    campaign_prime_order,
    campaign_trees,
)
from .errors import SpecialSmallGraphError
from .graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complement,
    disjoint_union,
    double_cone,
    hadamard_graph,
    join,
    parse_edgelist,
    parse_graph6,
    standard_graph,
    sylvester_hadamard,
    threshold_graph,
    to_graph6,
)
from .reporting import (
    build_analysis_report,
    campaign_report,
    format_report,
    format_time,
)

_NAME_PATTERN = re.compile(r"^([KPCOE])(\d+)$")
_NAME_FAMILIES = {
    "K": "complete",
    "P": "path",
    "C": "cycle",
    "O": "empty",
    "E": "empty",
}


def graph_from_token(token: str) -> Graph:
    """A graph from a family shorthand (K4, P3, C6, O2) or a graph6 string."""
    m = _NAME_PATTERN.match(token)
    if m:
        return standard_graph(_NAME_FAMILIES[m.group(1)], int(m.group(2)))
    return parse_graph6(token)


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        return graph_from_token(args.g6)
    text = Path(args.file).read_text()
    if args.format == "edgelist":
        return parse_edgelist(text)
    return parse_graph6((text.strip().splitlines() or [""])[0])


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    if g.n > args.max_n:
        print(f"graph too large (n={g.n} > {args.max_n})", file=sys.stderr)
        return 2
    pairs = None
    if args.pairs:
        pairs = []
        for spec in args.pairs:
            try:
                a, b = (int(x) for x in spec.split(","))
            except ValueError:
                raise ValueError(f"--pairs {spec!r}: expected two vertices a,b") from None
            pairs.append((a, b))
    report = build_analysis_report(g, pairs=pairs, tol=args.tol)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
    return 0


def _cmd_periodic(args) -> int:
    from .spectral import is_periodic

    g = graph_from_token(args.g6)
    if not 0 <= args.vertex < g.n:
        print("vertex out of range", file=sys.stderr)
        return 2
    per = is_periodic(g, args.vertex)
    if not per.periodic:
        print(f"vertex {args.vertex}: not periodic")
    elif per.big_g is None:
        print(f"vertex {args.vertex}: periodic at all times (isolated)")
    else:
        from fractions import Fraction

        f = Fraction(2, per.big_g)
        entry = {"num": f.numerator, "den": f.denominator}
        print(
            f"vertex {args.vertex}: periodic, G={per.big_g}, "
            f"minimal period {format_time(entry)}"
        )
    return 0


def _cmd_construct(args) -> int:
    name = args.name
    params = args.params
    try:
        needs = {"double-cone": "over", "hadamard": "sylvester"}.get(name)
        if needs and getattr(args, needs) is None:
            raise ValueError(f"{name} needs --{needs}")
        if name in ("path", "cycle", "complete", "empty"):
            g = standard_graph(name, int(params[0]))
        elif name == "double-cone":
            g = double_cone(graph_from_token(args.over))
        elif name == "complement":
            g = complement(graph_from_token(params[0]))
        elif name in ("cartesian", "join", "union"):
            x, y = graph_from_token(params[0]), graph_from_token(params[1])
            g = {
                "cartesian": cartesian_product,
                "join": join,
                "union": disjoint_union,
            }[name](x, y)
        elif name == "threshold":
            g = threshold_graph([int(x) for x in params[0].split(",")])
        elif name == "hadamard":
            g = hadamard_graph(sylvester_hadamard(args.sylvester))
        else:
            print(f"unknown constructor {name!r}", file=sys.stderr)
            return 2
    except (IndexError, ValueError) as exc:
        print(f"bad constructor parameters: {exc}", file=sys.stderr)
        return 2
    print(to_graph6(g))
    return 0


def _cmd_campaign(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    if args.name == "trees":
        result = campaign_trees(args.max_n)
    elif args.name in ("prime5", "prime7"):
        result = campaign_prime_order(int(args.name[-1]))
    else:
        result = campaign_constructions()
    report = campaign_report(result)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2))
    status = "PASS" if result.passed else "FAIL"
    print(
        f"campaign {result.name}: {status}  corpus={result.corpus_size}  "
        f"counterexamples={len(result.counterexamples)}  "
        f"wall={result.wall_time_s:.1f}s"
    )
    for cex in result.counterexamples[:20]:
        print(f"  counterexample: {cex}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lafr",
        description="Exact Laplacian fractional-revival analysis of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full revival/periodicity report")
    src = p_an.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 string or family shorthand (K4, P3, C6, O2)")
    src.add_argument("--file", help="path to a graph file")
    p_an.add_argument(
        "--format", choices=("graph6", "edgelist"), default="graph6"
    )
    p_an.add_argument(
        "--pairs",
        action="append",
        metavar="a,b",
        help="decide these pairs explicitly (repeatable)",
    )
    p_an.add_argument("--json", action="store_true", help="emit JSON")
    p_an.add_argument("--tol", type=float, default=1e-9,
                      help="oracle verification tolerance")
    p_an.add_argument("--max-n", type=int, default=500,
                      help="largest vertex count accepted for exact analysis")
    p_an.set_defaults(func=_cmd_analyze)

    p_per = sub.add_parser("periodic", help="periodicity at one vertex")
    p_per.add_argument("--g6", required=True,
                       help="graph6 string or family shorthand (K4, P3, C6, O2)")
    p_per.add_argument("--vertex", type=int, required=True)
    p_per.set_defaults(func=_cmd_periodic)

    p_con = sub.add_parser("construct", help="emit a constructed graph as graph6")
    p_con.add_argument(
        "name",
        choices=(
            "path", "cycle", "complete", "empty", "double-cone",
            "complement", "cartesian", "join", "union", "threshold", "hadamard",
        ),
    )
    p_con.add_argument("params", nargs="*", help="constructor parameters")
    p_con.add_argument("--over", help="base graph for double-cone")
    p_con.add_argument("--sylvester", type=int, help="Sylvester order exponent")
    p_con.set_defaults(func=_cmd_construct)

    p_cam = sub.add_parser("campaign", help="run a verification campaign")
    p_cam.add_argument(
        "name", choices=("trees", "prime5", "prime7", "constructions")
    )
    p_cam.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; campaigns run in one process")
    p_cam.add_argument("--json", metavar="PATH", help="write JSON report here")
    p_cam.add_argument("--max-n", type=int, default=10,
                       help="largest tree size for the tree campaign")
    p_cam.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SpecialSmallGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
