"""Command-line frontend.

Subcommands: ``analyze`` (full report for one graph), ``periodic``
(one-vertex periodicity), ``construct`` (emit a constructed graph as
graph6; every operand positional), and ``campaign`` (corpus verification
runs).  A graph file is an edge list when its first non-blank line starts
with a digit, a sign or ``#`` (no graph6 byte is one), and one graph6 line
otherwise.  Exit codes: 0 success / all-pass, 1 counterexample found,
2 usage or parse error, 141 when the reader closes stdout early.

Each subcommand imports the modules it runs (``reporting``, ``campaigns``
and numpy through them) once its operands pass their size and parse
checks, so start-up, ``--help``, those refusals and every constructor but
``hadamard`` run without numpy.  A process enters through :func:`run`, which
freezes the heap so that shutdown's collections skip it, not free it object by object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from pathlib import Path

from .errors import SpecialSmallGraphError
from .graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    check_vertices,
    complement,
    disjoint_union,
    double_cone,
    graph6_order,
    hadamard_graph,
    join,
    parse_edgelist,
    parse_graph6,
    standard_graph,
    sylvester_hadamard,
    threshold_graph,
    to_graph6,
)

_NAME_PATTERN = re.compile(r"^([KPCO])(\d+)$")
_NAME_FAMILIES = {
    "K": "complete",
    "P": "path",
    "C": "cycle",
    "O": "empty",
}
_MAX_N = 500  # largest vertex count taken by analyze, periodic and construct
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, a shell's status for a writer whose reader left


def graph_from_token(token: str) -> Graph:
    """A graph from a family shorthand (K4, P3, C6, O2) or a graph6 string."""
    m = _NAME_PATTERN.match(token)
    if m:
        return standard_graph(_NAME_FAMILIES[m.group(1)], int(m.group(2)))
    return parse_graph6(token)


def _order(token: str) -> int:
    """Vertex count of a shorthand or graph6 operand, read without building the graph."""
    m = _NAME_PATTERN.match(token)
    return int(m.group(2)) if m else graph6_order(token)


def _check_order(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"graph too large (n={n} > {_MAX_N})")


def _load_graph(args) -> Graph:
    """The input graph, at most _MAX_N vertices; only an edge list is sized once parsed."""
    if args.g6 is not None:
        _check_order(_order(args.g6))
        return graph_from_token(args.g6)
    text = Path(args.file).read_text()
    line, *rest = text.strip().splitlines() or [""]
    if line[:1].isdigit() or line[:1] in ("#", "+", "-"):
        g = parse_edgelist(text)
        _check_order(g.n)
        return g
    if any(map(str.strip, rest)):
        raise GraphFormatError("a graph6 file holds one graph, this one has more lines")
    _check_order(graph6_order(line))
    return parse_graph6(line)


def _pair(spec: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two vertices a,b, got {spec!r}") from None
    return a, b


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    for pair in args.pairs or ():
        check_vertices(g, *pair)
    from .reporting import build_analysis_report, format_report

    report = build_analysis_report(g, pairs=args.pairs)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
    return 0


def _cmd_periodic(args) -> int:
    g = _load_graph(args)
    check_vertices(g, args.vertex)
    from .reporting import format_periodicity, periodicity_entry

    print(format_periodicity(periodicity_entry(g, args.vertex)))
    return 0


def _cmd_construct(args) -> int:
    name = args.name
    params = args.params
    try:
        arity = 2 if name in ("cartesian", "join", "union") else 1
        if len(params) != arity:
            raise ValueError(f"parameter count for {name} is {arity}, got {len(params)}")
        # The order is read from the inputs, so nothing too large is built.
        if name in ("path", "cycle", "complete", "empty"):
            n, build = int(params[0]), lambda: standard_graph(name, n)
        elif name == "double-cone":
            n, build = _order(params[0]) + 2, lambda: double_cone(graph_from_token(params[0]))
        elif name == "complement":
            n, build = _order(params[0]), lambda: complement(graph_from_token(params[0]))
        elif name in ("cartesian", "join", "union"):
            nx, ny = _order(params[0]), _order(params[1])
            op = {"cartesian": cartesian_product, "join": join, "union": disjoint_union}[name]
            n = nx * ny if name == "cartesian" else nx + ny
            build = lambda: op(graph_from_token(params[0]), graph_from_token(params[1]))
        elif name == "threshold":
            parts = [int(x) for x in params[0].split(",")]
            n, build = sum(parts), lambda: threshold_graph(parts)
        else:  # hadamard; argparse's choices admit no other name
            k = int(params[0])  # sylvester_hadamard rejects k outside 0..12
            n = 4 * 2**k if 0 <= k <= 12 else 0
            build = lambda: hadamard_graph(sylvester_hadamard(k))
        _check_order(n)
        g = build()
    except ValueError as exc:
        print(f"bad constructor parameters: {exc}", file=sys.stderr)
        return 2
    print(to_graph6(g))
    return 0


def _cmd_campaign(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    if args.name != "trees" and args.max_n is not None:
        raise ValueError(f"--max-n sizes the trees campaign only, not {args.name}")
    from .campaigns import campaign_constructions, campaign_prime_order, campaign_trees
    from .reporting import campaign_report

    if args.name == "trees":
        result = campaign_trees() if args.max_n is None else campaign_trees(args.max_n)
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
    src.add_argument("--file", help="path to a graph6 or edge-list file")
    p_an.add_argument("--pairs", action="append", type=_pair, metavar="a,b",
                      help="decide these pairs explicitly (repeatable)")
    p_an.add_argument("--json", action="store_true", help="emit JSON")
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
    p_con.set_defaults(func=_cmd_construct)

    p_cam = sub.add_parser("campaign", help="run a verification campaign")
    p_cam.add_argument(
        "name", choices=("trees", "prime5", "prime7", "constructions")
    )
    p_cam.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; campaigns run in one process")
    p_cam.add_argument("--json", metavar="PATH", help="write JSON report here")
    p_cam.add_argument("--max-n", type=int,
                       help="largest tree size for the tree campaign, 2..20 (default 10)")
    p_cam.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader stopped early (head, a pager): what was read is correct.
        # Later writes, the shutdown flush among them, go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SpecialSmallGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: exit with :func:`main`'s code, the heap frozen first."""
    code = main()
    gc.freeze()  # here, not in main, where it would pin a long-lived caller's heap
    sys.exit(code)


if __name__ == "__main__":
    run()
