"""The runtime floor of ``src/lafr``: the named functions that no command
enters.

A tour of the CLI (every command and branch a user reaches, in process) and
one oracle time scan run under ``sys.setprofile``.  Every other named
function of the package must be entered; code that nothing calls at run time
shows up here as a new name, and a listed name that a command starts to call
drops out.  Lambdas and comprehensions are not named functions.
"""

import inspect
import math
import sys
import types
from pathlib import Path

import pytest

import lafr
from lafr import cli, oracle
from lafr.graphs import path_graph

# The process entry point (it exits, so the tour enters through main), the
# retry after an unlucky prime, and the value equality and hash of a phase,
# which no decision compares.
NEVER_ENTERED = {
    "cli.run",
    "spectral._next_prime",
    "revival.PhaseRational.__eq__",
    "revival.PhaseRational.__hash__",
}

CONSTRUCT = [
    ["path", "4"],
    ["cycle", "5"],
    ["complete", "3"],
    ["empty", "2"],
    ["double-cone", "K3"],
    ["complement", "C5"],
    ["cartesian", "P2", "P3"],
    ["join", "K2", "O2"],
    ["union", "P2", "K3"],
    ["threshold", "2,4"],
    ["hadamard", "1"],
]

COMMANDS = [
    ["analyze", "--g6", "C6", "--json"],
    ["analyze", "--g6", "P3"],
    # the four statuses: not strongly cospectral and proper, periodic only
    # (the paw), non-integer support
    ["analyze", "--g6", "P3", "--pairs", "0,1", "--pairs", "2,0"],
    ["analyze", "--g6", "C{", "--pairs", "1,2", "--json"],
    ["analyze", "--g6", "P4", "--pairs", "0,3"],
    ["analyze", "--g6", "A!"],  # refused: a byte outside the graph6 alphabet
    ["periodic", "--g6", "C6", "--vertex", "0"],
    *(["construct", *spec] for spec in CONSTRUCT),
    ["campaign", "trees", "--max-n", "6"],
    ["campaign", "prime5"],
    ["campaign", "constructions"],
]


def named_functions() -> dict[tuple[str, int], str]:
    """Every named function in the package's sources, keyed by file and first
    line, with its module-qualified name."""
    out = {}
    for path in Path(lafr.__file__).parent.glob("*.py"):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for c in code.co_consts:
                if isinstance(c, types.CodeType) and not c.co_name.startswith("<"):
                    name = prefix + c.co_name
                    if c.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                        out[c.co_filename, c.co_firstlineno] = f"{path.stem}.{name}"
                        name += ".<locals>"
                    stack.append((c, name + "."))
    return out


def clear_caches() -> None:
    """Empty the package's caches, so a cached function is entered again."""
    for name, module in list(sys.modules.items()):
        if name == "lafr" or name.startswith("lafr."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == name:
                    obj.cache_clear()


def test_only_the_listed_functions_are_never_entered(tmp_path, capsys):
    edgelist = tmp_path / "p3.txt"
    edgelist.write_text("# the 3-path\n3\n0 1\n1 2\n")
    graph6 = tmp_path / "c4.g6"
    graph6.write_text("Cr\n")
    commands = COMMANDS + [
        ["analyze", "--file", str(edgelist), "--json"],
        ["analyze", "--file", str(graph6)],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    clear_caches()
    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in commands:
            codes.append(cli.main(argv))
        hits = oracle.time_scan(path_graph(3), 0, 2, 2 * math.pi, 64)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [2 if argv[-1] == "A!" else 0 for argv in commands]
    assert hits == [pytest.approx(2 * math.pi / 3), pytest.approx(4 * math.pi / 3)]
    functions = named_functions()
    reached = {(c.co_filename, c.co_firstlineno) for c in entered}
    assert {name for key, name in functions.items() if key not in reached} == NEVER_ENTERED
