"""Analysis reports: assembly and JSON serialization.

A report bundles the graph identity, the per-pair revival decisions with
their oracle verification residuals, and per-vertex periodicity.  Reports
are plain dictionaries of JSON-native values, so serialization round-trips
exactly.
"""

from __future__ import annotations

import time
from math import pi

from . import __version__, oracle
from .graphs import Graph, to_graph6
from .revival import (
    TWO_VERTEX_SCHEDULE,
    RevivalDecision,
    RevivalStatus,
    all_lafr_pairs,
    decide_proper_lafr,
    isolated_edges,
    two_pi_over,
)
from .spectral import is_periodic


def _time_dict(num_den: tuple[int, int] | None) -> dict | None:
    if num_den is None:
        return None
    return {"num": num_den[0], "den": num_den[1], "unit": "pi"}


def _complex_dict(z: complex | None) -> dict | None:
    if z is None:
        return None
    return {"re": z.real, "im": z.imag}


def _decision_dict(g: Graph, d: RevivalDecision) -> dict:
    alpha = beta = residual = verified = None
    if d.status is RevivalStatus.PROPER:
        alpha, beta = d.phase.amplitudes()
        residual = oracle.decision_residual(g, d)
        verified = residual <= oracle.RESIDUAL_TOL
    return {
        "pair": list(d.pair),
        "status": d.status.value,
        "g": d.g,
        "time": _time_dict(d.earliest_time),
        "phase": {"k": d.phase.k, "g": d.phase.g} if d.phase else None,
        "alpha": _complex_dict(alpha),
        "beta": _complex_dict(beta),
        "is_pst": d.is_pst,
        "oracle_residual": residual,
        "oracle_verified": verified,
    }


def periodicity_entry(g: Graph, v: int) -> dict:
    """Periodicity of vertex ``v`` as a report entry of JSON-native values."""
    per = is_periodic(g, v)
    period = two_pi_over(per.big_g) if per.big_g else None  # None: aperiodic or fixed
    return {
        "vertex": v,
        "periodic": per.periodic,
        "G": per.big_g,
        "period": _time_dict(period),
    }


def build_analysis_report(g: Graph, pairs: list[tuple[int, int]] | None = None) -> dict:
    """Full analysis of one graph.

    Without explicit ``pairs`` the decisions cover every pair that is
    proper or strongly cospectral; with ``pairs`` each listed unordered
    pair is decided once, whatever its outcome, and must be two distinct
    vertices of ``g``.  A PROPER pair is verified when its oracle residual
    is at most ``oracle.RESIDUAL_TOL``.  A note names any isolated edges,
    which follow the two-vertex schedule instead of the characterization;
    an explicit pair that is one raises ``SpecialSmallGraphError``.
    """
    start = time.perf_counter()
    distinct = sorted({(min(p), max(p)) for p in pairs or ()})
    found = all_lafr_pairs(g) if pairs is None else [decide_proper_lafr(g, *p) for p in distinct]
    edges = isolated_edges(g)
    report = {
        "graph": {"graph6": to_graph6(g), "n": g.n, "edges": g.num_edges},
        "decisions": [_decision_dict(g, d) for d in found],
        "periodicity": [periodicity_entry(g, v) for v in range(g.n)],
        "runtime_seconds": time.perf_counter() - start,
        "version": __version__,
    }
    if edges:
        names = ", ".join(f"({u},{v})" for u, v in sorted(edges))
        report["note"] = f"{TWO_VERTEX_SCHEDULE}; isolated edges on this schedule: {names}"
    return report


def format_time(entry: dict) -> str:
    value = entry["num"] / entry["den"] * pi
    return f"{entry['num']}/{entry['den']} pi ({value:.12f})"


def format_periodicity(entry: dict) -> str:
    """One line for a report's per-vertex periodicity entry."""
    head = f"vertex {entry['vertex']}: "
    if not entry["periodic"]:
        return head + "not periodic"
    if entry["G"] is None:
        return head + "periodic at all times (isolated)"
    return head + f"periodic, G={entry['G']}, period={format_time(entry['period'])}"


def format_report(report: dict) -> str:
    """Human-readable rendering; times printed exactly and to 12 digits."""
    lines = []
    gr = report["graph"]
    lines.append(f"graph {gr['graph6']}  n={gr['n']}  edges={gr['edges']}")
    if "note" in report:
        lines.append(f"note: {report['note']}")
    if report["decisions"]:
        lines.append("pairs:")
        for d in report["decisions"]:
            a, b = d["pair"]
            line = f"  ({a},{b}) {d['status']}"
            if d["status"] == "PROPER":
                line += (
                    f"  g={d['g']}  time={format_time(d['time'])}"
                    f"  phase={d['phase']['k']}/{d['phase']['g']}"
                    f"  |alpha|^2={abs(complex(d['alpha']['re'], d['alpha']['im'])) ** 2:.12f}"
                    f"  pst={d['is_pst']}"
                    f"  residual={d['oracle_residual']:.3e}"
                )
            elif d["status"] == "PERIODIC_ONLY":
                line += f"  g={d['g']}"
            lines.append(line)
    else:
        lines.append("pairs: none")
    lines.append("periodicity:")
    lines += ["  " + format_periodicity(p) for p in report["periodicity"]]
    return "\n".join(lines)


def campaign_report(result) -> dict:
    return {
        "campaign": result.name,
        "corpus_size": result.corpus_size,
        "counterexamples": result.counterexamples,
        "passed": result.passed,
        "wall_time_seconds": result.wall_time_s,
        "details": result.details,
        "version": __version__,
    }
