"""Regenerate ``golden.json``, the verdicts the benchmark checks against.

Golden verdicts are taken once, in the unpermuted labeling of
``corpus.py``, from the library at the commit that defined the benchmark:

- ``analyze``: per graph, every reported decision as
  ``[a, b, status, g, time_num, time_den, k, is_pst]`` and every vertex's
  periodicity as ``[periodic, G]``.
- ``scan_fixed``: per fixed scan graph, the strongly cospectral pairs that
  ``all_lafr_pairs`` returns; the scan workload time-scans exactly these.

Run from the repository root: python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import lafr  # noqa: E402
from lafr.reporting import build_analysis_report  # noqa: E402


def decision_row(d: dict) -> list:
    t, ph = d["time"], d["phase"]
    return [
        *d["pair"],
        d["status"],
        d["g"],
        t["num"] if t else None,
        t["den"] if t else None,
        ph["k"] if ph else None,
        d["is_pst"],
    ]


def main() -> int:
    golden = {"analyze": {}, "scan_fixed": {}}
    for name, (n, edges) in corpus.ANALYZE_GRAPHS.items():
        report = build_analysis_report(lafr.Graph.from_edges(n, edges))
        golden["analyze"][name] = {
            "decisions": [decision_row(d) for d in report["decisions"]],
            "periodicity": [[p["periodic"], p["G"]] for p in report["periodicity"]],
        }
    for name, (n, edges) in corpus.SCAN_FIXED.items():
        decisions = lafr.all_lafr_pairs(lafr.Graph.from_edges(n, edges))
        golden["scan_fixed"][name] = [list(d.pair) for d in decisions]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
