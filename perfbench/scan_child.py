"""The ``scan`` workload's cold interpreter.

Reads ``{"graphs": [[n, edges], ...], "ops": [[graph, a, b], ...]}`` as
JSON on stdin, builds each graph through the public ``lafr`` API and times
``oracle.time_scan(g, a, b, 2*pi, 720)`` once per op.  After the timed
loop, once any trace has been written, it decides every graph exactly with
``all_lafr_pairs`` so the parent can check each scan against the exact
verdicts.  Writes one JSON object to stdout.

It also reports the CPU-speed meter's speed over the timed loop (see
``meter.py``), or null when the meter got too little CPU time to tell.

Usage: python3 scan_child.py METER_PATH [--trace SUMMARY_PATH SPANS_PATH] < ops.json
"""

from __future__ import annotations

import json
import math
import sys
import time

from meter import MeterReader
from tracer import Tracer

SCAN_STEPS = 720


def main(argv: list[str]) -> int:
    meter = MeterReader(argv.pop(0))
    tracer = None
    if argv[:1] == ["--trace"]:
        tracer = Tracer()
        tracer.install()

    import lafr
    from lafr import oracle

    job = json.load(sys.stdin)
    graphs = [lafr.Graph.from_edges(n, [tuple(e) for e in edges]) for n, edges in job["graphs"]]
    op_times, hits = [], []
    meter_start = meter.sample()
    pass_start = time.perf_counter()
    for op_id, (gi, a, b) in enumerate(job["ops"]):
        if tracer:
            tracer.op = op_id
        t0 = time.perf_counter()
        found = oracle.time_scan(graphs[gi], a, b, 2 * math.pi, SCAN_STEPS)
        op_times.append(time.perf_counter() - t0)
        hits.append(found)
    wall = time.perf_counter() - pass_start
    meter_speed = meter.speed_since(meter_start)
    if tracer:
        tracer.dump(*argv[1:3])

    exact = [
        [[list(d.pair), d.status.value, d.g, d.phase.k if d.phase else None]
         for d in lafr.all_lafr_pairs(g)]
        for g in graphs
    ]
    json.dump({"wall_s": wall, "meter_speed": meter_speed, "op_times": op_times, "hits": hits, "exact": exact}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
