"""The lafr benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze|campaigns|scan \\
        --seed N --seconds S --trace 0|1

Workloads (closed loop, one operation at a time, single-threaded BLAS):

- ``analyze``: one cold ``lafr analyze --json`` process per graph of a
  fixed corpus whose vertex labels are permuted by the seed.
- ``campaigns``: cold ``lafr campaign`` processes for ``trees --max-n 11``,
  ``prime5`` and ``constructions`` (corpora fixed by the paper).
- ``scan``: one cold interpreter that calls ``oracle.time_scan`` on two
  seeded pairs of each of 660 seeded random graphs and on every strongly
  cospectral pair of a fixed revival-rich set.

A pass is the whole workload once.  Each pass runs in fresh processes, so
the graph-keyed caches start cold.  With ``--trace 0`` the run repeats the
pass while another one fits in ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced pass of
the same inputs and reports the per-layer metrics.  Every operation's
output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import corpus
from meter import Meter, scale
from tracer import CACHED, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
HARD_LIMIT_S = 160.0  # the whole run ends well inside 180 s
OP_CAP_S = {"analyze": 60.0, "campaigns": 90.0, "scan": 5.0}
SCAN_CHILD_CAP_S = 120.0
# Many graphs with a few pairs each, not every pair of a few graphs: the
# scan's cost is mostly bisection refinements, and their count varies far
# more between graphs than between pairs of one graph.  The spread of the
# probe count over seeds (quartile distance over median) was 15% for every
# pair of 60 graphs, 8.3% for 4 pairs of each of 330 graphs and 4.1% for 2
# pairs of each of 660 graphs; the last keeps one pass near 1,300 scans.
SCAN_GRAPHS_PER_N = 220
SCAN_SIZES = (6, 7, 8)
SCAN_PAIRS_PER_GRAPH = 2
SCAN_TIME_TOL = 1e-6

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class PassResult:
    wall_s: float = 0.0
    speed: float | None = None  # meter loops per CPU-second over the pass
    op_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    summaries: list[dict] = field(default_factory=list)
    positives: int = 0  # prime5 positives, for campaigns.useful_ratio


class Deadline:
    """The run's hard limit; operation time caps never reach past it."""

    def __init__(self, start: float):
        self.end = start + HARD_LIMIT_S

    def cap(self, op_cap: float) -> float:
        return min(op_cap, self.end - time.perf_counter())


def run_child(cmd: list[str], timeout: float, stdin: str | None = None):
    """Run one child to completion; ``None`` when it hit ``timeout``."""
    if timeout <= 0:
        return None
    try:
        return subprocess.run(
            cmd, input=stdin, env=CHILD_ENV, cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None


def lafr_cmd(args: list[str], trace_dir: Path | None, op_id: int) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "lafr.cli", *args]
    return [
        sys.executable, str(HERE / "traced_cli.py"),
        str(trace_dir / f"summary-{op_id}.json"), str(trace_dir / f"spans-{op_id}.json"),
        str(op_id), *args,
    ]


def read_summaries(trace_dir: Path, count: int) -> list[dict]:
    out = []
    for op_id in range(count):
        path = trace_dir / f"summary-{op_id}.json"
        if path.exists():
            out.append(json.loads(path.read_text()))
    return out


# ---------------------------------------------------------------------------
# analyze


def analyze_inputs(seed: int) -> list[tuple[str, str, list[int]]]:
    """(name, graph6 of the relabeled graph, inverse permutation) per graph."""
    rng = Random(seed)
    out = []
    for name, g in corpus.ANALYZE_GRAPHS.items():
        perm = corpus.seeded_permutation(g[0], rng)
        inv = [0] * len(perm)
        for v, w in enumerate(perm):
            inv[w] = v
        out.append((name, corpus.to_graph6(corpus.relabel(g, perm)), inv))
    return out


def check_analyze(name: str, report: dict, inv: list[int], golden: dict) -> str | None:
    """Map the report back through the permutation and compare verdicts."""
    want = golden["analyze"][name]
    got = []
    for d in report["decisions"]:
        if d["status"] == "PROPER" and d["oracle_verified"] is not True:
            return f"PROPER pair {d['pair']} not oracle-verified"
        a, b = sorted(inv[v] for v in d["pair"])
        t, ph = d["time"], d["phase"]
        got.append([
            a, b, d["status"], d["g"], t["num"] if t else None,
            t["den"] if t else None, ph["k"] if ph else None, d["is_pst"],
        ])
    if sorted(got, key=str) != sorted(want["decisions"], key=str):
        return "decisions differ from golden"
    periodic = [None] * len(inv)
    for p in report["periodicity"]:
        periodic[inv[p["vertex"]]] = [p["periodic"], p["G"]]
    if periodic != want["periodicity"]:
        return "periodicity differs from golden"
    return None


def analyze_pass(inputs, golden, deadline: Deadline, trace_dir: Path | None) -> PassResult:
    res = PassResult()
    outputs = []
    start = time.perf_counter()
    for op_id, (name, g6, _) in enumerate(inputs):
        t0 = time.perf_counter()
        proc = run_child(
            lafr_cmd(["analyze", "--g6", g6, "--json"], trace_dir, op_id),
            deadline.cap(OP_CAP_S["analyze"]),
        )
        res.op_s.append(time.perf_counter() - t0)
        outputs.append(proc)
    res.wall_s = time.perf_counter() - start
    for (name, _, inv), proc in zip(inputs, outputs):
        res.attempted += 1
        if proc is None:
            res.failures.append(f"{name}: timeout")
        elif proc.returncode != 0:
            res.failures.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        else:
            try:
                why = check_analyze(name, json.loads(proc.stdout), inv, golden)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable report: {exc!r}"
            if why:
                res.failures.append(f"{name}: {why}")
    if trace_dir is not None:
        res.summaries = read_summaries(trace_dir, len(inputs))
    return res


# ---------------------------------------------------------------------------
# campaigns

CAMPAIGNS = {
    "trees": ["trees", "--max-n", "11"],
    "prime5": ["prime5"],
    "constructions": ["constructions"],
}


def check_campaign(name: str, rep: dict) -> str | None:
    if not rep["passed"] or rep["counterexamples"]:
        return f"counterexamples {rep['counterexamples'][:3]}"
    det = rep["details"]
    if name == "trees":
        counts = det["counts_per_n"]
        ok = (
            rep["corpus_size"] == 435
            and list(counts) == [str(n) for n in range(2, 12)]
            and counts["10"] == 106
            and counts["11"] == 235
        )
    elif name == "prime5":
        ok = det["connected_graphs"] == 728 and det["positives"] == 65
    else:
        ok = rep["corpus_size"] == 1134 and det["double_cones_checked"] == 1099
    return None if ok else f"unexpected report {json.dumps(det)[:200]}"


def campaigns_pass(workdir: Path, deadline: Deadline, trace_dir: Path | None) -> PassResult:
    res = PassResult()
    outputs = []
    start = time.perf_counter()
    for op_id, (name, args) in enumerate(CAMPAIGNS.items()):
        out = workdir / f"campaign-{name}.json"
        out.unlink(missing_ok=True)
        cmd = lafr_cmd(["campaign", *args, "--workers", "1", "--json", str(out)], trace_dir, op_id)
        t0 = time.perf_counter()
        proc = run_child(cmd, deadline.cap(OP_CAP_S["campaigns"]))
        res.op_s.append(time.perf_counter() - t0)
        outputs.append((name, out, proc))
    res.wall_s = time.perf_counter() - start
    for name, out, proc in outputs:
        res.attempted += 1
        if proc is None:
            res.failures.append(f"{name}: timeout")
            continue
        if proc.returncode != 0:
            res.failures.append(f"{name}: exit {proc.returncode}: {proc.stdout.strip()[-200:]}")
            continue
        try:
            rep = json.loads(out.read_text())
            why = check_campaign(name, rep)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why = f"unreadable report: {exc!r}"
        if why:
            res.failures.append(f"{name}: {why}")
        elif name == "prime5":
            res.positives = rep["details"]["positives"]
    if trace_dir is not None:
        res.summaries = read_summaries(trace_dir, len(CAMPAIGNS))
    return res


# ---------------------------------------------------------------------------
# scan


def scan_inputs(seed: int, golden: dict) -> dict:
    rng = Random(seed)
    graphs = corpus.random_connected_graphs(rng, SCAN_GRAPHS_PER_N, SCAN_SIZES)
    ops = []
    for gi, (n, _) in enumerate(graphs):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        ops += [[gi, a, b] for a, b in sorted(rng.sample(pairs, SCAN_PAIRS_PER_GRAPH))]
    for name, g in corpus.SCAN_FIXED.items():
        gi = len(graphs)
        graphs.append(g)
        ops += [[gi, a, b] for a, b in golden["scan_fixed"][name]]
    return {"graphs": graphs, "ops": ops}


def expected_times(decisions: list, a: int, b: int) -> list[float] | None:
    """Revival times in (0, 2pi] of a PROPER pair: m*2pi/g with m*k != 0 mod g.

    ``None`` when the exact pipeline lists the pair as not PROPER.
    """
    for pair, status, g, k in decisions:
        if pair == [a, b] and status == "PROPER":
            return [m * math.tau / g for m in range(1, g + 1) if (m * k) % g]
    return None


def scan_pass(
    job: dict, golden: dict, deadline: Deadline, trace_dir: Path | None, meter_path: Path
) -> PassResult:
    res = PassResult()
    cmd = [sys.executable, str(HERE / "scan_child.py"), str(meter_path)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir / "summary-0.json"), str(trace_dir / "spans-0.json")]
    start = time.perf_counter()
    proc = run_child(cmd, deadline.cap(SCAN_CHILD_CAP_S), stdin=json.dumps(job))
    elapsed = time.perf_counter() - start
    ops = job["ops"]
    res.attempted = len(ops)
    if proc is None or proc.returncode != 0:
        why = "timeout" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        res.failures = [f"scan child: {why}"] * len(ops)
        res.wall_s = elapsed
        return res
    out = json.loads(proc.stdout)
    res.wall_s = out["wall_s"]
    res.speed = out["meter_speed"]
    res.op_s = out["op_times"]
    fixed = list(corpus.SCAN_FIXED)
    n_random = len(job["graphs"]) - len(fixed)
    off_golden = {
        gi
        for name, gi in zip(fixed, range(n_random, len(job["graphs"])))
        if [d[0] for d in out["exact"][gi]] != golden["scan_fixed"][name]
    }
    for (gi, a, b), hits, secs in zip(ops, out["hits"], out["op_times"]):
        if gi in off_golden:
            res.failures.append(f"graph {gi}: strongly cospectral pairs differ from golden")
            continue
        if secs > OP_CAP_S["scan"]:
            res.failures.append(f"graph {gi} pair {a},{b}: timeout ({secs:.2f} s)")
            continue
        want = expected_times(out["exact"][gi], a, b)
        if want is None:
            if hits:
                res.failures.append(f"graph {gi} pair {a},{b}: hits {hits} on a non-PROPER pair")
        elif len(hits) != len(want) or any(abs(h - w) > SCAN_TIME_TOL for h, w in zip(hits, want)):
            res.failures.append(f"graph {gi} pair {a},{b}: hits {hits} != {want}")
    if trace_dir is not None:
        res.summaries = read_summaries(trace_dir, 1)
    return res


# ---------------------------------------------------------------------------
# metrics


def measure_setup() -> list[float]:
    """Cold interpreter start plus ``import lafr.cli``; one untimed warm-up."""
    cmd = [sys.executable, "-c", "import lafr.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"lafr does not import: {proc.stderr.strip()[-300:]}")
        if i:
            times.append(elapsed)
    return times


def op_tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, count) of the highest percentile with at least
    ten samples beyond it, or ``None`` below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[PassResult], setup: list[float], setup_speed: float) -> dict[str, float]:
    return {
        "setup_s": scale(statistics.median(setup), setup_speed),
        "pass_s": statistics.median(scale(p.wall_s, p.speed) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: PassResult, untraced: PassResult) -> tuple[dict[str, float], list[str]]:
    """Aggregate the traced processes' summaries into the per-layer metrics."""
    funcs = {f"{layer}.{f}": [0, 0.0] for layer, names in LAYERS.items() for f in names}
    cache: dict[str, list[int]] = {}
    statuses: Counter = Counter()
    nested: Counter = Counter()
    absent: set[str] = set()
    for s in traced.summaries:
        absent.update(s["absent"])
        for q, f in s["functions"].items():
            funcs[q][0] += f["calls"]
            funcs[q][1] += f["self_s"]
        for q, (h, miss) in s["cache"].items():
            c = cache.setdefault(q, [0, 0])
            c[0] += h
            c[1] += miss
        statuses.update(s["statuses"])
        nested.update(s["nested"])

    m = {}
    for layer, names in LAYERS.items():
        m[f"{layer}.self_s"] = sum(funcs[f"{layer}.{f}"][1] for f in names)
    for q, (calls, self_s) in funcs.items():
        m[f"{q}.calls"] = calls
        m[f"{q}.self_s"] = self_s
    for q in CACHED:
        h, miss = cache.get(q, (0, 0))
        m[f"{q}.hit_ratio"] = ratio(h, h + miss)
    decisions = sum(statuses.values())
    m["revival.useful_ratio"] = ratio(statuses["PROPER"] + statuses["PERIODIC_ONLY"], decisions)
    m["oracle.probes_per_scan"] = ratio(nested["scan_probes"], m["oracle.time_scan.calls"])
    m["campaigns.confirmations"] = nested["confirmations"]
    m["campaigns.useful_ratio"] = ratio(traced.positives, nested["confirmations"])
    m["trace.overhead_s"] = scale(traced.wall_s, traced.speed) - scale(untraced.wall_s, untraced.speed)

    notes = [f"absent: {q}" for q in sorted(absent)]
    if not decisions:
        notes.append("revival.useful_ratio: no decisions made (reported as 0)")
    for q in CACHED:
        if not sum(cache.get(q, (0, 0))):
            notes.append(f"{q}.hit_ratio: no calls (reported as 0)")
    notes.append(f"spans recorded: {sum(s['spans'] for s in traced.summaries)}")
    return m, notes


# ---------------------------------------------------------------------------
# run record and main


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_record() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "campaigns", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lafr" / "__init__.py").is_file():
        print(f"error: no lafr package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = Deadline(started)
    golden = json.loads((HERE / "golden.json").read_text())
    record = run_record()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        with Meter(workdir / "meter") as meter:
            run_start = meter.sample()
            setup = [] if args.trace else measure_setup()
            setup_speed = meter.speed_since(run_start)
            if args.workload == "analyze":
                inputs = analyze_inputs(args.seed)

                def run_pass(trace_dir):
                    return analyze_pass(inputs, golden, deadline, trace_dir)
            elif args.workload == "campaigns":
                def run_pass(trace_dir):
                    return campaigns_pass(workdir, deadline, trace_dir)
            else:
                job = scan_inputs(args.seed, golden)

                def run_pass(trace_dir):
                    return scan_pass(job, golden, deadline, trace_dir, meter.path)

            def one_pass(trace_dir):
                start = meter.sample()
                res = run_pass(trace_dir)
                if res.speed is None:  # the scan child samples its own loop
                    res.speed = meter.speed_since(start)
                return res

            measure_start = time.perf_counter()
            passes = [one_pass(None)]
            if args.trace:
                trace_dir = WORK / f"trace-{args.workload}"
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
                passes.append(one_pass(trace_dir))
            else:
                while (
                    time.perf_counter() + passes[-1].wall_s - measure_start <= args.seconds
                    and time.perf_counter() + passes[-1].wall_s < deadline.end
                ):
                    passes.append(one_pass(None))
            # A pass too short for the meter to sample takes the run's speed,
            # or the meter's lifetime speed (its start-up alone is 1000
            # loops) if the whole run was that short.
            run_speed = meter.speed_since(run_start) or meter.speed_since((0.0, 0.0))
            record["meter_samples"] = [run_start, meter.sample()]
            for p in passes:
                p.speed = p.speed or run_speed
            setup_speed = setup_speed or run_speed

            attempted = sum(p.attempted for p in passes)
            failures = [f for p in passes for f in p.failures]
            ops = [t for p in passes for t in p.op_s]
            if not ops:
                print("\n".join(f"FAILED {f}" for f in failures[:20]), file=sys.stderr)
                return 1
            if args.trace:
                values, notes = per_layer(passes[1], passes[0])
            else:
                # Read inside the meter's lifetime: peak RSS covers only the
                # children waited for so far, so the meter is not among them.
                values, notes = end_to_end(passes, setup, setup_speed), []
            record["cpu"] = meter.cpu
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: (values[m["name"]], m["unit"])
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    record["loadavg_end"] = list(os.getloadavg())
    record["passes"] = len(passes)
    record["pass_wall_s"] = [p.wall_s for p in passes]
    record["pass_meter_speed"] = [p.speed for p in passes]
    record["setup_runs_s"] = setup
    record["setup_meter_speed"] = setup_speed

    print(f"lafr benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("run record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    tail = op_tail(ops)
    if not args.trace:
        print(f"  {'op_p50_s':44s} {statistics.median(ops):14.6f} s  (median of {len(ops)} ops)")
        if tail:
            print(f"  {'op_tail_s':44s} {tail[0]:14.6f} s  (p{tail[1]:.2f} of {tail[2]} ops)")
        else:
            print(f"  {'op_tail_s':44s} {'undefined':>14s}    ({len(ops)} ops < 11)")
    print(f"  {'fail_ratio':44s} {ratio(len(failures), attempted):14.6f} ratio  "
          f"({len(failures)} of {attempted})")
    for note in notes:
        print(f"  note: {note}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
