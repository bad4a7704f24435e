"""setmax benchmark: one workload per invocation, answers checked before
any time is reported.

    python3 bench/run.py --workload table3 --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a source tree; it imports setmax from `src/`.
With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
records spans and reports the per-layer metrics (see bench/README.md).
The last line of standard output is the result as one JSON object; the
human-readable log goes to standard error, and a report (plus, when
traced, the spans) goes to `.bench_out/`.  The exit code is 0 only when
every answer matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Set-up as a user pays it: a fresh interpreter imports setmax and builds
# the third-card tables.  The child calibrates itself before and after, and
# prints the two factors and the seconds the calibration took.
_SETUP = """
import sys, time
t0 = time.perf_counter()
import speed
f0 = speed.factor()
cal = time.perf_counter() - t0
import setmax
from setmax.geometry import third_rows
for d in sys.argv[1:]:
    third_rows(int(d))
t1 = time.perf_counter()
f1 = speed.factor()
print(f0, f1, cal + time.perf_counter() - t1)
"""


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def source_digest() -> str:
    """Hash of the program under test, so records from different code are
    never compared."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "setmax").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """The commit checked out, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(workload: str, seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "loadavg_start": load,
        "loaded_at_start": load[0] > nproc,
    }


def measure_setup(dims, repeats: int = 5, cap_s: float = 4.0) -> list[float]:
    """Reference-speed seconds for a fresh interpreter to import setmax and
    build the workload's third-card tables; at least three samples, five
    when they fit in cap_s."""
    import speed

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    times = []
    spent = time.perf_counter()
    while len(times) < repeats and (len(times) < 3 or time.perf_counter() - spent < cap_s):
        speed.pin_fastest()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP, *map(str, dims)], cwd=ROOT, env=env,
                              check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        f0, f1, cal = map(float, proc.stdout.split())
        times.append((wall - cal) * (f0 + f1) / 2)
    return times


def play(workload: str, seed: int, index: int, tracer, scratch: Path, size):
    """One round of the workload, timed from start to its last checked answer."""
    from workloads import WORKLOADS, Round

    rd = Round(tracer, random.Random(seed * 1000 + index), ROOT, scratch)
    t0 = time.perf_counter()
    with tracer.span("bench.round", workload=workload, index=index):
        WORKLOADS[workload](rd, size)
    rd.wall_s = time.perf_counter() - t0
    return rd


def execute(workload: str, seed: int, seconds: float, trace: bool, size, persist: bool) -> dict:
    """Run the workload's rounds (and, traced, the layer probe); return the
    checks, the metrics and a report.  Metrics are left out when any check
    failed."""
    from probe import run_probe
    from tracing import NULL_TRACER, Tracer
    from workloads import DIMS, Round, merge_records, warm

    machine = machine_block(workload, seed)
    log("machine:", json.dumps(machine))
    if machine["loaded_at_start"]:
        log(f"warning: load {machine['loadavg_start'][0]:.2f} above nproc {machine['nproc']} at start")
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        setup = None if trace else measure_setup(DIMS[workload])
        warm(DIMS[workload])
        if trace:
            untraced = play(workload, seed, 0, NULL_TRACER, scratch, size)
            tracer = Tracer()
            traced = play(workload, seed, 1, tracer, scratch, size)
            probe_round = Round(tracer, random.Random(seed * 1000 + 999), ROOT, scratch)
            with tracer.span("bench.probe"):
                layer = run_probe(probe_round, size)
            rounds = [untraced, traced, probe_round]
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                rounds.append(play(workload, seed, len(rounds), NULL_TRACER, scratch, size))
                typical = statistics.median(r.wall_s for r in rounds)
                if time.perf_counter() - start + typical > seconds:
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [c for r in rounds for c in r.checks]
    records: dict = {}
    problems = [p for r in rounds for p in merge_records(records, r.records)]
    if persist:
        problems += compare_with_earlier_runs(machine["source_digest"], records)
    checks.append(("nodes and witnesses repeat across rounds and runs", not problems, "; ".join(problems)))
    failed = [c for c in checks if not c[1]]

    timed = [r for r in rounds if r.wall_s is not None]
    pool_totals = [sum(r.pool_nodes) for r in timed if r.pool_nodes]
    report = {
        "machine": machine,
        "rounds": [
            {"wall_s": r.wall_s, "total_s": r.total_s(), "nodes": r.nodes, "pruned": r.pruned,
             "search_s": r.search_s, "count_rates": r.count_rates, "cmm_rates": r.cmm_rates,
             "pool_nodes": r.pool_nodes, "factors": r.factors, "notes": r.notes,
             "steps_s": r.steps, "raw_steps_s": r.raw_steps}
            for r in timed
        ],
        "failed_checks": failed,
        "attempted": len(checks),
    }
    if pool_totals:
        report["pool_nodes_spread"] = max(pool_totals) - min(pool_totals)
    metrics = {}
    if not failed:
        if trace:
            metrics = dict(layer, **{"trace.overhead_s": traced.total_s() - untraced.total_s()})
            report["self_s"] = tracer.self_times()
        else:
            steps = typical_steps(timed)
            report["typical_steps_s"] = steps
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": sum(steps.values()),
                "nodes": statistics.median(r.nodes for r in timed),
                "nodes_per_s": statistics.median(r.nodes for r in timed)
                / sum(steps[s] for s in timed[0].search_steps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "counts_per_s": statistics.median(x for r in timed for x in r.count_rates),
                "cmm_turns_per_s": statistics.median(x for r in timed for x in r.cmm_rates),
            }
            report["setup_samples_s"] = setup
    machine["loadavg_end"] = os.getloadavg()
    report["metrics"] = metrics
    return {"checks": checks, "failed": failed, "metrics": metrics, "report": report, "tracer": tracer}


def typical_steps(rounds) -> dict[str, float]:
    """Each step's median over the rounds, in reference-speed seconds, plus
    the median of the rest of a round outside its steps.  Their sum is the
    workload's time to its last checked answer."""
    fields = {name: [r.steps[name] for r in rounds] for name in rounds[0].steps}
    fields["(rest of round)"] = [r.total_s() - sum(r.steps.values()) for r in rounds]
    return {name: statistics.median(v) for name, v in fields.items()}


def compare_with_earlier_runs(digest: str, records: dict) -> list[str]:
    """Compare this run's records with those that earlier runs of the same
    source left in .bench_out, then store the union."""
    from workloads import merge_records

    path = OUT / "determinism.json"
    stored = {}
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved.get("source") == digest:
            stored = saved["records"]
    problems = merge_records(stored, records)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": digest, "records": stored}))
    os.replace(tmp, path)
    return problems


def log_outcome(workload: str, outcome: dict) -> None:
    report = outcome["report"]
    for i, r in enumerate(report["rounds"]):
        log(f"{workload} round {i}: wall {r['wall_s']:.3f} s ({r['total_s']:.3f} at reference speed), nodes {r['nodes']}, "
            f"search {r['search_s']:.3f} s" + "".join(f"; {n}" for n in r["notes"]))
    if "pool_nodes_spread" in report:
        totals = [sum(r["pool_nodes"]) for r in report["rounds"]]
        log(f"two-worker node totals per round: {totals}, spread {report['pool_nodes_spread']}")
    for module, s in sorted(report.get("self_s", {}).items()):
        log(f"self time {module}: {s:.3f} s")
    for label, _, detail in outcome["failed"]:
        log(f"FAILED {label}: {detail}")
    log(f"{workload}: {len(outcome['checks']) - len(outcome['failed'])}/{len(outcome['checks'])} checks passed")


def smoke() -> int:
    """Every workload at minimal size, traced and untraced, through the same
    checks; then one deliberately wrong reference, which must be caught."""
    from tracing import NULL_TRACER
    from workloads import SMOKE, TABLE3, WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome = execute(workload, 1, 0.0, trace, SMOKE, persist=False)
            log_outcome(workload, outcome)
            values = list(outcome["metrics"].values())
            good = not outcome["failed"] and values and all(math.isfinite(v) for v in values)
            log(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    TABLE3[9] += 1
    try:
        rd = play("table3", 1, 0, NULL_TRACER, scratch, SMOKE)
    finally:
        TABLE3[9] -= 1
        shutil.rmtree(scratch, ignore_errors=True)
    caught = any(label == "d3n9 max" and not good for label, good, _ in rd.checks)
    log(f"smoke wrong reference caught: {caught}")
    ok = ok and caught
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at minimal size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "setmax" / "__init__.py").is_file():
        log(f"no setmax sources under {ROOT / 'src'}; run from a source tree")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke()

    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    outcome = execute(args.workload, args.seed, args.seconds, bool(args.trace), FULL, persist=True)
    log_outcome(args.workload, outcome)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(outcome["report"], indent=1, default=str))
    if outcome["tracer"] is not None:
        outcome["tracer"].dump(OUT / f"{stem}-spans.json")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = outcome["metrics"]
    if not outcome["failed"] and set(metrics) != {m["name"] for m in declared}:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
        return 3
    result = {
        "correct": not outcome["failed"],
        "attempted": len(outcome["checks"]),
        "failed": len(outcome["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    for name, v in result["metrics"].items():
        log(f"{name}: {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
