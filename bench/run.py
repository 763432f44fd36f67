"""Solve benchmark: times ``tripcover.solve_global`` on seeded workloads.

    python3 bench/run.py --workload suite20 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's ``src`` directory and nothing is installed.  Workloads are defined
in ``workloads.py``.

``--trace 0`` repeats passes over the workload until ``--seconds`` is spent,
at least two passes, and reports the end-to-end metrics.  A pass solves every
instance once at the workload's worker count and runs ``oracle_grid(200)`` on
it.  Two set-up probes run before each pass and after the last; each times a
fresh interpreter that imports the solver and builds the inputs.  Solve and
oracle times are reported in reference-speed seconds (see ``clock.py``),
with the wall times printed beside them; set-up times are wall times.

``--trace 1`` solves each instance untraced and then traced, in-process, and
once more untraced at the workload's worker count when that is above one,
and reports the per-layer metrics of ``spans.py``.

Every run checks its answers: each objective must reach the
``oracle_grid(200)`` objective, each solve document (serialised as
``tripcover solve`` writes it without ``--timing``) must be identical across
passes and across worker counts, and a traced solve must reproduce the
untraced document.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric with its quartiles and sample count.

Outside a checkout (no ``src/tripcover``) it exits with status 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from clock import HostClock
from spans import PATCHED, Tracer, write_spans
from workloads import TRACE_RES, WORKLOADS, workload_docs

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
ORACLE_RES = 200
SETUP_PROBES_PER_SLOT = 2

END_TO_END_UNITS = {
    "solve_s": "s",
    "oracle_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "objective_sum": "weight",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_efficiency"):
        return "frac"
    return "count"


def load_solver():
    src = ROOT / "src"
    if not (src / "tripcover" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'tripcover'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import tripcover.fds_solver as fds

    if Path(fds.__file__).resolve().parent != src / "tripcover":
        sys.exit(f"bench: tripcover was imported from {fds.__file__}, not from {src}")
    return fds


def load_instances(workload: str, seed: int) -> list:
    from tripcover import parse_instance

    return [parse_instance(doc) for doc in workload_docs(workload, seed)]


def solve_document(solution, stats: dict) -> str:
    """The document ``tripcover solve`` prints without ``--timing``."""

    def point(p):
        return {"edge": p.edge, "arc_length": p.arc_length, "x": p.point.x, "y": p.point.y}

    doc = {
        "objective": solution.objective,
        "X1": point(solution.x1),
        "X2": point(solution.x2),
        "covered": [list(pair) for pair in solution.covered],
        "stats": {k: v for k, v in stats.items() if k != "runtime_ms"},
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass
class Pass:
    """Solves of the workload's instances, in order, at ``jobs`` workers."""

    jobs: int
    wall: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    docs: list[str | None] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    # summed time from the return of restricted_problems to that of solve_global
    phase_s: float = 0.0


@contextmanager
def phase_marks(fds, marks: list[float]):
    """Record when each ``restricted_problems`` call returns."""

    original = fds.restricted_problems

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    fds.restricted_problems = marked
    try:
        yield
    finally:
        fds.restricted_problems = original


def solve_into(out: Pass, fds, inst, clock: HostClock, tracer: Tracer | None = None) -> None:
    """Solve one instance at ``out.jobs`` workers and append the outcome to ``out``."""

    marks: list[float] = []
    solve = fds.solve_global if tracer is None else tracer.wrap("solve_global", fds.solve_global)

    def attempt():
        try:
            return solve(inst, trace_res=TRACE_RES, jobs=out.jobs), time.perf_counter()
        except Exception:  # reported as a failed instance, the run goes on
            traceback.print_exc()
            return None, time.perf_counter()

    with phase_marks(fds, marks) if tracer is None else tracer.patched(fds):
        (result, end), wall, scaled = clock.time(attempt)
    out.wall.append(wall)
    out.scaled.append(scaled)
    if result is None:
        out.docs.append(None)
        out.objectives.append(0.0)
        return
    if marks:
        out.phase_s += end - marks[0]
    out.docs.append(solve_document(*result))
    out.objectives.append(result[0].objective)


def check_answers(passes: list[Pass], oracle: list[float]) -> list[str]:
    """One message per failed instance solve; the first pass is the reference."""

    reference = passes[0].docs
    failures = []
    for n, p in enumerate(passes):
        for k, doc in enumerate(p.docs):
            if doc is None:
                failures.append(f"pass {n} instance {k}: solve raised")
            elif p.objectives[k] < oracle[k]:
                failures.append(
                    f"pass {n} instance {k}: objective {p.objectives[k]} below oracle {oracle[k]}"
                )
            elif doc != reference[k]:
                failures.append(
                    f"pass {n} instance {k}: document at jobs={p.jobs} differs from "
                    f"jobs={passes[0].jobs}"
                )
    return failures


def check_sibling_docs(name: str, seed: int, jobs: int, docs: list[str | None]) -> list[str]:
    """Compare documents with other workloads of the same base instances.

    Each run leaves the digests of its documents in ``.bench_out``; a later
    run of a sibling workload (same instances, other worker count) at the
    same seed must produce the same documents.
    """

    base = WORKLOADS[name].base
    digests = [hashlib.sha256(d.encode()).hexdigest() if d else None for d in docs]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"docs-{base}-seed{seed}-jobs{jobs}.json").write_text(json.dumps(digests))
    failures = []
    for path in sorted(OUT_DIR.glob(f"docs-{base}-seed{seed}-jobs*.json")):
        other = json.loads(path.read_text())
        for k, (mine, theirs) in enumerate(zip(digests, other)):
            if mine != theirs:
                failures.append(f"instance {k}: document differs from {path.name}")
    return failures


def run_setup_probe(workload: str, seed: int) -> None:
    """A fresh interpreter that imports the solver, builds the inputs and exits."""

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summary(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return f"{name:48s} {q2:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"
    return f"{name:48s} {values[0]:12.6g} {unit:6s} n=1"


def instance_tail(seconds: list[float]) -> str | None:
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it."""

    for pct in (99, 90, 75, 50):
        if len(seconds) * (100 - pct) >= 1000:
            cut = statistics.quantiles(seconds, n=100, method="inclusive")[pct - 1]
            return f"{f'instance_p{pct}_s':48s} {cut:12.6g} s      n={len(seconds)} solves"
    return None


def measure(fds, instances, name: str, seed: int, jobs: int, seconds: float):
    clock = HostClock()
    passes: list[Pass] = []
    oracle_wall: list[float] = []
    oracle_scaled: list[float] = []
    setup_s: list[float] = []

    def setup_probes():
        # wall time: the probe is another process, whose speed the reference
        # loop here tracks poorly (scaling nearly doubled the spread)
        for _ in range(SETUP_PROBES_PER_SLOT):
            setup_s.append(clock.time(lambda: run_setup_probe(name, seed))[1])

    started = time.perf_counter()
    while True:
        setup_probes()
        pass_start = time.perf_counter()
        passes.append(Pass(jobs))
        oracle, wall, scaled = [], 0.0, 0.0
        for inst in instances:
            solve_into(passes[-1], fds, inst, clock)
            objective, w, s = clock.time(lambda: fds.oracle_grid(inst, res=ORACLE_RES).objective)
            oracle.append(objective)
            wall, scaled = wall + w, scaled + s
        oracle_wall.append(wall)
        oracle_scaled.append(scaled)
        now = time.perf_counter()
        if len(passes) >= 2 and now - started + (now - pass_start) > seconds:
            break
    setup_probes()

    failures = check_answers(passes, oracle)
    if WORKLOADS[name].base == "suite":
        failures += check_sibling_docs(name, seed, jobs, passes[0].docs)
    samples = {
        "solve_s": [sum(p.scaled) for p in passes],
        "oracle_s": oracle_scaled,
        "setup_s": setup_s,
        "peak_rss_mb": [peak_rss_mb()],
        "objective_sum": [sum(p.objectives) for p in passes],
    }
    lines = [summary(m, v, END_TO_END_UNITS[m]) for m, v in samples.items()]
    lines += [
        summary("solve_wall_s", [sum(p.wall) for p in passes], "s"),
        summary("oracle_wall_s", oracle_wall, "s"),
    ]
    tail = instance_tail([s for p in passes for s in p.scaled])
    if tail:
        lines.append(tail)
    lines.append(f"{'oracle_objective_sum':48s} {sum(oracle):12.6g} weight")
    metrics = {
        m: {"value": statistics.median(v), "unit": END_TO_END_UNITS[m]}
        for m, v in samples.items()
    }
    return metrics, lines, len(passes) * len(instances), failures


def measure_traced(fds, instances, name: str, seed: int, jobs: int, seconds: float):
    clock = HostClock()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    # the passes at the workload's worker count; in-process ones are the untraced
    pooled: list[Pass] = untraced if jobs == 1 else []
    tracers: list[Tracer] = []
    originals = {n: getattr(fds, n) for n in PATCHED}
    started = time.perf_counter()
    while True:
        # an instance's solves run back to back, so the overhead and the pool
        # efficiency compare solves made at nearly the same host speed
        cycle_start = time.perf_counter()
        untraced.append(Pass(1))
        traced.append(Pass(1))
        if jobs > 1:
            pooled.append(Pass(jobs))
        tracers.append(Tracer())
        for k, inst in enumerate(instances):
            solve_into(untraced[-1], fds, inst, clock)
            tracers[-1].instance = k
            solve_into(traced[-1], fds, inst, clock, tracers[-1])
            if jobs > 1:
                solve_into(pooled[-1], fds, inst, clock)
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            break

    passes = untraced + traced + (pooled if jobs > 1 else [])
    oracle = [fds.oracle_grid(inst, res=ORACLE_RES).objective for inst in instances]
    failures = check_answers(passes, oracle)
    failures += [f"{n} not restored" for n, f in originals.items() if getattr(fds, n) is not f]
    for tracer, p in zip(tracers, traced):
        failures += tracer.structure_errors(sum(p.wall))
    write_spans(OUT_DIR / f"spans-{name}-seed{seed}.json", tracers)

    samples: dict[str, list[float]] = {}
    for tracer, p, bare, phase in zip(tracers, traced, untraced, pooled):
        values = tracer.layer_metrics(dict(enumerate(p.objectives)))
        values["fds_solver.pool_phase_s"] = phase.phase_s
        values["fds_solver.pool_efficiency"] = tracer.total_seconds("solve_restricted") / (
            jobs * phase.phase_s
        )
        values["trace_overhead_frac"] = sum(p.scaled) / sum(bare.scaled) - 1.0
        for metric, value in values.items():
            samples.setdefault(metric, []).append(value)

    lines = [summary(m, v, per_layer_unit(m)) for m, v in samples.items()]
    lines += [
        f"{'share.' + layer:48s} {share:12.4f} of traced solve time"
        for layer, share in tracers[-1].layer_shares().items()
    ]
    metrics = {
        m: {"value": statistics.median(v), "unit": per_layer_unit(m)} for m, v in samples.items()
    }
    return metrics, lines, len(passes) * len(instances), failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a setup_s probe, which builds the inputs and exits
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fds = load_solver()
    instances = load_instances(args.workload, args.seed)
    if args.setup_only:
        return 0

    jobs = min(WORKLOADS[args.workload].jobs, len(os.sched_getaffinity(0)))
    print(
        f"workload {args.workload} seed {args.seed}: {len(instances)} instances, jobs={jobs}, "
        f"trace_res={TRACE_RES}, trace={args.trace}"
    )
    run = measure_traced if args.trace else measure
    metrics, lines, attempted, failures = run(
        fds, instances, args.workload, args.seed, jobs, args.seconds
    )
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    failed = min(len(failures), attempted)
    print(f"{'fail_frac':48s} {failed / attempted:12.6g} frac   ({failed} of {attempted} solves)")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
