"""Tests of the benchmark itself: generators, variants, tracer and manifest.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from clock import HostClock  # noqa: E402
from spans import PATCHED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SUITE_SEEDS,
    TRACE_RES,
    WORKLOADS,
    grid_instance_doc,
    variant,
    workload_docs,
)

import tripcover.fds_solver as fds  # noqa: E402
from tripcover import parse_instance  # noqa: E402
from tripcover.preprocess import preprocess_network  # noqa: E402


def _test_suite_generator():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_instance_doc


def test_suite_docs_are_the_test_suite_instances():
    reference = _test_suite_generator()
    assert SUITE_SEEDS == tuple(range(101, 121))
    assert workload_docs("suite20", 0) == [reference(s) for s in SUITE_SEEDS]
    assert workload_docs("suite20-j2", 0) == workload_docs("suite20", 0)


@pytest.mark.parametrize(
    "shape, edges, segments",
    [((4, 10, 12), 24, 101), ((3, 8, 30), 12, 37)],
)
def test_grid_generator_structure(shape, edges, segments):
    inst = parse_instance(grid_instance_doc(*shape))
    prep = preprocess_network(inst.network)
    assert len(inst.network.edges) == edges
    assert len(prep.segments) == segments
    assert len(fds.restricted_problems(inst, prep)) == segments * (segments + 1) // 2


def test_variant_is_seeded_and_exact():
    docs = workload_docs("suite20", 0)
    assert variant(docs, 0) is docs
    assert variant(docs, 7) == variant(docs, 7)
    assert variant(docs, 7) != variant(docs, 8)
    for doc in variant(docs, 7):
        base = next(d for d in docs if d["alpha"] == doc["alpha"])
        for v, w in zip(doc["vertices"], base["vertices"]):
            assert abs(v["x"]) == abs(w["x"]) and abs(v["y"]) == abs(w["y"])
        assert [(p["t"], p["d"]) for p in doc["pairs"]] == [(p["t"], p["d"]) for p in base["pairs"]]


def _solve(doc, jobs=1):
    solution, stats = fds.solve_global(parse_instance(doc), trace_res=TRACE_RES, jobs=jobs)
    stats.pop("runtime_ms")
    return solution, stats


def test_variant_solves_to_the_same_objective_and_work():
    base = grid_instance_doc(2, 4, 6)
    solution, stats = _solve(base)
    for seed in (1, 2, 3, 4):
        (doc,) = variant([base], seed)
        other, other_stats = _solve(doc)
        assert other.objective == solution.objective
        assert other_stats == stats


def test_tracer_tiles_solve_and_restores_names():
    doc = grid_instance_doc(2, 4, 6)
    inst = parse_instance(doc)
    originals = {name: getattr(fds, name) for name in PATCHED}
    untraced, traced, tracer, clock = run.Pass(1), run.Pass(1), Tracer(), HostClock()
    run.solve_into(untraced, fds, inst, clock)
    tracer.instance = 0
    run.solve_into(traced, fds, inst, clock, tracer)
    assert {name: getattr(fds, name) for name in PATCHED} == originals
    assert traced.docs == untraced.docs
    assert tracer.structure_errors(sum(traced.wall)) == []

    metrics = tracer.layer_metrics({0: traced.objectives[0]})
    stats = json.loads(traced.docs[0])["stats"]
    assert metrics["fds_solver.problems"] == stats["restricted_problems"]
    assert metrics["preprocess.segments"] == stats["segments"]
    assert metrics["fds_solver.candidates"] == stats["omega_total"]
    assert metrics["mixed_distance.coverage_points"] == stats["omega_total"]
    assert metrics["mixed_distance.coverage_and_objective_calls"] == stats["restricted_problems"]
    assert 0.0 < metrics["fds_solver.problems_at_optimum_frac"] <= 1.0


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())

    layer_names = set(Tracer().layer_metrics({})) | {
        "fds_solver.pool_phase_s",
        "fds_solver.pool_efficiency",
        "trace_overhead_frac",
    }
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layer_names
    }


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite20", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
