"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The random-instance experiment (criterion 4) is computed once in a session
fixture; criterion 7 reads every restricted problem of the same instances
from the shared ``random_suite_sweeps`` fixture.
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tripcover import parse_instance
from tripcover.fds_solver import (
    cross_pair_candidates,
    edge_pair_distance,
    oracle_grid,
    solve_global,
)
from tripcover.level_curves import trace_level_curve
from tripcover.mixed_distance import branch_field, network_distance
from tripcover.preprocess import (
    TYPE1,
    all_pairs_shortest_paths,
    arc_bottleneck_points,
    classify_segment_pair,
    preprocess_network,
)
from conftest import SUITE_TRACE_RES, antipodal_problem, fig4_doc, trapezoid_doc


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}")


@dataclass
class SuiteRun:
    instances: list
    objectives: list[float]
    oracle200: list[float]
    oracle400: list[float]
    elapsed: float


@pytest.fixture(scope="session")
def suite_run(random_suite) -> SuiteRun:
    started = time.perf_counter()
    objectives, o200, o400 = [], [], []
    for inst in random_suite:
        sol, _ = solve_global(inst, trace_res=SUITE_TRACE_RES)
        objectives.append(sol.objective)
        o200.append(oracle_grid(inst, res=200).objective)
        o400.append(oracle_grid(inst, res=400).objective)
    return SuiteRun(
        random_suite, objectives, o200, o400, time.perf_counter() - started
    )


def test_criterion_1_fixture_bottlenecks(trapezoid):
    started = time.perf_counter()
    net = trapezoid.network
    dist = all_pairs_shortest_paths(net)
    bottom = arc_bottleneck_points(net, 1, dist)
    top = arc_bottleneck_points(net, 0, dist)
    try:
        assert len(bottom) == 2
        assert abs(bottom[0].arc_length - 1.0) < 1e-9
        assert abs(bottom[1].arc_length - 6.0) < 1e-9
        p0 = net.point_on_edge(1, bottom[0].arc_length)
        p1 = net.point_on_edge(1, bottom[1].arc_length)
        assert abs(p0.x) < 1e-9 and abs(p0.y) < 1e-9
        assert abs(p1.x - 5.0) < 1e-9 and abs(p1.y) < 1e-9
        assert top == []
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
    except AssertionError:
        verdict(1, False, "trapezoid bottleneck fixture")
        raise
    verdict(
        1,
        True,
        f"bottom edge bottlenecks at arcs 1 and 6, top edge clean ({elapsed:.3f}s)",
    )


def test_criterion_2_distance_formula(trapezoid):
    started = time.perf_counter()
    rp = antipodal_problem(trapezoid)
    rng = np.random.default_rng(2024)
    xs = rng.uniform(0.0, 5.0, 1000)
    ys = rng.uniform(0.0, 5.0, 1000)
    got = network_distance(rp.domain.pair_class, xs, ys)
    expected = np.minimum(6.0 + xs + ys, 16.0 - xs - ys)
    err = float(np.abs(got - expected).max())
    elapsed = time.perf_counter() - started
    try:
        assert err < 1e-9
        assert elapsed < 1.0
    except AssertionError:
        verdict(2, False, f"distance formula max error {err:.2e}")
        raise
    verdict(2, True, f"min(6+x+y, 16-x-y) reproduced, max error {err:.2e} ({elapsed:.3f}s)")


def _fig4_curves(inst, rp, trace_res=256):
    by_pair = {}
    for pair in inst.pairs:
        store = {}
        for orientation in ("12", "21"):
            for branch in ("a", "b"):
                field = branch_field(inst, rp.domain, pair, orientation, branch)
                curve = trace_level_curve(field, pair.acceptance, trace_res)
                if not curve.empty:
                    store[(orientation, branch)] = curve
        by_pair[(pair.origin, pair.dest)] = store
    return by_pair


def test_criterion_3_intersection_counts():
    started = time.perf_counter()
    counts = {}
    worst_residual = 0.0
    for d_kr in (10.5, 9.8):
        inst = parse_instance(fig4_doc(d_kr=d_kr))
        rp = antipodal_problem(inst)
        curves = _fig4_curves(inst, rp, 256)
        points, _ = cross_pair_candidates(
            (0, 1), (2, 3), curves[(0, 1)], curves[(2, 3)]
        )
        counts[d_kr] = len(points)
        for p in points:
            worst_residual = max(worst_residual, p.residual)
    elapsed = time.perf_counter() - started
    try:
        assert counts[10.5] == 3
        assert counts[9.8] == 0
        assert worst_residual < 1e-6
        assert elapsed < 10.0
    except AssertionError:
        verdict(3, False, f"counts {counts}, worst residual {worst_residual:.2e}")
        raise
    verdict(
        3,
        True,
        f"3 crossings at level 10.5, none at 9.8, worst residual "
        f"{worst_residual:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_4_oracle_dominance(suite_run):
    failures = [
        k
        for k in range(len(suite_run.instances))
        if suite_run.objectives[k] < suite_run.oracle200[k] - 1e-12
    ]
    beat_by_oracle = [
        k
        for k in range(len(suite_run.instances))
        if suite_run.objectives[k] < suite_run.oracle400[k] - 1e-12
    ]
    equal400 = sum(
        1
        for k in range(len(suite_run.instances))
        if suite_run.objectives[k] == suite_run.oracle400[k]
    )
    try:
        assert len(suite_run.instances) >= 20
        assert not failures, f"oracle at 200 beats solver on instances {failures}"
        assert not beat_by_oracle, f"oracle at 400 beats solver on {beat_by_oracle}"
        assert equal400 >= 18
        assert suite_run.elapsed < 300.0
    except AssertionError:
        verdict(4, False, f"equal at 400 on {equal400}/20, elapsed {suite_run.elapsed:.0f}s")
        raise
    verdict(
        4,
        True,
        f"solver >= oracle(200) on 20/20, equals oracle(400) on {equal400}/20 "
        f"({suite_run.elapsed:.0f}s total)",
    )


def test_criterion_5_orientation_disjointness(random_suite):
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    samples = 10_000
    for inst in random_suite:
        net = inst.network
        dist = all_pairs_shortest_paths(net)
        n_edges = len(net.edges)
        e1 = rng.integers(0, n_edges, samples)
        e2 = rng.integers(0, n_edges, samples)
        t1 = rng.uniform(0.0, 1.0, samples) * np.array(
            [net.edges[k].length for k in e1]
        )
        t2 = rng.uniform(0.0, 1.0, samples) * np.array(
            [net.edges[k].length for k in e2]
        )
        d = np.empty(samples)
        p1 = np.empty((samples, 2))
        p2 = np.empty((samples, 2))
        for ea in range(n_edges):
            for eb in range(n_edges):
                mask = (e1 == ea) & (e2 == eb)
                if not mask.any():
                    continue
                d[mask] = edge_pair_distance(net, dist, ea, eb, t1[mask], t2[mask])
        for k, edge in enumerate(net.edges):
            pu, pw = net.edge_endpoints(k)
            for arr, tt, ee in ((p1, t1, e1), (p2, t2, e2)):
                mask = ee == k
                frac = tt[mask] / edge.length
                arr[mask, 0] = pu.x + frac * (pw.x - pu.x)
                arr[mask, 1] = pu.y + frac * (pw.y - pu.y)
        for pair in inst.pairs:
            a = inst.facility_position(pair.origin)
            b = inst.facility_position(pair.dest)
            gap = a.distance_to(b)
            assert pair.acceptance < gap
            leg_a1 = np.hypot(a.x - p1[:, 0], a.y - p1[:, 1])
            leg_a2 = np.hypot(a.x - p2[:, 0], a.y - p2[:, 1])
            leg_b1 = np.hypot(b.x - p1[:, 0], b.y - p1[:, 1])
            leg_b2 = np.hypot(b.x - p2[:, 0], b.y - p2[:, 1])
            h12 = leg_a1 + inst.alpha * d + leg_b2
            h21 = leg_a2 + inst.alpha * d + leg_b1
            both = (h12 <= pair.acceptance) & (h21 <= pair.acceptance)
            try:
                assert not np.any(both)
            except AssertionError:
                verdict(5, False, f"both orientations met level for pair {pair}")
                raise
    elapsed = time.perf_counter() - started
    try:
        assert elapsed < 30.0
    except AssertionError:
        verdict(5, False, f"too slow: {elapsed:.1f}s")
        raise
    verdict(
        5,
        True,
        f"no sample point serves both boarding orders below the planar gap "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_curvature_witnesses(random_suite):
    rng = np.random.default_rng(66)
    checked_concave = checked_convex = 0
    for inst in random_suite:
        prep = preprocess_network(inst.network)
        segs = prep.segments
        for a in range(len(segs)):
            for b in range(a, len(segs)):
                pc = classify_segment_pair(segs[a], segs[b], prep.dist, inst.network)
                if pc.kind != TYPE1 and not pc.diagonal:
                    continue
                x1 = rng.uniform(0, pc.len_p, 1000)
                y1 = rng.uniform(0, pc.len_q, 1000)
                x2 = rng.uniform(0, pc.len_p, 1000)
                y2 = rng.uniform(0, pc.len_q, 1000)
                d1 = network_distance(pc, x1, y1)
                d2 = network_distance(pc, x2, y2)
                dm = network_distance(pc, 0.5 * (x1 + x2), 0.5 * (y1 + y2))
                if pc.kind == TYPE1:
                    ok = np.all(dm >= 0.5 * (d1 + d2) - 1e-9)
                    checked_concave += 1
                else:
                    ok = np.all(dm <= 0.5 * (d1 + d2) + 1e-9)
                    checked_convex += 1
                try:
                    assert ok
                except AssertionError:
                    verdict(
                        6,
                        False,
                        f"midpoint witness failed for segments ({a},{b}), {pc.kind}",
                    )
                    raise
    verdict(
        6,
        True,
        f"midpoint witnesses hold on {checked_concave} concave and "
        f"{checked_convex} same-segment convex pairs",
    )


def test_criterion_7_crossing_bound(random_suite_sweeps):
    # every restricted problem, not only those the global solver leaves unpruned
    counters = [sol.counters for sweep in random_suite_sweeps for sol in sweep]
    worst = max(c["max_curve_pair_intersections"] for c in counters)
    exceeded = sum(c["bound_exceeded"] for c in counters)
    try:
        assert worst <= 12
        assert exceeded == 0
    except AssertionError:
        verdict(7, False, f"max crossings per curve pair {worst}")
        raise
    verdict(7, True, f"max crossings of any curve pair across the suite: {worst} <= 12")


def test_criterion_8_determinism(tmp_path):
    instance = tmp_path / "fig2.json"
    instance.write_text(json.dumps(trapezoid_doc(alpha=0.4)))
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"result_jobs{jobs}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tripcover", "solve",
                "--instance", str(instance), "--out", str(out), "--jobs", jobs,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    doc1 = json.loads(outputs[0])
    doc2 = json.loads(outputs[1])
    try:
        assert doc1["objective"] == doc2["objective"]
        assert doc1["X1"] == doc2["X1"] and doc1["X2"] == doc2["X2"]
        assert outputs[0] == outputs[1]
    except AssertionError:
        verdict(8, False, "jobs=1 and jobs=8 disagree")
        raise
    verdict(8, True, "jobs=1 and jobs=8 produce byte-identical result documents")
