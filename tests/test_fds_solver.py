import itertools
import math
import multiprocessing
import os
import signal
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripcover import fds_solver, parse_instance
from tripcover.fds_solver import (
    PROV_FALLBACK,
    axis_floor,
    cross_pair_candidates,
    edge_pair_bounds,
    edge_pair_distance,
    edge_pair_floors,
    evaluate_point_pair,
    field_floors,
    network_point_distance,
    oracle_grid,
    pair_candidates,
    problem_bounds,
    restricted_problems,
    solve_global,
    solve_restricted,
)
from tripcover.level_curves import intersect_curves, trace_level_curve
from tripcover.mixed_distance import (
    SegmentGeometry,
    branch_field,
    coverage_and_objective,
    coverage_weights,
    path_length,
)
from tripcover.model import network_point
from tripcover.preprocess import preprocess_network
from conftest import (
    SUITE_SEEDS,
    SUITE_TRACE_RES,
    antipodal_problem,
    fig4_doc,
    full_sweep,
    grid_instance_doc,
    insertion_distance,
    random_instance_doc,
    sweep_solution,
    sweep_winner,
    transformed_doc,
    trapezoid_doc,
)


def path_instance(d=5.0):
    # two collinear edges; boarding at the far edge first never pays off
    return parse_instance(
        {
            "alpha": 0.2,
            "vertices": [
                {"id": 0, "x": 0.0, "y": 0.0},
                {"id": 1, "x": 5.0, "y": 0.0},
                {"id": 2, "x": 10.0, "y": 0.0},
            ],
            "edges": [{"u": 0, "w": 1}, {"u": 1, "w": 2}],
            "facilities": [
                {"id": 0, "x": 1.0, "y": 1.5},
                {"id": 1, "x": 9.0, "y": -1.5},
            ],
            "pairs": [{"i": 0, "j": 1, "t": 2.0, "d": d}],
        }
    )


def trace_all(inst, rp, trace_res=256):
    curves = {}
    pc = rp.domain.pair_class
    branches = ("a", "b") if (pc.kind == "type1" and not pc.diagonal) else ("a",)
    by_pair = {}
    for pair in inst.pairs:
        store = {}
        for orientation in ("12", "21"):
            for branch in branches:
                field = branch_field(inst, rp.domain, pair, orientation, branch)
                curve = trace_level_curve(field, pair.acceptance, trace_res)
                if not curve.empty:
                    store[(orientation, branch)] = curve
        by_pair[(pair.origin, pair.dest)] = store
    return by_pair


def test_fig2_segment_and_problem_counts(trapezoid):
    prep = preprocess_network(trapezoid.network)
    # top edge is one segment, the bottom splits in three, and each slanted
    # side carries one interior bottleneck: 1 + 3 + 2 + 2
    assert len(prep.segments) == 8
    assert len(restricted_problems(trapezoid, prep)) == 36


def test_single_edge_network_single_problem():
    inst = parse_instance(
        {
            "alpha": 0.5,
            "vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 3.0, "y": 0.0}],
            "edges": [{"u": 0, "w": 1}],
            "facilities": [{"id": 0, "x": 0.0, "y": 1.0}, {"id": 1, "x": 3.0, "y": -1.0}],
            "pairs": [{"i": 0, "j": 1, "t": 1.0, "d": 3.0}],
        }
    )
    prep = preprocess_network(inst.network)
    problems = restricted_problems(inst, prep)
    assert len(problems) == 1
    assert problems[0].domain.pair_class.diagonal


def test_pair_candidates_no_curves_empty(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    points, stats = pair_candidates(rp, {})
    assert points == []
    assert stats["intersections"] == 0


def test_pair_candidates_fig4a_are_branch_crossings(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    curves = trace_all(trapezoid_a04, rp)[(0, 1)]
    assert sorted(curves) == [("12", "a"), ("12", "b")]
    points, stats = pair_candidates(rp, curves)
    assert stats["intersections"] == len(points) >= 1
    # every candidate sits on both branch curves
    for x, y in points:
        for key in (("12", "a"), ("12", "b")):
            value = float(curves[key].field(x, y))
            assert abs(value - 10.0) < 1e-6


def test_pair_candidates_type2_single_point():
    inst = path_instance()
    prep = preprocess_network(inst.network)
    problems = restricted_problems(inst, prep)
    rp = next(
        p for p in problems if p.seg_p.edge == 0 and p.seg_q.edge == 1
    )
    assert rp.domain.pair_class.kind == "type2"
    curves = trace_all(inst, rp)[(0, 1)]
    assert sorted(curves) == [("12", "a")]
    points, _ = pair_candidates(rp, curves)
    assert len(points) == 1
    x, y = points[0]
    field = branch_field(inst, rp.domain, inst.pairs[0], "12", "a")
    assert abs(float(field(x, y)) - inst.pairs[0].acceptance) < 1e-6


def test_cross_candidates_identical_pairs_rejected():
    with pytest.raises(ValueError, match="different O/D pairs"):
        cross_pair_candidates((0, 1), (0, 1), {}, {})


@pytest.mark.parametrize("d_kr,count", [(10.5, 3), (9.8, 0)])
def test_cross_candidates_counts(d_kr, count):
    inst = parse_instance(fig4_doc(d_kr=d_kr))
    rp = antipodal_problem(inst)
    by_pair = trace_all(inst, rp, 256)
    points, stats = cross_pair_candidates(
        (0, 1), (2, 3), by_pair[(0, 1)], by_pair[(2, 3)]
    )
    assert len(points) == count
    for p in points:
        assert p.residual < 1e-6


def test_solve_restricted_uncoverable_returns_fallback():
    inst = path_instance(d=0.5)
    prep = preprocess_network(inst.network)
    rp = restricted_problems(inst, prep)[0]
    sol = solve_restricted(inst, rp, trace_res=64)
    assert sol.objective == 0.0
    assert sol.covered == ()
    fallback = [c for c in sol.candidates if c.provenance == PROV_FALLBACK]
    assert len(fallback) == 1
    assert sol.best == (fallback[0].x, fallback[0].y)


def test_solve_restricted_antipodal_covers_pair(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    sol = solve_restricted(trapezoid_a04, rp, trace_res=256)
    assert sol.objective == 1.0
    assert sol.covered == ((0, 1),)
    # the 400x400 grid oracle confirms a covering point exists here
    assert oracle_grid(trapezoid_a04, res=400, rp=rp).objective == 1.0
    assert sol.objective >= oracle_grid(trapezoid_a04, res=200, rp=rp).objective


def test_solve_restricted_two_pairs(two_pair_a04):
    rp = antipodal_problem(two_pair_a04)
    sol = solve_restricted(two_pair_a04, rp, trace_res=256)
    oracle = oracle_grid(two_pair_a04, res=400, rp=rp)
    assert sol.objective == 2.0
    assert sol.objective == oracle.objective
    covered = set(sol.covered)
    assert covered == {(0, 1), (2, 3)}


def test_candidate_coverage_reproducible(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    sol = solve_restricted(trapezoid_a04, rp, trace_res=128)
    covered, value = coverage_and_objective(
        trapezoid_a04, rp.domain, sol.best[0], sol.best[1]
    )
    assert value == sol.objective
    assert tuple(covered) == sol.covered


def test_positive_optimum_attained_off_fallback(trapezoid_a04, random_suite):
    # whenever something is covered, a curve-derived or augmentation point
    # reaches the same objective as the reported best
    for inst in [trapezoid_a04] + random_suite[:2]:
        prep = preprocess_network(inst.network)
        for rp in restricted_problems(inst, prep):
            sol = solve_restricted(inst, rp, trace_res=64)
            if sol.objective <= 0:
                continue
            others = [c for c in sol.candidates if c.provenance != PROV_FALLBACK]
            xs = np.array([c.x for c in others])
            ys = np.array([c.y for c in others])
            values = coverage_weights(inst, rp.domain, xs, ys)
            assert values.max() == sol.objective


def test_global_solution_trapezoid(trapezoid_a04):
    sol, stats = solve_global(trapezoid_a04, trace_res=128)
    assert sol.objective == 1.0
    assert sol.covered == ((0, 1),)
    assert stats["segments"] == 8
    assert stats["restricted_problems"] == 36
    assert stats["solved"] + stats["pruned"] == stats["restricted_problems"]
    assert stats["omega_total"] >= stats["solved"]  # at least a fallback per solve


def test_global_dominates_every_restricted(trapezoid_a04):
    prep = preprocess_network(trapezoid_a04.network)
    sol, _ = solve_global(trapezoid_a04, trace_res=64)
    for rp in restricted_problems(trapezoid_a04, prep):
        restricted = solve_restricted(trapezoid_a04, rp, trace_res=64)
        assert sol.objective >= restricted.objective


def test_global_invalid_instance_rejected():
    inst = parse_instance(trapezoid_doc(alpha=1.5))
    with pytest.raises(ValueError, match="alpha"):
        solve_global(inst)


def test_global_no_pairs_returns_fallback():
    inst = parse_instance(trapezoid_doc(pairs=[]))
    sol, stats = solve_global(inst, trace_res=64)
    assert sol.objective == 0.0
    assert sol.covered == ()
    assert stats["restricted_problems"] == 36
    assert stats["curves"] == 0


def test_facility_on_network_needs_no_special_casing():
    # one facility sits exactly on a vertex, the other exactly on an edge;
    # the kinked access legs must not break the solve or the oracle bound
    import math

    s6 = 2 * math.sqrt(6)
    # planar gap is sqrt(28) ~ 5.29; boarding right at the facilities costs
    # 0.4 * 8 = 3.2, so level 5 is coverable
    doc = trapezoid_doc(alpha=0.4, pairs=[{"i": 0, "j": 1, "t": 1.0, "d": 5.0}])
    doc["facilities"] = [
        {"id": 0, "x": 0.0, "y": s6},  # vertex u_p
        {"id": 1, "x": 2.0, "y": 0.0},  # interior of the bottom edge
    ]
    inst = parse_instance(doc)
    sol, _ = solve_global(inst, trace_res=128)
    oracle = oracle_grid(inst, res=300)
    assert sol.objective >= oracle.objective
    assert sol.objective == 1.0  # boarding at the two facilities covers it


def test_pair_order_permutation_keeps_objective(two_pair_a04):
    doc = fig4_doc()
    doc["pairs"] = list(reversed(doc["pairs"]))
    permuted = parse_instance(doc)
    sol1, _ = solve_global(two_pair_a04, trace_res=96)
    sol2, _ = solve_global(permuted, trace_res=96)
    assert sol1.objective == sol2.objective


def test_solution_reproducible_through_direct_evaluation(trapezoid_a04):
    # re-evaluating the reported best point with the direct vertex-routing
    # distance (no segment machinery) gives the same objective and pairs
    from tripcover.preprocess import all_pairs_shortest_paths

    sol, _ = solve_global(trapezoid_a04, trace_res=128)
    dist = all_pairs_shortest_paths(trapezoid_a04.network)
    rows, total = evaluate_point_pair(trapezoid_a04, dist, sol.x1, sol.x2)
    assert total == sol.objective
    assert [tuple(pair) for pair in sol.covered] == [
        (r["i"], r["j"]) for r in rows if r["covered"]
    ]


def test_network_point_distance_matches_insertion(random_suite):
    from tripcover.preprocess import all_pairs_shortest_paths

    rng = np.random.default_rng(31)
    for inst in random_suite[:4]:
        net = inst.network
        dist = all_pairs_shortest_paths(net)
        for _ in range(25):
            e1 = int(rng.integers(0, len(net.edges)))
            e2 = int(rng.integers(0, len(net.edges)))
            t1 = float(rng.uniform(0, net.edges[e1].length))
            t2 = float(rng.uniform(0, net.edges[e2].length))
            a = network_point(net, e1, t1)
            b = network_point(net, e2, t2)
            expected = insertion_distance(net, (e1, t1), (e2, t2))
            assert network_point_distance(net, dist, a, b) == pytest.approx(
                expected, abs=1e-9
            )


def test_oracle_res2_samples_corners(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    result = oracle_grid(trapezoid_a04, res=2, rp=rp)
    w, h = rp.rect
    corner_values = [
        coverage_and_objective(trapezoid_a04, rp.domain, x, y)[1]
        for x, y in ((0.0, 0.0), (w, 0.0), (0.0, h), (w, h))
    ]
    assert result.objective == max(corner_values)


def test_oracle_refinement_never_loses_coverage(trapezoid_a04, random_suite):
    for inst in [trapezoid_a04] + random_suite[:3]:
        values = [oracle_grid(inst, res=r).objective for r in (3, 5, 9, 17)]
        assert all(b >= a for a, b in zip(values[:-1], values[1:]))


def test_oracle_resolution_floor():
    inst = path_instance()
    with pytest.raises(ValueError, match=">= 2"):
        oracle_grid(inst, res=1)


def test_solver_never_below_oracle_quick(random_suite):
    for inst in random_suite[:4]:
        sol, _ = solve_global(inst, trace_res=96)
        oracle = oracle_grid(inst, res=150)
        assert sol.objective >= oracle.objective


def test_parallel_jobs_bitwise_identical(trapezoid_a04):
    # suite generator seed 139 leaves 10 of its 91 problems to solve, enough
    # that both pruning and the pool act
    for inst in (trapezoid_a04, parse_instance(random_instance_doc(139))):
        sol1, stats1 = solve_global(inst, trace_res=96, jobs=1)
        sol2, stats2 = solve_global(inst, trace_res=96, jobs=4)
        assert sol1.objective == sol2.objective
        assert sol1.x1 == sol2.x1 and sol1.x2 == sol2.x2
        assert sol1.covered == sol2.covered
        stats1.pop("runtime_ms")
        stats2.pop("runtime_ms")
        assert stats1 == stats2
        assert stats1["pruned"] > 0
    assert stats1["solved"] > 4  # seed 139 keeps all four workers busy


def _outcome(sol, stats):
    """A solve's answer and stats, without the run-dependent ``runtime_ms``."""

    return sol.objective, sol.x1, sol.x2, sol.covered, {
        k: v for k, v in stats.items() if k != "runtime_ms"
    }


needs_pool = pytest.mark.skipif(
    fds_solver._usable_cpus() < 2, reason="jobs=2 solves in-process on one usable CPU"
)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@pytest.fixture
def own_pools(monkeypatch):
    """An empty pool registry for one test, whose pools are shut down after
    it; yields a function listing the child processes started since."""

    pools, before = {}, set(multiprocessing.active_children())
    monkeypatch.setattr(fds_solver, "_pools", pools)
    yield lambda: [p for p in multiprocessing.active_children() if p not in before]
    for pool in pools.values():
        pool.shutdown()


@needs_pool
def test_pool_reused_across_solves_without_carrying_state(own_pools):
    # each task carries its instance and parameters: a worker that kept the
    # first solve's would give the first answer again
    fig4 = parse_instance(fig4_doc())
    runs = [
        (fig4, dict(trace_res=96)),
        (parse_instance(random_instance_doc(139)), dict(trace_res=128)),
        (fig4, dict(trace_res=96, cov_tol=1.0)),
    ]
    workers = []
    for inst, params in runs:
        pooled = _outcome(*solve_global(inst, jobs=2, **params))
        assert pooled == _outcome(*solve_global(inst, jobs=1, **params))
        workers.append({p.pid for p in own_pools()})
    assert workers[0] and workers[1] == workers[0] and workers[2] == workers[0]


def _solve_in_child(conn, inst) -> None:
    conn.send(_outcome(*solve_global(inst, trace_res=96, jobs=2)))
    conn.close()


@needs_pool
@needs_fork
def test_forked_child_starts_its_own_pool():
    # the child inherits the parent's pool but not the thread that runs it,
    # and it must shut its own pool down at exit or wait for it forever
    inst = parse_instance(random_instance_doc(139))
    expected = _outcome(*solve_global(inst, trace_res=96, jobs=1))
    assert _outcome(*solve_global(inst, trace_res=96, jobs=2)) == expected
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_solve_in_child, args=(writer, inst))
    child.start()
    writer.close()
    try:
        assert reader.poll(60), "the child's solve did not finish"
        assert reader.recv() == expected
        child.join(60)
        assert not child.is_alive(), "the child did not exit"
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.terminate()
            child.join()


@needs_pool
def test_dead_worker_does_not_fail_the_next_solve(own_pools):
    inst = parse_instance(random_instance_doc(139))
    expected = _outcome(*solve_global(inst, trace_res=96, jobs=1))
    assert _outcome(*solve_global(inst, trace_res=96, jobs=2)) == expected
    worker = own_pools()[0]
    worker.kill()
    worker.join(30)
    assert not worker.is_alive()
    for _ in range(2):  # the solve that replaces the pool, and one on the replacement
        assert _outcome(*solve_global(inst, trace_res=96, jobs=2)) == expected


def _solve_and_vanish(conn, inst) -> None:
    solve_global(inst, trace_res=96, jobs=2)
    conn.send([p.pid for p in multiprocessing.active_children()])
    conn.close()
    os._exit(0)  # skips every exit hook, as a killed process would


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_pool
@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_pool_workers_exit_with_their_owner():
    inst = parse_instance(random_instance_doc(139))
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    owner = ctx.Process(target=_solve_and_vanish, args=(writer, inst))
    owner.start()
    writer.close()
    workers = []
    try:
        assert reader.poll(60), "the owner's solve did not finish"
        workers = reader.recv()
        owner.join(60)
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), "an orphaned worker is still running"
    finally:
        if owner.is_alive():
            owner.kill()
            owner.join()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_pool_capped_at_usable_cpus(monkeypatch):
    # a fake pool that runs each task at submit: a real one with a huge
    # ``jobs`` would fork that many processes
    sizes, in_flight = [], []

    class FakePool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self):
            pass

    def counting_wait(fs, return_when):
        in_flight.append(len(fs))
        return wait(fs, return_when=return_when)

    monkeypatch.setattr(fds_solver, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(fds_solver, "wait", counting_wait)
    monkeypatch.setattr(fds_solver, "_pools", {})
    monkeypatch.setattr(fds_solver, "_usable_cpus", lambda: 3)
    inst = parse_instance(random_instance_doc(139))
    expected = _outcome(*solve_global(inst, trace_res=96, jobs=1))
    for _ in range(2):  # the second solve reuses the first one's pool
        assert _outcome(*solve_global(inst, trace_res=96, jobs=10_000)) == expected
    assert sizes == [3] and max(in_flight) == 3
    in_flight.clear()
    assert _outcome(*solve_global(inst, trace_res=96, jobs=2)) == expected
    assert sizes == [3, 2] and max(in_flight) == 2
    monkeypatch.setattr(fds_solver, "_usable_cpus", lambda: 1)
    assert _outcome(*solve_global(inst, trace_res=96, jobs=10_000)) == expected
    assert sizes == [3, 2]  # one usable CPU solves in-process


def _bounds(inst):
    prep = preprocess_network(inst.network)
    problems = restricted_problems(inst, prep)
    return problems, problem_bounds(inst, prep, problems)


def test_problem_bounds_are_certified(random_suite, random_suite_sweeps, trapezoid_a04):
    # scaled and shifted copies stress the rounding allowance of the bound
    probes = [
        parse_instance(transformed_doc(doc, **transform))
        for doc in (fig4_doc(), random_instance_doc(104))
        for transform in ({"scale": 1e6}, {"shift": 1e6})
    ]
    fixtures = [parse_instance(fig4_doc()), trapezoid_a04] + probes
    sweeps = random_suite_sweeps + [full_sweep(inst, SUITE_TRACE_RES)[1] for inst in fixtures]
    for inst, solutions in zip(random_suite + fixtures, sweeps):
        problems, bounds = _bounds(inst)
        assert len(bounds) == len(solutions) == len(problems)
        for rp, sol, bound in zip(problems, solutions, bounds):
            assert sol.objective <= bound
            # the oracle shares no code with the bound
            assert oracle_grid(inst, res=64, rp=rp).objective <= bound


def test_edge_pair_bounds_are_certified(random_suite, trapezoid_a04):
    # every problem lies in exactly one edge pair, whose bound is at least the
    # member's own bound and what the grid oracle finds on the member
    probes = [
        parse_instance(transformed_doc(doc, **transform))
        for doc in (fig4_doc(), random_instance_doc(104))
        for transform in ({"scale": 1e6}, {"shift": 1e6})
    ]
    for inst in random_suite + [parse_instance(fig4_doc()), trapezoid_a04] + probes:
        prep = preprocess_network(inst.network)
        problems = restricted_problems(inst, prep)
        seen = []
        for edges, bound in edge_pair_bounds(inst, prep).items():
            members = restricted_problems(inst, prep, edges=edges)
            assert {(rp.seg_p.edge, rp.seg_q.edge) for rp in members} == {edges}
            assert members == [problems[rp.index] for rp in members]
            assert max(problem_bounds(inst, prep, members)) <= bound
            for rp in members:
                assert oracle_grid(inst, res=64, rp=rp).objective <= bound
            seen += [rp.index for rp in members]
        assert sorted(seen) == list(range(len(problems)))


def rounding_allowance(inst):
    """The allowance the floor tests grant: 64 eps times the largest
    coordinate magnitude or the network length plus twice its longest edge."""

    points = [v.position for v in inst.network.vertices] + [f.position for f in inst.facilities]
    lengths = [e.length for e in inst.network.edges]
    scale = max(max(max(abs(p.x), abs(p.y)) for p in points), sum(lengths) + 2 * max(lengths))
    return 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("transform", [{}, {"scale": 1e6}, {"shift": 1e6}])
@pytest.mark.parametrize("seed", [104, 107, 120])
def test_edge_pair_floors_are_the_sampled_minimum(seed, transform):
    # on two different edges the floor is the minimum of the trip length over
    # the edge-pair rectangle, so it lies within the sampling error of a 33x33
    # grid minimum (the trip length is (1 + alpha)-Lipschitz per axis); on one
    # edge it only has to stay below it
    inst = parse_instance(transformed_doc(random_instance_doc(seed), **transform))
    net = inst.network
    prep = preprocess_network(net)
    floors = np.array(list(edge_pair_floors(inst, prep)))
    allowance = rounding_allowance(inst)

    def samples(edge):
        ts = np.linspace(0.0, net.edges[edge].length, 33)
        pu, pw = net.edge_endpoints(edge)
        frac = ts / net.edges[edge].length
        return ts, pu.x + frac * (pw.x - pu.x), pu.y + frac * (pw.y - pu.y)

    for k, (e, f) in enumerate(zip(*np.triu_indices(len(net.edges)))):
        ps, px, py = samples(e)
        qs, qx, qy = samples(f)
        network = inst.alpha * edge_pair_distance(net, prep.dist, e, f, ps[:, None], qs[None, :])
        slack = (1 + inst.alpha) * (ps[1] + qs[1]) / 2
        for pi, pair in enumerate(inst.pairs):
            a = inst.facility_position(pair.origin)
            b = inst.facility_position(pair.dest)
            h12 = np.hypot(a.x - px, a.y - py)[:, None] + network + np.hypot(b.x - qx, b.y - qy)
            h21 = np.hypot(a.x - qx, a.y - qy) + network + np.hypot(b.x - px, b.y - py)[:, None]
            sampled = float(np.minimum(h12, h21).min())
            assert floors[pi, k] <= sampled + allowance
            if e != f:
                assert floors[pi, k] >= sampled - slack - allowance


@pytest.mark.parametrize("name", ["fig4", "seed103", "seed120"])
def test_edge_order_leaves_objective_and_counts_unchanged(name):
    # the order of the edges fixes the problem indices and so the tie-breaks:
    # the reported points may move, the objective and the counts may not
    from tripcover.preprocess import all_pairs_shortest_paths

    doc = _probe_doc(name)
    sol, stats = solve_global(parse_instance(doc), trace_res=SUITE_TRACE_RES)
    rng = np.random.default_rng(7)
    for _ in range(3):
        permuted = {**doc, "edges": [doc["edges"][k] for k in rng.permutation(len(doc["edges"]))]}
        inst = parse_instance(permuted)
        other, other_stats = solve_global(inst, trace_res=SUITE_TRACE_RES)
        assert other.objective == sol.objective
        for key in ("segments", "restricted_problems"):
            assert other_stats[key] == stats[key]
        assert len(restricted_problems(inst, preprocess_network(inst.network))) == (
            stats["restricted_problems"]
        )
        dist = all_pairs_shortest_paths(inst.network)
        assert evaluate_point_pair(inst, dist, other.x1, other.x2)[1] == other.objective


def point_segment_distance(px, py, geom):
    """Distance from a point to a segment by clamped projection."""

    ox, oy = geom.origin
    dx, dy = geom.direction
    t = min(max(((px - ox) * dx + (py - oy) * dy) / (dx * dx + dy * dy), 0.0), geom.length)
    return math.hypot(px - (ox + t * dx), py - (oy + t * dy))


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def axis_cases(draw):
    """A segment, a facility and a linear coefficient, with the edge cases
    the closed form has to get right drawn on purpose."""

    speed = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.2, 1.0, **finite))
    angle = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, 2 * math.pi, **finite))
    length = draw(st.floats(0.1, 10.0, **finite))
    origin = (draw(st.floats(-10.0, 10.0, **finite)), draw(st.floats(-10.0, 10.0, **finite)))
    direction = (speed * math.cos(angle), speed * math.sin(angle))
    geom = SegmentGeometry(0, 0.0, length, origin, direction)
    if draw(st.booleans()):  # facility on the segment's line, h = 0
        tau = draw(st.floats(-length, 2 * length, **finite))
        facility = (origin[0] + tau * direction[0], origin[1] + tau * direction[1])
    else:
        facility = (draw(st.floats(-15.0, 15.0, **finite)), draw(st.floats(-15.0, 15.0, **finite)))
    # c = 0, |c| = s, |c| < s and |c| > s
    magnitude = draw(
        st.sampled_from([0.0, speed])
        | st.floats(0.0, speed, **finite)
        | st.floats(speed, 3.0, **finite)
    )
    return facility, geom, magnitude * draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(axis_cases())
def test_axis_floor_is_the_sampled_minimum(case):
    facility, geom, c = case
    ts = np.linspace(0.0, geom.length, 4001)
    px, py = geom.position(ts)
    sampled = float((np.hypot(facility[0] - px, facility[1] - py) + c * ts).min())
    floor = float(axis_floor(facility, geom, c, geom.length))
    speed = math.hypot(*geom.direction)
    assert floor <= sampled + 1e-12
    # tight, not just valid: the exact minimum is within half a sample
    # spacing times the Lipschitz constant of the sampled one
    assert floor >= sampled - (ts[1] - ts[0]) * (speed + abs(c)) - 1e-12


def test_axis_floor_broadcasts_like_scalar_calls():
    geom = SegmentGeometry(0, 0.0, 4.0, (1.0, -2.0), (0.6, 0.8))
    fx = np.array([3.0, 1.0, -4.0])[:, None]
    cs = np.array([0.0, 0.3, -0.9, 1.5])
    grid = axis_floor((fx, 2.0), geom, cs, 4.0)
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert grid[i, j] == axis_floor((float(fx[i, 0]), 2.0), geom, cs[j], 4.0)


@st.composite
def single_edge_docs(draw):
    """One edge, so one segment and one diagonal restricted problem."""

    coord = st.floats(-6.0, 6.0, **finite)
    end = (draw(coord), draw(coord))
    assume(math.hypot(*end) > 0.5)
    chord = math.hypot(*end)
    a = (draw(coord), draw(coord))
    b = (draw(coord), draw(coord))
    gap = math.hypot(a[0] - b[0], a[1] - b[1])
    assume(gap > 0.5)
    return {
        "alpha": draw(st.floats(0.05, 0.95, **finite)),
        "vertices": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": end[0], "y": end[1]}],
        "edges": [{"u": 0, "w": 1, "length": chord * draw(st.floats(1.0, 1.5, **finite))}],
        "facilities": [{"id": 0, "x": a[0], "y": a[1]}, {"id": 1, "x": b[0], "y": b[1]}],
        "pairs": [{"i": 0, "j": 1, "t": 1.0, "d": 0.5 * gap}],
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(single_edge_docs())
def test_diagonal_floor_bounds_the_field(doc):
    inst = parse_instance(doc)
    (rp,) = restricted_problems(inst, preprocess_network(inst.network))
    assert rp.domain.pair_class.diagonal
    pair = inst.pairs[0]
    a = inst.facility_position(pair.origin)
    b = inst.facility_position(pair.dest)
    geom = rp.domain.geom_p
    # the bound of the two separate facility-to-segment minima
    separate = point_segment_distance(a.x, a.y, geom) + point_segment_distance(b.x, b.y, geom)
    ts = np.linspace(0.0, rp.rect[0], 301)
    floors = field_floors(inst, rp)
    for orientation in ("12", "21"):
        # the floor covers both triangles, where the field is defined on one
        lengths = path_length(inst, rp.domain, pair, ts[:, None], ts[None, :], orientation)
        sampled = float(lengths.min())
        floor = float(floors[0][orientation][0])
        assert floor <= sampled + 1e-12
        assert floor >= separate - 1e-12  # never looser, up to rounding


@pytest.mark.parametrize("transform", [{}, {"scale": 1e6}, {"shift": 1e6}])
@pytest.mark.parametrize("seed", [104, 107])
def test_field_floors_bound_every_field(seed, transform):
    # the floors that let _trace_pair skip a field never exceed its minimum
    # by more than the rounding allowance the skip grants
    inst = parse_instance(transformed_doc(random_instance_doc(seed), **transform))
    allowance = rounding_allowance(inst)
    for rp in restricted_problems(inst, preprocess_network(inst.network)):
        pc = rp.domain.pair_class
        branches = ("a", "b") if (pc.kind == "type1" and not pc.diagonal) else ("a",)
        xs = np.linspace(0.0, rp.rect[0], 33)[:, None]
        ys = np.linspace(0.0, rp.rect[1], 33)[None, :]
        floors = field_floors(inst, rp)
        for pi, pair in enumerate(inst.pairs):
            for orientation in ("12", "21"):
                for k, branch in enumerate(branches):
                    if pc.diagonal:  # both triangles; the field covers x <= y only
                        lengths = path_length(inst, rp.domain, pair, xs, ys, orientation)
                        sampled = float(lengths.min())
                    else:
                        field = branch_field(inst, rp.domain, pair, orientation, branch)
                        sampled = float(field(xs, ys).min())
                    assert floors[pi][orientation][k] <= sampled + allowance


def test_stats_cover_the_required_problems(random_suite, random_suite_sweeps):
    # solved problems are those whose bound beats the optimum, or ties it at
    # an index up to the winner's; the counters sum over exactly those
    total = solved = 0
    for inst, sweep in list(zip(random_suite, random_suite_sweeps))[:8]:
        sol, stats = solve_global(inst, trace_res=SUITE_TRACE_RES)
        _, bounds = _bounds(inst)
        winner = sweep_winner(sweep)
        required = [
            s
            for s, b in zip(sweep, bounds)
            if b > sol.objective or (b == sol.objective and s.rp_index <= winner.rp_index)
        ]
        assert winner.objective == sol.objective
        assert stats["solved"] == len(required)
        assert stats["pruned"] == len(sweep) - len(required)
        for stat, counter in (
            ("omega_total", "omega"),
            ("curves", "curves"),
            ("intersections", "intersections"),
            ("bound_exceeded", "bound_exceeded"),
        ):
            assert stats[stat] == sum(s.counters[counter] for s in required)
        assert stats["max_curve_pair_intersections"] == max(
            s.counters["max_curve_pair_intersections"] for s in required
        )
        total += len(sweep)
        solved += len(required)
    assert solved < total / 4


PROBE_OBJECTIVES = {"fig4": 2.0, "seed104": 12.0, "seed107": 25.0}
PROBE_TRANSFORMS = {
    "unchanged": {},
    "scale1e-3": {"scale": 1e-3},
    "scale1e3": {"scale": 1e3},
    "scale1e6": {"scale": 1e6},
    "shift1e6": {"shift": 1e6},
}


def _probe_doc(name):
    if name == "fig4":
        return fig4_doc()
    return random_instance_doc(int(name.removeprefix("seed")))


@pytest.mark.parametrize("transform", sorted(PROBE_TRANSFORMS))
@pytest.mark.parametrize("name", sorted(PROBE_OBJECTIVES))
def test_global_matches_unpruned_sweep(name, transform):
    inst = parse_instance(transformed_doc(_probe_doc(name), **PROBE_TRANSFORMS[transform]))
    sol, _ = solve_global(inst, trace_res=64)
    assert sol == sweep_solution(inst, *full_sweep(inst, 64))
    # coordinate scaling and translation leave the optimum unchanged
    assert sol.objective == PROBE_OBJECTIVES[name]


@pytest.mark.parametrize(
    "param",
    [
        {"trace_res": 0},
        {"trace_res": 15},
        {"cov_tol": math.nan},
        {"cov_tol": math.inf},
        {"cov_tol": -1e-9},
        {"refine_tol": -1.0},
        {"refine_tol": 0.0},
        {"refine_tol": math.nan},
        {"jobs": 0},
        {"jobs": -3},
    ],
)
def test_solver_parameters_checked_before_any_work(param, monkeypatch):
    # unchecked, a NaN cov_tol covers nothing: fig4 would report 0 against its optimum 2,
    # in solve_global and in solve_restricted on the winning problem alike
    import tripcover.fds_solver as fds

    def refuse(*args):
        raise AssertionError("work started before the parameters were checked")

    inst = parse_instance(fig4_doc())
    rp = antipodal_problem(inst)
    monkeypatch.setattr(fds, "validate_instance", refuse)
    monkeypatch.setattr(fds, "field_floors", refuse)
    with pytest.raises(ValueError, match=next(iter(param))):
        solve_global(inst, **param)
    if "jobs" not in param:  # a restricted problem runs in one process
        with pytest.raises(ValueError, match=next(iter(param))):
            solve_restricted(inst, rp, **param)


def relabelled_doc(doc: dict, seed: int) -> dict:
    """``doc`` reflected through one or both axes, with permuted vertex and
    facility ids and shuffled pairs: the same problem, presented differently."""

    rng = np.random.default_rng(seed)
    sx, sy = [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)][seed % 3]

    def relabel(rows):
        return dict(zip((r["id"] for r in rows), rng.permutation(len(rows)).tolist()))

    def point(row, ids):
        return {**row, "id": ids[row["id"]], "x": sx * row["x"], "y": sy * row["y"]}

    vid, fid = relabel(doc["vertices"]), relabel(doc["facilities"])
    pairs = [{**p, "i": fid[p["i"]], "j": fid[p["j"]]} for p in doc["pairs"]]
    return {
        **doc,
        "vertices": [point(v, vid) for v in doc["vertices"]],
        "edges": [{**e, "u": vid[e["u"]], "w": vid[e["w"]]} for e in doc["edges"]],
        "facilities": [point(f, fid) for f in doc["facilities"]],
        "pairs": [pairs[k] for k in rng.permutation(len(pairs))],
    }


@pytest.mark.parametrize("name", ["fig4", "seed103", "seed120"])
def test_relabelling_leaves_objective_and_stats_unchanged(name):
    doc = fig4_doc() if name == "fig4" else random_instance_doc(int(name.removeprefix("seed")))
    sol, stats = solve_global(parse_instance(doc), trace_res=SUITE_TRACE_RES)
    stats.pop("runtime_ms")
    for seed in (1, 2, 3):
        other, other_stats = solve_global(
            parse_instance(relabelled_doc(doc, seed)), trace_res=SUITE_TRACE_RES
        )
        other_stats.pop("runtime_ms")
        assert other.objective == sol.objective
        assert other_stats == stats


def test_grid3_matches_fine_oracle():
    inst = parse_instance(grid_instance_doc(3, 8, 30))
    sol, stats = solve_global(inst, trace_res=128)
    assert stats["restricted_problems"] == 703
    assert sol.objective == oracle_grid(inst, res=200).objective


BATCH_DOCS = [random_instance_doc(seed) for seed in SUITE_SEEDS] + [
    fig4_doc(),
    trapezoid_doc(0.3),
    trapezoid_doc(0.4),
    grid_instance_doc(3, 8, 30),
]


def _bits(points):
    return [(p.x.hex(), p.y.hex(), p.residual.hex(), p.refined) for p in points]


def _per_pair_counters(inst, rp, trace_res):
    """``solve_restricted``'s crossing counters from one crossing search per
    O/D pair and per two O/D pairs, not one per problem."""

    floors = field_floors(inst, rp)
    scale = fds_solver._rounding_scale(inst)
    curves = [
        fds_solver._trace_pair(inst, rp, pair, floors[k], scale, trace_res).curves
        for k, pair in enumerate(inst.pairs)
    ]
    counters = dict.fromkeys(["intersections", "max_curve_pair_intersections", "bound_exceeded"], 0)
    counters["curves"] = sum(len(c) for c in curves)
    per_call = [pair_candidates(rp, c)[1] for c in curves]
    ends = [(p.origin, p.dest) for p in inst.pairs]
    for i, j in itertools.combinations(range(len(curves)), 2):
        if curves[i] and curves[j]:
            points, stats = cross_pair_candidates(ends[i], ends[j], curves[i], curves[j])
            per_call.append({**stats, "intersections": len(points)})
    for stats in per_call:
        counters["intersections"] += stats["intersections"]
        counters["max_curve_pair_intersections"] = max(
            counters["max_curve_pair_intersections"], stats["max_curve_pair"]
        )
        counters["bound_exceeded"] += stats["bound_exceeded"]
    return counters


def test_batched_crossings_equal_one_pair_calls(monkeypatch):
    # every problem solve_global solves crosses all its curve pairs in one
    # batch; each pair's crossings and the problem's counters must be those
    # of crossing the pairs one at a time
    batches, solved = [], []
    kernel, solve = fds_solver.intersect_curve_pairs, fds_solver.solve_restricted

    def record_batch(pairs, *args, **kwargs):
        sets = kernel(pairs, *args, **kwargs)
        batches.append((pairs, sets))
        return sets

    def record_solve(inst, rp, **params):
        sol = solve(inst, rp, **params)
        solved.append((inst, rp, sol))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(fds_solver, "intersect_curve_pairs", record_batch)
        patch.setattr(fds_solver, "solve_restricted", record_solve)
        for doc in BATCH_DOCS:
            solve_global(parse_instance(doc), trace_res=SUITE_TRACE_RES)
    assert len(batches) == len(solved) >= 30
    crossings = 0
    for pairs, sets in batches:
        assert len(sets) == len(pairs)
        for (c1, c2), found in zip(pairs, sets):
            alone = intersect_curves(c1, c2)
            assert _bits(found.points) == _bits(alone.points)
            assert found.bound_exceeded == alone.bound_exceeded
            crossings += len(found)
    assert crossings >= 150
    for inst, rp, sol in solved:
        counters = {k: v for k, v in sol.counters.items() if k != "omega"}
        assert counters == _per_pair_counters(inst, rp, SUITE_TRACE_RES)


@pytest.mark.slow
def test_grid3_30_pairs_reaches_the_finer_oracle():
    inst = parse_instance(grid_instance_doc(3, 8, 30))
    sol, _ = solve_global(inst, trace_res=128)
    assert sol.objective >= oracle_grid(inst, res=400).objective


@pytest.mark.slow
def test_grid4_40_pairs_objective():
    inst = parse_instance(grid_instance_doc(4, 10, 40))
    sol, stats = solve_global(inst, trace_res=128)
    assert stats["restricted_problems"] == 5151
    assert sol.objective == 47.0


@pytest.mark.slow
def test_grid5_60_pairs_reaches_the_oracle():
    inst = parse_instance(grid_instance_doc(5, 15, 60))
    sol, _ = solve_global(inst, trace_res=128)
    assert sol.objective >= oracle_grid(inst, res=200).objective


@pytest.mark.slow
def test_grid6_100_pairs_reaches_the_oracle():
    inst = parse_instance(grid_instance_doc(6, 20, 100))
    sol, stats = solve_global(inst, trace_res=128)
    assert stats["restricted_problems"] == 94830
    assert sol.objective >= oracle_grid(inst, res=100).objective  # both 52


@pytest.mark.slow
def test_grid8_200_pairs_objective():
    inst = parse_instance(grid_instance_doc(8, 30, 200))
    sol, stats = solve_global(inst, trace_res=128)
    assert stats["restricted_problems"] == 520710
    assert sol.objective == 79.0
