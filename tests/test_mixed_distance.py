import math

import numpy as np
import pytest

import tripcover.fds_solver as fds_solver
from tripcover import parse_instance
from tripcover.fds_solver import restricted_problems, solve_global
from tripcover.mixed_distance import (
    ORIENT_12,
    ORIENT_21,
    coverage_and_objective,
    coverage_weights,
    network_distance,
    path_length,
    restricted_problem,
)
from tripcover.model import ODPair
from tripcover.preprocess import classify_segment_pair, preprocess_network
from conftest import (
    S6,
    SUITE_SEEDS,
    SUITE_TRACE_RES,
    antipodal_problem,
    detour_doc,
    fig4_doc,
    grid_instance_doc,
    insertion_distance,
    random_instance_doc,
    reference_coverage_weights,
    reference_trip_length,
    transformed_doc,
    trapezoid_doc,
)


@pytest.fixture(scope="module")
def antipodal(trapezoid):
    return antipodal_problem(trapezoid)


def test_network_distance_fig_values(antipodal):
    assert float(network_distance(antipodal, 0.0, 0.0)) == pytest.approx(6.0)
    # min{6+5+5, 16-5-5} picks the second routing
    assert float(network_distance(antipodal, 5.0, 5.0)) == pytest.approx(6.0)


def test_network_distance_outside_rectangle_raises(antipodal):
    with pytest.raises(ValueError, match="rectangle"):
        network_distance(antipodal, 5.2, 1.0)


def test_path_length_reference_value(trapezoid, antipodal):
    # X1 mid top edge, X2 one unit into the bottom middle segment
    pair = trapezoid.pairs[0]
    h = float(path_length(trapezoid, antipodal, pair, 2.5, 1.0, ORIENT_12))
    expected = (6.0 - S6) + 0.3 * 9.5 + 4.0
    assert h == pytest.approx(expected, abs=1e-12)
    # cross-check the network term against degree-2 vertex insertion
    d = insertion_distance(trapezoid.network, (0, 2.5), (1, 2.0))
    assert d == pytest.approx(9.5, abs=1e-12)
    access = math.hypot(2.5 - 2.5, 6.0 - S6)
    egress = math.hypot(1.0 - 1.0, 0.0 + 4.0)
    assert h == pytest.approx(access + 0.3 * d + egress, abs=1e-12)


def test_path_length_collapsed_transfer_points(trapezoid):
    # X1 = X2 on one segment: the network term vanishes
    prep = preprocess_network(trapezoid.network)
    seg = prep.segments_by_edge[0][0]
    rp = restricted_problem(trapezoid.network, prep.dist, seg, seg)
    pair = trapezoid.pairs[0]
    h = float(path_length(trapezoid, rp, pair, 2.0, 2.0, ORIENT_12))
    x = trapezoid.network.point_on_edge(0, 2.0)
    a = trapezoid.facility_position(0)
    b = trapezoid.facility_position(1)
    assert h == pytest.approx(a.distance_to(x) + x.distance_to(b), abs=1e-12)


def test_orientation_swap_identity(trapezoid, antipodal):
    # boarding the other way round equals the reversed pair's trip
    pair = trapezoid.pairs[0]
    reverse = ODPair(pair.dest, pair.origin, pair.weight, pair.acceptance)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 5, 200)
    ys = rng.uniform(0, 5, 200)
    h12 = path_length(trapezoid, antipodal, pair, xs, ys, ORIENT_12)
    h21_reversed = path_length(trapezoid, antipodal, reverse, xs, ys, ORIENT_21)
    assert np.allclose(h12, h21_reversed, atol=1e-12, rtol=0)


def test_trip_length_is_min_of_orientations(trapezoid, antipodal):
    pair = trapezoid.pairs[0]
    rng = np.random.default_rng(4)
    xs = rng.uniform(0, 5, 500)
    ys = rng.uniform(0, 5, 500)
    f = reference_trip_length(trapezoid, antipodal, pair, xs, ys)
    h12 = path_length(trapezoid, antipodal, pair, xs, ys, ORIENT_12)
    h21 = path_length(trapezoid, antipodal, pair, xs, ys, ORIENT_21)
    assert np.all(f <= h12 + 1e-15)
    assert np.all(f <= h21 + 1e-15)
    assert np.allclose(f, np.minimum(h12, h21), atol=0, rtol=0)


def test_trip_length_symmetric_under_role_swap(trapezoid, random_suite):
    # evaluating with the segments' roles exchanged gives the same length
    rng = np.random.default_rng(5)
    for inst in [trapezoid] + random_suite[:2]:
        if not inst.pairs:
            continue
        prep = preprocess_network(inst.network)
        segs = prep.segments
        picks = [(0, len(segs) - 1), (0, 0), (len(segs) // 2, len(segs) - 1)]
        for a, b in picks:
            rp_ab = restricted_problem(inst.network, prep.dist, segs[a], segs[b])
            rp_ba = restricted_problem(inst.network, prep.dist, segs[b], segs[a])
            xs = rng.uniform(0, segs[a].length, 1000)
            ys = rng.uniform(0, segs[b].length, 1000)
            pair = inst.pairs[0]
            f_ab = reference_trip_length(inst, rp_ab, pair, xs, ys)
            f_ba = reference_trip_length(inst, rp_ba, pair, ys, xs)
            assert np.allclose(f_ab, f_ba, atol=1e-9, rtol=0)


def test_fig2_alpha04_orientations(trapezoid_a04):
    # with the acceptance level 10, boarding at the top segment works
    # somewhere, while boarding at the bottom first never does
    rp = antipodal_problem(trapezoid_a04)
    pair = trapezoid_a04.pairs[0]
    xs = np.linspace(0, 5, 201)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    h12 = path_length(trapezoid_a04, rp, pair, grid_x, grid_y, ORIENT_12)
    h21 = path_length(trapezoid_a04, rp, pair, grid_x, grid_y, ORIENT_21)
    f = reference_trip_length(trapezoid_a04, rp, pair, grid_x, grid_y)
    assert h12.min() <= 10.0
    assert h21.min() > 10.0
    assert f.min() <= 10.0


def test_zero_acceptance_never_covered(trapezoid):
    inst = parse_instance(trapezoid_doc(pairs=[{"i": 0, "j": 1, "t": 1.0, "d": 0.0}]))
    rp = antipodal_problem(inst)
    rng = np.random.default_rng(6)
    xs = rng.uniform(0, 5, 2000)
    ys = rng.uniform(0, 5, 2000)
    f = reference_trip_length(inst, rp, inst.pairs[0], xs, ys)
    assert np.all(f > 0.0)


def test_orientation_tests_disjoint_below_gap(trapezoid_a04):
    # both boarding orders can never simultaneously meet a level below the
    # planar gap between the facilities
    rp = antipodal_problem(trapezoid_a04)
    pair = trapezoid_a04.pairs[0]
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 5, 10_000)
    ys = rng.uniform(0, 5, 10_000)
    h12 = path_length(trapezoid_a04, rp, pair, xs, ys, ORIENT_12)
    h21 = path_length(trapezoid_a04, rp, pair, xs, ys, ORIENT_21)
    assert not np.any((h12 <= pair.acceptance) & (h21 <= pair.acceptance))


def test_trip_length_monotone_in_alpha(antipodal):
    rng = np.random.default_rng(12)
    xs = rng.uniform(0, 5, 500)
    ys = rng.uniform(0, 5, 500)
    previous = None
    for alpha in (0.2, 0.3, 0.5, 0.8):
        inst = parse_instance(trapezoid_doc(alpha=alpha))
        f = reference_trip_length(inst, antipodal, inst.pairs[0], xs, ys)
        if previous is not None:
            assert np.all(f >= previous - 1e-12)
        previous = f


def test_coverage_single_pair(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    covered, value = coverage_and_objective(trapezoid_a04, rp, 2.5, 2.5)
    f = float(reference_trip_length(trapezoid_a04, rp, trapezoid_a04.pairs[0], 2.5, 2.5))
    if f <= 10.0:
        assert covered == [(0, 1)] and value == 1.0
    else:
        assert covered == [] and value == 0.0
    # a point deep inside the covering region
    covered2, value2 = coverage_and_objective(trapezoid_a04, rp, 0.5, 0.5)
    assert covered2 == [(0, 1)]
    assert value2 == 1.0


def test_coverage_symmetric_instance_closed_under_reversal(trapezoid_a04):
    doc = trapezoid_doc(
        alpha=0.4,
        pairs=[
            {"i": 0, "j": 1, "t": 2.0, "d": 10.0},
            {"i": 1, "j": 0, "t": 2.0, "d": 10.0},
        ],
    )
    inst = parse_instance(doc)
    rp = antipodal_problem(inst)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, y = rng.uniform(0, 5), rng.uniform(0, 5)
        covered, value = coverage_and_objective(inst, rp, x, y)
        assert ((0, 1) in covered) == ((1, 0) in covered)
        if covered:
            assert value == 4.0


def test_coverage_empty(trapezoid):
    inst = parse_instance(trapezoid_doc(pairs=[{"i": 0, "j": 1, "t": 3.0, "d": 0.5}]))
    rp = antipodal_problem(inst)
    covered, value = coverage_and_objective(inst, rp, 2.0, 2.0)
    assert covered == [] and value == 0.0


def test_objective_is_exact_weight_sum(random_suite):
    for inst in random_suite[:3]:
        prep = preprocess_network(inst.network)
        seg = prep.segments[0]
        rp = restricted_problem(inst.network, prep.dist, seg, seg)
        covered, value = coverage_and_objective(inst, rp, 0.0, seg.length / 2)
        weights = {(p.origin, p.dest): p.weight for p in inst.pairs}
        assert value == sum(weights[c] for c in covered)


def test_negative_tolerance_rejected(trapezoid, antipodal):
    with pytest.raises(ValueError):
        coverage_and_objective(trapezoid, antipodal, 1.0, 1.0, tol=-1.0)


def test_coverage_weights_matches_scalar(trapezoid_a04):
    rp = antipodal_problem(trapezoid_a04)
    rng = np.random.default_rng(14)
    xs = rng.uniform(0, 5, 64)
    ys = rng.uniform(0, 5, 64)
    batch = coverage_weights(trapezoid_a04, rp, xs, ys)
    singles = [
        coverage_and_objective(trapezoid_a04, rp, float(x), float(y))[1]
        for x, y in zip(xs, ys)
    ]
    assert batch.tolist() == singles


SOLVED_PROBES = {
    "fig4": fig4_doc(),
    "trapezoid-a03": trapezoid_doc(alpha=0.3),
    "trapezoid-a04": trapezoid_doc(alpha=0.4),
    "detour": detour_doc(),
    "grid3": grid_instance_doc(3, 8, 30),
    **{f"seed{seed}": random_instance_doc(seed) for seed in SUITE_SEEDS},
}


@pytest.mark.parametrize("name", sorted(SOLVED_PROBES))
def test_facility_legs_match_the_per_pair_reference(name, monkeypatch):
    # every coverage evaluation of a solve, the candidates of each solved
    # problem and its winner, equals the per-pair loop bit for bit
    inst = parse_instance(SOLVED_PROBES[name])
    seen = {"weights": [], "winner": []}

    def recorded(kind, fn):
        def call(inst, rp, x, y, tol):
            out = fn(inst, rp, x, y, tol)
            seen[kind].append((rp, x, y, tol, out))
            return out

        return call

    monkeypatch.setattr(fds_solver, "coverage_weights", recorded("weights", coverage_weights))
    monkeypatch.setattr(
        fds_solver, "coverage_and_objective", recorded("winner", coverage_and_objective)
    )
    _, stats = solve_global(inst, trace_res=SUITE_TRACE_RES)
    assert len(seen["weights"]) == len(seen["winner"]) == stats["solved"] > 0
    for rp, xs, ys, tol, weights in seen["weights"]:
        assert np.array_equal(weights, reference_coverage_weights(inst, rp, xs, ys, tol))
    for rp, x, y, tol, (covered, objective) in seen["winner"]:
        assert objective == reference_coverage_weights(inst, rp, x, y, tol)
        assert covered == [
            (pair.origin, pair.dest)
            for pair in inst.pairs
            if reference_trip_length(inst, rp, pair, x, y) <= pair.acceptance + tol
        ]


RECORD_PROBES = {
    "fig4": fig4_doc(),
    "trapezoid": trapezoid_doc(),
    "detour": detour_doc(),
    **{f"seed{seed}": random_instance_doc(seed) for seed in SUITE_SEEDS},
    "seed104-scale1e-10": transformed_doc(random_instance_doc(104), scale=1e-10),
}


@pytest.mark.parametrize("name", sorted(RECORD_PROBES))
def test_records_hold_their_segments_forms(name):
    # a record has no forms exactly on one segment twice, which is what makes
    # ``diagonal`` derivable, and its rectangle is its two segment lengths
    inst = parse_instance(RECORD_PROBES[name])
    prep = preprocess_network(inst.network)
    segs = prep.segments
    pairs = [(a, b) for a in range(len(segs)) for b in range(a, len(segs))]
    problems = restricted_problems(inst, prep)
    assert len(problems) == len(pairs)
    for rp, (a, b) in zip(problems, pairs):
        assert (rp.seg_p, rp.seg_q) == (segs[a], segs[b])
        assert (not rp.forms) == (a == b) == rp.diagonal
        assert rp.rect == (segs[a].length, segs[b].length)
        assert rp.forms == classify_segment_pair(segs[a], segs[b], prep.dist, inst.network)
