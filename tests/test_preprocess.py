import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcover import parse_instance
from tripcover.fds_solver import solve_global
from tripcover.level_curves import DEFAULT_DEDUPE_RADIUS
from tripcover.mixed_distance import network_distance, restricted_problem
from tripcover.preprocess import (
    DisconnectedNetworkError,
    all_pairs_shortest_paths,
    arc_bottleneck_points,
    classify_segment_pair,
    linear_arc_segments,
    preprocess_network,
)
from conftest import (
    detour_doc,
    enumerated_vertex_distance,
    fig4_doc,
    grid_instance_doc,
    insertion_distance,
    random_instance_doc,
    transformed_doc,
    trapezoid_doc,
)


def single_edge_net(length=3.0):
    return parse_instance(
        {
            "alpha": 0.5,
            "vertices": [
                {"id": 0, "x": 0.0, "y": 0.0},
                {"id": 1, "x": length, "y": 0.0},
            ],
            "edges": [{"u": 0, "w": 1, "length": length}],
            "facilities": [],
            "pairs": [],
        }
    ).network


def test_apsp_single_edge():
    dist = all_pairs_shortest_paths(single_edge_net(3.0))
    assert dist.tolist() == [[0.0, 3.0], [3.0, 0.0]]


def test_apsp_trapezoid_values(trapezoid):
    dist = all_pairs_shortest_paths(trapezoid.network)
    # side label of the trapezoid
    assert dist[0, 2] == pytest.approx(5.0, abs=1e-12)
    # opposite corner goes around one side
    assert dist[1, 2] == pytest.approx(10.0, abs=1e-12)
    assert dist[0, 3] == pytest.approx(10.0, abs=1e-12)


def test_apsp_matches_simple_path_enumeration(trapezoid, random_suite):
    for inst in [trapezoid] + random_suite[:4]:
        net = inst.network
        dist = all_pairs_shortest_paths(net)
        for a in range(len(net.vertices)):
            for b in range(a, len(net.vertices)):
                expected = (
                    0.0
                    if a == b
                    else enumerated_vertex_distance(
                        net, net.vertices[a].id, net.vertices[b].id
                    )
                )
                assert dist[a, b] == pytest.approx(expected, abs=1e-9)


def test_apsp_disconnected_names_pair():
    net = parse_instance(
        {
            "alpha": 0.5,
            "vertices": [
                {"id": 0, "x": 0.0, "y": 0.0},
                {"id": 1, "x": 1.0, "y": 0.0},
                {"id": 7, "x": 5.0, "y": 5.0},
            ],
            "edges": [{"u": 0, "w": 1}],
            "facilities": [],
            "pairs": [],
        }
    ).network
    with pytest.raises(DisconnectedNetworkError, match="vertex 0 and vertex 7"):
        all_pairs_shortest_paths(net)


def test_matrix_invariants(random_suite):
    for inst in random_suite[:6]:
        dist = all_pairs_shortest_paths(inst.network)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        n = len(dist)
        for b in range(n):
            via = dist[:, [b]] + dist[[b], :]
            assert np.all(dist <= via + 1e-9)


def test_bottlenecks_bottom_edge(trapezoid):
    net = trapezoid.network
    dist = all_pairs_shortest_paths(net)
    points = arc_bottleneck_points(net, 1, dist)
    assert [round(b.arc_length, 12) for b in points] == [1.0, 6.0]
    # defined by the two top vertices, with the expected planar positions
    assert points[0].vertices == (1,)
    assert points[1].vertices == (0,)
    p0 = net.point_on_edge(1, points[0].arc_length)
    p1 = net.point_on_edge(1, points[1].arc_length)
    assert (p0.x, p0.y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    assert (p1.x, p1.y) == (pytest.approx(5.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_bottlenecks_top_edge_empty(trapezoid):
    net = trapezoid.network
    dist = all_pairs_shortest_paths(net)
    assert arc_bottleneck_points(net, 0, dist) == []


def test_bottlenecks_single_edge_empty():
    net = single_edge_net()
    dist = all_pairs_shortest_paths(net)
    assert arc_bottleneck_points(net, 0, dist) == []


def test_bottleneck_tie_equation(random_suite):
    for inst in random_suite[:6]:
        net = inst.network
        dist = all_pairs_shortest_paths(net)
        idx = net.vertex_index
        for edge, e in enumerate(net.edges):
            for b in arc_bottleneck_points(net, edge, dist):
                assert 0.0 < b.arc_length < e.length
                for vid in b.vertices:
                    v = idx[vid]
                    via_u = dist[v, idx[e.u]] + b.arc_length
                    via_w = dist[v, idx[e.w]] + e.length - b.arc_length
                    # merged points satisfy the tie up to the merge radius
                    assert abs(via_u - via_w) < 3e-9


def test_symmetric_triangle_splits_base_in_half():
    net = parse_instance(
        {
            "alpha": 0.5,
            "vertices": [
                {"id": 0, "x": 0.0, "y": 0.0},
                {"id": 1, "x": 2.0, "y": 0.0},
                {"id": 2, "x": 1.0, "y": 0.2},
            ],
            "edges": [{"u": 0, "w": 1, "length": 2.0}, {"u": 0, "w": 2}, {"u": 1, "w": 2}],
            "facilities": [],
            "pairs": [],
        }
    ).network
    dist = all_pairs_shortest_paths(net)
    points = arc_bottleneck_points(net, 0, dist)
    assert len(points) == 1
    assert points[0].arc_length == pytest.approx(1.0, abs=1e-12)
    segs = linear_arc_segments(net, 0, points)
    assert [(s.start, s.end) for s in segs] == [(0.0, 1.0), (1.0, 2.0)]


def test_segments_trapezoid(trapezoid):
    prep = preprocess_network(trapezoid.network)
    assert [(s.start, s.end) for s in prep.segments_by_edge[1]] == [
        (0.0, 1.0),
        (1.0, 6.0),
        (6.0, 7.0),
    ]
    assert [(s.start, s.end) for s in prep.segments_by_edge[0]] == [(0.0, 5.0)]


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e8])
@pytest.mark.parametrize("seed, segments", [(104, 21), (107, 6), (111, 3)])
def test_large_scale_keeps_the_unit_scale_segments(seed, segments, scale):
    # an absolute end and merge test, below one ulp of a long edge, turned
    # rounding noise into segments: seed 111 had 5 at 1e6 and 7 at 1e8
    unit = parse_instance(random_instance_doc(seed))
    inst = parse_instance(transformed_doc(random_instance_doc(seed), scale=scale))
    assert len(preprocess_network(unit.network).segments) == segments
    assert len(preprocess_network(inst.network).segments) == segments
    objective = solve_global(unit, trace_res=64)[0].objective
    assert solve_global(inst, trace_res=64)[0].objective == objective


def test_segment_tiling(random_suite):
    for inst in random_suite[:6]:
        prep = preprocess_network(inst.network)
        for edge, per_edge in enumerate(prep.segments_by_edge):
            assert per_edge[0].start == 0.0
            assert per_edge[-1].end == pytest.approx(inst.network.edges[edge].length)
            for a, b in zip(per_edge[:-1], per_edge[1:]):
                assert a.end == b.start
                assert a.length > 0


def test_classify_antipodal_pair_forms(trapezoid):
    prep = preprocess_network(trapezoid.network)
    top = prep.segments_by_edge[0][0]
    bottom_mid = prep.segments_by_edge[1][1]
    forms = classify_segment_pair(top, bottom_mid, prep.dist, trapezoid.network)
    assert len(forms) > 1
    assert [(f.c0, f.cx, f.cy) for f in forms] == [(6.0, 1, 1), (16.0, -1, -1)]


def test_classify_same_segment_is_absolute_difference(trapezoid):
    prep = preprocess_network(trapezoid.network)
    seg = prep.segments_by_edge[1][1]
    rp = restricted_problem(trapezoid.network, prep.dist, seg, seg)
    assert len(rp.forms) < 2
    assert rp.diagonal
    assert network_distance(rp, 2.0, 3.5) == pytest.approx(1.5)


def test_classify_bottom_start_vs_top_is_affine(trapezoid):
    # bottom [0,1] just touches the antipodal span [1,6]: linear, not concave
    prep = preprocess_network(trapezoid.network)
    b0 = prep.segments_by_edge[1][0]
    top = prep.segments_by_edge[0][0]
    rp = restricted_problem(trapezoid.network, prep.dist, b0, top)
    assert len(rp.forms) < 2
    assert not rp.diagonal
    assert (rp.forms[0].c0, rp.forms[0].cx, rp.forms[0].cy) == (5.0, 1, 1)


def test_classification_tag_symmetric(trapezoid, random_suite):
    for inst in [trapezoid] + random_suite[:3]:
        prep = preprocess_network(inst.network)
        segs = prep.segments
        for a in range(len(segs)):
            for b in range(a, len(segs)):
                rp1 = restricted_problem(inst.network, prep.dist, segs[a], segs[b])
                rp2 = restricted_problem(inst.network, prep.dist, segs[b], segs[a])
                assert (len(rp1.forms) > 1) == (len(rp2.forms) > 1)
                assert rp1.diagonal == rp2.diagonal


def test_type1_forms_have_opposite_signs(random_suite, trapezoid):
    for inst in [trapezoid] + random_suite[:6]:
        prep = preprocess_network(inst.network)
        segs = prep.segments
        for a in range(len(segs)):
            for b in range(a, len(segs)):
                forms = classify_segment_pair(segs[a], segs[b], prep.dist, inst.network)
                if len(forms) > 1:
                    fa, fb = forms
                    assert fa.cx == -fb.cx
                    assert fa.cy == -fb.cy
                    assert fa.c0 >= 0 and fb.c0 >= 0


def _sample_problems(inst, limit=None):
    prep = preprocess_network(inst.network)
    segs = prep.segments
    out = []
    for a in range(len(segs)):
        for b in range(a, len(segs)):
            out.append(restricted_problem(inst.network, prep.dist, segs[a], segs[b]))
    return out[:limit] if limit else out


def test_type1_midpoint_concavity(trapezoid, random_suite):
    rng = np.random.default_rng(7)
    for inst in [trapezoid] + random_suite[:4]:
        for rp in _sample_problems(inst):
            if len(rp.forms) < 2:
                continue
            x1 = rng.uniform(0, rp.rect[0], 1000)
            y1 = rng.uniform(0, rp.rect[1], 1000)
            x2 = rng.uniform(0, rp.rect[0], 1000)
            y2 = rng.uniform(0, rp.rect[1], 1000)
            d1 = network_distance(rp, x1, y1)
            d2 = network_distance(rp, x2, y2)
            dm = network_distance(rp, 0.5 * (x1 + x2), 0.5 * (y1 + y2))
            assert np.all(dm >= 0.5 * (d1 + d2) - 1e-9)


def test_diagonal_midpoint_convexity(trapezoid, random_suite):
    rng = np.random.default_rng(8)
    for inst in [trapezoid] + random_suite[:4]:
        for rp in _sample_problems(inst):
            if not rp.diagonal:
                continue
            x1 = rng.uniform(0, rp.rect[0], 1000)
            y1 = rng.uniform(0, rp.rect[1], 1000)
            x2 = rng.uniform(0, rp.rect[0], 1000)
            y2 = rng.uniform(0, rp.rect[1], 1000)
            d1 = network_distance(rp, x1, y1)
            d2 = network_distance(rp, x2, y2)
            dm = network_distance(rp, 0.5 * (x1 + x2), 0.5 * (y1 + y2))
            assert np.all(dm <= 0.5 * (d1 + d2) + 1e-9)


def test_forms_match_insertion_distance(trapezoid, random_suite):
    """Every pair-class form agrees with an independent point-to-point
    shortest path (degree-2 vertex insertion) at the rectangle corners and at
    random interior points."""

    rng = np.random.default_rng(9)
    for inst in [trapezoid] + random_suite[:3]:
        for rp in _sample_problems(inst):
            seg_p, seg_q = rp.seg_p, rp.seg_q
            probes = [
                (0.0, 0.0),
                (rp.rect[0], 0.0),
                (0.0, rp.rect[1]),
                (rp.rect[0], rp.rect[1]),
            ]
            probes += [
                (rng.uniform(0, rp.rect[0]), rng.uniform(0, rp.rect[1])) for _ in range(3)
            ]
            for x, y in probes:
                expected = insertion_distance(
                    inst.network,
                    (seg_p.edge, seg_p.start + x),
                    (seg_q.edge, seg_q.start + y),
                )
                assert float(network_distance(rp, x, y)) == pytest.approx(
                    expected, abs=1e-9
                )


@st.composite
def pinched_networks(draw):
    """A connected network of 3 to 5 vertices with the cases the segment
    classification must get right drawn on purpose: edge lengths below the
    gap between their ends, collinear vertices with edges passing over one
    another, a segment shorter than ``DEFAULT_DEDUPE_RADIUS``, and facilities
    on the network.

    The triangle 0-1-2 comes first; with a pinch ``delta``, edge 0-2 is
    ``2*delta`` shorter than the route through 1, so vertex 2's bottleneck on
    edge 0-1 sits ``delta`` from vertex 0.  Returns the instance document and
    the facilities' (edge, arc length) network points.
    """

    n = draw(st.integers(3, 5))
    collinear = draw(st.booleans())
    xs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
    ys = [0] * n if collinear else draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    pos = [(x + 0.5 * k / n, y) for k, (x, y) in enumerate(zip(xs, ys))]
    pairs = [(0, 1), (1, 2), (0, 2)] + [(draw(st.integers(0, v - 1)), v) for v in range(3, n)]
    pinch = draw(st.none() | st.floats(2e-9, 0.9 * DEFAULT_DEDUPE_RADIUS))
    if pinch is None:
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
        pairs += [(u, w) for u, w in extra if u < w and (u, w) not in pairs]
    factor = st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.1, 3.0)
    lengths = [math.dist(pos[u], pos[w]) * draw(factor) for u, w in pairs]
    if pinch is not None:
        lengths[2] = lengths[0] + lengths[1] - 2.0 * pinch
    on_network = draw(
        st.lists(st.tuples(st.integers(0, len(pairs) - 1), st.floats(0.0, 1.0)), max_size=3)
    )
    facilities = []
    for k, (edge, frac) in enumerate(on_network):
        (ux, uy), (wx, wy) = pos[pairs[edge][0]], pos[pairs[edge][1]]
        facilities.append({"id": k, "x": ux + frac * (wx - ux), "y": uy + frac * (wy - uy)})
    doc = {
        "alpha": 0.3,
        "vertices": [{"id": v, "x": x, "y": y} for v, (x, y) in enumerate(pos)],
        "edges": [
            {"u": u, "w": w, "length": length} for (u, w), length in zip(pairs, lengths)
        ],
        "facilities": facilities,
        "pairs": [],
    }
    points = [(edge, frac * lengths[edge]) for edge, frac in on_network]
    return doc, points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pinched_networks(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_classification_matches_insertion_distance(case, fx, fy):
    # every ordered segment pair's distance form against an independent
    # point-to-point shortest path, at the corners, one drawn point and every
    # facility's network point on either segment
    doc, facility_points = case
    net = parse_instance(doc).network
    prep = preprocess_network(net)
    for seg_p, seg_q in itertools.product(prep.segments, repeat=2):
        rp = restricted_problem(net, prep.dist, seg_p, seg_q)
        xs = [0.0, fx * rp.rect[0], rp.rect[0]]
        ys = [0.0, fy * rp.rect[1], rp.rect[1]]
        xs += [t - seg_p.start for e, t in facility_points if e == seg_p.edge and seg_p.start <= t <= seg_p.end]
        ys += [t - seg_q.start for e, t in facility_points if e == seg_q.edge and seg_q.start <= t <= seg_q.end]
        for x, y in itertools.product(xs, ys):
            expected = insertion_distance(
                net, (seg_p.edge, seg_p.start + x), (seg_q.edge, seg_q.start + y)
            )
            assert float(network_distance(rp, x, y)) == pytest.approx(expected, abs=1e-9)


def test_forms_are_exact_at_every_scale(random_suite):
    # every ordered segment pair's least form against an independent
    # point-to-point shortest path on a 5x5 sample of its box, within 1e-12
    # of the largest vertex distance; at 1e-8 and 1e-10 an absolute slack in
    # the classification once dropped forms that were below the others
    unscaled = list(random_suite) + [
        parse_instance(doc)
        for doc in (fig4_doc(), trapezoid_doc(), detour_doc(), grid_instance_doc(3, 8, 30))
    ]
    scaled = [
        parse_instance(transformed_doc(random_instance_doc(104), scale=scale))
        for scale in (1e6, 1e-8, 1e-10)
    ]
    for inst, most in [(inst, 2) for inst in unscaled] + [(inst, 4) for inst in scaled]:
        net = inst.network
        prep = preprocess_network(net)
        allowance = 1e-12 * prep.dist.max()
        for seg_p, seg_q in itertools.product(prep.segments, repeat=2):
            rp = restricted_problem(net, prep.dist, seg_p, seg_q)
            # more classes survive only where bottleneck points were merged
            assert len(rp.forms) <= most
            xs = np.linspace(0.0, rp.rect[0], 5)
            ys = np.linspace(0.0, rp.rect[1], 5)
            got = network_distance(rp, xs[:, None], ys[None, :])
            for (i, x), (j, y) in itertools.product(enumerate(xs), enumerate(ys)):
                expected = insertion_distance(
                    net, (seg_p.edge, seg_p.start + x), (seg_q.edge, seg_q.start + y)
                )
                assert abs(got[i, j] - expected) <= allowance
