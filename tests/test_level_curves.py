import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcover import parse_instance
from tripcover.fds_solver import restricted_problems
from tripcover.level_curves import (
    Arc,
    _arc_rows,
    _bisect,
    _stacked,
    curves_to_csv,
    intersect_curves,
    minimize,
    trace_level_curve,
)
from tripcover.mixed_distance import Axis, branch_field, coverage_weights
from tripcover.preprocess import preprocess_network
from conftest import antipodal_problem, fig4_doc, random_instance_doc, transformed_doc

CSV_HEADER = "pair_i,pair_j,orientation,branch,polyline_id,vertex_index,x,y\n"


def fields_of(inst, rp):
    """Every branch field of every pair on one problem, with its pair."""

    return [
        (pair, branch_field(inst, rp, pair, orientation, branch))
        for pair in inst.pairs
        for orientation in ("12", "21")
        for branch in rp.branches
    ]


def suite_curves(docs, res=128):
    """(problem, curve) for every nonempty curve of every problem of the documents."""

    out = []
    for doc in docs:
        inst = parse_instance(doc)
        for rp in restricted_problems(inst, preprocess_network(inst.network)):
            for pair, field in fields_of(inst, rp):
                curve = trace_level_curve(field, pair.acceptance, res)
                if not curve.empty:
                    out.append((rp, curve))
    return out


PROBE_DOCS = [fig4_doc()] + [random_instance_doc(s) for s in range(101, 109)]


@pytest.fixture(scope="module")
def probe_curves():
    return suite_curves(PROBE_DOCS)


@pytest.fixture(scope="module")
def fig4_curves(two_pair_a04):
    rp = antipodal_problem(two_pair_a04)
    curves = {}
    for pair, field in fields_of(two_pair_a04, rp):
        curve = trace_level_curve(field, pair.acceptance, 256)
        curves[(pair.origin, pair.dest, field.orientation, field.branch)] = curve
    return rp, curves


def fig4_field(inst, orientation="12", branch="b"):
    return branch_field(inst, antipodal_problem(inst), inst.pairs[0], orientation, branch)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def axes(draw):
    """An axis term with the cases the closed forms must get right drawn on
    purpose: the facility on the line, ``c = 0``, ``|c| = s`` and ``|c| > s``."""

    s = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.2, 1.0, **finite))
    c = draw(st.sampled_from([0.0, s, -s]) | st.floats(-3.0, 3.0, **finite))
    h = draw(st.sampled_from([0.0]) | st.floats(0.0, 15.0, **finite))
    length = draw(st.floats(0.1, 10.0, **finite))
    return Axis(draw(st.floats(-15.0, 25.0, **finite)), h, s, c, length)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(axes(), st.floats(0.0, 1.0, **finite))
def test_axis_inverse_and_minimum_are_exact(axis, frac):
    ts = np.linspace(0.0, axis.length, 2001)
    values = axis(ts)
    scale = 1.0 + float(np.abs(values).max())
    # the closed-form minimum is the sampled one, up to half a sample spacing
    assert axis.minimum <= values.min() + 1e-12 * scale
    assert axis.minimum >= values.min() - (ts[1] - ts[0]) * (axis.s + abs(axis.c)) - 1e-12
    t = frac * axis.length
    side = 0 if t <= axis.argmin else 1
    back = float(axis.inverse(axis(t), side))
    lo, hi = (0.0, axis.argmin) if side == 0 else (axis.argmin, axis.length)
    assert lo <= back <= hi
    assert abs(axis(back) - axis(t)) <= 1e-12 * scale
    # a value beyond the side's range maps to the side's far end
    end = 0.0 if side == 0 else axis.length
    assert float(axis.inverse(axis(end) + 1.0, side)) == pytest.approx(end, abs=1e-12 * scale)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@st.composite
def arcs(draw):
    """An arc over two drawn axis terms, its target and side, and an x-range
    inside ``u``'s domain."""

    u, v = draw(axes()), draw(axes())
    x0, x1 = sorted(draw(st.floats(0.0, 1.0, **finite)) * u.length for _ in range(2))
    target = draw(st.floats(-20.0, 60.0, **finite))
    return Arc(u, v, target, draw(st.sampled_from([0, 1])), x0, x1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(arcs(), min_size=1, max_size=6))
def test_stacked_arcs_evaluate_like_each_arc(arc_list):
    # the batched crossing search evaluates many arcs as one stacked Arc; it
    # must give the numbers each arc gives alone
    stacked = _stacked(_arc_rows(arc_list))
    xs = np.linspace([a.x0 for a in arc_list], [a.x1 for a in arc_list], 33)
    together = stacked(xs)
    assert together.shape == xs.shape
    assert np.array_equal(bits(stacked.v.argmin), bits([a.v.argmin for a in arc_list]))
    for k, arc in enumerate(arc_list):
        assert np.array_equal(bits(together[:, k]), bits(arc(xs[:, k])))
        assert np.array_equal(bits(stacked(xs[7])[k]), bits(arc(xs[7, k])))


def test_bisection_of_a_bracket_ignores_its_batch():
    # brackets of different widths converge after different numbers of
    # halvings; each must end where it ends when bisected alone
    roots = np.array([0.3, 1.7, 2.0, 5.1])
    lo = np.array([0.0, 1.7 - 1e-6, 1.0, -40.0])
    hi = np.array([1.0, 1.7 + 3e-6, 2.5, 7.0])

    def cubic(which):
        return lambda x: x**3 - roots[which] ** 3

    for tol in (1e-9, 0.0):
        a, b = _bisect(cubic(slice(None)), lo, hi, tol)
        for k in range(len(roots)):
            a1, b1 = _bisect(cubic(slice(k, k + 1)), lo[k : k + 1], hi[k : k + 1], tol)
            assert bits(a1) == bits(a[k]) and bits(b1) == bits(b[k])
            assert a[k] <= roots[k] <= b[k] or abs(0.5 * (a[k] + b[k]) - roots[k]) <= 1e-9


@pytest.mark.parametrize("transform", [{}, {"scale": 1e-3}, {"scale": 1e6}, {"shift": 1e6}])
def test_arc_samples_meet_the_level(transform):
    # every sampled point of every curve is on its level up to rounding, also
    # on the scaled and shifted probes
    docs = [transformed_doc(doc, **transform) for doc in PROBE_DOCS[:4]]
    worst = 0.0
    for rp, curve in suite_curves(docs, 64):
        f = curve.field
        w, h = rp.rect
        ceiling = 64 * np.finfo(float).eps * max(curve.level, w, h, 1.0)
        for poly in curve.polylines:
            values = f(poly[:, 0], poly[:, 1])
            worst = max(worst, float(np.abs(values - curve.level).max()) / ceiling)
            assert np.all(np.abs(values - curve.level) <= ceiling)
    assert worst > 0.0


def test_traced_vertices_meet_residual_bound(fig4_curves):
    # the arcs are exact: every sample is on its level up to rounding
    for curve in fig4_curves[1].values():
        for poly in curve.polylines:
            values = curve.field(poly[:, 0], poly[:, 1])
            assert np.abs(values - curve.level).max() <= 8 * np.finfo(float).eps * curve.level


def test_branch_field_is_the_planar_trip_length(two_pair_a04):
    rp = antipodal_problem(two_pair_a04)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.0, 5.0, 200), rng.uniform(0.0, 5.0, 200)
    for pair, field in fields_of(two_pair_a04, rp):
        a = two_pair_a04.facility_position(pair.origin)
        b = two_pair_a04.facility_position(pair.dest)
        first, second = (a, b) if field.orientation == "12" else (b, a)
        px, py = rp.geom_p.position(x)
        qx, qy = rp.geom_q.position(y)
        form = rp.forms[0 if field.branch == "a" else 1]
        planar = (
            np.hypot(first.x - px, first.y - py)
            + two_pair_a04.alpha * form(x, y)
            + np.hypot(second.x - qx, second.y - qy)
        )
        assert np.abs(field(x, y) - planar).max() < 1e-12


def test_level_below_field_range_empty(two_pair_a04):
    field = fig4_field(two_pair_a04)
    curve = trace_level_curve(field, float(field(*minimize(field))) - 1e-9, 64)
    assert curve.empty and curve.boundary == [] and curve.polylines == []


def test_level_above_field_range_empty(two_pair_a04):
    field = fig4_field(two_pair_a04)
    top = max(float(field(x, y)) for x, y in field.corners)
    curve = trace_level_curve(field, top + 1e-9, 64)
    assert curve.empty and curve.boundary == []


def test_low_resolution_rejected(two_pair_a04):
    with pytest.raises(ValueError, match=">= 16"):
        trace_level_curve(fig4_field(two_pair_a04), 10.0, 8)


def test_negative_level_rejected(two_pair_a04):
    with pytest.raises(ValueError, match="nonnegative"):
        trace_level_curve(fig4_field(two_pair_a04), -1.0, 64)


@pytest.mark.parametrize("level", [math.nan, math.inf])
def test_non_finite_level_rejected(two_pair_a04, level):
    with pytest.raises(ValueError, match="finite"):
        trace_level_curve(fig4_field(two_pair_a04), level, 64)


def test_closed_interior_curve_has_no_boundary_points(fig4_curves):
    _, curves = fig4_curves
    curve = curves[(0, 1, "12", "b")]
    lower, upper = curve.arcs
    assert curve.boundary == []
    # the two arcs span the same x-interval and meet at its ends
    assert (lower.side, upper.side) == (0, 1)
    assert (lower.x0, lower.x1) == (upper.x0, upper.x1)
    for x in (lower.x0, lower.x1):
        assert abs(float(lower(x)) - float(upper(x))) < 1e-6
    inside = np.linspace(lower.x0, lower.x1, 9)[1:-1]
    assert np.all(upper(inside) > lower(inside))


def test_fig4a_branch_curves_exist_and_cross(fig4_curves):
    rp, curves = fig4_curves
    ca = curves[(0, 1, "12", "a")]
    cb = curves[(0, 1, "12", "b")]
    assert not ca.empty and not cb.empty
    # the two branch sublevel sets overlap: their boundaries cross
    hits = intersect_curves(ca, cb)
    assert len(hits) >= 1
    for p in hits.points:
        assert p.refined and p.residual < 1e-9
    # boarding at the bottom segment first never meets the level
    assert curves[(0, 1, "21", "a")].empty
    assert curves[(0, 1, "21", "b")].empty


def test_fig4_second_pair_only_reverse_branch(fig4_curves):
    rp, curves = fig4_curves
    assert curves[(2, 3, "12", "a")].empty
    assert curves[(2, 3, "12", "b")].empty
    assert not curves[(2, 3, "21", "a")].empty
    # the surviving branch is clipped by the rectangle
    assert curves[(2, 3, "21", "a")].boundary


def test_traced_vertices_inside_rectangle(probe_curves):
    for rp, curve in probe_curves:
        w, h = rp.rect
        for poly in curve.polylines:
            assert np.all((poly[:, 0] >= 0.0) & (poly[:, 0] <= w))
            assert np.all((poly[:, 1] >= 0.0) & (poly[:, 1] <= h))
            if curve.field.triangle:
                assert np.all(poly[:, 0] <= poly[:, 1] + 1e-9)


def test_boundary_points_are_on_the_boundary_and_the_level(probe_curves):
    count = 0
    for rp, curve in probe_curves:
        w, h = rp.rect
        for x, y in curve.boundary:
            on_edge = x in (0.0, w) or y in (0.0, h) or (curve.field.triangle and x == y)
            assert on_edge
            assert abs(float(curve.field(x, y)) - curve.level) < 1e-9
            count += 1
    assert count > 100


def test_sublevel_chords_stay_inside(probe_curves):
    # convex field: midpoints of chords between curve points stay at or
    # below the level
    rng = np.random.default_rng(21)
    for _, curve in probe_curves[::7]:
        vertices = np.vstack(curve.polylines)
        n = len(vertices)
        a = vertices[rng.integers(0, n, 100)]
        b = vertices[rng.integers(0, n, 100)]
        mid = 0.5 * (a + b)
        values = np.asarray(curve.field(mid[:, 0], mid[:, 1]), dtype=float)
        assert np.all(values <= curve.level + 1e-9)


def test_minimize_reaches_the_sampled_minimum():
    for doc in PROBE_DOCS[:5]:
        inst = parse_instance(doc)
        for rp in restricted_problems(inst, preprocess_network(inst.network)):
            w, h = rp.rect
            xs, ys = np.meshgrid(np.linspace(0.0, w, 41), np.linspace(0.0, h, 41), indexing="ij")
            for _, field in fields_of(inst, rp):
                mx, my = minimize(field)
                assert 0.0 <= mx <= w and 0.0 <= my <= h
                values = field(xs, ys)
                if field.triangle:
                    assert mx <= my
                    values = values[xs <= ys]
                assert field(mx, my) <= values.min() + 1e-12


def test_diagonal_coverage_is_symmetric():
    # the premise of solving a diagonal problem on its triangle x <= y only
    diagonal = 0
    for doc in PROBE_DOCS:
        inst = parse_instance(doc)
        for rp in restricted_problems(inst, preprocess_network(inst.network)):
            if not rp.diagonal:
                continue
            ts = np.linspace(0.0, rp.rect[0], 37)
            grid = coverage_weights(inst, rp, ts[:, None], ts[None, :])
            assert np.array_equal(grid, grid.T)
            diagonal += 1
    assert diagonal >= 50


def test_branch_crossings_lie_on_the_tie_line(probe_curves):
    # the two branch fields of one pair differ by alpha*(form_a - form_b), so
    # their curves cross where that affine term vanishes, at most twice
    by_problem = {}
    for rp, curve in probe_curves:
        if len(rp.forms) > 1:
            f = curve.field
            by_problem.setdefault((id(rp), f.pair, f.orientation), (rp, {}))[1][f.branch] = curve
    checked = 0
    for rp, pair_curves in by_problem.values():
        if len(pair_curves) < 2:
            continue
        form_a, form_b = rp.forms
        hits = intersect_curves(pair_curves["a"], pair_curves["b"])
        assert len(hits) <= 2
        for p in hits.points:
            assert p.refined and p.residual < 1e-9
            assert abs(form_a(p.x, p.y) - form_b(p.x, p.y)) < 1e-8
            checked += 1
    assert checked >= 20


def test_intersection_symmetric(fig4_curves):
    rp, curves = fig4_curves
    c1 = curves[(0, 1, "12", "a")]
    c2 = curves[(2, 3, "21", "a")]
    forward = intersect_curves(c1, c2)
    backward = intersect_curves(c2, c1)
    assert len(forward) == len(backward)
    for p, q in zip(forward.points, backward.points):
        assert math.hypot(p.x - q.x, p.y - q.y) <= 1e-7


def test_intersections_stable_under_refinement(two_pair_a04, fig4_curves):
    rp, curves = fig4_curves
    pairs_to_check = [
        ((0, 1, "12", "a"), (2, 3, "21", "a")),
        ((0, 1, "12", "b"), (2, 3, "21", "a")),
    ]
    for key1, key2 in pairs_to_check:
        coarse = intersect_curves(curves[key1], curves[key2])
        assert len(coarse) >= 1
        for res in (16, 512):
            fine1 = trace_level_curve(curves[key1].field, curves[key1].level, res)
            fine2 = trace_level_curve(curves[key2].field, curves[key2].level, res)
            fine = intersect_curves(fine1, fine2)
            assert len(coarse) == len(fine)
            for p in coarse.points:
                nearest = min(math.hypot(p.x - q.x, p.y - q.y) for q in fine.points)
                assert nearest < 10 * 1e-9


def test_intersect_requires_same_rectangle(two_pair_a04):
    prep = preprocess_network(two_pair_a04.network)
    problems = restricted_problems(two_pair_a04, prep)
    rp = antipodal_problem(two_pair_a04)
    other = next(p for p in problems if p.rect != rp.rect)
    pair = two_pair_a04.pairs[0]
    c1 = trace_level_curve(branch_field(two_pair_a04, rp, pair, "12", "a"), 10.0, 64)
    c2 = trace_level_curve(branch_field(two_pair_a04, other, pair, "12", "a"), 10.0, 64)
    with pytest.raises(ValueError, match="rectangle"):
        intersect_curves(c1, c2)


def test_csv_export_schema(fig4_curves):
    rp, curves = fig4_curves
    text = curves_to_csv(curves.values())
    lines = text.strip().split("\n")
    assert lines[0] + "\n" == CSV_HEADER
    # one row per sample: 257 per arc
    assert len(lines) - 1 == 257 * sum(len(c.arcs) for c in curves.values())
    row = lines[1].split(",")
    assert len(row) == 8
    int(row[0]), int(row[1]), int(row[4]), int(row[5])
    float(row[6]), float(row[7])


def test_csv_export_empty_curve_header_only(two_pair_a04):
    curve = trace_level_curve(fig4_field(two_pair_a04), 0.0, 64)
    assert curves_to_csv([curve]) == CSV_HEADER
