"""Certified floors of the trip length and bounds on the objective over boxes.

A box is the product of two intervals of the network: two whole edges or two
linear arc segments, the box rule of Big Square Small Square.  On a box the
network distance is the least of affine routes through the edges' ends (and
the direct route on one edge), so in each slope class the trip length is
separable and its floor is two closed-form axis floors (``axis_floor``) plus
the least route constant (``preprocess.route_constants``); on one interval
twice a weak-duality relaxation of the direct route ``alpha*|x - y|`` gives
the same shape.  ``_box_floors`` forms the floors of many pairs on many boxes
in one array pass, pair axis first.  ``box_bounder`` holds the axis floors of
every column and turns the floors into a bound on the objective over every
box, the weight of the pairs whose floor reaches the acceptance level, at
most ``_CHUNK`` (pair, box) entries at a time; ``field_floors`` reads two of
its columns for the floor of every branch field of one restricted problem
(``mixed_distance.RestrictedProblem``).
The floors need no classification, and one exceeds a level only beyond the
rounding allowance of ``exceeds``.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .mixed_distance import axis_argmin, project, segment_geometry
from .model import ProblemInstance
from .preprocess import _ROUTE_ROUNDING, LinearArcSegment, Preprocessed, route_constants
from .preprocess import _route_columns

#: most (pair, box) entries a ``box_bounder`` call forms at once
_CHUNK = 1 << 16


def axis_floor(f, geom, c, length):
    """Certified lower bound on ``min over t in [0, length] of |f - P(t)| + c*t``.

    ``P(t) = geom.origin + t * geom.direction`` traces a segment at speed
    ``s = |geom.direction|`` (below one when the edge is longer than its
    chord).  The function is convex and ``axis_argmin`` gives its minimiser
    in closed form.  The value returned is the tangent floor at that point,
    ``u(t) + min(u'(t) * (0 - t), u'(t) * (length - t))``, which bounds ``u``
    from below on the whole interval for any ``t``, so rounding in the
    minimiser costs tightness, never validity.  Where ``f`` lies on the
    segment's line the subgradient nearest ``-c`` stands in for ``u'``.
    When ``|c| < s`` the floor is raised to the minimum over the whole line,
    ``c*t0 + h*sqrt(s^2 - c^2)/s`` with ``t0`` the projection, which is exact
    whenever the minimiser is inside the interval and, unlike the tangent,
    stays tight when ``f`` is within rounding of the segment.

    Every argument broadcasts: ``f`` is an ``(x, y)`` pair and ``geom``
    anything with ``origin`` and ``direction`` pairs, of floats or arrays.
    """

    fx, fy = f
    ox, oy = geom.origin
    dx, dy = geom.direction
    c = np.asarray(c, dtype=float)
    length = np.asarray(length, dtype=float)
    t0, h, s = project(f, geom)
    s2 = s * s
    interior = c * c < s2
    t = axis_argmin(t0, h, s, c, length)
    # the slope comes from the projection coordinates, not from the rounded
    # vector f - P(t), which has no direction left where f is on the segment
    delta = t - t0
    rho = np.hypot(s * delta, h)
    pull = np.where(rho > 0.0, s2 * delta / np.where(rho > 0.0, rho, 1.0), np.clip(-c, -s, s))
    slope = pull + c
    r = np.hypot(ox + dx * t - fx, oy + dy * t - fy)
    tangent = r + c * t + np.minimum(slope * -t, slope * (length - t))
    # near the kink (f almost on the segment) a rounding of t swings the
    # slope; the minimum over the whole line does not depend on t at all
    line = c * t0 + h * np.sqrt(np.where(interior, s2 - c * c, 0.0)) / np.where(s2 > 0.0, s, 1.0)
    return np.where(interior, np.maximum(tangent, line), tangent)


def _diagonal_multipliers(alpha: float) -> np.ndarray:
    # lam = alpha turns the relaxation into the sum of the two separate
    # facility-to-segment minima, so the best over the set is never looser
    return np.append(np.linspace(0.0, 1.0 + alpha, 9), alpha)


def _segment_coefficients(alpha: float) -> np.ndarray:
    """Coefficients ``alpha`` and ``-alpha`` of the affine network forms, then
    ``lam - alpha`` and ``alpha - lam`` for every diagonal multiplier ``lam``."""

    shift = _diagonal_multipliers(alpha) - alpha
    return np.concatenate(([alpha, -alpha], shift, -shift))


def _floor_table(inst: ProblemInstance, segments: Sequence[LinearArcSegment]) -> np.ndarray:
    """``axis_floor`` of every facility on every segment, per coefficient.

    Axis 0 follows ``inst.facilities``, axis 1 ``segments`` and axis 2
    ``_segment_coefficients``.
    """

    facility = np.array([(f.position.x, f.position.y) for f in inst.facilities]).reshape(-1, 2)
    geoms = [segment_geometry(inst.network, seg) for seg in segments]
    segment = np.array([(*g.origin, *g.direction, g.length) for g in geoms])
    ox, oy, dx, dy, length = segment.T[:, None, :, None]
    lines = SimpleNamespace(origin=(ox, oy), direction=(dx, dy))
    coef = _segment_coefficients(inst.alpha)
    return axis_floor(facility.T[:, :, None, None], lines, coef, length)


def _box_floors(table: np.ndarray, ends: np.ndarray, p, q, const: np.ndarray, same) -> np.ndarray:
    """Floor of every pair's trip length on every box, per boarding order and
    slope class.

    ``ends`` holds each pair's origin and destination rows in ``table``,
    ``p``/``q`` the columns of each box's two intervals and ``const`` their
    ``(boxes, 2, 2)`` route constants.  Returns one ``(pairs, boxes, 2, 2,
    2)`` array, indexed by pair, box, boarding order (``"12"``, ``"21"``) and
    slope class; ``box_bounder`` passes one pair or at most ``_CHUNK`` (pair,
    box) entries at once.  Off ``same`` a class's field is ``u(x) + v(y) +
    const``, each axis term a distance plus ``±alpha`` times its coordinate,
    so its floor is two axis floors plus the constant.  On a ``same`` box
    (one interval twice), adding ``lam*(x - y) <= 0`` on the triangle ``x <=
    y`` (``lam*(y - x)`` on ``x >= y``) to the direct route ``alpha*|x - y|``
    for any ``lam >= 0`` leaves a separable lower bound; every class holds
    the lesser of its own floor and the lesser triangle's best bound over the
    multipliers.
    """

    m = (table.shape[2] - 2) // 2
    ps = p[same]
    up, down = table[:, :, 2 : 2 + m], table[:, :, 2 + m :]  # lam - alpha, alpha - lam
    out = np.empty((len(ends), len(p), 2, 2, 2))
    a, b = ends[:, :1], ends[:, 1:]
    for k, (fp, fq) in enumerate(((a, b), (b, a))):
        # columns 0 and 1 of the table hold coefficients +alpha and -alpha
        out[:, :, k] = (table[fp, p, :2][..., None] + table[fq, q, :2][..., None, :]) + const
        tri = (up[fp, ps] + down[fq, ps]).max(axis=2)
        direct = np.minimum(tri, (down[fp, ps] + up[fq, ps]).max(axis=2))
        out[:, same, k] = np.minimum(out[:, same, k], direct[..., None, None])
    return out


def _pair_rows(inst: ProblemInstance) -> np.ndarray:
    """Rows of every pair's origin and destination in ``_floor_table``."""

    row = inst.facility_index
    return np.array([(row[p.origin], row[p.dest]) for p in inst.pairs], dtype=int).reshape(-1, 2)


def field_floors(inst: ProblemInstance, rp, table: np.ndarray | None = None) -> np.ndarray:
    """Certified floor of every branch field of every pair on one restricted
    problem ``rp`` (a ``mixed_distance.RestrictedProblem``).

    A ``(pairs, 2, branches)`` array: per pair and boarding order, the floors
    of the problem's branches (``rp.branches``) over the rectangle, one per
    form.  ``table`` is the ``_floor_table`` of the two segments, columns
    ``rp.seg_p`` and ``rp.seg_q``, as ``box_bounder`` holds them; it is built
    when not given.  Each form's ``alpha*c0`` stands in its slope class of
    ``_box_floors`` (``inf`` in the others), whose floor of that class is then
    the branch field's; the diagonal floor stands in every class.
    """

    table = _floor_table(inst, [rp.seg_p, rp.seg_q]) if table is None else table
    const = np.full((1, 2, 2), np.inf)
    slots = [((1 - form.cx) // 2, (1 - form.cy) // 2) for form in rp.forms] or [(0, 0)]
    for form, (kx, ky) in zip(rp.forms, slots):
        const[0, kx, ky] = inst.alpha * form.c0
    kx, ky = np.array(slots).T
    one, same = np.array([0]), np.array([rp.diagonal])
    floors = _box_floors(table, _pair_rows(inst), one, one + 1, const, same)
    return floors[:, 0][:, :, kx, ky]


def rounding_scale(inst: ProblemInstance) -> float:
    """Magnitude that bounds every coordinate and every network distance term."""

    points = [v.position for v in inst.network.vertices]
    points += [f.position for f in inst.facilities]
    lengths = [e.length for e in inst.network.edges]
    return max(
        max(max(abs(pt.x), abs(pt.y)) for pt in points),
        sum(lengths) + 2.0 * max(lengths),
    )


def exceeds(floor, level: float, scale: float):
    """Whether a trip-length floor certifiably exceeds ``level``.

    The allowance, a fixed multiple of the machine epsilon times the largest
    of the floor, the level and the instance scale, covers the rounding of
    the trip lengths that the coverage test and the fields evaluate.
    """

    allowance = _ROUTE_ROUNDING * np.maximum(np.maximum(np.abs(floor), level), scale)
    return floor > level + allowance


def _whole_edges(inst: ProblemInstance) -> list[LinearArcSegment]:
    """Every edge as one segment: the intervals of the edge-pair boxes."""

    return [LinearArcSegment(e, 0.0, edge.length, 0) for e, edge in enumerate(inst.network.edges)]


class box_bounder:
    """``bounds(p, q)``: a certified upper bound on the objective over every
    box of the columns ``p[k] <= q[k]``.

    Column ``e`` is the whole edge ``e`` and column ``E + k`` the segment
    ``prep.segments[k]``, with ``E`` the number of edges.  The bound is the
    weight of the pairs whose least ``_box_floors`` value is within
    ``acceptance + cov_tol`` plus the rounding allowance of ``exceeds``, so
    no pair that the coverage test would count is left out.  Weights are
    summed in pair order, as ``coverage_weights`` and
    ``coverage_and_objective`` sum them, so the bound is at least every
    objective on the box in floating point too.  The ``axis_floor`` table
    (``bounds.table``), the per-column arrays of ``route_constants`` and the
    flags of the columns that are one linear arc segment are built once, for
    every box bounded later; the table also gives the ``field_floors`` of
    every problem solved.
    """

    def __init__(self, inst: ProblemInstance, prep: Preprocessed, cov_tol: float):
        segments = _whole_edges(inst) + list(prep.segments)
        self.alpha, self.dist = inst.alpha, prep.dist
        self.table = _floor_table(inst, segments)
        self.columns = _route_columns(inst.network, segments)
        self.linear = np.array([seg in prep.segments_by_edge[seg.edge] for seg in segments])
        self.rows = _pair_rows(inst)
        self.weights = [pair.weight for pair in inst.pairs]
        self.levels = np.array([pair.acceptance + cov_tol for pair in inst.pairs])
        self.scale = rounding_scale(inst)

    def floors(self, p: np.ndarray, q: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """``_box_floors`` of the boxes ``p[k] <= q[k]``, with the slice of the
        pairs, at most ``_CHUNK`` (pair, box) entries or one pair at a time.
        On one interval twice the route classes hold the routes through the
        ends of a whole edge of several segments (one longer than the distance
        between its ends), and ``inf`` on one linear arc segment."""

        const = route_constants(self.dist, self.columns, p, q)
        const[(p == q) & self.linear[p]] = np.inf
        const *= self.alpha
        step = max(1, _CHUNK // max(len(p), 1))
        for start in range(0, len(self.rows), step):
            pairs = slice(start, start + step)
            yield pairs, _box_floors(self.table, self.rows[pairs], p, q, const, p == q)

    def __call__(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        out = np.zeros(len(p))
        for pairs, floors in self.floors(p, q):
            keep = ~exceeds(floors.min(axis=(2, 3, 4)), self.levels[pairs, None], self.scale)
            for weight, kept in zip(self.weights[pairs], keep):
                out += weight * kept
        return out
