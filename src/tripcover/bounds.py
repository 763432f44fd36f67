"""Certified floors of the trip length and bounds on the objective over boxes.

A box is the product of two intervals of the network: two whole edges or two
linear arc segments, the box rule of Big Square Small Square.  On a box the
network distance is the least of affine routes through the edges' ends (and
the direct route on one edge), so in each slope class the trip length is
separable and its floor is two closed-form axis floors (``axis_floor``) plus
the least route constant, read from the table that also classifies a problem
(``preprocess.route_constants``); on one interval twice a weak-duality
relaxation of the direct route ``alpha*|x - y|`` gives the same shape, beside
the routes through the ends of a whole edge (``_box_floors``).  The floors
need no classification.  ``box_bounder`` turns them into a bound on the
objective over every box, the weight of the pairs whose floor reaches the
acceptance level, and ``field_floors`` gives the floor of every branch field
of one classified problem.  A floor exceeds a level only beyond the rounding
allowance of ``exceeds``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .mixed_distance import ORIENTATIONS, axis_argmin, project, segment_geometry
from .model import ProblemInstance
from .preprocess import _ROUTE_ROUNDING, LinearArcSegment, Preprocessed, route_constants


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


def _route_constants(
    inst: ProblemInstance, prep: Preprocessed, segments: Sequence[LinearArcSegment], p, q
) -> np.ndarray:
    """``alpha`` times ``route_constants`` of every box ``segments[p[k]]`` ×
    ``segments[q[k]]``, ``p <= q``.

    On one interval twice ``_box_floors`` bounds the direct route ``|x - y|``
    apart; the classes hold the routes through the ends on a whole edge of
    several segments (one longer than the distance between its ends), and
    ``inf`` on one linear arc segment, where none is shorter.
    """

    const = route_constants(inst.network, prep.dist, segments, p, q)
    linear = p == q
    linear[linear] = [segments[k] in prep.segments_by_edge[segments[k].edge] for k in p[linear]]
    const[linear] = np.inf
    return inst.alpha * const


def _box_floors(
    inst: ProblemInstance, table: np.ndarray, p, q, const: np.ndarray, same
) -> Iterator[np.ndarray]:
    """Floor of every pair's trip length on every box, per boarding order and
    slope class.

    ``p``/``q`` are the columns of each box's two intervals in ``table`` and
    ``const`` their ``(boxes, 2, 2)`` constants (``_route_constants``).
    Yields one ``(boxes, 2, 2, 2)`` array per pair, in pair order, indexed by
    box, boarding order (``"12"``, ``"21"``) and slope class.  Off ``same`` a
    class's field is ``u(x) + v(y) + const``, each axis term a distance plus
    ``±alpha`` times its coordinate, so its floor is two axis floors plus the
    constant.  On a ``same`` box (one interval twice), adding ``lam*(x - y)
    <= 0`` on the triangle ``x <= y`` (``lam*(y - x)`` on ``x >= y``) to the
    direct route ``alpha*|x - y|`` for any ``lam >= 0`` leaves a separable
    lower bound; every class holds the lesser of its own floor and the lesser
    triangle's best bound over the multipliers.
    """

    m = (table.shape[2] - 2) // 2
    up = table[:, p[same], 2 : 2 + m]  # coefficient lam - alpha
    down = table[:, p[same], 2 + m :]  # coefficient alpha - lam
    row = inst.facility_index
    for pair in inst.pairs:
        a, b = row[pair.origin], row[pair.dest]
        out = np.empty((len(p), 2, 2, 2))
        for k, (fp, fq) in enumerate(((a, b), (b, a))):
            # columns 0 and 1 of the table hold coefficients +alpha and -alpha
            out[:, k] = (table[fp, p, :2][:, :, None] + table[fq, q, :2][:, None, :]) + const
            direct = np.minimum((up[fp] + down[fq]).max(axis=1), (down[fp] + up[fq]).max(axis=1))
            out[same, k] = np.minimum(out[same, k], direct[:, None, None])
        yield out


def field_floors(inst: ProblemInstance, rp) -> list[dict[str, np.ndarray]]:
    """Certified floor of every branch field of every pair on one restricted
    problem ``rp`` (a ``fds_solver.RestrictedProblem``).

    One dict per pair, mapping each boarding order to the floors of the
    problem's branches (``pc.branches``) over the rectangle, one per form.
    Each form's ``alpha*c0`` stands in its slope class of ``_box_floors``
    (``inf`` in the others), whose floor of that class is then the branch
    field's; the diagonal floor stands in every class.
    """

    table = _floor_table(inst, [rp.seg_p, rp.seg_q])
    pc = rp.domain.pair_class
    const = np.full((1, 2, 2), np.inf)
    slots = [((1 - form.cx) // 2, (1 - form.cy) // 2) for form in pc.forms] or [(0, 0)]
    for form, (kx, ky) in zip(pc.forms, slots):
        const[0, kx, ky] = inst.alpha * form.c0
    kx, ky = np.array(slots).T
    floors = _box_floors(inst, table, np.array([0]), np.array([1]), const, np.array([pc.diagonal]))
    return [{o: f[0, k, kx, ky] for k, o in enumerate(ORIENTATIONS)} for f in floors]


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


def box_bounder(inst: ProblemInstance, prep: Preprocessed, cov_tol: float):
    """``bounds(p, q)``: a certified upper bound on the objective over every
    box of the columns ``p[k] <= q[k]``.

    Column ``e`` is the whole edge ``e`` and column ``E + k`` the segment
    ``prep.segments[k]``, with ``E`` the number of edges.  The bound is the
    weight of the pairs whose least ``_box_floors`` value is within
    ``acceptance + cov_tol`` plus the rounding allowance of ``exceeds``, so
    no pair that the coverage test would count is left out.  Weights are
    summed in pair order, as ``coverage_weights`` and
    ``coverage_and_objective`` sum them, so the bound is at least every
    objective on the box in floating point too.  The ``axis_floor`` table is
    built once, for all the boxes bounded later.
    """

    segments = _whole_edges(inst) + list(prep.segments)
    table = _floor_table(inst, segments)
    scale = rounding_scale(inst)

    def bounds(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        const = _route_constants(inst, prep, segments, p, q)
        out = np.zeros(len(p))
        for pair, floors in zip(inst.pairs, _box_floors(inst, table, p, q, const, p == q)):
            lb = floors.min(axis=(1, 2, 3))
            out += pair.weight * ~exceeds(lb, pair.acceptance + cov_tol, scale)
        return out

    return bounds
