"""Finite-dominating-set construction and the two-transfer-point solver.

Every pair of linear arc segments induces a restricted problem over its
parameter rectangle.  A finite candidate set that is guaranteed to contain an
optimal point of the restricted problem is assembled from

* crossings of the two branch boundary curves of each O/D pair (or a
  representative point per nonempty curve when the branches do not cross),
* crossings between the boundary curves of every two distinct O/D pairs,
* rectangle-boundary endpoints of every traced curve, the four rectangle
  corners and the refined minimizer of every traced branch field (these guard
  against sublevel regions clipped by the rectangle or thinner than the trace
  grid), and
* one fallback point distinct from everything else, which is optimal whenever
  nothing is coverable.

The best candidate over all restricted problems solves the full problem.  The
global solver finds it by branch-and-bound.  Off the diagonal every branch
field is separable, ``g(x, y) = u(x) + v(y) + alpha*c0``, where ``u`` and
``v`` are a facility-to-segment distance plus a linear term, each minimised in
closed form (``axis_floor``); on the diagonal a weak-duality relaxation of
``alpha*|x - y|`` reduces the field to the same shape.  The resulting certified
floor of every field gives an upper bound on every restricted problem's
objective (the weight of the pairs with a field whose floor reaches the
acceptance level).  That bound orders the problems, and a problem is solved
only while its bound can still beat or tie the incumbent; inside a problem the
same floors skip every field that cannot reach the level.  The answer is the
one a full sweep returns.

A brute-force grid oracle over edge-pair rectangles provides an independent
lower bound used for verification; it evaluates network distances directly
from the vertex distance matrix and never touches the segment classification
machinery.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .level_curves import (
    DEFAULT_DEDUPE_RADIUS,
    DEFAULT_REFINE_TOL,
    DEFAULT_TRACE_RES,
    DEFAULT_TRACE_TOL,
    IntersectionPoint,
    LevelCurve,
    _dedupe_points,
    branch_field,
    intersect_curves,
    rectangle_boundary_points,
    sample_grid,
    trace_level_curve,
)
from .mixed_distance import (
    BRANCH_A,
    BRANCH_B,
    DEFAULT_COVERAGE_TOL,
    ORIENT_12,
    ORIENT_21,
    ORIENTATIONS,
    PairDomain,
    coverage_and_objective,
    coverage_weights,
    pair_domain,
    segment_geometry,
)
from .model import (
    NetworkPoint,
    ODPair,
    ProblemInstance,
    Solution,
    network_point,
    validate_instance,
)
from .preprocess import (
    TYPE1,
    LinearArcSegment,
    Preprocessed,
    classify_segment_pair,
    preprocess_network,
)

logger = logging.getLogger(__name__)

PROV_PAIR_CURVES = "pair-curves"
PROV_CROSS_CURVES = "cross-curves"
PROV_AUGMENT = "augment"
PROV_FALLBACK = "fallback"

#: relative rounding allowance of the floor tests in ``problem_bounds`` and
#: ``_trace_pair``
_BOUND_ROUNDING = 64.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class RestrictedProblem:
    """One segment pair with its classified distance structure."""

    index: int
    seg_p: LinearArcSegment
    seg_q: LinearArcSegment
    domain: PairDomain

    @property
    def rect(self) -> tuple[float, float]:
        return self.domain.rect


@dataclass(frozen=True)
class Candidate:
    x: float
    y: float
    provenance: str


@dataclass
class FdsSolution:
    """Outcome of one restricted problem: candidate set and its best point."""

    rp_index: int
    candidates: list[Candidate]
    best: tuple[float, float]
    objective: float
    covered: tuple[tuple[int, int], ...]
    counters: dict[str, int]


def restricted_problems(
    inst: ProblemInstance, prep: Preprocessed
) -> list[RestrictedProblem]:
    """All unordered segment pairs, diagonal included.

    The objective is symmetric in the roles of the two transfer points, so
    unordered pairs cover the same optima as the full ordered enumeration at
    half the work.
    """

    segs = prep.segments
    problems = []
    index = 0
    for a in range(len(segs)):
        for b in range(a, len(segs)):
            pc = classify_segment_pair(segs[a], segs[b], prep.dist, inst.network)
            problems.append(
                RestrictedProblem(
                    index,
                    segs[a],
                    segs[b],
                    pair_domain(inst.network, segs[a], segs[b], pc),
                )
            )
            index += 1
    return problems


def axis_floor(f, geom, c, length):
    """Certified lower bound on ``min over t in [0, length] of |f - P(t)| + c*t``.

    ``P(t) = geom.origin + t * geom.direction`` traces a segment at speed
    ``s = |geom.direction|`` (below one when the edge is longer than its
    chord).  The function is convex and its minimiser has a closed form: the
    projection of ``f`` onto the line, shifted by ``-c*h / (s*sqrt(s^2 -
    c^2))`` where ``h`` is the distance of ``f`` from the line, or the
    endpoint the linear term favours when ``|c| >= s``; clamped to the
    interval.  The value returned is the tangent floor at that point,
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
    ex, ey = fx - ox, fy - oy
    s2 = dx * dx + dy * dy
    s = np.sqrt(s2)
    safe_s = np.where(s2 > 0.0, s, 1.0)
    t0 = (ex * dx + ey * dy) / np.where(s2 > 0.0, s2, 1.0)
    h = np.abs(ex * dy - ey * dx) / safe_s
    interior = c * c < s2
    lean = c * h / (safe_s * np.sqrt(np.where(interior, s2 - c * c, 1.0)))
    t = np.clip(np.where(interior, t0 - lean, np.where(c > 0.0, 0.0, length)), 0.0, length)
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
    line = c * t0 + h * np.sqrt(np.where(interior, s2 - c * c, 0.0)) / safe_s
    return np.where(interior, np.maximum(tangent, line), tangent)


def _diagonal_multipliers(alpha: float) -> np.ndarray:
    # lam = alpha turns the relaxation into the sum of the two separate
    # facility-to-segment minima, so the best over the set is never looser
    return np.union1d(np.linspace(0.0, 1.0 + alpha, 9), [alpha])


def _floor_table(inst: ProblemInstance, geoms: Sequence) -> np.ndarray:
    """``axis_floor`` of every facility on every segment, per coefficient.

    Axis 0 follows ``inst.facilities`` and axis 1 ``geoms``.  Axis 2 holds
    the coefficients ``alpha`` and ``-alpha`` of the affine network forms,
    then ``lam - alpha`` and ``alpha - lam`` for every diagonal multiplier
    ``lam``.
    """

    shift = _diagonal_multipliers(inst.alpha) - inst.alpha
    coef = np.concatenate(([inst.alpha, -inst.alpha], shift, -shift))
    facility = np.array([(f.position.x, f.position.y) for f in inst.facilities]).reshape(-1, 2)
    segment = np.array([(*g.origin, *g.direction, g.length) for g in geoms])
    ox, oy, dx, dy, length = segment.T[:, None, :, None]
    lines = SimpleNamespace(origin=(ox, oy), direction=(dx, dy))
    return axis_floor(facility.T[:, :, None, None], lines, coef, length)


def _pair_floors(
    inst: ProblemInstance, table: np.ndarray, classes: Sequence, p: np.ndarray, q: np.ndarray
) -> Iterator[dict[str, np.ndarray]]:
    """Floor of every branch field over its rectangle, pair by pair.

    ``classes`` are the problems' pair classes and ``p``/``q`` the columns of
    their two segments in ``table``.  Yields one dict per pair, in pair
    order, mapping each boarding order to a ``(problems, 2)`` array: branches
    ``a`` and ``b``, the single field of a type 2 or diagonal problem filling
    both.  Off the diagonal a field is ``u(x) + v(y) + alpha*c0``, each axis
    term a distance plus ``alpha*cx*x`` or ``alpha*cy*y``, so its floor is
    the sum of two axis floors.  On the diagonal, adding ``lam*(x - y) <= 0``
    on the triangle ``x <= y`` (``lam*(y - x)`` on ``x >= y``) for any
    ``lam >= 0`` leaves a separable lower bound; the floor is the lesser
    triangle's best bound over the multipliers.
    """

    diagonal = np.array([pc.diagonal for pc in classes], dtype=bool)
    affine = np.flatnonzero(~diagonal)
    coeffs = np.fromiter(
        (v for k in affine for f in (classes[k].forms * 2)[:2] for v in (f.c0, f.cx, f.cy)),
        dtype=float,
        count=6 * len(affine),
    ).reshape(-1, 2, 3)
    c0 = inst.alpha * coeffs[..., 0]
    # column 0 of the table holds coefficient +alpha, column 1 -alpha
    kx, ky = ((1 - coeffs[..., 1:]) // 2).astype(int).transpose(2, 0, 1)
    p_affine = p[affine, None]
    q_affine = q[affine, None]
    m = (table.shape[2] - 2) // 2
    up = table[:, p[diagonal], 2 : 2 + m]  # coefficient lam - alpha
    down = table[:, p[diagonal], 2 + m :]  # coefficient alpha - lam
    row = inst.facility_index
    for pair in inst.pairs:
        a, b = row[pair.origin], row[pair.dest]
        floors = {}
        for orientation, fp, fq in ((ORIENT_12, a, b), (ORIENT_21, b, a)):
            out = np.empty((len(classes), 2))
            out[affine] = table[fp, p_affine, kx] + table[fq, q_affine, ky] + c0
            out[diagonal] = np.minimum(
                (up[fp] + down[fq]).max(axis=1), (down[fp] + up[fq]).max(axis=1)
            )[:, None]
            floors[orientation] = out
        yield floors


def field_floors(inst: ProblemInstance, rp: RestrictedProblem) -> list[dict[str, np.ndarray]]:
    """Certified floor of every branch field of every pair on one problem.

    One dict per pair, mapping each boarding order to the floors of branches
    ``a`` and ``b`` over the rectangle; the single field of a type 2 or
    diagonal problem fills both.
    """

    table = _floor_table(inst, [rp.domain.geom_p, rp.domain.geom_q])
    pc = rp.domain.pair_class
    return [
        {orientation: f[0] for orientation, f in floors.items()}
        for floors in _pair_floors(inst, table, [pc], np.array([0]), np.array([1]))
    ]


def _rounding_scale(inst: ProblemInstance) -> float:
    """Magnitude that bounds every coordinate and every network distance term."""

    points = [v.position for v in inst.network.vertices]
    points += [f.position for f in inst.facilities]
    lengths = [e.length for e in inst.network.edges]
    return max(
        max(max(abs(pt.x), abs(pt.y)) for pt in points),
        sum(lengths) + 2.0 * max(lengths),
    )


def _exceeds(floor, level: float, scale: float):
    """Whether a trip-length floor certifiably exceeds ``level``.

    The allowance, a fixed multiple of the machine epsilon times the largest
    of the floor, the level and the instance scale, covers the rounding of
    the trip lengths that the coverage test and the fields evaluate.
    """

    allowance = _BOUND_ROUNDING * np.maximum(np.maximum(np.abs(floor), level), scale)
    return floor > level + allowance


def _refine_minimum(field, rect, x0: float, y0: float) -> tuple[float, float]:
    res = minimize(
        lambda p: float(field(p[0], p[1])),
        np.array([x0, y0]),
        method="Nelder-Mead",
        bounds=[(0.0, rect[0]), (0.0, rect[1])],
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400},
    )
    return float(res.x[0]), float(res.x[1])


@dataclass
class _PairCurves:
    curves: dict[tuple[str, str], LevelCurve]
    boundary: list[tuple[float, float]]
    minimizers: list[tuple[float, float]]


def _trace_pair(
    inst: ProblemInstance,
    rp: RestrictedProblem,
    pair: ODPair,
    floors: Mapping[str, np.ndarray],
    scale: float,
    trace_res: int,
    trace_tol: float,
) -> _PairCurves:
    """Trace the nonempty boundary curves of one pair on one rectangle.

    Cheap certified bounds prune most fields before any grid is sampled.  A
    field whose floor (``floors[orientation][k]`` for its ``k``-th branch,
    from ``field_floors``) exceeds the level plus the minimiser test's
    ``1e-12`` and the rounding allowance can yield neither a minimiser
    candidate nor a curve.  A convex field attains its maximum over the
    rectangle at a corner, so a corner maximum below the level certifies an
    empty boundary.
    """

    pc = rp.domain.pair_class
    level = pair.acceptance
    w, h = rp.rect
    branches = (BRANCH_A, BRANCH_B) if (pc.kind == TYPE1 and not pc.diagonal) else (BRANCH_A,)
    corners_x = np.array([0.0, w, 0.0, w])
    corners_y = np.array([0.0, 0.0, h, h])
    # margin below which a grid minimum may hide a sublevel dip between samples
    cell_margin = 2.0 * (w + h) / trace_res

    out = _PairCurves({}, [], [])
    for orientation in ORIENTATIONS:
        for k, branch in enumerate(branches):
            if _exceeds(floors[orientation][k], level + 1e-12, scale):
                continue
            field = branch_field(inst, rp.domain, pair, orientation, branch)
            if float(np.max(field(corners_x, corners_y))) <= level:
                continue  # rectangle entirely inside the sublevel set
            grid = sample_grid(field, rp.rect, trace_res)
            values = grid[2]
            flat = int(np.argmin(values))
            gi, gj = np.unravel_index(flat, values.shape)
            gmin = float(values[gi, gj])
            if gmin <= level + cell_margin:
                mx, my = _refine_minimum(field, rp.rect, grid[0][gi], grid[1][gj])
                if float(field(mx, my)) <= level + 1e-12:
                    out.minimizers.append((mx, my))
            if gmin >= level:
                continue  # no sign change on the grid, nothing to trace
            curve = trace_level_curve(
                field,
                level,
                rp.rect,
                trace_res,
                trace_tol=trace_tol,
                grid=grid,
                pair=(pair.origin, pair.dest),
                orientation=orientation,
                branch=branch,
            )
            if curve.empty:
                continue
            out.curves[(orientation, branch)] = curve
            out.boundary.extend(rectangle_boundary_points(curve))
    return out


def pair_candidates(
    rp: RestrictedProblem,
    curves: Mapping[tuple[str, str], LevelCurve],
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> tuple[list[tuple[float, float]], dict[str, int]]:
    """Candidate points contributed by one O/D pair's own curves.

    Per boarding order: the crossings of the two branch curves when they
    cross, otherwise the first vertex of each nonempty curve.  Type 2 pairs
    have a single curve per orientation and contribute one arbitrary point
    from it.  An orientation with no curve contributes nothing.
    """

    pc = rp.domain.pair_class
    type1 = pc.kind == TYPE1 and not pc.diagonal
    points: list[tuple[float, float]] = []
    stats = {"intersections": 0, "max_curve_pair": 0, "bound_exceeded": 0}
    for orientation in ORIENTATIONS:
        if type1:
            ca = curves.get((orientation, BRANCH_A))
            cb = curves.get((orientation, BRANCH_B))
            if ca is not None and cb is not None:
                hits = intersect_curves(ca, cb, refine_tol)
                stats["intersections"] += len(hits)
                stats["max_curve_pair"] = max(stats["max_curve_pair"], len(hits))
                stats["bound_exceeded"] += bool(hits.bound_exceeded)
                if hits.points:
                    points.extend((p.x, p.y) for p in hits.points)
                    continue
            for curve in (ca, cb):
                if curve is not None and not curve.empty:
                    v = curve.polylines[0][0]
                    points.append((float(v[0]), float(v[1])))
        else:
            curve = curves.get((orientation, BRANCH_A))
            if curve is not None and not curve.empty:
                v = curve.polylines[0][0]
                points.append((float(v[0]), float(v[1])))
    return points, stats


def cross_pair_candidates(
    pair_a: tuple[int, int],
    pair_b: tuple[int, int],
    curves_a: Mapping[tuple[str, str], LevelCurve],
    curves_b: Mapping[tuple[str, str], LevelCurve],
    refine_tol: float = DEFAULT_REFINE_TOL,
    dedupe_radius: float = DEFAULT_DEDUPE_RADIUS,
) -> tuple[list[IntersectionPoint], dict[str, int]]:
    """Crossings between the boundary curves of two distinct O/D pairs.

    Union over every curve combination of the two pairs (at most 16 for
    type 1, 4 for type 2), deduplicated across the union.
    """

    if pair_a == pair_b:
        raise ValueError(f"cross candidates need two different O/D pairs, got {pair_a} twice")
    collected: list[IntersectionPoint] = []
    stats = {"max_curve_pair": 0, "bound_exceeded": 0}
    for ca in curves_a.values():
        for cb in curves_b.values():
            hits = intersect_curves(ca, cb, refine_tol)
            stats["max_curve_pair"] = max(stats["max_curve_pair"], len(hits))
            stats["bound_exceeded"] += bool(hits.bound_exceeded)
            collected.extend(hits.points)
    return _dedupe_points(collected, dedupe_radius), stats


def _fallback_point(
    rect: tuple[float, float],
    taken: Sequence[Candidate],
    radius: float = DEFAULT_DEDUPE_RADIUS,
) -> tuple[float, float]:
    """Rectangle centre, nudged diagonally until distinct from all candidates."""

    w, h = rect
    delta = min(w, h) * 1e-3
    for k in range(10_000):
        x = w / 2 + k * delta
        y = h / 2 - k * delta
        if x > w or y < 0:
            x = max(w / 2 - k * delta, 0.0)
            y = min(h / 2 + k * delta, h)
        if all(math.hypot(x - c.x, y - c.y) > radius for c in taken):
            return (x, y)
    return (w / 2, h / 2)


def solve_restricted(
    inst: ProblemInstance,
    rp: RestrictedProblem,
    *,
    trace_res: int = DEFAULT_TRACE_RES,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    refine_tol: float = DEFAULT_REFINE_TOL,
    trace_tol: float = DEFAULT_TRACE_TOL,
) -> FdsSolution:
    """Assemble the candidate set of one restricted problem and pick its best.

    Ties on the objective break lexicographically (smaller x, then smaller y);
    a zero objective returns the fallback point, since every point of the
    rectangle is then optimal.
    """

    counters = {
        "curves": 0,
        "intersections": 0,
        "max_curve_pair_intersections": 0,
        "bound_exceeded": 0,
    }
    floors = field_floors(inst, rp)
    scale = _rounding_scale(inst)
    bundles: dict[int, _PairCurves] = {}
    for pi, pair in enumerate(inst.pairs):
        bundle = _trace_pair(inst, rp, pair, floors[pi], scale, trace_res, trace_tol)
        bundles[pi] = bundle
        counters["curves"] += len(bundle.curves)

    candidates: list[Candidate] = []
    for pi in range(len(inst.pairs)):
        points, stats = pair_candidates(rp, bundles[pi].curves, refine_tol)
        counters["intersections"] += stats["intersections"]
        counters["max_curve_pair_intersections"] = max(
            counters["max_curve_pair_intersections"], stats["max_curve_pair"]
        )
        counters["bound_exceeded"] += stats["bound_exceeded"]
        candidates.extend(Candidate(x, y, PROV_PAIR_CURVES) for x, y in points)

    for pi in range(len(inst.pairs)):
        if not bundles[pi].curves:
            continue
        for pj in range(pi + 1, len(inst.pairs)):
            if not bundles[pj].curves:
                continue
            pa = (inst.pairs[pi].origin, inst.pairs[pi].dest)
            pb = (inst.pairs[pj].origin, inst.pairs[pj].dest)
            points, stats = cross_pair_candidates(
                pa, pb, bundles[pi].curves, bundles[pj].curves, refine_tol
            )
            counters["intersections"] += len(points)
            counters["max_curve_pair_intersections"] = max(
                counters["max_curve_pair_intersections"], stats["max_curve_pair"]
            )
            counters["bound_exceeded"] += stats["bound_exceeded"]
            candidates.extend(Candidate(p.x, p.y, PROV_CROSS_CURVES) for p in points)

    w, h = rp.rect
    for bundle in bundles.values():
        for x, y in bundle.minimizers:
            candidates.append(Candidate(x, y, PROV_AUGMENT))
        for x, y in bundle.boundary:
            candidates.append(Candidate(x, y, PROV_AUGMENT))
    for x, y in ((0.0, 0.0), (w, 0.0), (0.0, h), (w, h)):
        candidates.append(Candidate(x, y, PROV_AUGMENT))

    fx, fy = _fallback_point(rp.rect, candidates)
    candidates.append(Candidate(fx, fy, PROV_FALLBACK))

    # dedupe, keeping the earliest occurrence so curve-derived provenance
    # takes precedence over augmentation and fallback
    unique: list[Candidate] = []
    for cand in candidates:
        if all(
            math.hypot(cand.x - kept.x, cand.y - kept.y) > DEFAULT_DEDUPE_RADIUS
            for kept in unique
        ):
            unique.append(cand)
    counters["omega"] = len(unique)

    xs = np.array([c.x for c in unique])
    ys = np.array([c.y for c in unique])
    values = coverage_weights(inst, rp.domain, xs, ys, cov_tol)
    best_value = float(values.max()) if len(values) else 0.0
    if best_value <= 0.0:
        best_xy = (fx, fy)
        best_value = 0.0
    else:
        ties = [
            (unique[k].x, unique[k].y)
            for k in range(len(unique))
            if values[k] == best_value
        ]
        best_xy = min(ties)
    covered, objective = coverage_and_objective(
        inst, rp.domain, best_xy[0], best_xy[1], cov_tol
    )
    return FdsSolution(
        rp_index=rp.index,
        candidates=unique,
        best=best_xy,
        objective=objective,
        covered=tuple(covered),
        counters=counters,
    )


def problem_bounds(
    inst: ProblemInstance,
    prep: Preprocessed,
    problems: Sequence[RestrictedProblem],
    cov_tol: float = DEFAULT_COVERAGE_TOL,
) -> list[float]:
    """Certified upper bound on the objective of every restricted problem.

    On a problem, a pair's trip length is the least of its branch fields in
    both boarding orders, so it is at least the least of their floors over
    the rectangle (``_pair_floors``, from one facility × segment ×
    coefficient table of ``axis_floor`` values, indexed for all problems at
    once).  The bound is the weight of
    the pairs whose floor is within ``acceptance + cov_tol`` plus a rounding
    allowance (see ``_exceeds``), so no pair that the coverage test would
    count is left out.  Weights are summed in pair order, as
    ``coverage_weights`` and ``coverage_and_objective`` sum them, so the bound
    is at least every objective of the problem in floating point too.
    """

    column = {seg: k for k, seg in enumerate(prep.segments)}
    table = _floor_table(
        inst, [segment_geometry(inst.network, seg) for seg in prep.segments]
    )
    floors = _pair_floors(
        inst,
        table,
        [rp.domain.pair_class for rp in problems],
        np.array([column[rp.seg_p] for rp in problems], dtype=int),
        np.array([column[rp.seg_q] for rp in problems], dtype=int),
    )
    scale = _rounding_scale(inst)

    bounds = np.zeros(len(problems))
    for pair, pair_floors in zip(inst.pairs, floors):
        f12 = pair_floors[ORIENT_12]
        f21 = pair_floors[ORIENT_21]
        lb = np.minimum(np.minimum(f12[:, 0], f12[:, 1]), np.minimum(f21[:, 0], f21[:, 1]))
        bounds += pair.weight * ~_exceeds(lb, pair.acceptance + cov_tol, scale)
    return bounds.tolist()


def _rank(sol: FdsSolution) -> tuple[float, int, float, float]:
    """Sort key of the global reduction: best objective, then problem index, then point."""

    return (-sol.objective, sol.rp_index, sol.best[0], sol.best[1])


def _may_win(bound: float, index: int, incumbent: FdsSolution | None) -> bool:
    """Whether a problem with this bound could still beat or tie ``incumbent``."""

    if incumbent is None:
        return True
    if bound != incumbent.objective:
        return bound > incumbent.objective
    return index <= incumbent.rp_index


_worker_args: tuple[ProblemInstance, dict] | None = None


def _init_worker(inst: ProblemInstance, params: dict) -> None:
    global _worker_args
    _worker_args = (inst, params)


def _solve_task(rp: RestrictedProblem) -> FdsSolution:
    inst, params = _worker_args
    return solve_restricted(inst, rp, **params)


def _search_pool(
    inst: ProblemInstance,
    problems: Sequence[RestrictedProblem],
    order: Sequence[int],
    bounds: Sequence[float],
    params: dict,
    jobs: int,
    results: dict[int, FdsSolution],
) -> FdsSolution | None:
    """Branch-and-bound with at most ``jobs`` problems in flight, in ``order``."""

    best = None
    queue = iter(order)
    pending: set = set()
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(inst, params)
    ) as pool:
        while True:
            while queue is not None and len(pending) < jobs:
                k = next(queue, None)
                if k is None or not _may_win(bounds[k], k, best):
                    queue = None  # bounds only fall along the order
                else:
                    pending.add(pool.submit(_solve_task, problems[k]))
            if not pending:
                return best
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                sol = future.result()
                results[sol.rp_index] = sol
                if best is None or _rank(sol) < _rank(best):
                    best = sol


def solve_global(
    inst: ProblemInstance,
    *,
    trace_res: int = DEFAULT_TRACE_RES,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    refine_tol: float = DEFAULT_REFINE_TOL,
    trace_tol: float = DEFAULT_TRACE_TOL,
    jobs: int = 1,
) -> tuple[Solution, dict]:
    """Solve the full problem by branch-and-bound over the restricted problems.

    Problems are visited in descending ``problem_bounds`` order (ties by
    index) and skipped once their bound cannot beat or tie the incumbent under
    the reduction order: best objective, ties by problem index then
    lexicographic point.  The result is therefore the one a sweep over every
    problem returns.  With ``jobs`` above one, up to ``jobs`` problems run at
    once in a process pool that receives the instance once.

    Returns the solution plus a stats dict.  ``solved`` counts the *required*
    problems, those whose bound beats the optimum or ties it at an index up
    to the winner's; every schedule solves all of them, and the per-problem
    counters (``omega_total``, ``curves``, ``intersections``,
    ``max_curve_pair_intersections``, ``bound_exceeded``) are summed over
    them alone, so the stats do not depend on ``jobs``.  ``pruned`` counts the
    rest.
    """

    started = time.perf_counter()
    report = validate_instance(inst)
    if not report.is_valid:
        raise ValueError(f"invalid instance:\n{report}")

    prep = preprocess_network(inst.network)
    problems = restricted_problems(inst, prep)
    bounds = problem_bounds(inst, prep, problems, cov_tol)
    order = sorted(range(len(problems)), key=lambda k: (-bounds[k], k))
    params = dict(
        trace_res=trace_res, cov_tol=cov_tol, refine_tol=refine_tol, trace_tol=trace_tol
    )
    results: dict[int, FdsSolution] = {}
    if jobs > 1 and len(problems) > 1:
        best = _search_pool(inst, problems, order, bounds, params, jobs, results)
    else:
        best = None
        for k in order:
            if not _may_win(bounds[k], k, best):
                break  # bounds only fall along the order
            sol = solve_restricted(inst, problems[k], **params)
            results[k] = sol
            if best is None or _rank(sol) < _rank(best):
                best = sol

    # every schedule solves these: the problems that could tie or beat the winner
    required = [results[k] for k in range(len(problems)) if _may_win(bounds[k], k, best)]
    logger.info(
        "solved %d of %d restricted problems (jobs=%d)", len(required), len(problems), jobs
    )
    rp = problems[best.rp_index]
    x1 = network_point(
        inst.network, rp.seg_p.edge, rp.seg_p.start + best.best[0]
    )
    x2 = network_point(
        inst.network, rp.seg_q.edge, rp.seg_q.start + best.best[1]
    )
    solution = Solution(x1, x2, best.objective, best.covered)
    stats = {
        "segments": len(prep.segments),
        "restricted_problems": len(problems),
        "solved": len(required),
        "pruned": len(problems) - len(required),
        "omega_total": int(sum(s.counters["omega"] for s in required)),
        "curves": int(sum(s.counters["curves"] for s in required)),
        "intersections": int(sum(s.counters["intersections"] for s in required)),
        "max_curve_pair_intersections": int(
            max((s.counters["max_curve_pair_intersections"] for s in required), default=0)
        ),
        "bound_exceeded": int(sum(s.counters["bound_exceeded"] for s in required)),
        "runtime_ms": (time.perf_counter() - started) * 1000.0,
    }
    return solution, stats


# ---------------------------------------------------------------------------
# independent grid oracle


@dataclass(frozen=True)
class OracleResult:
    x1: NetworkPoint
    x2: NetworkPoint
    objective: float


def _edge_positions(net, edge: int, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = net.edges[edge]
    pu, pw = net.edge_endpoints(edge)
    frac = ts / e.length
    return pu.x + frac * (pw.x - pu.x), pu.y + frac * (pw.y - pu.y)


def edge_pair_distance(net, dist: np.ndarray, ei: int, ej: int, p, q):
    """Exact network distance between points of two edges, vectorized.

    Works directly from the vertex distance matrix: any shortest path leaves
    the first edge through one of its endpoints and enters the second the
    same way; on a single edge the in-edge route is a further candidate.
    """

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    idx = net.vertex_index
    e1 = net.edges[ei]
    e2 = net.edges[ej]
    u1, w1 = idx[e1.u], idx[e1.w]
    u2, w2 = idx[e2.u], idx[e2.w]
    routes = np.minimum(
        np.minimum(
            p + dist[u1, u2] + q,
            p + dist[u1, w2] + (e2.length - q),
        ),
        np.minimum(
            (e1.length - p) + dist[w1, u2] + q,
            (e1.length - p) + dist[w1, w2] + (e2.length - q),
        ),
    )
    if ei == ej:
        routes = np.minimum(routes, np.abs(p - q))
    return routes


def network_point_distance(
    net, dist: np.ndarray, a: NetworkPoint, b: NetworkPoint
) -> float:
    return float(edge_pair_distance(net, dist, a.edge, b.edge, a.arc_length, b.arc_length))


def evaluate_point_pair(
    inst: ProblemInstance,
    dist: np.ndarray,
    x1: NetworkPoint,
    x2: NetworkPoint,
    tol: float = DEFAULT_COVERAGE_TOL,
) -> tuple[list[dict], float]:
    """Per-pair trip lengths and coverage at an arbitrary transfer-point pair."""

    d = network_point_distance(inst.network, dist, x1, x2)
    rows = []
    total = 0.0
    for pair in inst.pairs:
        a = inst.facility_position(pair.origin)
        b = inst.facility_position(pair.dest)
        h12 = (
            a.distance_to(x1.point) + inst.alpha * d + x2.point.distance_to(b)
        )
        h21 = (
            a.distance_to(x2.point) + inst.alpha * d + x1.point.distance_to(b)
        )
        f = min(h12, h21)
        covered = f <= pair.acceptance + tol
        if covered:
            total += pair.weight
        rows.append(
            {
                "i": pair.origin,
                "j": pair.dest,
                "h12": h12,
                "h21": h21,
                "f": f,
                "covered": covered,
            }
        )
    return rows, total


def oracle_grid(
    inst: ProblemInstance,
    res: int = 200,
    rp: RestrictedProblem | None = None,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    dist: np.ndarray | None = None,
) -> OracleResult:
    """Brute-force grid lower bound on the optimal objective.

    Evaluates the coverage objective on a ``res`` x ``res`` grid (endpoints
    included, so ``res = 2`` samples the corners) over the given restricted
    rectangle, or over every unordered edge-pair rectangle of the network.
    Halving the spacing reuses every existing sample, so refining the grid
    never loses coverage.  By construction the result never exceeds the exact
    optimum.
    """

    if res < 2:
        raise ValueError(f"grid resolution must be >= 2, got {res}")

    if rp is not None:
        xs = np.linspace(0.0, rp.rect[0], res)
        ys = np.linspace(0.0, rp.rect[1], res)
        values = coverage_weights(inst, rp.domain, xs[:, None], ys[None, :], cov_tol)
        flat = int(np.argmax(values))
        gi, gj = np.unravel_index(flat, values.shape)
        x1 = network_point(inst.network, rp.seg_p.edge, rp.seg_p.start + xs[gi])
        x2 = network_point(inst.network, rp.seg_q.edge, rp.seg_q.start + ys[gj])
        return OracleResult(x1, x2, float(values[gi, gj]))

    net = inst.network
    if dist is None:
        from .preprocess import all_pairs_shortest_paths

        dist = all_pairs_shortest_paths(net)

    facilities = {
        f.id: (f.position.x, f.position.y) for f in inst.facilities
    }
    best_value = -1.0
    best_points: tuple[NetworkPoint, NetworkPoint] | None = None
    for ei in range(len(net.edges)):
        ps = np.linspace(0.0, net.edges[ei].length, res)
        pxs, pys = _edge_positions(net, ei, ps)
        for ej in range(ei, len(net.edges)):
            qs = np.linspace(0.0, net.edges[ej].length, res)
            qxs, qys = _edge_positions(net, ej, qs)
            dgrid = edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
            total = np.zeros_like(dgrid)
            for pair in inst.pairs:
                ax, ay = facilities[pair.origin]
                bx, by = facilities[pair.dest]
                a_p = np.hypot(ax - pxs, ay - pys)
                b_q = np.hypot(bx - qxs, by - qys)
                a_q = np.hypot(ax - qxs, ay - qys)
                b_p = np.hypot(bx - pxs, by - pys)
                f12 = a_p[:, None] + inst.alpha * dgrid + b_q[None, :]
                f21 = a_q[None, :] + inst.alpha * dgrid + b_p[:, None]
                covered = np.minimum(f12, f21) <= pair.acceptance + cov_tol
                total += pair.weight * covered
            value = float(total.max())
            if value > best_value:
                flat = int(np.argmax(total))
                gi, gj = np.unravel_index(flat, total.shape)
                best_value = value
                best_points = (
                    network_point(net, ei, ps[gi]),
                    network_point(net, ej, qs[gj]),
                )
    assert best_points is not None
    return OracleResult(best_points[0], best_points[1], best_value)
