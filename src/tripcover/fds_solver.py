"""Finite-dominating-set construction and the two-transfer-point solver.

Every pair of linear arc segments induces a restricted problem over its
parameter rectangle; a same-segment (diagonal) problem is solved on the
triangle ``x <= y`` only, as swapping the coordinates swaps the boarding
orders and leaves coverage unchanged.  A finite candidate set that is
guaranteed to contain an optimal point of the restricted problem is
assembled from

* crossings of the two branch boundary curves of each O/D pair (or a
  representative point per nonempty curve when the branches do not cross),
* crossings between the boundary curves of every two distinct O/D pairs,
* the points where every traced curve meets the domain boundary, the four
  rectangle corners and the minimiser of every field whose minimum reaches
  its level (these guard against sublevel regions clipped by the domain or
  met by no other curve), and
* one fallback point distinct from everything else, which is optimal whenever
  nothing is coverable.

Each branch field is separable, ``g(x, y) = u(x) + v(y) + alpha*c0`` with
``u`` and ``v`` a facility-to-segment distance plus a linear term, so its
minimiser, level curve, boundary points and crossings are exact 1-D
computations (``level_curves``).  ``solve_restricted`` gathers every curve
pair of a problem, the branch pairs of each O/D pair and every curve
combination of each two O/D pairs, crosses them in one
``intersect_curve_pairs`` batch and splits the crossings back per pair, with
the counts and deduplication of crossing each pair alone.

The best candidate over all restricted problems solves the full problem.  The
global solver finds it by a two-level branch-and-bound.  Off the diagonal a
field's floor over its rectangle is the sum of two closed-form axis floors
(``axis_floor``); on the diagonal a weak-duality relaxation of ``alpha*|x -
y|`` over the whole rectangle reduces the field to the same shape.  These
certified floors give an upper bound on every restricted problem's objective
(the weight of the pairs with a field whose floor reaches the acceptance
level).  The coarse level bounds a whole edge pair the same way: between
points of two different edges the network distance is the least of four
routes, one per pair of endpoints, each separable over the edge-pair
rectangle, and on one edge it is at least zero (``edge_pair_bounds``).  One
best-first search holds both levels: an edge pair is classified into its
restricted problems, and those are bounded, only once its own bound can still
beat or tie the incumbent, and a problem is solved only while its bound can.
Inside a problem the same floors skip every field that cannot reach the
level.  The answer is the one a full sweep returns.

A brute-force grid oracle over edge-pair rectangles provides an independent
lower bound used for verification; it evaluates network distances directly
from the vertex distance matrix and never touches the segment classification
machinery.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.util import Finalize
from types import SimpleNamespace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .level_curves import (
    DEFAULT_DEDUPE_RADIUS,
    DEFAULT_REFINE_TOL,
    DEFAULT_TRACE_RES,
    MIN_TRACE_RES,
    IntersectionPoint,
    IntersectionSet,
    LevelCurve,
    _dedupe_points,
    intersect_curve_pairs,
    minimize,
    trace_level_curve,
)
# bench/spans.py traces crossings under this name; the solver crosses every
# curve pair of a problem in one intersect_curve_pairs call
from .level_curves import intersect_curves  # noqa: F401
# bench/spans.py traces the arc sampler under this name; the solver samples no arc
from .level_curves import sample_arc as sample_grid  # noqa: F401
from .mixed_distance import (
    BRANCH_A,
    BRANCH_B,
    DEFAULT_COVERAGE_TOL,
    ORIENT_12,
    ORIENT_21,
    ORIENTATIONS,
    PairDomain,
    axis_argmin,
    branch_field,
    coverage_and_objective,
    coverage_weights,
    pair_domain,
    project,
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


def _check_parameters(trace_res: int, cov_tol: float, refine_tol: float, jobs: int = 1) -> None:
    """Raise ``ValueError`` naming the first solver parameter out of range."""

    for ok, name, need, value in (
        (trace_res >= MIN_TRACE_RES, "trace_res", f">= {MIN_TRACE_RES}", trace_res),
        (math.isfinite(cov_tol) and cov_tol >= 0, "cov_tol", "finite and >= 0", cov_tol),
        (math.isfinite(refine_tol) and refine_tol > 0, "refine_tol", "finite and > 0", refine_tol),
        (jobs >= 1, "jobs", ">= 1", jobs),
    ):
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value}")


def _edge_starts(prep: Preprocessed) -> list[int]:
    """Position in ``prep.segments`` of each edge's first segment, then the total."""

    return list(itertools.accumulate((len(s) for s in prep.segments_by_edge), initial=0))


def _rp_index(n: int, a: int, b: int) -> int:
    """Position of the segment pair ``a <= b`` in the enumeration of ``n`` segments."""

    return a * n - a * (a - 1) // 2 + b - a


def restricted_problems(
    inst: ProblemInstance, prep: Preprocessed, edges: tuple[int, int] | None = None
) -> list[RestrictedProblem]:
    """All unordered segment pairs, diagonal included, in index order.

    The objective is symmetric in the roles of the two transfer points, so
    unordered pairs cover the same optima as the full ordered enumeration at
    half the work.  With ``edges=(e, f)`` only the pairs with one segment on
    each of the two edges are classified; their ``index`` is still the
    position in the full enumeration.
    """

    segs = prep.segments
    n = len(segs)
    rows = cols = range(n)
    if edges is not None:
        e, f = sorted(edges)
        starts = _edge_starts(prep)
        rows, cols = range(starts[e], starts[e + 1]), range(starts[f], starts[f + 1])
    problems = []
    for a in rows:
        for b in range(max(a, cols.start), cols.stop):
            pc = classify_segment_pair(segs[a], segs[b], prep.dist, inst.network)
            problems.append(
                RestrictedProblem(
                    _rp_index(n, a, b),
                    segs[a],
                    segs[b],
                    pair_domain(inst.network, segs[a], segs[b], pc),
                )
            )
    return problems


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
    return np.union1d(np.linspace(0.0, 1.0 + alpha, 9), [alpha])


def _segment_coefficients(alpha: float) -> np.ndarray:
    """Coefficients ``alpha`` and ``-alpha`` of the affine network forms, then
    ``lam - alpha`` and ``alpha - lam`` for every diagonal multiplier ``lam``."""

    shift = _diagonal_multipliers(alpha) - alpha
    return np.concatenate(([alpha, -alpha], shift, -shift))


def _floor_table(inst: ProblemInstance, geoms: Sequence, coef: np.ndarray) -> np.ndarray:
    """``axis_floor`` of every facility on every segment, per coefficient.

    Axis 0 follows ``inst.facilities``, axis 1 ``geoms`` and axis 2 ``coef``.
    """

    facility = np.array([(f.position.x, f.position.y) for f in inst.facilities]).reshape(-1, 2)
    segment = np.array([(*g.origin, *g.direction, g.length) for g in geoms])
    ox, oy, dx, dy, length = segment.T[:, None, :, None]
    lines = SimpleNamespace(origin=(ox, oy), direction=(dx, dy))
    return axis_floor(facility.T[:, :, None, None], lines, np.asarray(coef, dtype=float), length)


def _pair_floors(
    inst: ProblemInstance, table: np.ndarray, classes: Sequence, p: np.ndarray, q: np.ndarray
) -> Iterator[dict[str, np.ndarray]]:
    """Floor of every branch field over its rectangle, pair by pair.

    ``classes`` are the problems' pair classes and ``p``/``q`` the columns of
    their two segments in ``table``, whose coefficients are
    ``_segment_coefficients``.  Yields one dict per pair, in pair
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

    table = _floor_table(
        inst, [rp.domain.geom_p, rp.domain.geom_q], _segment_coefficients(inst.alpha)
    )
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
) -> _PairCurves:
    """Trace the nonempty boundary curves of one pair on one domain.

    A field whose floor (``floors[orientation][k]`` for its ``k``-th branch,
    from ``field_floors``) exceeds the level plus the minimiser test's
    ``1e-12`` and the rounding allowance can yield neither a minimiser
    candidate nor a curve.  A convex field attains its maximum over the
    domain at a corner, so a corner maximum below the level certifies an
    empty boundary.  Otherwise the closed-form minimiser is a candidate when
    its value is within ``1e-12`` of the level, and the curve exists when
    the minimum is below it.
    """

    pc = rp.domain.pair_class
    level = pair.acceptance
    branches = (BRANCH_A, BRANCH_B) if (pc.kind == TYPE1 and not pc.diagonal) else (BRANCH_A,)

    out = _PairCurves({}, [], [])
    for orientation in ORIENTATIONS:
        for k, branch in enumerate(branches):
            if _exceeds(floors[orientation][k], level + 1e-12, scale):
                continue
            field = branch_field(inst, rp.domain, pair, orientation, branch)
            if max(float(field(x, y)) for x, y in field.corners) <= level:
                continue  # domain entirely inside the sublevel set
            mx, my = minimize(field)
            low = float(field(mx, my))
            if low <= level + 1e-12:
                out.minimizers.append((mx, my))
            if low >= level:
                continue  # the sublevel set has no interior, nothing to trace
            curve = trace_level_curve(field, level, trace_res)
            if curve.empty:
                continue
            out.curves[(orientation, branch)] = curve
            out.boundary.extend(curve.boundary)
    return out


def _branch_pairs(
    rp: RestrictedProblem, curves: Mapping[tuple[str, str], LevelCurve]
) -> dict[str, tuple[LevelCurve, LevelCurve]]:
    """The two branch curves of every boarding order that has both, on a
    type-1 problem: the curve pairs ``pair_candidates`` intersects."""

    pc = rp.domain.pair_class
    if pc.kind != TYPE1 or pc.diagonal:
        return {}
    return {
        o: (curves[(o, BRANCH_A)], curves[(o, BRANCH_B)])
        for o in ORIENTATIONS
        if (o, BRANCH_A) in curves and (o, BRANCH_B) in curves
    }


def _pair_points(
    rp: RestrictedProblem,
    curves: Mapping[tuple[str, str], LevelCurve],
    hits: Mapping[str, IntersectionSet],
) -> tuple[list[tuple[float, float]], dict[str, int]]:
    """``pair_candidates`` given the crossings ``hits`` of ``_branch_pairs``."""

    pc = rp.domain.pair_class
    branches = (BRANCH_A, BRANCH_B) if (pc.kind == TYPE1 and not pc.diagonal) else (BRANCH_A,)
    points: list[tuple[float, float]] = []
    stats = {"intersections": 0, "max_curve_pair": 0, "bound_exceeded": 0}
    for orientation in ORIENTATIONS:
        found = hits.get(orientation)
        if found is not None:
            stats["intersections"] += len(found)
            stats["max_curve_pair"] = max(stats["max_curve_pair"], len(found))
            stats["bound_exceeded"] += bool(found.bound_exceeded)
            if found.points:
                points.extend((p.x, p.y) for p in found.points)
                continue
        for branch in branches:
            curve = curves.get((orientation, branch))
            if curve is not None and not curve.empty:
                arc = curve.arcs[0]
                points.append((float(arc.x0), float(arc(arc.x0))))
    return points, stats


def pair_candidates(
    rp: RestrictedProblem,
    curves: Mapping[tuple[str, str], LevelCurve],
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> tuple[list[tuple[float, float]], dict[str, int]]:
    """Candidate points contributed by one O/D pair's own curves.

    Per boarding order: the crossings of the two branch curves when they
    cross, otherwise the start of each nonempty curve's first arc.  Type 2
    pairs have a single curve per orientation and contribute one arbitrary
    point from it.  An orientation with no curve contributes nothing.
    """

    pairs = _branch_pairs(rp, curves)
    hits = intersect_curve_pairs(list(pairs.values()), refine_tol)
    return _pair_points(rp, curves, dict(zip(pairs, hits)))


def _cross_points(
    hits: Sequence[IntersectionSet], dedupe_radius: float = DEFAULT_DEDUPE_RADIUS
) -> tuple[list[IntersectionPoint], dict[str, int]]:
    """``cross_pair_candidates`` given the crossings of every curve combination."""

    stats = {
        "max_curve_pair": max((len(found) for found in hits), default=0),
        "bound_exceeded": sum(bool(found.bound_exceeded) for found in hits),
    }
    collected = [p for found in hits for p in found.points]
    return _dedupe_points(collected, dedupe_radius), stats


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
    combos = list(itertools.product(curves_a.values(), curves_b.values()))
    return _cross_points(intersect_curve_pairs(combos, refine_tol), dedupe_radius)


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
) -> FdsSolution:
    """Assemble the candidate set of one restricted problem and pick its best.

    Ties on the objective break lexicographically (smaller x, then smaller y);
    a zero objective returns the fallback point, since every point of the
    rectangle is then optimal.  Raises ``ValueError``, before any work, on
    the parameters ``solve_global`` rejects.
    """

    _check_parameters(trace_res, cov_tol, refine_tol)
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
        bundle = _trace_pair(inst, rp, pair, floors[pi], scale, trace_res)
        bundles[pi] = bundle
        counters["curves"] += len(bundle.curves)

    # every curve pair of every O/D pair and of every two O/D pairs, crossed
    # in one batch and split back in the same order
    own = [_branch_pairs(rp, bundles[pi].curves) for pi in range(len(inst.pairs))]
    crossed = [
        list(itertools.product(bundles[pi].curves.values(), bundles[pj].curves.values()))
        for pi, pj in itertools.combinations(range(len(inst.pairs)), 2)
        if bundles[pi].curves and bundles[pj].curves
    ]
    batch = [cp for pairs in own for cp in pairs.values()]
    batch += [cp for combos in crossed for cp in combos]
    hits = iter(intersect_curve_pairs(batch, refine_tol))

    candidates: list[Candidate] = []
    for pi, pairs in enumerate(own):
        points, stats = _pair_points(rp, bundles[pi].curves, {o: next(hits) for o in pairs})
        counters["intersections"] += stats["intersections"]
        counters["max_curve_pair_intersections"] = max(
            counters["max_curve_pair_intersections"], stats["max_curve_pair"]
        )
        counters["bound_exceeded"] += stats["bound_exceeded"]
        candidates.extend(Candidate(x, y, PROV_PAIR_CURVES) for x, y in points)

    for combos in crossed:
        points, stats = _cross_points([next(hits) for _ in combos])
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


def _problem_bounder(inst: ProblemInstance, prep: Preprocessed, cov_tol: float):
    """``problem_bounds`` as a function of the problems alone: the floor table
    of every segment is built once, for all the problems bounded later."""

    segments = prep.segments
    column = {seg: k for k, seg in enumerate(segments)}
    table = _floor_table(
        inst,
        [segment_geometry(inst.network, seg) for seg in segments],
        _segment_coefficients(inst.alpha),
    )
    scale = _rounding_scale(inst)

    def bounds(problems: Sequence[RestrictedProblem]) -> np.ndarray:
        floors = _pair_floors(
            inst,
            table,
            [rp.domain.pair_class for rp in problems],
            np.array([column[rp.seg_p] for rp in problems], dtype=int),
            np.array([column[rp.seg_q] for rp in problems], dtype=int),
        )
        out = np.zeros(len(problems))
        for pair, pair_floors in zip(inst.pairs, floors):
            f12 = pair_floors[ORIENT_12]
            f21 = pair_floors[ORIENT_21]
            lb = np.minimum(np.minimum(f12[:, 0], f12[:, 1]), np.minimum(f21[:, 0], f21[:, 1]))
            out += pair.weight * ~_exceeds(lb, pair.acceptance + cov_tol, scale)
        return out

    return bounds


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

    return _problem_bounder(inst, prep, cov_tol)(problems).tolist()


def edge_pair_floors(inst: ProblemInstance, prep: Preprocessed) -> Iterator[np.ndarray]:
    """Floor of every pair's trip length over every edge-pair rectangle.

    Yields one array per pair, in pair order, over the edge pairs ``(e, f)``,
    ``e <= f``, in ``np.triu_indices`` order.  For ``x`` on edge ``e`` and
    ``y`` on another edge ``f`` a shortest path leaves ``e`` through an
    endpoint ``a`` and enters ``f`` through an endpoint ``b``, so
    ``alpha*d(x, y)`` is the least of four terms ``alpha*(arc(x, a) + D[a, b]
    + arc(b, y))``, each affine in ``x`` and in ``y`` with slopes ``±alpha``.
    In each boarding order the trip length is then the least of four
    separable fields, and its floor the least of four sums: the
    ``axis_floor`` of one facility on ``e``, plus ``alpha*D[a, b]`` and the
    endpoint constants, plus the ``axis_floor`` of the other facility on
    ``f``; up to rounding that is the minimum.  On one edge ``alpha*d >= 0``,
    so the floors at coefficient 0 serve.  The floors come from one facility
    × edge × {``alpha``, ``-alpha``, 0} table.
    """

    net = inst.network
    alpha = inst.alpha
    whole = [
        segment_geometry(net, LinearArcSegment(e, 0.0, edge.length, 0))
        for e, edge in enumerate(net.edges)
    ]
    table = _floor_table(inst, whole, np.array([alpha, -alpha, 0.0]))
    first, second = np.triu_indices(len(net.edges))
    same = first == second
    idx = net.vertex_index
    ends = np.array([(idx[edge.u], idx[edge.w]) for edge in net.edges])
    length = np.array([edge.length for edge in net.edges])
    # route[k, i, j]: leave edge first[k] through end i and enter second[k]
    # through end j; arc(x, u) = x has slope +alpha (table column 0), arc(x,
    # w) = length - x slope -alpha (column 1) plus the constant alpha*length
    through_w = np.array([0.0, 1.0])
    route = alpha * (
        prep.dist[ends[first][:, :, None], ends[second][:, None, :]]
        + (length[first, None] * through_w)[:, :, None]
        + (length[second, None] * through_w)[:, None, :]
    )
    row = inst.facility_index
    for pair in inst.pairs:
        a, b = row[pair.origin], row[pair.dest]
        lb = np.inf
        for fp, fq in ((a, b), (b, a)):
            near = table[fp, first]
            far = table[fq, second]
            apart = (near[:, :2, None] + route + far[:, None, :2]).min(axis=(1, 2))
            lb = np.minimum(lb, np.where(same, near[:, 2] + far[:, 2], apart))
        yield lb


def edge_pair_bounds(
    inst: ProblemInstance, prep: Preprocessed, cov_tol: float = DEFAULT_COVERAGE_TOL
) -> dict[tuple[int, int], float]:
    """Certified upper bound on the objective of every restricted problem of
    each edge pair ``(e, f)``, ``e <= f``.

    The weight of the pairs whose ``edge_pair_floors`` value is within
    ``acceptance + cov_tol`` plus the rounding allowance of ``_exceeds``,
    summed in pair order as ``problem_bounds`` sums it.
    """

    first, second = np.triu_indices(len(inst.network.edges))
    scale = _rounding_scale(inst)
    bounds = np.zeros(len(first))
    for pair, lb in zip(inst.pairs, edge_pair_floors(inst, prep)):
        bounds += pair.weight * ~_exceeds(lb, pair.acceptance + cov_tol, scale)
    return dict(zip(zip(first.tolist(), second.tolist()), bounds.tolist()))


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


def _record(
    sol: FdsSolution, results: dict[int, FdsSolution], best: FdsSolution | None
) -> FdsSolution:
    results[sol.rp_index] = sol
    return sol if best is None or _rank(sol) < _rank(best) else best


# One pool per (process, worker count), started by the first solve that needs
# it and kept for the life of the process, so a caller solving many instances
# pays the start-up once.  The pid in the key gives a forked child its own
# pool: the parent's manager thread does not exist in the child.
_pools: dict[tuple[int, int], ProcessPoolExecutor] = {}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exit_with_owner() -> None:
    """Worker initializer: end the worker when the process owning its pool
    ends without shutting the pool down (killed, or ``os._exit``); an idle
    worker would otherwise wait for tasks forever."""

    owner = multiprocessing.parent_process()

    def watch() -> None:
        owner.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers, started on first use."""

    key = (os.getpid(), workers)
    if key not in _pools:
        pool = _pools[key] = ProcessPoolExecutor(workers, initializer=_exit_with_owner)
        # A multiprocessing child joins its children at exit before the exit
        # hook of concurrent.futures would stop them.  Shut the pool down
        # first, and ahead of the finalizers (priority 10) closing its queues.
        Finalize(None, pool.shutdown, exitpriority=20)
    return _pools[key]


def _solve_task(inst: ProblemInstance, params: dict, rp: RestrictedProblem) -> FdsSolution:
    return solve_restricted(inst, rp, **params)


@dataclass
class _Search:
    """What the branch-and-bound classified and solved."""

    best: FdsSolution | None
    bounds: dict[int, float]  # every classified problem's bound, by index
    problems: dict[int, RestrictedProblem]
    results: dict[int, FdsSolution]
    edge_pairs: int  # edge pairs classified


def _search(
    inst: ProblemInstance, prep: Preprocessed, cov_tol: float, params: dict, jobs: int
) -> _Search:
    """``_best_first``, in-process or in this process's pool of ``min(jobs,
    usable CPUs)`` workers when that is above one.  A broken pool (a worker
    died, say killed between solves) is replaced and the search run once more.
    """

    workers = min(jobs, _usable_cpus())
    if workers == 1:
        return _best_first(inst, prep, cov_tol, params, None, 1)
    try:
        return _best_first(inst, prep, cov_tol, params, _pool(workers), workers)
    except BrokenProcessPool:
        _pools.pop((os.getpid(), workers)).shutdown()
    return _best_first(inst, prep, cov_tol, params, _pool(workers), workers)


def _best_first(
    inst: ProblemInstance,
    prep: Preprocessed,
    cov_tol: float,
    params: dict,
    pool: ProcessPoolExecutor | None,
    width: int,
) -> _Search:
    """Best-first search over edge pairs and restricted problems in one heap.

    Both are keyed ``(-bound, index)``; an edge pair's index is that of its
    first member, and a member's bound is capped by its edge pair's, so no
    member is keyed ahead of its edge pair and the keys are unique.  The
    search pops the least key while it may still beat or tie the incumbent:
    an edge pair is classified and its members bounded and pushed, a problem
    is solved in-process, or in ``pool`` with at most ``width`` in flight.
    Each pool task carries the instance, the parameters and the problem.
    """

    n = len(prep.segments)
    starts = _edge_starts(prep)
    heap = [
        (-bound, _rp_index(n, starts[e], starts[f]), (e, f))
        for (e, f), bound in edge_pair_bounds(inst, prep, cov_tol).items()
    ]
    heapq.heapify(heap)
    member_bounds = _problem_bounder(inst, prep, cov_tol)
    out = _Search(None, {}, {}, {}, 0)
    pending: set = set()
    while True:
        while heap and len(pending) < width and _may_win(-heap[0][0], heap[0][1], out.best):
            negated, _, node = heapq.heappop(heap)
            if isinstance(node, RestrictedProblem):
                if pool is not None:
                    pending.add(pool.submit(_solve_task, inst, params, node))
                else:
                    sol = solve_restricted(inst, node, **params)
                    out.best = _record(sol, out.results, out.best)
                continue
            members = restricted_problems(inst, prep, edges=node)
            out.edge_pairs += 1
            for rp, bound in zip(members, member_bounds(members).tolist()):
                bound = min(bound, -negated)
                out.bounds[rp.index] = bound
                out.problems[rp.index] = rp
                heapq.heappush(heap, (-bound, rp.index, rp))
        if not pending:
            return out
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            out.best = _record(future.result(), out.results, out.best)


def solve_global(
    inst: ProblemInstance,
    *,
    trace_res: int = DEFAULT_TRACE_RES,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    refine_tol: float = DEFAULT_REFINE_TOL,
    jobs: int = 1,
) -> tuple[Solution, dict]:
    """Solve the full problem by branch-and-bound over the restricted problems.

    The search has two levels.  Every edge pair gets an ``edge_pair_bounds``
    bound first; an edge pair is classified into its restricted problems,
    and those get their ``problem_bounds`` bound (capped by the edge pair's),
    only when it comes first in descending bound order (ties by index) and
    can still beat or tie the incumbent under the reduction order: best
    objective, ties by problem index then lexicographic point.  Problems are
    solved in the same order, under the same test.  The result is therefore
    the one a sweep over every problem returns.  With ``jobs`` above one, up
    to ``min(jobs, usable CPUs)`` problems run at once in a process pool of
    that many workers.  The pool is started by the first such solve and kept
    for the life of the process, so later solves skip its start-up; each task
    carries its instance.

    Returns the solution plus a stats dict.  ``solved`` counts the *required*
    problems, those whose bound beats the optimum or ties it at an index up
    to the winner's; every schedule classifies and solves all of them, and
    the per-problem counters (``omega_total``, ``curves``, ``intersections``,
    ``max_curve_pair_intersections``, ``bound_exceeded``) are summed over
    them alone, so the stats do not depend on ``jobs``.  ``pruned`` counts
    the rest, classified or not.

    Raises ``ValueError``, before any work, unless ``trace_res >= 16``,
    ``cov_tol`` is finite and nonnegative, ``refine_tol`` is finite and
    positive and ``jobs >= 1``, or when the instance fails validation.
    """

    started = time.perf_counter()
    _check_parameters(trace_res, cov_tol, refine_tol, jobs)
    report = validate_instance(inst)
    if not report.is_valid:
        raise ValueError(f"invalid instance:\n{report}")

    prep = preprocess_network(inst.network)
    params = dict(trace_res=trace_res, cov_tol=cov_tol, refine_tol=refine_tol)
    found = _search(inst, prep, cov_tol, params, jobs)
    best = found.best
    n = len(prep.segments)
    total = n * (n + 1) // 2

    # every schedule solves these: the problems that could tie or beat the winner
    required = [
        found.results[k] for k in sorted(found.bounds) if _may_win(found.bounds[k], k, best)
    ]
    logger.info(
        "solved %d of %d restricted problems, %d classified in %d edge pairs (jobs=%d)",
        len(required),
        total,
        len(found.bounds),
        found.edge_pairs,
        jobs,
    )
    rp = found.problems[best.rp_index]
    x1 = network_point(
        inst.network, rp.seg_p.edge, rp.seg_p.start + best.best[0]
    )
    x2 = network_point(
        inst.network, rp.seg_q.edge, rp.seg_q.start + best.best[1]
    )
    solution = Solution(x1, x2, best.objective, best.covered)
    stats = {
        "segments": n,
        "restricted_problems": total,
        "solved": len(required),
        "pruned": total - len(required),
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
    # per-pair work writes into these, so its cost does not hinge on how the
    # allocator recycles res x res temporaries
    f12 = np.empty((res, res))
    f21 = np.empty((res, res))
    for ei in range(len(net.edges)):
        ps = np.linspace(0.0, net.edges[ei].length, res)
        pxs, pys = _edge_positions(net, ei, ps)
        for ej in range(ei, len(net.edges)):
            qs = np.linspace(0.0, net.edges[ej].length, res)
            qxs, qys = _edge_positions(net, ej, qs)
            dgrid = edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
            network = inst.alpha * dgrid
            total = np.zeros_like(dgrid)
            for pair in inst.pairs:
                ax, ay = facilities[pair.origin]
                bx, by = facilities[pair.dest]
                a_p = np.hypot(ax - pxs, ay - pys)
                b_q = np.hypot(bx - qxs, by - qys)
                a_q = np.hypot(ax - qxs, ay - qys)
                b_p = np.hypot(bx - pxs, by - pys)
                np.add(np.add(a_p[:, None], network, out=f12), b_q[None, :], out=f12)
                np.add(np.add(a_q[None, :], network, out=f21), b_p[:, None], out=f21)
                total[np.minimum(f12, f21, out=f12) <= pair.acceptance + cov_tol] += pair.weight
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
