"""Finite-dominating-set construction and the two-transfer-point solver.

Every pair of linear arc segments induces a restricted problem over its
parameter rectangle, one ``mixed_distance.RestrictedProblem`` record
(``restricted_problems`` enumerates and classifies them); a same-segment
(diagonal) problem is solved on the triangle ``x <= y`` only, as swapping the
coordinates swaps the boarding orders and leaves coverage unchanged.  A
finite candidate set that is guaranteed to contain an optimal point of the
restricted problem is assembled from

* crossings of every two branch boundary curves of each O/D pair and
  boarding order (or a representative point per nonempty curve when none
  cross); a problem's branches are its non-dominated route classes,
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
global solver finds it by a branch-and-bound over two kinds of box, the
rectangles of two whole edges and of two segments, each with the certified
objective bound of ``bounds.box_bounder``; the bounds need no classification.
One best-first search holds both levels: an edge pair's problems are bounded
only once its own bound can still beat or tie the incumbent, and a problem is
classified and solved only while its bound can.  Inside a problem the floors of
its classified forms (``bounds.field_floors``) skip every field that cannot
reach the level.  The answer is the one a full sweep returns.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bounds import box_bounder, exceeds, field_floors, rounding_scale
from .level_curves import (
    DEFAULT_DEDUPE_RADIUS,
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
    DEFAULT_COVERAGE_TOL,
    ORIENTATIONS,
    RestrictedProblem,
    branch_field,
    coverage_and_objective,
    coverage_weights,
    segment_geometry,
)
from .model import (
    ODPair,
    ProblemInstance,
    Solution,
    network_point,
    validate_instance,
)
from .preprocess import Preprocessed, classify_segment_pair, preprocess_network
# bench/run.py checks every answer with fds_solver.oracle_grid; the oracle lives
# in its own module and shares no code with the solver
from .oracle import oracle_grid  # noqa: F401

logger = logging.getLogger(__name__)

PROV_PAIR_CURVES = "pair-curves"
PROV_CROSS_CURVES = "cross-curves"
PROV_AUGMENT = "augment"
PROV_FALLBACK = "fallback"


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


def _integer_at_least(value, least: int) -> bool:
    return isinstance(value, numbers.Integral) and value >= least


def _check_parameters(trace_res: int, cov_tol: float, jobs: int = 1) -> None:
    """Raise ``ValueError`` naming the first solver parameter out of range."""

    for ok, name, need, value in (
        (
            _integer_at_least(trace_res, MIN_TRACE_RES),
            "trace_res",
            f"an integer >= {MIN_TRACE_RES}",
            trace_res,
        ),
        (math.isfinite(cov_tol) and cov_tol >= 0, "cov_tol", "finite and >= 0", cov_tol),
        (_integer_at_least(jobs, 1), "jobs", "an integer >= 1", jobs),
    ):
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value}")


def _edge_starts(prep: Preprocessed) -> list[int]:
    """Position in ``prep.segments`` of each edge's first segment, then the total."""

    return list(itertools.accumulate((len(s) for s in prep.segments_by_edge), initial=0))


def _rp_index(n: int, a: int, b: int) -> int:
    """Position of the segment pair ``a <= b`` in the enumeration of ``n`` segments."""

    return a * n - a * (a - 1) // 2 + b - a


def _members(prep: Preprocessed, e: int, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment indices ``a <= b`` of the problems with one segment on each of
    the edges ``e <= f``, in index order."""

    starts = _edge_starts(prep)
    a, b = np.meshgrid(
        np.arange(starts[e], starts[e + 1]), np.arange(starts[f], starts[f + 1]), indexing="ij"
    )
    keep = a <= b
    return a[keep], b[keep]


def restricted_problems(
    inst: ProblemInstance, prep: Preprocessed, pairs: Iterable[tuple[int, int]] | None = None
) -> list[RestrictedProblem]:
    """All unordered segment pairs, diagonal included, in index order.

    The objective is symmetric in the roles of the two transfer points, so
    unordered pairs cover the same optima as the full ordered enumeration at
    half the work.  With ``pairs`` only those segment pairs ``(a, b)``, ``0 <=
    a <= b < len(prep.segments)``, are classified, in the order given; their
    ``index`` is still the position in the full enumeration.  Raises
    ``ValueError``, before any work, on a pair out of that range.
    """

    net, segs = inst.network, prep.segments
    n = len(segs)
    if pairs is None:
        pairs = ((a, b) for a in range(n) for b in range(a, n))
    else:
        pairs = list(pairs)
        for a, b in pairs:
            if not (_integer_at_least(a, 0) and _integer_at_least(b, a) and b < n):
                raise ValueError(f"segment pair must have 0 <= a <= b < {n}, got {(a, b)}")
    problems = []
    for a, b in pairs:
        p, q = segs[a], segs[b]
        forms = classify_segment_pair(p, q, prep.dist, net)
        geoms = segment_geometry(net, p), segment_geometry(net, q)
        problems.append(RestrictedProblem(_rp_index(n, a, b), p, q, *geoms, forms))
    return problems


@dataclass
class _PairCurves:
    curves: dict[tuple[str, str], LevelCurve]
    boundary: list[tuple[float, float]]
    minimizers: list[tuple[float, float]]


def _trace_pair(
    inst: ProblemInstance,
    rp: RestrictedProblem,
    pair: ODPair,
    live: np.ndarray,
    trace_res: int,
) -> _PairCurves:
    """Trace the nonempty boundary curves of one pair on one restricted problem.

    Only the fields with ``live[o, k]`` are visited, in row-major order:
    ``live`` is false for the field of ``ORIENTATIONS[o]`` and branch ``k``
    when its floor (``field_floors``) exceeds the level plus the minimiser
    test's ``1e-12`` and the rounding allowance, as it can yield neither a
    minimiser candidate nor a curve.  A convex field attains its maximum over
    the domain at a corner, so a corner maximum below the level certifies an
    empty boundary.  Otherwise the closed-form minimiser is a candidate when
    its value is within ``1e-12`` of the level, and the curve exists when the
    minimum is below it.
    """

    level = pair.acceptance
    out = _PairCurves({}, [], [])
    for o, k in np.argwhere(live).tolist():
        orientation, branch = ORIENTATIONS[o], rp.branches[k]
        field = branch_field(inst, rp, pair, orientation, branch)
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
) -> dict[tuple[str, str, str], tuple[LevelCurve, LevelCurve]]:
    """Every two branch curves of one boarding order, keyed ``(orientation,
    branch, branch)``: the curve pairs ``pair_candidates`` intersects."""

    return {
        (o, b1, b2): (curves[(o, b1)], curves[(o, b2)])
        for o in ORIENTATIONS
        for b1, b2 in itertools.combinations(rp.branches, 2)
        if (o, b1) in curves and (o, b2) in curves
    }


def _pair_points(
    rp: RestrictedProblem,
    curves: Mapping[tuple[str, str], LevelCurve],
    hits: Mapping[tuple[str, str, str], IntersectionSet],
) -> tuple[list[tuple[float, float]], dict[str, int]]:
    """``pair_candidates`` given the crossings ``hits`` of ``_branch_pairs``."""

    points: list[tuple[float, float]] = []
    stats = {"intersections": 0, "max_curve_pair": 0, "bound_exceeded": 0}
    for orientation in ORIENTATIONS:
        crossings = [found for key, found in hits.items() if key[0] == orientation]
        for found in crossings:
            stats["intersections"] += len(found)
            stats["max_curve_pair"] = max(stats["max_curve_pair"], len(found))
            stats["bound_exceeded"] += bool(found.bound_exceeded)
            points.extend((p.x, p.y) for p in found.points)
        if any(found.points for found in crossings):
            continue
        for branch in rp.branches:
            curve = curves.get((orientation, branch))
            if curve is not None and not curve.empty:
                arc = curve.arcs[0]
                points.append((float(arc.x0), float(arc(arc.x0))))
    return points, stats


def pair_candidates(
    rp: RestrictedProblem, curves: Mapping[tuple[str, str], LevelCurve]
) -> tuple[list[tuple[float, float]], dict[str, int]]:
    """Candidate points contributed by one O/D pair's own curves.

    Per boarding order: the crossings of every two branch curves when any
    two cross, otherwise the start of each nonempty curve's first arc.  Type
    2 pairs have a single curve per orientation and contribute one arbitrary
    point from it.  An orientation with no curve contributes nothing.
    """

    pairs = _branch_pairs(rp, curves)
    hits = intersect_curve_pairs(list(pairs.values()))
    return _pair_points(rp, curves, dict(zip(pairs, hits)))


def _cross_points(
    hits: Sequence[IntersectionSet],
) -> tuple[list[IntersectionPoint], dict[str, int]]:
    """``cross_pair_candidates`` given the crossings of every curve combination."""

    stats = {
        "max_curve_pair": max((len(found) for found in hits), default=0),
        "bound_exceeded": sum(bool(found.bound_exceeded) for found in hits),
    }
    collected = [p for found in hits for p in found.points]
    return _dedupe_points(collected, DEFAULT_DEDUPE_RADIUS), stats


def cross_pair_candidates(
    pair_a: tuple[int, int],
    pair_b: tuple[int, int],
    curves_a: Mapping[tuple[str, str], LevelCurve],
    curves_b: Mapping[tuple[str, str], LevelCurve],
) -> tuple[list[IntersectionPoint], dict[str, int]]:
    """Crossings between the boundary curves of two distinct O/D pairs.

    Union over every curve combination of the two pairs (at most 16 for
    type 1, 4 for type 2), deduplicated across the union.
    """

    if pair_a == pair_b:
        raise ValueError(f"cross candidates need two different O/D pairs, got {pair_a} twice")
    combos = list(itertools.product(curves_a.values(), curves_b.values()))
    return _cross_points(intersect_curve_pairs(combos))


def _fallback_point(rect: tuple[float, float], taken: Sequence[Candidate]) -> tuple[float, float]:
    """Rectangle centre, nudged diagonally until distinct from all candidates."""

    w, h = rect
    delta = min(w, h) * 1e-3
    for k in range(10_000):
        x = w / 2 + k * delta
        y = h / 2 - k * delta
        if x > w or y < 0:
            x = max(w / 2 - k * delta, 0.0)
            y = min(h / 2 + k * delta, h)
        if all(math.hypot(x - c.x, y - c.y) > DEFAULT_DEDUPE_RADIUS for c in taken):
            return (x, y)
    return (w / 2, h / 2)


def solve_restricted(
    inst: ProblemInstance,
    rp: RestrictedProblem,
    *,
    trace_res: int = DEFAULT_TRACE_RES,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    floor_table: np.ndarray | None = None,
) -> FdsSolution:
    """Assemble the candidate set of one restricted problem and pick its best.

    Ties on the objective break lexicographically (smaller x, then smaller y);
    a zero objective returns the fallback point, since every point of the
    rectangle is then optimal.  ``floor_table`` is the search's floor table
    at the problem's two segments (``field_floors`` builds it if not given).
    Raises ``ValueError``, before any work, on what ``solve_global`` rejects.
    """

    _check_parameters(trace_res, cov_tol)
    counters = {
        "curves": 0,
        "intersections": 0,
        "max_curve_pair_intersections": 0,
        "bound_exceeded": 0,
    }
    levels = np.array([pair.acceptance for pair in inst.pairs]) + 1e-12
    floors = field_floors(inst, rp, floor_table)
    live = ~exceeds(floors, levels[:, None, None], rounding_scale(inst))
    bundles = [_trace_pair(inst, rp, pair, on, trace_res) for pair, on in zip(inst.pairs, live)]
    counters["curves"] = sum(len(bundle.curves) for bundle in bundles)

    # every curve pair of every O/D pair and of every two O/D pairs with
    # curves, crossed in one batch and split back in the same order
    own = [_branch_pairs(rp, bundle.curves) for bundle in bundles]
    curved = [bundle.curves for bundle in bundles if bundle.curves]
    crossed = [
        list(itertools.product(a.values(), b.values()))
        for a, b in itertools.combinations(curved, 2)
    ]
    batch = [cp for pairs in own for cp in pairs.values()]
    batch += [cp for combos in crossed for cp in combos]
    hits = iter(intersect_curve_pairs(batch))

    candidates: list[Candidate] = []
    for bundle, pairs in zip(bundles, own):
        points, stats = _pair_points(rp, bundle.curves, {key: next(hits) for key in pairs})
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
    for bundle in bundles:
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
    values = coverage_weights(inst, rp, xs, ys, cov_tol)
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
    covered, objective = coverage_and_objective(inst, rp, best_xy[0], best_xy[1], cov_tol)
    return FdsSolution(
        rp_index=rp.index,
        candidates=unique,
        best=best_xy,
        objective=objective,
        covered=tuple(covered),
        counters=counters,
    )


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


@dataclass
class _Search:
    """What the branch-and-bound bounded and solved."""

    best: FdsSolution | None
    problem: RestrictedProblem | None  # the winner's
    solved: list[FdsSolution]
    bounded: int  # problems bounded
    edge_pairs: int  # edge pairs expanded


def _best_first(inst: ProblemInstance, prep: Preprocessed, cov_tol: float, params: dict) -> _Search:
    """Best-first search over edge pairs and restricted problems in one heap.

    Both are keyed ``(-bound, index)``; an edge pair's index is that of its
    first member, and a member's bound is capped by its edge pair's, so no
    member is keyed ahead of its edge pair and the keys are unique.  The
    search pops the least key while it may still beat or tie the incumbent:
    an edge pair's members (``_members``) are bounded and pushed unclassified,
    and a problem is classified (``restricted_problems``) and solved.  Keys
    pop in increasing order and the incumbent only improves, so the problems
    solved are exactly those whose bound beats the answer, or ties it at an
    index up to the winner's.
    """

    n = len(prep.segments)
    starts = _edge_starts(prep)
    # columns of box_bounder: the whole edges, then the segments
    edges = len(inst.network.edges)
    box_bounds = box_bounder(inst, prep, cov_tol)
    first, second = np.triu_indices(edges)
    # (-bound, index, pair, is_problem): pair is an edge pair (e, f) or, for
    # a problem, its segment pair (a, b)
    heap = [
        (-bound, _rp_index(n, starts[e], starts[f]), (e, f), False)
        for e, f, bound in zip(first.tolist(), second.tolist(), box_bounds(first, second).tolist())
    ]
    heapq.heapify(heap)
    out = _Search(None, None, [], 0, 0)

    while heap and _may_win(-heap[0][0], heap[0][1], out.best):
        negated, _, pair, is_problem = heapq.heappop(heap)
        if is_problem:
            rp = restricted_problems(inst, prep, pairs=[pair])[0]
            table = box_bounds.table[:, [edges + pair[0], edges + pair[1]]]
            sol = solve_restricted(inst, rp, floor_table=table, **params)
            out.solved.append(sol)
            if out.best is None or _rank(sol) < _rank(out.best):
                out.best, out.problem = sol, rp
            continue
        a, b = _members(prep, *pair)
        out.edge_pairs += 1
        out.bounded += len(a)
        for i, j, bound in zip(a.tolist(), b.tolist(), box_bounds(a + edges, b + edges).tolist()):
            bound = min(bound, -negated)
            heapq.heappush(heap, (-bound, _rp_index(n, i, j), (i, j), True))
    return out


def solve_global(
    inst: ProblemInstance,
    *,
    trace_res: int = DEFAULT_TRACE_RES,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
    jobs: int = 1,
) -> tuple[Solution, dict]:
    """Solve the full problem by branch-and-bound over the restricted problems.

    The search has two levels.  Every edge pair gets the ``box_bounder``
    bound of its two whole edges first; an edge pair's restricted problems
    get the bound of their two segments (capped by the edge pair's) only when
    it comes first in descending bound order (ties by index) and can still
    beat or tie the incumbent under the reduction order: best objective, ties
    by problem index then lexicographic point.  Problems are classified and solved in
    the same order, under the same test; neither bound needs a
    classification.  The result is therefore the one a sweep over every
    problem returns.  Every problem is solved in this process; ``jobs`` is
    checked and has no other effect.

    Returns the solution plus a stats dict.  ``solved`` counts the solved
    problems, those whose bound beats the optimum or ties it at an index up
    to the winner's, and the per-problem counters (``omega_total``,
    ``curves``, ``intersections``, ``max_curve_pair_intersections``,
    ``bound_exceeded``) are summed over them.  ``pruned`` counts the rest,
    bounded or not.

    Raises ``ValueError``, before any work, unless ``trace_res`` is an
    integer ``>= 16``, ``cov_tol`` is finite and nonnegative and ``jobs`` is
    an integer ``>= 1``, or when the instance fails validation.
    """

    started = time.perf_counter()
    _check_parameters(trace_res, cov_tol, jobs)
    report = validate_instance(inst)
    if not report.is_valid:
        raise ValueError(f"invalid instance:\n{report}")

    prep = preprocess_network(inst.network)
    params = dict(trace_res=trace_res, cov_tol=cov_tol)
    found = _best_first(inst, prep, cov_tol, params)
    best, solved = found.best, found.solved
    n = len(prep.segments)
    total = n * (n + 1) // 2
    logger.info(
        "solved %d of %d restricted problems, %d bounded in %d edge pairs",
        len(solved),
        total,
        found.bounded,
        found.edge_pairs,
    )
    seg_p, seg_q = found.problem.seg_p, found.problem.seg_q
    x1 = network_point(inst.network, seg_p.edge, seg_p.start + best.best[0])
    x2 = network_point(inst.network, seg_q.edge, seg_q.start + best.best[1])
    solution = Solution(x1, x2, best.objective, best.covered)
    stats = {
        "segments": n,
        "restricted_problems": total,
        "solved": len(solved),
        "pruned": total - len(solved),
        "omega_total": int(sum(s.counters["omega"] for s in solved)),
        "curves": int(sum(s.counters["curves"] for s in solved)),
        "intersections": int(sum(s.counters["intersections"] for s in solved)),
        "max_curve_pair_intersections": int(
            max((s.counters["max_curve_pair_intersections"] for s in solved), default=0)
        ),
        "bound_exceeded": int(sum(s.counters["bound_exceeded"] for s in solved)),
        "runtime_ms": (time.perf_counter() - started) * 1000.0,
    }
    return solution, stats
