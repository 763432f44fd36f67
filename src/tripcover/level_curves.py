"""Exact level curves of the separable trip-length fields.

Every branch field is ``g(x, y) = u(x) + v(y) + k0`` with convex axis terms
(``mixed_distance.SeparableField``), each with a closed-form minimiser and a
closed-form inverse on each of its monotone sides.  So the field minimum,
the level curve ``g = level`` as explicit arcs ``y = v⁻¹(level - k0 -
u(x))``, the points where it meets the domain boundary and the crossings of
two curves are all 1-D computations.  A diagonal problem's field lives on
the triangle ``x <= y``, whose third side ``x = y`` the curve meets where the
convex ``u(t) + v(t)`` reaches the level.

The crossings of many curve pairs are found together
(``intersect_curve_pairs``): the arcs of all pairs are stacked into one
``Arc`` of arrays, which evaluates through the same ``Axis`` arithmetic as a
single arc, their gaps are sampled together and every sign change is
bisected in one loop.  ``intersect_curves`` is its one-pair call.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .mixed_distance import Axis, SeparableField

DEFAULT_TRACE_RES = 256
# the crossing search's bisection tolerance and merge radius, in arc length
DEFAULT_REFINE_TOL = 1e-9
DEFAULT_DEDUPE_RADIUS = 1e-7
MIN_TRACE_RES = 16

#: two distinct convex boundary curves of this family cross at most this many
#: times; more surviving crossings flag a defect in the crossing search
CURVE_PAIR_CROSSING_BOUND = 12

# the crossing search samples the gaps of at most this many arc pairs times
# samples per array, so its memory does not grow with the batch
_SAMPLES_PER_ARRAY = 1 << 14

# a bisection stops after this many halvings even above its tolerance: a
# bracket of adjacent floats cannot shrink, and 2**-100 of any bracket is tiny
_BISECT_STEPS = 100


def _bisect(f: Callable, lo, hi, tol: float):
    """Shrink the brackets ``[lo, hi]`` of sign changes of ``f`` (``f >= 0``
    counting as positive, ``f`` evaluated elementwise, one bracket per
    element) until each is at most ``tol`` wide with ``|f| <= tol`` at its
    midpoint, or cannot shrink any more.  Each bracket stops on its own, so
    its ends do not depend on the other brackets bisected with it."""

    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    lo_above = f(lo) >= 0.0
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        at_mid = f(mid)
        live &= ~(((hi - lo <= tol) & (np.abs(at_mid) <= tol)) | (mid == lo) | (mid == hi))
        if not live.any():
            break
        move = (at_mid >= 0.0) == lo_above
        lo, hi = np.where(live & move, mid, lo), np.where(live & ~move, mid, hi)
    return lo, hi


def minimize(field: SeparableField) -> tuple[float, float]:
    """Closed-form minimiser of a field over its domain: ``(argmin u, argmin
    v)``, or on a triangle that excludes that point, the minimiser of the
    convex ``u(t) + v(t)`` on ``x = y``."""

    x, y = field.u.argmin, field.v.argmin
    if field.triangle and x > y:
        return field.diagonal_argmin, field.diagonal_argmin
    return x, y


@dataclass(frozen=True)
class Arc:
    """Level-curve piece ``y = v⁻¹(target - u(x))``, ``x0 <= x <= x1``, on one
    monotone side of ``v``.

    Many arcs stack into one (``_stacked``) whose every field is an array
    with one element per arc; called on an array whose last axis runs over
    the arcs, it evaluates each arc at its own abscissae.
    """

    u: Axis
    v: Axis
    target: float
    side: int
    x0: float
    x1: float

    def __call__(self, x):
        return self.v.inverse(self.target - self.u(x), self.side)


def _arc_rows(arcs: Sequence[Arc]) -> np.ndarray:
    """One row of parameters per arc, the columns ``_stacked`` reads."""

    return np.array(
        [
            (a.u.t0, a.u.h, a.u.s, a.u.c, a.u.length, a.v.t0, a.v.h, a.v.s, a.v.c, a.v.length)
            + (a.target, a.side, a.x0, a.x1)
            for a in arcs
        ],
        dtype=float,
    ).reshape(-1, 14)


def _stacked(rows: np.ndarray) -> Arc:
    """The arcs of parameter ``rows`` (``_arc_rows``) as one stacked ``Arc``."""

    col = rows.T
    return Arc(Axis(*col[0:5]), Axis(*col[5:10]), *col[10:14])


def sample_arc(arc: Arc, res: int) -> np.ndarray:
    """The arc at ``res + 1`` evenly spaced abscissae, as a ``(res + 1, 2)`` array."""

    xs = np.linspace(arc.x0, arc.x1, res + 1)
    return np.column_stack((xs, arc(xs)))


@dataclass
class LevelCurve:
    """The level set ``field = level`` in the field's domain: its ``arcs``, the
    points where it meets the domain ``boundary``, and ``polylines`` sampling
    every arc at ``res + 1`` abscissae for export."""

    field: SeparableField
    level: float
    res: int
    arcs: list[Arc]
    boundary: list[tuple[float, float]]

    @property
    def empty(self) -> bool:
        return not self.arcs

    @cached_property
    def polylines(self) -> list[np.ndarray]:
        return [sample_arc(arc, self.res) for arc in self.arcs]


def _diagonal_hits(field: SeparableField, target: float) -> list[float]:
    """Every ``t`` with ``u(t) + v(t) = target``, one per monotone side."""

    def excess(t):
        return field.u(t) + field.v(t) - target

    m, length = field.diagonal_argmin, field.u.length
    sides = [
        (lo, hi)
        for lo, hi, end in ((0.0, m, 0.0), (m, length, length))
        if excess(m) < 0.0 <= excess(end)
    ]
    if not sides:
        return []
    lo, hi = _bisect(excess, *zip(*sides), 0.0)
    return [float(t) for t in 0.5 * (lo + hi)]


def trace_level_curve(
    field: SeparableField, level: float, res: int = DEFAULT_TRACE_RES
) -> LevelCurve:
    """The level curve ``field = level`` as explicit arcs.

    On each monotone side of ``v`` that is not a single point, the curve lies
    over ``{x : v_min <= target - u(x) <= v(edge)}`` with ``edge`` the side's
    end of ``[0, h]``: the sublevel interval of ``u`` at ``target - v_min``
    minus the one at ``target - v(edge)``.  Boundary hits are roots of ``u``
    on the bottom and top edges and of ``v`` on the left and right ones.  On a
    triangle, arcs are cut where ``u(t) + v(t) = target`` and kept where ``y
    >= x``.  Raises ``ValueError`` for ``res`` below 16 or a negative or
    non-finite level.
    """

    if res < MIN_TRACE_RES:
        raise ValueError(f"trace resolution must be >= {MIN_TRACE_RES}, got {res}")
    if not (math.isfinite(level) and level >= 0):
        raise ValueError(f"level must be finite and nonnegative, got {level}")
    u, v = field.u, field.v
    w, h = field.rect
    target = level - field.k0

    outer = u.sublevel(target - v.minimum)
    arcs = []
    for side, edge in ((0, 0.0), (1, h)):
        if outer is None or v.argmin == edge:
            continue
        inner = u.sublevel(target - v(edge))
        pieces = [outer] if inner is None else [(outer[0], inner[0]), (inner[1], outer[1])]
        arcs += [Arc(u, v, target, side, a, b) for a, b in pieces if b > a]

    boundary = [(x, y) for y in (0.0, h) for x in u.solve(target - v(y))]
    boundary += [(x, y) for x in (0.0, w) for y in v.solve(target - u(x))]
    if field.triangle and arcs:
        cuts = _diagonal_hits(field, target)
        boundary = [(x, y) for x, y in boundary if x <= y] + [(t, t) for t in cuts]
        clipped = []
        for arc in arcs:
            ends = [arc.x0] + sorted(t for t in cuts if arc.x0 < t < arc.x1) + [arc.x1]
            for a, b in zip(ends, ends[1:]):
                if arc((a + b) / 2) >= (a + b) / 2:
                    clipped.append(replace(arc, x0=a, x1=b))
        arcs = clipped
    return LevelCurve(field, level, res, arcs, boundary if arcs else [])


@dataclass(frozen=True)
class IntersectionPoint:
    x: float
    y: float
    residual: float
    refined: bool


@dataclass
class IntersectionSet:
    """Deduplicated crossing points of two level curves.

    ``residual`` per point is the worse of the two level mismatches, and
    ``refined`` says whether its bisection reached the tolerance.
    ``bound_exceeded`` flags more crossings than two such curves can have.
    ``retraced`` is always False, as exact arcs leave no coarse trace to
    redo; it stays because the benchmark's tracer reads it.
    """

    points: list[IntersectionPoint]
    retraced: bool = False
    bound_exceeded: bool = False

    def __len__(self) -> int:
        return len(self.points)


def _dedupe_points(
    points: Iterable[IntersectionPoint], radius: float
) -> list[IntersectionPoint]:
    """Greedy clustering; each cluster keeps its best-residual representative.

    Iterated to a fixpoint so the survivors are pairwise farther apart than
    ``radius`` even when replacement representatives drift.
    """

    reps = sorted(points, key=lambda p: (p.x, p.y, p.residual))
    while True:
        merged: list[IntersectionPoint] = []
        for p in reps:
            hit = False
            for n, rep in enumerate(merged):
                if math.hypot(p.x - rep.x, p.y - rep.y) <= radius:
                    if (p.residual, p.x, p.y) < (rep.residual, rep.x, rep.y):
                        merged[n] = p
                    hit = True
                    break
            if not hit:
                merged.append(p)
        if len(merged) == len(reps):
            reps = merged
            break
        reps = merged
    reps.sort(key=lambda p: (p.x, p.y))
    return reps


def intersect_curve_pairs(pairs: Sequence[tuple[LevelCurve, LevelCurve]]) -> list[IntersectionSet]:
    """The crossing points of each pair of curves, all found together.

    For every two arcs of a pair whose x-ranges overlap, ``y1(x) - y2(x)``
    is sampled at ``res + 1`` points of the overlap, ``res`` the finer
    curve's, and each sign change is bisected until the x-bracket and the
    gap at its midpoint are both within ``DEFAULT_REFINE_TOL``; the crossing
    is that midpoint, at the mean of the two ordinates.  A point is
    ``refined`` when its bisection got there.  The overlapping arcs of all
    pairs are sampled together, a bounded number of samples per array, and
    every bracket is bisected in one loop, each stopping on its own, so a
    pair's crossings are the same numbers whatever else is in the batch.
    Points of one pair within ``DEFAULT_DEDUPE_RADIUS`` are merged, and more than
    ``CURVE_PAIR_CROSSING_BOUND`` left set ``bound_exceeded``.  Raises
    ``ValueError`` when the two curves of a pair live on different rectangles.
    """

    if any(c1.field.rect != c2.field.rect for c1, c2 in pairs):
        raise ValueError("curves live on different parameter rectangles")
    # every distinct curve's arcs once, then one row per pair of their arcs
    first: dict[int, int] = {}
    arcs: list[Arc] = []
    terms: list[tuple[float, float]] = []
    for curve in (c for pair in pairs for c in pair):
        if id(curve) not in first:
            first[id(curve)] = len(arcs)
            arcs += curve.arcs
            terms += [(curve.field.k0, curve.level)] * len(curve.arcs)
    rows = _arc_rows(arcs)
    field_terms = np.array(terms, dtype=float).reshape(-1, 2)
    combos = np.array(
        [
            (n, first[id(c1)] + a, first[id(c2)] + b, max(c1.res, c2.res))
            for n, (c1, c2) in enumerate(pairs)
            for a in range(len(c1.arcs))
            for b in range(len(c2.arcs))
        ],
        dtype=np.intp,
    ).reshape(-1, 4)
    owner, i1, i2, res = combos.T
    arcs1, arcs2 = _stacked(rows[i1]), _stacked(rows[i2])
    lo, hi = np.maximum(arcs1.x0, arcs2.x0), np.minimum(arcs1.x1, arcs2.x1)

    # sample the gaps, at most _SAMPLES_PER_ARRAY values at a time, and keep
    # every sign change as (arc pair, lo, hi)
    brackets = []
    for r in np.unique(res[hi > lo]):
        overlapping = np.flatnonzero((hi > lo) & (res == r))
        step = max(1, _SAMPLES_PER_ARRAY // (r + 1))
        for group in np.split(overlapping, range(step, overlapping.size, step)):
            xs = np.linspace(lo[group], hi[group], r + 1)
            above = _stacked(rows[i1[group]])(xs) - _stacked(rows[i2[group]])(xs) >= 0.0
            col, k = np.nonzero((above[:-1] != above[1:]).T)
            brackets.append((group[col], xs[k, col], xs[k + 1, col]))
    found: list[list[IntersectionPoint]] = [[] for _ in pairs]
    if brackets:
        combo, a, b = (np.concatenate(part) for part in zip(*brackets))
        order = np.argsort(combo, kind="stable")
        combo, a, b = combo[order], a[order], b[order]
        # the first arcs of the brackets' pairs, then the second ones
        ends = np.concatenate([i1[combo], i2[combo]])
        stacked = _stacked(rows[ends])

        def gap(x):
            y1, y2 = np.split(stacked(np.concatenate([x, x])), 2)
            return y1 - y2

        a, b = _bisect(gap, a, b, DEFAULT_REFINE_TOL)
        x = 0.5 * (a + b)
        x2 = np.concatenate([x, x])
        y1, y2 = np.split(stacked(x2), 2)
        y = 0.5 * (y1 + y2)
        k0, level = field_terms[ends].T
        off = np.abs(stacked.u(x2) + stacked.v(np.concatenate([y, y])) + k0 - level)
        residual = np.maximum(*np.split(off, 2))
        refined = (b - a <= DEFAULT_REFINE_TOL) & (np.abs(y1 - y2) <= DEFAULT_REFINE_TOL)
        for n, px, py, err, ok in zip(
            owner[combo].tolist(), x.tolist(), y.tolist(), residual.tolist(), refined.tolist()
        ):
            found[n].append(IntersectionPoint(px, py, err, ok))
    sets = []
    for points in found:
        points = _dedupe_points(points, DEFAULT_DEDUPE_RADIUS)
        sets.append(IntersectionSet(points, bound_exceeded=len(points) > CURVE_PAIR_CROSSING_BOUND))
    return sets


def intersect_curves(curve1: LevelCurve, curve2: LevelCurve) -> IntersectionSet:
    """All crossing points of two curves over the same domain: the one-pair
    call of ``intersect_curve_pairs``, which describes the search.  Raises
    ``ValueError`` when the curves live on different rectangles."""

    (hits,) = intersect_curve_pairs([(curve1, curve2)])
    return hits


def curves_to_csv(curves: Iterable[LevelCurve]) -> str:
    """CSV export of traced curves for external plotting.

    Columns: pair_i, pair_j, orientation, branch, polyline_id, vertex_index,
    x, y.  Empty curves contribute no rows.
    """

    out = io.StringIO()
    out.write("pair_i,pair_j,orientation,branch,polyline_id,vertex_index,x,y\n")
    for curve in curves:
        f = curve.field
        for poly_id, poly in enumerate(curve.polylines):
            for k, (x, y) in enumerate(poly):
                out.write(
                    f"{f.pair[0]},{f.pair[1]},{f.orientation},{f.branch},"
                    f"{poly_id},{k},{float(x)!r},{float(y)!r}\n"
                )
    return out.getvalue()
