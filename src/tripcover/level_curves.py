"""Exact level curves of the separable trip-length fields.

Every branch field is ``g(x, y) = u(x) + v(y) + k0`` with convex axis terms
(``mixed_distance.SeparableField``), each with a closed-form minimiser and a
closed-form inverse on each of its monotone sides.  So the field minimum,
the level curve ``g = level`` as explicit arcs ``y = v⁻¹(level - k0 -
u(x))``, the points where it meets the domain boundary and the crossings of
two curves are all 1-D computations.  A diagonal problem's field lives on
the triangle ``x <= y``, whose third side ``x = y`` the curve meets where the
convex ``u(t) + v(t)`` reaches the level.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .mixed_distance import SeparableField

DEFAULT_TRACE_RES = 256
DEFAULT_REFINE_TOL = 1e-9
DEFAULT_DEDUPE_RADIUS = 1e-7
MIN_TRACE_RES = 16

#: two distinct convex boundary curves of this family cross at most this many
#: times; more surviving crossings flag a defect in the crossing search
CURVE_PAIR_CROSSING_BOUND = 12

# a bisection stops after this many halvings even above its tolerance: a
# bracket of adjacent floats cannot shrink, and 2**-100 of any bracket is tiny
_BISECT_STEPS = 100


def _bisect(f: Callable, lo, hi, tol: float):
    """Shrink the brackets ``[lo, hi]`` of sign changes of ``f`` (``f >= 0``
    counting as positive) until each is at most ``tol`` wide with ``|f| <=
    tol`` at its midpoint, or cannot shrink any more."""

    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    lo_above = f(lo) >= 0.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        at_mid = f(mid)
        if np.all(((hi - lo <= tol) & (np.abs(at_mid) <= tol)) | (mid == lo) | (mid == hi)):
            break
        move = (at_mid >= 0.0) == lo_above
        lo, hi = np.where(move, mid, lo), np.where(move, hi, mid)
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
    monotone side of ``v``."""

    field: SeparableField
    target: float
    side: int
    x0: float
    x1: float

    def __call__(self, x):
        return self.field.v.inverse(self.target - self.field.u(x), self.side)


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
        arcs += [Arc(field, target, side, a, b) for a, b in pieces if b > a]

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


def intersect_curves(
    curve1: LevelCurve,
    curve2: LevelCurve,
    refine_tol: float = DEFAULT_REFINE_TOL,
    *,
    dedupe_radius: float = DEFAULT_DEDUPE_RADIUS,
    bound: int = CURVE_PAIR_CROSSING_BOUND,
) -> IntersectionSet:
    """All crossing points of two curves over the same domain.

    For every two arcs whose x-ranges overlap, ``y1(x) - y2(x)`` is sampled at
    ``res + 1`` points of the overlap and each sign change bisected until the
    x-bracket and the gap at its midpoint are both within ``refine_tol``; the
    crossing is that midpoint, at the mean of the two ordinates.  A point is
    ``refined`` when the bisection got there.  Points within
    ``dedupe_radius`` are merged.
    """

    if curve1.field.rect != curve2.field.rect:
        raise ValueError("curves live on different parameter rectangles")
    found = []
    for arc1 in curve1.arcs:
        for arc2 in curve2.arcs:
            lo, hi = max(arc1.x0, arc2.x0), min(arc1.x1, arc2.x1)
            if hi <= lo:
                continue

            def gap(x):
                return arc1(x) - arc2(x)

            xs = np.linspace(lo, hi, max(curve1.res, curve2.res) + 1)
            above = gap(xs) >= 0.0
            k = np.flatnonzero(above[:-1] != above[1:])
            if k.size == 0:
                continue
            a, b = _bisect(gap, xs[k], xs[k + 1], refine_tol)
            x = 0.5 * (a + b)
            y1, y2 = arc1(x), arc2(x)
            y = 0.5 * (y1 + y2)
            residual = np.maximum(
                np.abs(curve1.field(x, y) - curve1.level), np.abs(curve2.field(x, y) - curve2.level)
            )
            refined = (b - a <= refine_tol) & (np.abs(y1 - y2) <= refine_tol)
            found += [
                IntersectionPoint(float(px), float(py), float(r), bool(ok))
                for px, py, r, ok in zip(x, y, residual, refined)
            ]
    points = _dedupe_points(found, dedupe_radius)
    return IntersectionSet(points, bound_exceeded=len(points) > bound)


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
