"""Mixed planar/network travel lengths, coverage test and objective.

A trip from facility ``A_i`` to ``A_j`` through transfer points ``X1`` on
segment ``L_p`` and ``X2`` on segment ``L_q`` has length

    |A_i - X1| + alpha * d(X1, X2) + |X2 - A_j|

when it boards at ``X1`` (orientation ``"12"``), or the analogous expression
boarding at ``X2`` (orientation ``"21"``).  The pair is covered when the
better of the two orientations does not exceed its acceptance level.  All
evaluators below work in segment-local coordinates ``(x, y)`` and accept
scalars or numpy arrays.

For one branch routing of one pair and boarding order the length is
separable, ``u(x) + v(y) + alpha*c0`` (``SeparableField``): the planar legs
each depend on one coordinate, and the branch form is affine with ``cx, cy``
in {±1}.  Each axis term ``u(t) = |F - P(t)| + c*t`` (``Axis``) is convex,
with a closed-form minimiser and inverse.  On a same-segment (diagonal) pair
the network term ``alpha*|x - y|`` is ``alpha*(y - x)`` on the triangle
``x <= y``, where that field is defined: swapping ``x`` and ``y`` swaps the
boarding orders, so coverage is symmetric and the triangle suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network, ODPair, ProblemInstance
from .preprocess import TYPE1, LinearArcSegment, PairClass

ORIENT_12 = "12"
ORIENT_21 = "21"
ORIENTATIONS = (ORIENT_12, ORIENT_21)
BRANCH_A = "a"
BRANCH_B = "b"

#: default slack of the coverage test; candidate points sit exactly on
#: boundary curves where the trip length equals the acceptance level, and the
#: closed-set membership must survive floating point
DEFAULT_COVERAGE_TOL = 1e-9

_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class SegmentGeometry:
    """Planar embedding of one linear arc segment.

    ``origin`` is the planar point at local coordinate 0 and ``direction`` the
    planar displacement per unit of arc length (its norm is below one when the
    edge length exceeds the straight-line gap).
    """

    edge: int
    start: float
    length: float
    origin: tuple[float, float]
    direction: tuple[float, float]

    def position(self, x):
        return (
            self.origin[0] + self.direction[0] * np.asarray(x, dtype=float),
            self.origin[1] + self.direction[1] * np.asarray(x, dtype=float),
        )


def segment_geometry(net: Network, seg: LinearArcSegment) -> SegmentGeometry:
    e = net.edges[seg.edge]
    pu, pw = net.edge_endpoints(seg.edge)
    ux = (pw.x - pu.x) / e.length
    uy = (pw.y - pu.y) / e.length
    return SegmentGeometry(
        edge=seg.edge,
        start=seg.start,
        length=seg.length,
        origin=(pu.x + ux * seg.start, pu.y + uy * seg.start),
        direction=(ux, uy),
    )


@dataclass(frozen=True)
class PairDomain:
    """A classified segment pair together with its planar embedding."""

    pair_class: PairClass
    geom_p: SegmentGeometry
    geom_q: SegmentGeometry

    @property
    def rect(self) -> tuple[float, float]:
        return self.pair_class.rect


def pair_domain(
    net: Network,
    seg_p: LinearArcSegment,
    seg_q: LinearArcSegment,
    pc: PairClass,
) -> PairDomain:
    return PairDomain(pc, segment_geometry(net, seg_p), segment_geometry(net, seg_q))


def _check_domain(pc: PairClass, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (
        np.any(x < -_DOMAIN_SLACK)
        or np.any(x > pc.len_p + _DOMAIN_SLACK)
        or np.any(y < -_DOMAIN_SLACK)
        or np.any(y > pc.len_q + _DOMAIN_SLACK)
    ):
        raise ValueError(
            f"point outside parameter rectangle [0,{pc.len_p}]x[0,{pc.len_q}]"
        )
    return x, y


def network_distance(pc: PairClass, x, y):
    """Shortest network distance between the two segment points.

    The minimum of the branch forms for type 1, the single form's value for
    type 2.  Raises ``ValueError`` outside the parameter rectangle.
    """

    x, y = _check_domain(pc, x, y)
    if pc.diagonal:
        return np.abs(x - y)
    if pc.kind == TYPE1:
        return np.minimum(pc.forms[0](x, y), pc.forms[1](x, y))
    return pc.forms[0](x, y)


def _euclid(ax, ay, bx, by):
    return np.hypot(ax - bx, ay - by)


def path_length(
    inst: ProblemInstance,
    dom: PairDomain,
    pair: ODPair,
    x,
    y,
    orientation: str,
):
    """Length of the trip boarding at X1 (``"12"``) or at X2 (``"21"``).

    The network distance is symmetric, so the orientation only swaps which
    transfer point plays access and exit for the planar legs.
    """

    d = network_distance(dom.pair_class, x, y)
    px, py = dom.geom_p.position(np.asarray(x, dtype=float))
    qx, qy = dom.geom_q.position(np.asarray(y, dtype=float))
    a = inst.facility_position(pair.origin)
    b = inst.facility_position(pair.dest)
    if orientation == ORIENT_12:
        return _euclid(a.x, a.y, px, py) + inst.alpha * d + _euclid(qx, qy, b.x, b.y)
    if orientation == ORIENT_21:
        return _euclid(a.x, a.y, qx, qy) + inst.alpha * d + _euclid(px, py, b.x, b.y)
    raise ValueError(f"unknown orientation {orientation!r}")


def trip_length(inst: ProblemInstance, dom: PairDomain, pair: ODPair, x, y):
    """Best mixed trip length over both boarding orders (symmetric in roles)."""

    return np.minimum(
        path_length(inst, dom, pair, x, y, ORIENT_12),
        path_length(inst, dom, pair, x, y, ORIENT_21),
    )


def coverage_and_objective(
    inst: ProblemInstance,
    dom: PairDomain,
    x: float,
    y: float,
    tol: float = DEFAULT_COVERAGE_TOL,
) -> tuple[list[tuple[int, int]], float]:
    """Covered pair list and trip-weight sum at a single point.

    A pair counts as covered when its best trip length is at most the
    acceptance level plus ``tol``.
    """

    if tol < 0:
        raise ValueError("coverage tolerance must be nonnegative")
    covered: list[tuple[int, int]] = []
    total = 0.0
    for pair in inst.pairs:
        f = float(trip_length(inst, dom, pair, x, y))
        if f <= pair.acceptance + tol:
            covered.append((pair.origin, pair.dest))
            total += pair.weight
    return covered, total


def coverage_weights(
    inst: ProblemInstance,
    dom: PairDomain,
    xs: np.ndarray,
    ys: np.ndarray,
    tol: float = DEFAULT_COVERAGE_TOL,
) -> np.ndarray:
    """Vectorized objective over arrays of candidate points (same shape)."""

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    total = np.zeros(np.broadcast(xs, ys).shape)
    for pair in inst.pairs:
        f = trip_length(inst, dom, pair, xs, ys)
        total += pair.weight * (f <= pair.acceptance + tol)
    return total


# ---------------------------------------------------------------------------
# separable branch fields


def project(f, geom):
    """``(t0, h, s)`` with ``|f - P(t)| = hypot(s*(t - t0), h)`` on a segment's line.

    ``t0`` is the foot of the perpendicular from ``f`` in arc length, ``h``
    the distance from the line and ``s = |geom.direction|``.  Broadcasts.
    """

    ex, ey = f[0] - geom.origin[0], f[1] - geom.origin[1]
    dx, dy = geom.direction
    s2 = dx * dx + dy * dy
    s = np.sqrt(s2)
    t0 = (ex * dx + ey * dy) / np.where(s2 > 0.0, s2, 1.0)
    return t0, np.abs(ex * dy - ey * dx) / np.where(s2 > 0.0, s, 1.0), s


def axis_argmin(t0, h, s, c, length):
    """Minimiser over ``[0, length]`` of ``hypot(s*(t - t0), h) + c*t``.

    The projection shifted by ``-c*h / (s*sqrt(s^2 - c^2))`` when ``|c| < s``,
    else the endpoint the linear term favours; clamped.  Broadcasts.
    """

    interior = c * c < s * s
    lean = c * h / (np.where(s > 0.0, s, 1.0) * np.sqrt(np.where(interior, s * s - c * c, 1.0)))
    return np.clip(np.where(interior, t0 - lean, np.where(c > 0.0, 0.0, length)), 0.0, length)


@dataclass(frozen=True)
class Axis:
    """One axis term ``u(t) = hypot(s*(t - t0), h) + c*t`` on ``[0, length]``."""

    t0: float
    h: float
    s: float
    c: float
    length: float

    def __call__(self, t):
        return np.hypot(self.s * (t - self.t0), self.h) + self.c * t

    @cached_property
    def argmin(self) -> float:
        return float(axis_argmin(self.t0, self.h, self.s, self.c, self.length))

    @cached_property
    def minimum(self) -> float:
        return float(self(self.argmin))

    def inverse(self, value, side: int):
        """``t`` with ``u(t) = value`` on the falling (``side`` 0) or rising side.

        ``hypot(s*d, h) = w - c*d`` with ``d = t - t0``, ``w = value - c*t0``
        squares to ``(s^2 - c^2) d^2 + 2cw d + h^2 - w^2 = 0``, solved without
        cancellation.  When ``|c| < s`` both roots are genuine and the side
        picks one; otherwise ``u`` is monotone and the genuine root has ``w -
        c*d >= 0``.  Clamped to the side, so out-of-range values map to an end.
        """

        s, c, h = self.s, self.c, self.h
        w = np.asarray(value, dtype=float) - c * self.t0
        k = s * s - c * c
        q = -(c * w + np.copysign(np.sqrt(np.maximum(s * s * w * w - k * h * h, 0.0)), c * w))
        d = np.divide(h * h - w * w, q, out=np.full(q.shape, np.nan), where=q != 0.0)
        if k != 0.0:
            d = (np.fmin if (side == 0) != (k < 0.0) else np.fmax)(q / k, d)
        lo, hi = (0.0, self.argmin) if side == 0 else (self.argmin, self.length)
        return np.fmin(np.fmax(self.t0 + d, lo), hi)

    def sublevel(self, value) -> tuple[float, float] | None:
        """The interval ``{t : u(t) <= value}``, or None when it is empty."""

        if value < self.minimum:
            return None
        lo = 0.0 if value >= self(0.0) else float(self.inverse(value, 0))
        hi = self.length if value >= self(self.length) else float(self.inverse(value, 1))
        return lo, hi

    def solve(self, value) -> list[float]:
        """Every ``t`` with ``u(t) = value``: one per monotone side whose range holds it."""

        ends = (0.0, self.length)
        return [
            float(self.inverse(value, k)) for k in (0, 1) if self.minimum <= value <= self(ends[k])
        ]


@dataclass(frozen=True)
class SeparableField:
    """One (pair, orientation, branch) trip length ``u(x) + v(y) + k0``; on a
    diagonal problem (``triangle``) it is defined on ``x <= y`` only."""

    u: Axis
    v: Axis
    k0: float
    triangle: bool
    pair: tuple[int, int]
    orientation: str
    branch: str

    def __call__(self, x, y):
        return self.u(np.asarray(x, dtype=float)) + self.v(np.asarray(y, dtype=float)) + self.k0

    @property
    def rect(self) -> tuple[float, float]:
        return (self.u.length, self.v.length)

    @property
    def corners(self) -> list[tuple[float, float]]:
        w, h = self.rect
        return [(0.0, 0.0), (0.0, h), (w, h)] + ([] if self.triangle else [(w, 0.0)])

    @cached_property
    def diagonal_argmin(self) -> float:
        """Minimiser of ``u(t) + v(t)``, two distances from one line: where the
        line crosses the segment joining one facility to the other's mirror."""

        u, v = self.u, self.v
        if u.h + v.h == 0.0:
            return float(np.clip(0.5 * (u.t0 + v.t0), 0.0, u.length))
        return float(np.clip((u.t0 * v.h + v.t0 * u.h) / (u.h + v.h), 0.0, u.length))


def branch_field(
    inst: ProblemInstance, dom: PairDomain, pair: ODPair, orientation: str, branch: str
) -> SeparableField:
    """Field for one branch routing of one pair and boarding order."""

    pc = dom.pair_class
    if pc.diagonal:
        c0, cx, cy = 0.0, -1, 1  # alpha*(y - x) on the triangle x <= y
    else:
        form = pc.forms[1] if (pc.kind == TYPE1 and branch == BRANCH_B) else pc.forms[0]
        c0, cx, cy = form.c0, form.cx, form.cy
    a = inst.facility_position(pair.origin)
    b = inst.facility_position(pair.dest)
    fp, fq = (a, b) if orientation == ORIENT_12 else (b, a)

    def axis(f, geom, c) -> Axis:
        t0, h, s = project((f.x, f.y), geom)
        return Axis(float(t0), float(h), float(s), c, geom.length)

    return SeparableField(
        axis(fp, dom.geom_p, inst.alpha * cx),
        axis(fq, dom.geom_q, inst.alpha * cy),
        inst.alpha * c0,
        pc.diagonal,
        (pair.origin, pair.dest),
        orientation,
        branch,
    )
