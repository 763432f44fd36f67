"""Mixed planar/network travel lengths, coverage test and objective.

A trip from facility ``A_i`` to ``A_j`` through transfer points ``X1`` on
segment ``L_p`` and ``X2`` on segment ``L_q`` has length

    |A_i - X1| + alpha * d(X1, X2) + |X2 - A_j|

when it boards at ``X1`` (orientation ``"12"``), or the analogous expression
boarding at ``X2`` (orientation ``"21"``).  The pair is covered when the
better of the two orientations does not exceed its acceptance level.  One
segment pair is one ``RestrictedProblem``: the two segments, their planar
embedding (``SegmentGeometry``) and the forms of the network distance between
them.  Every evaluator below takes that record, works in segment-local
coordinates ``(x, y)`` and accepts scalars or numpy arrays.  ``alpha * d``
does not depend on the pair, so every coverage test reads one evaluation per
point (``_legs``): that term, and the distances from every facility to X1 and
to X2, from which ``coverage_mask`` assembles each pair's two boarding orders.

The network distance on a segment pair is the least of its forms, the
non-dominated route classes (``preprocess.classify_segment_pair``), and each
form is one branch routing; one segment twice (``diagonal``) has no forms.
For one branch routing of one pair and boarding order the length is
separable, ``u(x) + v(y) + alpha*c0`` (``SeparableField``): the planar legs
each depend on one coordinate, and the branch form is affine with ``cx, cy``
in {±1}.  Each axis term ``u(t) = |F - P(t)| + c*t`` (``Axis``) is convex,
with a closed-form minimiser and inverse.  On a same-segment (diagonal)
pair the network term ``alpha*|x - y|`` is ``alpha*(y - x)`` on the triangle
``x <= y``, where that field is defined: swapping ``x`` and ``y`` swaps the
boarding orders, so coverage is symmetric and the triangle suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .model import Network, ODPair, ProblemInstance
from .preprocess import AffineForm, LinearArcSegment, classify_segment_pair

ORIENT_12 = "12"
ORIENT_21 = "21"
ORIENTATIONS = (ORIENT_12, ORIENT_21)

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
class RestrictedProblem:
    """One segment pair: its two segments, their planar embedding and the
    forms of the network distance between them (``classify_segment_pair``),
    none on one segment twice (``diagonal``).  ``index`` is the pair's place
    in ``fds_solver.restricted_problems``, -1 outside it."""

    index: int
    seg_p: LinearArcSegment
    seg_q: LinearArcSegment
    geom_p: SegmentGeometry
    geom_q: SegmentGeometry
    forms: tuple[AffineForm, ...]

    @property
    def diagonal(self) -> bool:
        return not self.forms

    @property
    def branches(self) -> str:
        """One branch name per form, ``"a"`` for a diagonal pair."""

        return "abcd"[: max(len(self.forms), 1)]

    @property
    def rect(self) -> tuple[float, float]:
        return (self.seg_p.length, self.seg_q.length)


def restricted_problem(
    net: Network, dist: np.ndarray, seg_p: LinearArcSegment, seg_q: LinearArcSegment
) -> RestrictedProblem:
    """The record of any two segments, in either order (``index`` -1)."""

    forms = classify_segment_pair(seg_p, seg_q, dist, net)
    geoms = segment_geometry(net, seg_p), segment_geometry(net, seg_q)
    return RestrictedProblem(-1, seg_p, seg_q, *geoms, forms)


def _check_domain(rp: RestrictedProblem, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w, h = rp.rect
    if (
        np.any(x < -_DOMAIN_SLACK)
        or np.any(x > w + _DOMAIN_SLACK)
        or np.any(y < -_DOMAIN_SLACK)
        or np.any(y > h + _DOMAIN_SLACK)
    ):
        raise ValueError(f"point outside parameter rectangle [0,{w}]x[0,{h}]")
    return x, y


def network_distance(rp: RestrictedProblem, x, y):
    """Shortest network distance between the two segment points.

    The least of the forms, ``|x - y|`` on a diagonal pair.  Raises
    ``ValueError`` outside the parameter rectangle.
    """

    x, y = _check_domain(rp, x, y)
    if rp.diagonal:
        return np.abs(x - y)
    return reduce(np.minimum, (form(x, y) for form in rp.forms))


def _legs(inst: ProblemInstance, rp: RestrictedProblem, x, y):
    """``(alpha * d, Lp, Lq)`` at the points ``(x, y)``: the network term, its
    domain checked once, and ``Lp[f]``, ``Lq[f]``, the ``np.hypot`` distances
    from facility ``f`` to X1 and to X2, facility axis first."""

    ad = inst.alpha * network_distance(rp, x, y)
    pos = np.array([(f.position.x, f.position.y) for f in inst.facilities])
    fx, fy = pos.reshape((-1, 2) + (1,) * np.ndim(ad)).swapaxes(0, 1)
    (px, py), (qx, qy) = rp.geom_p.position(x), rp.geom_q.position(y)
    return ad, np.hypot(fx - px, fy - py), np.hypot(fx - qx, fy - qy)


def path_length(
    inst: ProblemInstance, rp: RestrictedProblem, pair: ODPair, x, y, orientation: str
):
    """Length of the trip boarding at X1 (``"12"``) or at X2 (``"21"``).

    The network distance is symmetric, so the orientation only swaps which
    transfer point plays access and exit for the planar legs.
    """

    ad, lp, lq = _legs(inst, rp, x, y)
    o, t = inst.facility_index[pair.origin], inst.facility_index[pair.dest]
    if orientation == ORIENT_12:
        return (lp[o] + ad) + lq[t]
    if orientation == ORIENT_21:
        return (lq[o] + ad) + lp[t]
    raise ValueError(f"unknown orientation {orientation!r}")


def coverage_mask(
    inst: ProblemInstance, rp: RestrictedProblem, x, y, tol: float = DEFAULT_COVERAGE_TOL
):
    """Whether each pair is covered at each point, shape ``(pairs, *shape)``:
    its better boarding order, ``min((Lp[o] + alpha*d) + Lq[t], (Lq[o] +
    alpha*d) + Lp[t])``, is at most its acceptance level plus ``tol``."""

    if tol < 0:
        raise ValueError("coverage tolerance must be nonnegative")
    ad, lp, lq = _legs(inst, rp, x, y)
    row = inst.facility_index
    o = np.array([row[pair.origin] for pair in inst.pairs], dtype=np.intp)
    t = np.array([row[pair.dest] for pair in inst.pairs], dtype=np.intp)
    level = np.array([pair.acceptance + tol for pair in inst.pairs])
    trip = np.minimum((lp[o] + ad) + lq[t], (lq[o] + ad) + lp[t])
    return trip <= level.reshape((-1,) + (1,) * np.ndim(ad))


def coverage_and_objective(
    inst: ProblemInstance, rp: RestrictedProblem, x, y, tol: float = DEFAULT_COVERAGE_TOL
) -> tuple[list[tuple[int, int]], float]:
    """Covered pair list and weight sum, in pair order, at a single point."""

    hits = [pair for pair, hit in zip(inst.pairs, coverage_mask(inst, rp, x, y, tol)) if hit]
    return [(pair.origin, pair.dest) for pair in hits], sum((pair.weight for pair in hits), 0.0)


def coverage_weights(
    inst: ProblemInstance, rp: RestrictedProblem, xs, ys, tol: float = DEFAULT_COVERAGE_TOL
) -> np.ndarray:
    """Covered weight at each of many candidate points, summed in pair order."""

    mask = coverage_mask(inst, rp, xs, ys, tol)
    total = np.zeros(mask.shape[1:])
    for pair, covered in zip(inst.pairs, mask):
        total += pair.weight * covered
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


def _select(cond, a, b):
    """``np.where(cond, a, b)``, without numpy's call cost on a scalar ``cond``."""

    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


@dataclass(frozen=True)
class Axis:
    """One axis term ``u(t) = hypot(s*(t - t0), h) + c*t`` on ``[0, length]``.

    The fields may also be equal-shape arrays, one element per axis term, so
    that many terms evaluate and invert in one call, broadcasting against
    ``t`` and ``value``; ``argmin`` is then an array too.
    """

    t0: float
    h: float
    s: float
    c: float
    length: float

    def __call__(self, t):
        return np.hypot(self.s * (t - self.t0), self.h) + self.c * t

    @cached_property
    def argmin(self) -> float:
        at = axis_argmin(self.t0, self.h, self.s, self.c, self.length)
        return at if np.ndim(at) else float(at)

    @cached_property
    def minimum(self) -> float:
        return float(self(self.argmin))

    def inverse(self, value, side):
        """``t`` with ``u(t) = value`` on the falling (``side`` 0) or rising side.

        ``hypot(s*d, h) = w - c*d`` with ``d = t - t0``, ``w = value - c*t0``
        squares to ``(s^2 - c^2) d^2 + 2cw d + h^2 - w^2 = 0``, solved without
        cancellation.  When ``|c| < s`` both roots are genuine and the side
        picks one; otherwise ``u`` is monotone and the genuine root has ``w -
        c*d >= 0``.  Clamped to the side, so out-of-range values map to an end.
        ``side`` may be an array, one per axis term of an array ``Axis``.
        """

        s, c, h = self.s, self.c, self.h
        w = np.asarray(value, dtype=float) - c * self.t0
        k = s * s - c * c
        q = -(c * w + np.copysign(np.sqrt(np.maximum(s * s * w * w - k * h * h, 0.0)), c * w))
        d = np.divide(h * h - w * w, q, out=np.full(q.shape, np.nan), where=q != 0.0)
        # the other root, NaN when k = 0, which fmin and fmax then ignore
        other = np.divide(q, k, out=np.full(q.shape, np.nan), where=k != 0.0)
        falling = side == 0
        d = _select(falling != (k < 0.0), np.fmin(other, d), np.fmax(other, d))
        lo, hi = _select(falling, 0.0, self.argmin), _select(falling, self.argmin, self.length)
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
    inst: ProblemInstance, rp: RestrictedProblem, pair: ODPair, orientation: str, branch: str
) -> SeparableField:
    """Field for one branch routing (one of ``rp.branches``) of one pair and
    boarding order."""

    if rp.diagonal:
        c0, cx, cy = 0.0, -1, 1  # alpha*(y - x) on the triangle x <= y
    else:
        form = rp.forms[rp.branches.index(branch)]
        c0, cx, cy = form.c0, form.cx, form.cy
    a = inst.facility_position(pair.origin)
    b = inst.facility_position(pair.dest)
    fp, fq = (a, b) if orientation == ORIENT_12 else (b, a)

    def axis(f, geom, c) -> Axis:
        t0, h, s = project((f.x, f.y), geom)
        return Axis(float(t0), float(h), float(s), c, geom.length)

    return SeparableField(
        axis(fp, rp.geom_p, inst.alpha * cx),
        axis(fq, rp.geom_q, inst.alpha * cy),
        inst.alpha * c0,
        rp.diagonal,
        (pair.origin, pair.dest),
        orientation,
        branch,
    )
