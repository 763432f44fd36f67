"""Mixed planar/network travel lengths, coverage test and objective.

A trip from facility ``A_i`` to ``A_j`` through transfer points ``X1`` on
segment ``L_p`` and ``X2`` on segment ``L_q`` has length

    |A_i - X1| + alpha * d(X1, X2) + |X2 - A_j|

when it boards at ``X1`` (orientation ``"12"``), or the analogous expression
boarding at ``X2`` (orientation ``"21"``).  The pair is covered when the
better of the two orientations does not exceed its acceptance level.  All
evaluators below work in segment-local coordinates ``(x, y)`` and accept
scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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
