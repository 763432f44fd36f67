"""Network preprocessing: shortest paths, bottleneck points, segment classes.

The solver decomposes each edge at its interior *bottleneck points*, the
points where the two routes towards some vertex tie.  Between consecutive
bottleneck points every vertex-to-point distance is affine in the arc length,
so the network distance restricted to a pair of such *linear arc segments*
is the minimum of affine forms, one per route through the edges' ends (and
the direct route on one edge).  This module computes the vertex distance
matrix, the per-edge bottleneck partition, the route constants of any boxes
(``route_constants``, which the floors of ``bounds`` read too) and, for any
two segments, the non-dominated route classes as explicit affine forms
(``classify_segment_pair``): two or more on a concave pair, one on a linear
pair, none on a segment with itself.  ``mixed_distance.RestrictedProblem``
holds them with the two segments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Network

#: interior points closer than this merge into one partition point
MERGE_TOL = 1e-9

#: relative rounding allowance of the dominance test between route classes
#: and of the floor tests of ``bounds``
_ROUTE_ROUNDING = 64.0 * float(np.finfo(float).eps)

#: the slope classes (out of the first edge, into the second), 0 for ``u``
_CLASSES = ((0, 0), (0, 1), (1, 0), (1, 1))


class DisconnectedNetworkError(ValueError):
    """Raised when a shortest-path query cannot reach some vertex."""


def _adjacency(net: Network) -> list[list[tuple[int, float]]]:
    n = len(net.vertices)
    idx = net.vertex_index
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e in net.edges:
        u, w = idx[e.u], idx[e.w]
        adj[u].append((w, e.length))
        adj[w].append((u, e.length))
    return adj


def _dijkstra(adj: Sequence[Sequence[tuple[int, float]]], src: int) -> np.ndarray:
    dist = np.full(len(adj), np.inf)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for nxt, length in adj[v]:
            nd = d + length
            if nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def all_pairs_shortest_paths(net: Network) -> np.ndarray:
    """Vertex-to-vertex shortest distance matrix, indexed like ``net.vertices``.

    One priority-queue single-source run per vertex.  Raises
    :class:`DisconnectedNetworkError` naming an unreachable pair when the
    network is not connected.
    """

    adj = _adjacency(net)
    n = len(net.vertices)
    dist = np.empty((n, n))
    for src in range(n):
        row = _dijkstra(adj, src)
        if not np.all(np.isfinite(row)):
            far = int(np.argmax(~np.isfinite(row)))
            raise DisconnectedNetworkError(
                f"no path between vertex {net.vertices[src].id} "
                f"and vertex {net.vertices[far].id}"
            )
        dist[src] = row
    # each run is exact; take the pairwise minimum so the matrix is
    # symmetric to the last bit
    return np.minimum(dist, dist.T)


@dataclass(frozen=True)
class BottleneckPoint:
    """Interior edge point where both routes to some vertex tie.

    ``vertices`` lists every vertex id defining (up to the merge tolerance of
    ``arc_bottleneck_points``) the same interior point; coincident candidates
    are merged so the segment partition stays a partition.
    """

    edge: int
    arc_length: float
    vertices: tuple[int, ...]


def bottleneck_candidate(net: Network, dist: np.ndarray, edge: int, vertex: int) -> float:
    """Arc length (from the edge's first vertex) of the point of the edge
    farthest from ``vertex``; interior only when both routes genuinely tie."""

    e = net.edges[edge]
    idx = net.vertex_index
    u, w, v = idx[e.u], idx[e.w], idx[vertex]
    return 0.5 * (dist[v, w] - dist[v, u] + e.length)


def arc_bottleneck_points(
    net: Network, edge: int, dist: np.ndarray
) -> list[BottleneckPoint]:
    """Sorted interior bottleneck points of one edge.

    One candidate per vertex; candidates landing on (or within ``tol`` of) an
    endpoint are dropped, and interior candidates closer than ``tol`` are
    merged keeping every defining vertex id.  ``tol`` is ``MERGE_TOL``, or
    ``_ROUTE_ROUNDING`` times the edge length where that is larger, so that
    rounding noise on a long edge makes no segment.
    """

    e = net.edges[edge]
    tol = max(MERGE_TOL, _ROUTE_ROUNDING * e.length)
    found: list[tuple[float, int]] = []
    for v in net.vertices:
        t = bottleneck_candidate(net, dist, edge, v.id)
        if tol < t < e.length - tol:
            found.append((t, v.id))
    found.sort()

    merged: list[BottleneckPoint] = []
    for t, vid in found:
        if merged and t - merged[-1].arc_length < tol:
            last = merged[-1]
            merged[-1] = BottleneckPoint(edge, last.arc_length, last.vertices + (vid,))
        else:
            merged.append(BottleneckPoint(edge, t, (vid,)))
    return merged


@dataclass(frozen=True)
class LinearArcSegment:
    """Maximal subedge on which every vertex distance is affine.

    ``start``/``end`` are arc lengths from the edge's first vertex; ``index``
    is the position within the edge's ordered partition.
    """

    edge: int
    start: float
    end: float
    index: int

    @property
    def length(self) -> float:
        return self.end - self.start


def linear_arc_segments(
    net: Network, edge: int, bottlenecks: Sequence[BottleneckPoint]
) -> list[LinearArcSegment]:
    """Partition of one edge into linear arc segments.

    Consecutive members of {0} U bottleneck arc lengths U {length} delimit the
    segments; an edge without interior bottleneck points is one segment.
    """

    cuts = [0.0] + [b.arc_length for b in bottlenecks] + [net.edges[edge].length]
    return [
        LinearArcSegment(edge, s, t, k)
        for k, (s, t) in enumerate(zip(cuts[:-1], cuts[1:]))
    ]


@dataclass(frozen=True)
class AffineForm:
    """Affine distance form c0 + cx*x + cy*y in segment-local coordinates."""

    c0: float
    cx: int
    cy: int

    def __call__(self, x, y):
        return self.c0 + self.cx * x + self.cy * y


def _same_interval(a: LinearArcSegment, b: LinearArcSegment) -> bool:
    return (
        a.edge == b.edge
        and abs(a.start - b.start) < MERGE_TOL
        and abs(a.end - b.end) < MERGE_TOL
    )


def _route_columns(net: Network, segments: Sequence[LinearArcSegment]) -> tuple[np.ndarray, ...]:
    """The per-segment arrays of ``route_constants``: edge, start, edge
    length, end vertex indices ``(u, w)`` and offsets ``(start, L - start)``."""

    idx = net.vertex_index
    edges = [net.edges[seg.edge] for seg in segments]
    start, length = np.array([seg.start for seg in segments]), np.array([e.length for e in edges])
    ends = np.array([(idx[e.u], idx[e.w]) for e in edges])
    edge = np.array([seg.edge for seg in segments])
    return edge, start, length, ends, np.stack([start, length - start], axis=1)


def route_constants(dist: np.ndarray, columns: tuple[np.ndarray, ...], p, q) -> np.ndarray:
    """Least route constant of every box, per slope class.

    Box ``k`` is segment ``p[k]`` × segment ``q[k]`` of ``columns``, the
    ``_route_columns`` of a segment list.  A route leaves the first
    segment's edge through end ``u`` (its length from ``x`` has slope +1 in
    ``x``) or ``w`` (slope -1) and enters the second's the same way, so it
    is affine in the local coordinates.  Through end ``i`` of the first
    edge its constant is ``off_p[i] + (D[i, u_q] + start_q)`` into ``u`` and
    ``off_p[i] + ((D[i, w_q] + L_q) - start_q)`` into ``w``, with ``off_p =
    (start_p, L_p - start_p)``.  On two intervals of one edge the direct
    route joins the class of its slopes: ``y - x``, constant ``start_q -
    start_p``, in class ``(w, u)`` when the first starts first, ``x - y`` in
    class ``(u, w)`` otherwise.  Entry ``[k, i, j]`` holds class ``(i, j)``, 0
    for ``u`` and 1 for ``w``.
    """

    edge, start, length, ends, offsets = columns
    via = dist[ends[p][:, :, None], ends[q][:, None, :]]
    off_p = offsets[p]
    start_q, length_q = start[q][:, None], length[q][:, None]
    const = np.empty_like(via)
    const[:, :, 0] = off_p + (via[:, :, 0] + start_q)
    const[:, :, 1] = off_p + ((via[:, :, 1] + length_q) - start_q)
    one = (edge[p] == edge[q]) & (p != q)
    first = one & (start[p] <= start[q])
    later = one & ~first
    const[first, 1, 0] = np.minimum(const[first, 1, 0], start[q[first]] - start[p[first]])
    const[later, 0, 1] = np.minimum(const[later, 0, 1], start[p[later]] - start[q[later]])
    return const


def classify_segment_pair(
    seg_p: LinearArcSegment,
    seg_q: LinearArcSegment,
    dist: np.ndarray,
    net: Network,
) -> tuple[AffineForm, ...]:
    """The non-dominated route classes of a segment pair, as affine forms.

    The network distance is their minimum, concave for more than one form
    (type 1) and affine for one (type 2).  A pair of one segment twice has
    no forms and the convex distance ``|x - y|``.  The classes are those of
    ``route_constants``.  The difference of two classes is affine, so a
    class lies on or above another over the whole rectangle when it does at
    the four corners; such a class is dropped, within ``_ROUTE_ROUNDING``
    times the largest corner value, and of two equal classes the earlier
    stays.  The forms leave through the first edge's ``u`` first and, on one
    edge, the direct route comes first.  The least of the forms is the exact
    network distance on any rectangle.
    """

    if _same_interval(seg_p, seg_q):
        return ()

    columns = _route_columns(net, (seg_p, seg_q))
    const = route_constants(dist, columns, np.array([0]), np.array([1]))[0].tolist()
    order = list(_CLASSES)
    if seg_p.edge == seg_q.edge:
        direct = (1, 0) if seg_p.start <= seg_q.start else (0, 1)
        order.remove(direct)
        order.insert(0, direct)
    forms = [AffineForm(const[i][j], 1 - 2 * i, 1 - 2 * j) for i, j in order]
    corners = [(x, y) for x in (0.0, seg_p.length) for y in (0.0, seg_q.length)]
    values = [[form(x, y) for x, y in corners] for form in forms]
    slack = _ROUTE_ROUNDING * max(abs(v) for row in values for v in row)
    # above[k][m]: class k lies on or above class m at every corner
    above = [
        [k != m and all(a >= b - slack for a, b in zip(vk, vm)) for m, vm in enumerate(values)]
        for k, vk in enumerate(values)
    ]
    return tuple(
        form
        for k, form in enumerate(forms)
        if not any(above[k][m] and (m < k or not above[m][k]) for m in range(len(forms)))
    )


@dataclass(frozen=True)
class Preprocessed:
    """Distance matrix plus the per-edge bottleneck/segment decomposition."""

    dist: np.ndarray
    bottlenecks: tuple[tuple[BottleneckPoint, ...], ...]
    segments_by_edge: tuple[tuple[LinearArcSegment, ...], ...]

    @property
    def segments(self) -> tuple[LinearArcSegment, ...]:
        return tuple(s for per_edge in self.segments_by_edge for s in per_edge)


def preprocess_network(net: Network) -> Preprocessed:
    dist = all_pairs_shortest_paths(net)
    bottlenecks = []
    segments = []
    for edge in range(len(net.edges)):
        bp = arc_bottleneck_points(net, edge, dist)
        bottlenecks.append(tuple(bp))
        segments.append(tuple(linear_arc_segments(net, edge, bp)))
    return Preprocessed(dist, tuple(bottlenecks), tuple(segments))
