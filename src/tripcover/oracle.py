"""Independent brute-force grid oracle and direct point-pair evaluation.

A brute-force grid oracle over edge-pair rectangles provides an independent
lower bound used for verification; it evaluates network distances directly
from the vertex distance matrix and never touches the segment classification
machinery or the solver's coverage evaluator, also on one restricted problem.

Over the whole network the oracle samples each edge at ``res`` points and
evaluates every unordered edge pair on the ``res`` x ``res`` grid of sample
pairs, adding each O/D pair's weight where its trip length is within its
acceptance plus ``cov_tol``.  Most (edge pair, O/D pair) terms add nothing
anywhere on their grid, and most of the rest add nothing outside a small
block of it.  Floors computed from the same samples and the vertex distance
matrix find both (the Big Square Small Square rule of Hansen, Peeters,
Richard and Thisse, 1985, applied to the samples), and the result stays the
same bit for bit:

* ``nearest[f, e]`` is the least ``hypot`` distance from facility ``f`` to
  a sample of edge ``e``, computed exactly as the grid computes it;
* each route between the samples ``p`` of ``ei`` and ``q`` of ``ej`` is a
  vertex distance plus the terms ``p`` or ``L1 - p`` and ``q`` or
  ``L2 - q``, or the term ``|p - q|`` alone when ``ei == ej``, and no term is
  negative: ``np.linspace`` ends exactly at ``0`` and at the edge length and
  samples nothing beyond.  Dropping the ``q`` terms, every sample of
  ``alpha * d`` in the row of ``p`` is at least ``rfloor(p) = alpha *
  min(p + min(D[u1, u2], D[u1, w2]), (L1 - p) + min(D[w1, u2], D[w1, w2]))``,
  and dropping the ``p`` terms, every sample in the column of ``q`` is at
  least ``cfloor(q) = alpha * min(min(D[u1, u2], D[w1, u2]) + q,
  min(D[u1, w2], D[w1, w2]) + (L2 - q))``, with ``(u1, w1)`` and ``(u2, w2)``
  the endpoints of ``ei`` and ``ej``.  Both floors are ``0`` when
  ``ei == ej``.  Over the whole edge pair, ``alpha * d`` is at least
  ``nmin``, ``alpha`` times the least of the four vertex distances, which is
  at most every row floor;
* IEEE addition, ``min`` and multiplication by ``alpha > 0`` are monotone in
  each operand, so any trip length with one leg or ``alpha * d`` replaced by
  its floor, summed in the order the grid sums that boarding order, is at
  most the trip length itself.  For the order 1-2, ``(a_p + rfloor(p)) +
  nearest[d, ej]`` bounds the row of ``p`` and ``(nearest[o, ei] +
  cfloor(q)) + b_q`` the column of ``q``; for the order 2-1,
  ``(nearest[o, ej] + rfloor(p)) + b_p`` and ``(a_q + cfloor(q)) +
  nearest[d, ei]``.

First, ``(nearest[o, ei] + nmin) + nearest[d, ej]`` and its order 2-1 twin
drop, for all edge pairs at once, the terms that neither order can cover.
For each term left, the rows and the columns whose floor reaches the level in
a boarding order span that order's block, from the first such index to the
last: a sample outside it exceeds the level in that order.  A term with
neither block is dropped.  An edge pair computes ``alpha * d`` only on the
box that bounds its blocks, and evaluates each term only on its blocks.  Each
sample's total is the sum, in pair order, of the same weights as on the full
grid, and samples outside the box would be 0.

The edge pairs are searched best first by weight bound, and the search keeps
the result of a sweep in edge-pair order (the first best sample in edge-pair
order, row-major within a grid) with three facts:

* a sum in pair order of some of the weights (every weight is
  non-negative) is at most the sum in pair order of all of them, since IEEE
  addition is monotone and adding ``0`` changes nothing.  So no sample total
  exceeds its edge pair's coarse bound (the weights of the O/D pairs that
  pass the ``nmin`` test), and none exceeds its row's bound (the weights of
  the terms whose blocks touch that row);
* the sweep starts from value 0 at the start of edge 0, where a grid of
  zeros on edge pair 0 puts it, and keeps the first best value in edge-pair
  order.  So only a larger value, or an equal value at a smaller edge-pair
  index, replaces the incumbent; within one edge pair ``argmax``, over rows
  kept in grid order, picks the sample the sweep picks;
* an edge pair or a row whose bound neither exceeds the incumbent nor equals
  it at a smaller index holds no sample that could replace it, now or after
  the incumbent improves.  Edge pairs are popped in order of decreasing
  bound and increasing index, so the search stops at the first such pair.
  A skipped row cannot hold a value that wins, nor the first sample of a
  value that wins elsewhere in its box.

Each edge pair enters the heap with its coarse bound.  Its first pop computes
its blocks and pushes it back with its largest row bound; its second samples
the rows whose bound may still win.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .mixed_distance import DEFAULT_COVERAGE_TOL
from .model import NetworkPoint, ProblemInstance, network_point
from .preprocess import all_pairs_shortest_paths


@dataclass(frozen=True)
class OracleResult:
    x1: NetworkPoint
    x2: NetworkPoint
    objective: float


def _check_cov_tol(cov_tol: float) -> None:
    if not (math.isfinite(cov_tol) and cov_tol >= 0):
        raise ValueError(f"cov_tol must be finite and >= 0, got {cov_tol}")


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
    if p.ndim == 0 and q.ndim == 0:
        # ``out=`` takes no 0-d array, so a scalar query runs as one sample
        return edge_pair_distance(net, dist, ei, ej, p[None], q[None])[0]
    idx = net.vertex_index
    e1 = net.edges[ei]
    e2 = net.edges[ej]
    u1, w1 = idx[e1.u], idx[e1.w]
    u2, w2 = idx[e2.u], idx[e2.w]
    rest_p = e1.length - p
    rest_q = e2.length - q
    routes = (p + dist[u1, u2]) + q
    route = np.add(p + dist[u1, w2], rest_q)
    np.minimum(routes, route, out=routes)
    np.minimum(routes, np.add(rest_p + dist[w1, u2], q, out=route), out=routes)
    np.minimum(routes, np.add(rest_p + dist[w1, w2], rest_q, out=route), out=routes)
    if ei == ej:
        np.minimum(routes, np.abs(np.subtract(p, q, out=route), out=route), out=routes)
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

    _check_cov_tol(tol)
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


def _facility_coordinates(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([f.position.x for f in inst.facilities]),
        np.array([f.position.y for f in inst.facilities]),
    )


def _facility_distances(net, facilities, edge: int, ts: np.ndarray) -> np.ndarray:
    """``hyp[f, i]``, the ``np.hypot`` distance from facility ``f`` to the
    point at arc length ``ts[i]`` of ``edge``; ``facilities`` is
    ``_facility_coordinates``."""

    fx, fy = facilities
    xs, ys = _edge_positions(net, edge, ts)
    return np.hypot(fx[:, None] - xs, fy[:, None] - ys)


def _sample_edges(inst: ProblemInstance, res: int):
    """Each edge's ``res`` sample arc lengths and facility distances.

    Returns ``samples[e] = (ts, hyp)`` with ``hyp`` from
    ``_facility_distances``, and ``nearest[f, e]``, the least of ``hyp[f]``.
    """

    net = inst.network
    facilities = _facility_coordinates(inst)
    samples = []
    nearest = np.empty((len(inst.facilities), len(net.edges)))
    for e in range(len(net.edges)):
        ts = np.linspace(0.0, net.edges[e].length, res)
        hyp = _facility_distances(net, facilities, e, ts)
        samples.append((ts, hyp))
        nearest[:, e] = hyp.min(axis=1)
    return samples, nearest


def _network_floors(net, dist: np.ndarray, alpha: float, ei: int, ej: int, ps, qs):
    """Floors of each row and each column of ``alpha * edge_pair_distance``.

    ``rfloor[i]`` is at most every sample at ``ps[i]`` on the grid of
    ``ps`` x ``qs`` and ``cfloor[j]`` every sample at ``qs[j]`` (see the
    module docstring); both are ``0`` on a single edge, where the in-edge
    route ``|p - q|`` may be ``0``.
    """

    if ei == ej:
        return np.zeros_like(ps), np.zeros_like(qs)
    idx = net.vertex_index
    e1 = net.edges[ei]
    e2 = net.edges[ej]
    u1, w1 = idx[e1.u], idx[e1.w]
    u2, w2 = idx[e2.u], idx[e2.w]
    rfloor = alpha * np.minimum(
        ps + min(dist[u1, u2], dist[u1, w2]), (e1.length - ps) + min(dist[w1, u2], dist[w1, w2])
    )
    cfloor = alpha * np.minimum(
        min(dist[u1, u2], dist[w1, u2]) + qs, min(dist[u1, w2], dist[w1, w2]) + (e2.length - qs)
    )
    return rfloor, cfloor


def _blocks(rows: np.ndarray, cols: np.ndarray) -> list:
    """Per term, ``(r0, r1, c0, c1)`` spanning its ``True`` rows and columns.

    ``rows`` and ``cols`` hold one term each per row; a term with no ``True``
    row or no ``True`` column has no block (``None``).
    """

    has = (rows.any(axis=1) & cols.any(axis=1)).tolist()
    r0 = rows.argmax(axis=1).tolist()
    r1 = (rows.shape[1] - rows[:, ::-1].argmax(axis=1)).tolist()
    c0 = cols.argmax(axis=1).tolist()
    c1 = (cols.shape[1] - cols[:, ::-1].argmax(axis=1)).tolist()
    return [block if h else None for h, block in zip(has, zip(r0, r1, c0, c1))]


class _Grid:
    """The ``res`` x ``res`` sample grids of every edge pair of ``inst``.

    Edge pair ``n`` is ``(first[n], second[n])``, numbered in the order
    ``ei <= ej`` row by row.  ``bounds`` and ``terms`` give its weight bounds
    and blocks (see the module docstring); ``evaluate`` samples its box.
    """

    def __init__(self, inst: ProblemInstance, dist: np.ndarray, res: int, cov_tol: float):
        net = inst.network
        self.inst, self.dist = inst, dist
        self.samples, nearest = _sample_edges(inst, res)
        facility = inst.facility_index
        self.orig = np.array([facility[pair.origin] for pair in inst.pairs], dtype=int)
        self.dest = np.array([facility[pair.dest] for pair in inst.pairs], dtype=int)
        self.near_o = nearest[self.orig]
        self.near_d = nearest[self.dest]
        self.levels = np.array([pair.acceptance + cov_tol for pair in inst.pairs])
        self.weights = [pair.weight for pair in inst.pairs]
        self.first, self.second = np.triu_indices(len(net.edges))
        idx = net.vertex_index
        ends = np.array([[idx[e.u], idx[e.w]] for e in net.edges])
        # floor of alpha * d on each edge pair; 0 on one edge, where an
        # endpoint is at distance 0 from itself
        self.nmin = inst.alpha * dist[
            ends[self.first][:, :, None], ends[self.second][:, None, :]
        ].min(axis=(1, 2))

    def _may_cover(self, k, ei, ej, nmin):
        """The ``nmin`` test of pairs ``k`` on edge pairs ``(ei, ej)``: either
        boarding order with ``alpha * d`` at ``nmin`` and both legs at their
        least sampled value reaches the level."""

        near_o, near_d, level = self.near_o[k], self.near_d[k], self.levels[k]
        return ((near_o[..., ei] + nmin) + near_d[..., ej] <= level) | (
            (near_o[..., ej] + nmin) + near_d[..., ei] <= level
        )

    def bounds(self) -> np.ndarray:
        """Per edge pair, the weights of the pairs that pass the ``nmin``
        test, summed in pair order."""

        bound = np.zeros(len(self.first))
        for k, weight in enumerate(self.weights):
            bound += weight * self._may_cover(k, self.first, self.second, self.nmin)
        return bound

    def terms(self, n: int):
        """The box and the blocks of edge pair ``n``.

        Returns ``(box, terms)``, or ``None`` when no pair has a block.
        ``box`` is the ``(rows, cols)`` slices of the ``res`` x ``res`` grid
        that bound every block; ``terms`` lists ``(k, block12, block21)`` for
        each O/D pair ``k``, in pair order, that has a block in either
        boarding order.  A block is ``(rows, cols)`` slices of ``box``, or
        ``None``, and no sample outside it is covered in its boarding order
        (see the module docstring).
        """

        ei, ej = int(self.first[n]), int(self.second[n])
        ps, hp = self.samples[ei]
        qs, hq = self.samples[ej]
        rfloor, cfloor = _network_floors(self.inst.network, self.dist, self.inst.alpha, ei, ej, ps, qs)
        ks = np.flatnonzero(self._may_cover(slice(None), ei, ej, self.nmin[n]))
        o, d, level = self.orig[ks], self.dest[ks], self.levels[ks, None]
        near_o, near_d = self.near_o[ks], self.near_d[ks]
        # the rows and columns where each boarding order may reach its level,
        # summed in the order the grid sums its trip length
        blocks12 = _blocks(
            (hp[o] + rfloor) + near_d[:, ej, None] <= level,
            (near_o[:, ei, None] + cfloor) + hq[d] <= level,
        )
        blocks21 = _blocks(
            (near_o[:, ej, None] + rfloor) + hp[d] <= level,
            (hq[o] + cfloor) + near_d[:, ei, None] <= level,
        )
        terms = [t for t in zip(ks.tolist(), blocks12, blocks21) if t[1] or t[2]]
        if not terms:
            return None
        spans = [b for t in terms for b in t[1:] if b]
        r0 = min(b[0] for b in spans)
        c0 = min(b[2] for b in spans)

        def local(b):
            return b and (slice(b[0] - r0, b[1] - r0), slice(b[2] - c0, b[3] - c0))

        box = (slice(r0, max(b[1] for b in spans)), slice(c0, max(b[3] for b in spans)))
        return box, [(k, local(b12), local(b21)) for k, b12, b21 in terms]

    def row_bounds(self, box, terms) -> np.ndarray:
        """Per row of ``box``, the weights of the terms whose blocks touch
        it, summed in pair order."""

        bound = np.zeros(box[0].stop - box[0].start)
        for k, *blocks in terms:
            touched = np.zeros(bound.shape, dtype=bool)
            for block in blocks:
                if block:
                    touched[block[0]] = True
            bound += self.weights[k] * touched
        return bound

    def evaluate(self, n: int, box, terms, rows: np.ndarray):
        """Sample totals of edge pair ``n`` on the given ``rows`` of ``box``
        and every column of it, with the arc lengths of those samples: each
        term on its blocks, summed in pair order."""

        inst = self.inst
        ei, ej = int(self.first[n]), int(self.second[n])
        picked = box[0].start + rows
        ps, hp = self.samples[ei][0][picked], self.samples[ei][1][:, picked]
        qs, hq = self.samples[ej][0][box[1]], self.samples[ej][1][:, box[1]]
        network = inst.alpha * edge_pair_distance(inst.network, self.dist, ei, ej, ps[:, None], qs[None, :])
        total = np.zeros_like(network)
        for k, *blocks in terms:
            # each block's rows among ``rows``, which are sorted
            block12, block21 = (
                b and (slice(*np.searchsorted(rows, (b[0].start, b[0].stop)).tolist()), b[1])
                for b in blocks
            )
            if not any(b and b[0].start < b[0].stop for b in (block12, block21)):
                continue
            o, d, level = self.orig[k], self.dest[k], self.levels[k]
            covered = np.zeros(network.shape, dtype=bool)
            if block12:
                i, j = block12
                covered[i, j] = (hp[o, i, None] + network[i, j]) + hq[d, j] <= level
            if block21:
                i, j = block21
                covered[i, j] |= (hq[o, j] + network[i, j]) + hp[d, i, None] <= level
            total[covered] += self.weights[k]
        return total, ps, qs


def _segment_pair_grid(inst: ProblemInstance, rp, res: int, cov_tol: float, dist) -> OracleResult:
    """The whole grid over one restricted problem's segments, every term
    evaluated everywhere and summed in pair order, as ``oracle_grid`` sums it."""

    net = inst.network
    ep, eq = rp.seg_p.edge, rp.seg_q.edge
    ps = rp.seg_p.start + np.linspace(0.0, rp.seg_p.length, res)
    qs = rp.seg_q.start + np.linspace(0.0, rp.seg_q.length, res)
    facilities = _facility_coordinates(inst)
    hp = _facility_distances(net, facilities, ep, ps)
    hq = _facility_distances(net, facilities, eq, qs)
    network = inst.alpha * edge_pair_distance(net, dist, ep, eq, ps[:, None], qs[None, :])
    total = np.zeros_like(network)
    facility = inst.facility_index
    for pair in inst.pairs:
        o, d = facility[pair.origin], facility[pair.dest]
        f12 = (hp[o, :, None] + network) + hq[d]
        f21 = (hq[o] + network) + hp[d, :, None]
        total[np.minimum(f12, f21) <= pair.acceptance + cov_tol] += pair.weight
    gi, gj = np.unravel_index(int(np.argmax(total)), total.shape)
    x1, x2 = network_point(net, ep, ps[gi]), network_point(net, eq, qs[gj])
    return OracleResult(x1, x2, float(total[gi, gj]))


def oracle_grid(
    inst: ProblemInstance,
    res: int = 200,
    rp=None,
    cov_tol: float = DEFAULT_COVERAGE_TOL,
) -> OracleResult:
    """Brute-force grid lower bound on the optimal objective.

    Evaluates the coverage objective on a ``res`` x ``res`` grid (endpoints
    included, so ``res = 2`` samples the corners) over the rectangle of the
    restricted problem ``rp`` (a ``mixed_distance.RestrictedProblem``, of
    which only the segments ``seg_p`` and ``seg_q`` are read), or
    over every unordered edge-pair rectangle of the network, best first by
    weight bound, sampling only what may beat the best sample found so far
    and evaluating each term only on the samples where it may add its weight
    (see the module docstring).  Halving the spacing reuses every existing
    sample, so refining the grid never loses coverage.  By construction the result never exceeds
    the exact optimum.
    """

    if not isinstance(res, numbers.Integral) or res < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {res}")
    _check_cov_tol(cov_tol)

    net = inst.network
    dist = all_pairs_shortest_paths(net)
    if rp is not None:
        return _segment_pair_grid(inst, rp, res, cov_tol, dist)
    grid = _Grid(inst, dist, res, cov_tol)

    # where an all-zero grid on the first edge pair would put the answer, so
    # samples outside every block need no evaluation (see the module docstring)
    start = network_point(net, 0, grid.samples[0][0][0])
    best_value, best_n = 0.0, 0
    best_points = (start, start)

    def beats(value, n):
        # a larger value, or an equal one at a smaller edge-pair index
        return (value > best_value) | ((value == best_value) & (n < best_n))

    heap = [(-bound, n) for n, bound in enumerate(grid.bounds().tolist()) if bound > 0.0]
    heapq.heapify(heap)
    expanded = {}
    while heap and beats(-heap[0][0], heap[0][1]):
        _, n = heapq.heappop(heap)
        if n not in expanded:
            found = grid.terms(n)
            if found is not None:
                row_bounds = grid.row_bounds(*found)
                expanded[n] = (*found, row_bounds)
                heapq.heappush(heap, (-float(row_bounds.max()), n))
            continue
        box, terms, row_bounds = expanded.pop(n)
        rows = np.flatnonzero(beats(row_bounds, n))
        if not rows.size:
            continue
        total, ps, qs = grid.evaluate(n, box, terms, rows)
        value = float(total.max())
        if beats(value, n):
            gi, gj = np.unravel_index(int(np.argmax(total)), total.shape)
            best_value, best_n = value, n
            ei, ej = int(grid.first[n]), int(grid.second[n])
            best_points = (network_point(net, ei, ps[gi]), network_point(net, ej, qs[gj]))
    return OracleResult(best_points[0], best_points[1], best_value)
