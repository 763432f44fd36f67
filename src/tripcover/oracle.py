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
neither block is dropped.  Each edge pair computes ``alpha * d`` only on the
box that bounds its blocks, and evaluates each term only on its blocks; one
with no block left is not sampled at all.  Each sample's total is the sum,
in pair order, of the same weights as on the full grid, and samples outside
the box would be 0.  The search starts from value 0 at the start of edge 0,
where a grid of zeros on the first edge pair puts it, and only a larger
value replaces it.  So with non-negative weights the best value lies inside
a box, and ``argmax`` over the box, whose row-major order is the grid's,
picks the same sample as over the full grid.
"""

from __future__ import annotations

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


def _facility_distances(inst: ProblemInstance, edge: int, ts: np.ndarray) -> np.ndarray:
    """``hyp[f, i]``, the ``np.hypot`` distance from facility ``f`` to the
    point at arc length ``ts[i]`` of ``edge``."""

    fx = np.array([f.position.x for f in inst.facilities])
    fy = np.array([f.position.y for f in inst.facilities])
    xs, ys = _edge_positions(inst.network, edge, ts)
    return np.hypot(fx[:, None] - xs, fy[:, None] - ys)


def _sample_edges(inst: ProblemInstance, res: int):
    """Each edge's ``res`` sample arc lengths and facility distances.

    Returns ``samples[e] = (ts, hyp)`` with ``hyp`` from
    ``_facility_distances``, and ``nearest[f, e]``, the least of ``hyp[f]``.
    """

    net = inst.network
    samples = []
    nearest = np.empty((len(inst.facilities), len(net.edges)))
    for e in range(len(net.edges)):
        ts = np.linspace(0.0, net.edges[e].length, res)
        hyp = _facility_distances(inst, e, ts)
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


def _live_terms(inst: ProblemInstance, dist: np.ndarray, samples, nearest, cov_tol: float):
    """Each edge pair that may cover an O/D pair, with the blocks to evaluate.

    Yields ``(ei, ej, box, terms)`` in edge-pair order.  ``box`` is the
    ``(rows, cols)`` slices of the ``res`` x ``res`` grid that bound every
    block; ``terms`` lists ``(k, block12, block21)`` for each O/D pair ``k``,
    in pair order, that has a block in either boarding order.  A block is
    ``(rows, cols)`` slices of ``box``, or ``None``, and no sample outside it
    is covered in its boarding order (see the module docstring).
    """

    net = inst.network
    facility = inst.facility_index
    orig = np.array([facility[pair.origin] for pair in inst.pairs])
    dest = np.array([facility[pair.dest] for pair in inst.pairs])
    near_o = nearest[orig]
    near_d = nearest[dest]
    levels = np.array([pair.acceptance + cov_tol for pair in inst.pairs]).reshape(-1, 1)
    idx = net.vertex_index
    ends = np.array([[idx[e.u], idx[e.w]] for e in net.edges])

    for ei in range(len(net.edges)):
        ps, hp = samples[ei]
        # floor of alpha * d on each edge pair (ei, ej >= ei); 0 on ei itself,
        # where an endpoint is at distance 0 from itself
        nmin = inst.alpha * dist[ends[ei]][:, ends[ei:]].min(axis=(0, 2))
        # live[k, c]: pair k may be covered on the edge pair (ei, ei + c)
        live = ((near_o[:, ei, None] + nmin) + near_d[:, ei:] <= levels) | (
            (near_o[:, ei:] + nmin) + near_d[:, ei, None] <= levels
        )
        for c in np.flatnonzero(live.any(axis=0)):
            ej = ei + int(c)
            qs, hq = samples[ej]
            rfloor, cfloor = _network_floors(net, dist, inst.alpha, ei, ej, ps, qs)
            ks = np.flatnonzero(live[:, c])
            o, d, level = orig[ks], dest[ks], levels[ks]
            # the rows and columns where each boarding order may reach its
            # level, summed in the order the grid sums its trip length
            blocks12 = _blocks(
                (hp[o] + rfloor) + near_d[ks, ej, None] <= level,
                (near_o[ks, ei, None] + cfloor) + hq[d] <= level,
            )
            blocks21 = _blocks(
                (near_o[ks, ej, None] + rfloor) + hp[d] <= level,
                (hq[o] + cfloor) + near_d[ks, ei, None] <= level,
            )
            terms = [t for t in zip(ks.tolist(), blocks12, blocks21) if t[1] or t[2]]
            if not terms:
                continue
            spans = [b for t in terms for b in t[1:] if b]
            r0 = min(b[0] for b in spans)
            c0 = min(b[2] for b in spans)

            def local(b):
                return b and (slice(b[0] - r0, b[1] - r0), slice(b[2] - c0, b[3] - c0))

            box = (slice(r0, max(b[1] for b in spans)), slice(c0, max(b[3] for b in spans)))
            yield ei, ej, box, [(k, local(b12), local(b21)) for k, b12, b21 in terms]


def _segment_pair_grid(inst: ProblemInstance, rp, res: int, cov_tol: float, dist) -> OracleResult:
    """The whole grid over one restricted problem's segments, every term
    evaluated everywhere and summed in pair order, as ``oracle_grid`` sums it."""

    net = inst.network
    ep, eq = rp.seg_p.edge, rp.seg_q.edge
    ps = rp.seg_p.start + np.linspace(0.0, rp.seg_p.length, res)
    qs = rp.seg_q.start + np.linspace(0.0, rp.seg_q.length, res)
    hp, hq = _facility_distances(inst, ep, ps), _facility_distances(inst, eq, qs)
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
    dist: np.ndarray | None = None,
) -> OracleResult:
    """Brute-force grid lower bound on the optimal objective.

    Evaluates the coverage objective on a ``res`` x ``res`` grid (endpoints
    included, so ``res = 2`` samples the corners) over the rectangle of the
    restricted problem ``rp`` (only its ``seg_p`` and ``seg_q`` are read), or
    over every unordered edge-pair rectangle of the network, evaluating each
    term only on the samples where it may add its weight (see the module
    docstring).  Halving the spacing reuses every existing sample, so refining
    the grid never loses coverage.  By construction the result never exceeds
    the exact optimum.
    """

    if not isinstance(res, numbers.Integral) or res < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {res}")
    _check_cov_tol(cov_tol)

    net = inst.network
    if dist is None:
        dist = all_pairs_shortest_paths(net)
    if rp is not None:
        return _segment_pair_grid(inst, rp, res, cov_tol, dist)
    samples, nearest = _sample_edges(inst, res)
    facility = inst.facility_index

    # where an all-zero grid on the first edge pair would put the answer, so
    # samples outside every block need no evaluation (see the module docstring)
    start = network_point(net, 0, samples[0][0][0])
    best_value = 0.0
    best_points = (start, start)
    for ei, ej, (rows, cols), terms in _live_terms(inst, dist, samples, nearest, cov_tol):
        ps, hp = samples[ei][0][rows], samples[ei][1][:, rows]
        qs, hq = samples[ej][0][cols], samples[ej][1][:, cols]
        network = inst.alpha * edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
        total = np.zeros_like(network)
        for k, block12, block21 in terms:
            pair = inst.pairs[k]
            o, d = facility[pair.origin], facility[pair.dest]
            level = pair.acceptance + cov_tol
            covered = np.zeros(network.shape, dtype=bool)
            if block12:
                i, j = block12
                covered[i, j] = (hp[o, i, None] + network[i, j]) + hq[d, j] <= level
            if block21:
                i, j = block21
                covered[i, j] |= (hq[o, j] + network[i, j]) + hp[d, i, None] <= level
            total[covered] += pair.weight
        value = float(total.max())
        if value > best_value:
            gi, gj = np.unravel_index(int(np.argmax(total)), total.shape)
            best_value = value
            best_points = (network_point(net, ei, ps[gi]), network_point(net, ej, qs[gj]))
    return OracleResult(best_points[0], best_points[1], best_value)
