"""Independent brute-force grid oracle and direct point-pair evaluation.

A brute-force grid oracle over edge-pair rectangles provides an independent
lower bound used for verification; it evaluates network distances directly
from the vertex distance matrix and never touches the segment classification
machinery.

Over the whole network the oracle samples each edge at ``res`` points and
evaluates every unordered edge pair on the ``res`` x ``res`` grid of sample
pairs, adding each O/D pair's weight where its trip length is within its
acceptance plus ``cov_tol``.  Most (edge pair, O/D pair) terms add nothing
anywhere on their grid.  A floor computed from the same samples skips them
(the Big Square Small Square rule of Hansen, Peeters, Richard and Thisse,
1985, applied to the samples), and the result stays the same bit for bit:

* ``nearest[f, e]`` is the least ``hypot`` distance from facility ``f`` to
  a sample of edge ``e``, computed exactly as the grid computes it;
* every sample of ``alpha * d`` on the edge pair ``(ei, ej)`` is at least
  ``nmin``, ``alpha`` times the least vertex distance between an endpoint of
  ``ei`` and one of ``ej`` (``0`` when ``ei == ej``).  Each route is a vertex
  distance plus terms ``p``, ``L1 - p``, ``q`` and ``L2 - q``, or the term
  ``|p - q|`` alone, and no term is negative: ``np.linspace`` ends exactly
  at ``0`` and at the edge length and samples nothing beyond;
* IEEE addition and multiplication by ``alpha > 0`` are monotone in each
  operand, so ``(nearest[o, ei] + nmin) + nearest[d, ej]``, summed in the
  order the grid sums the boarding order 1-2, is at most that order's trip
  length at every sample, and likewise for the order 2-1.

A pair whose two floors both exceed its level is covered at no sample of the
edge pair, so adding its weight through an empty mask is skipped.  An edge
pair left with no pair is not sampled at all: its grid would be all zeros.
The search starts from value 0 at the start of edge 0, where a grid of zeros
on the first edge pair puts it, and only a larger value replaces it, so with
non-negative weights nothing skipped could change the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mixed_distance import DEFAULT_COVERAGE_TOL, coverage_weights
from .model import NetworkPoint, ProblemInstance, network_point
from .preprocess import all_pairs_shortest_paths

if TYPE_CHECKING:
    from .fds_solver import RestrictedProblem


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
    rectangle, or over every unordered edge-pair rectangle of the network,
    skipping the terms that certifiably add nothing (see the module
    docstring).  Halving the spacing reuses every existing sample, so
    refining the grid never loses coverage.  By construction the result never
    exceeds the exact optimum.
    """

    if res < 2:
        raise ValueError(f"grid resolution must be >= 2, got {res}")
    _check_cov_tol(cov_tol)

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
        dist = all_pairs_shortest_paths(net)

    fx = np.array([f.position.x for f in inst.facilities])
    fy = np.array([f.position.y for f in inst.facilities])
    samples = []
    nearest = np.empty((len(fx), len(net.edges)))
    for e in range(len(net.edges)):
        ts = np.linspace(0.0, net.edges[e].length, res)
        xs, ys = _edge_positions(net, e, ts)
        samples.append((ts, xs, ys))
        nearest[:, e] = np.hypot(fx[:, None] - xs, fy[:, None] - ys).min(axis=1)
    facility = inst.facility_index
    near_o = nearest[[facility[pair.origin] for pair in inst.pairs]]
    near_d = nearest[[facility[pair.dest] for pair in inst.pairs]]
    levels = np.array([pair.acceptance + cov_tol for pair in inst.pairs]).reshape(-1, 1)
    idx = net.vertex_index
    ends = np.array([[idx[e.u], idx[e.w]] for e in net.edges])

    # where an all-zero grid on the first edge pair would put the answer, so
    # edge pairs with no live pair need no grid (see the module docstring)
    start = network_point(net, 0, samples[0][0][0])
    best_value = 0.0
    best_points = (start, start)
    # per-pair work writes into these, so its cost does not hinge on how the
    # allocator recycles res x res temporaries
    f12 = np.empty((res, res))
    f21 = np.empty((res, res))
    for ei in range(len(net.edges)):
        ps, pxs, pys = samples[ei]
        # floor of alpha * d on each edge pair (ei, ej >= ei); 0 on ei itself,
        # where an endpoint is at distance 0 from itself
        nmin = inst.alpha * dist[ends[ei]][:, ends[ei:]].min(axis=(0, 2))
        # live[k, c]: pair k may be covered on the edge pair (ei, ei + c)
        live = ((near_o[:, ei, None] + nmin) + near_d[:, ei:] <= levels) | (
            (near_o[:, ei:] + nmin) + near_d[:, ei, None] <= levels
        )
        for c in np.flatnonzero(live.any(axis=0)):
            ej = ei + int(c)
            qs, qxs, qys = samples[ej]
            network = inst.alpha * edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
            total = np.zeros_like(network)
            for k in np.flatnonzero(live[:, c]):
                pair = inst.pairs[k]
                a = inst.facility_position(pair.origin)
                b = inst.facility_position(pair.dest)
                a_p = np.hypot(a.x - pxs, a.y - pys)
                b_q = np.hypot(b.x - qxs, b.y - qys)
                a_q = np.hypot(a.x - qxs, a.y - qys)
                b_p = np.hypot(b.x - pxs, b.y - pys)
                np.add(np.add(a_p[:, None], network, out=f12), b_q[None, :], out=f12)
                np.add(np.add(a_q[None, :], network, out=f21), b_p[:, None], out=f21)
                total[np.minimum(f12, f21, out=f12) <= pair.acceptance + cov_tol] += pair.weight
            value = float(total.max())
            if value > best_value:
                gi, gj = np.unravel_index(int(np.argmax(total)), total.shape)
                best_value = value
                best_points = (network_point(net, ei, ps[gi]), network_point(net, ej, qs[gj]))
    return OracleResult(best_points[0], best_points[1], best_value)
