"""Shared fixtures: reference instances, random suite, independent oracles.

The distance oracles here are deliberately separate from the library code:
``insertion_distance`` answers point-to-point queries by splicing the two
points into the graph as degree-2 vertices and running its own Dijkstra, and
``enumerated_vertex_distance`` minimizes over all simple vertex paths.  Both
exist so library results can be checked against something that shares no code
path with them.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from tripcover import parse_instance
from tripcover.fds_solver import (
    FdsSolution,
    RestrictedProblem,
    restricted_problems,
    solve_restricted,
)
from tripcover.mixed_distance import pair_domain
from tripcover.model import Network, ProblemInstance, Solution, network_point
from tripcover.preprocess import classify_segment_pair, preprocess_network

S6 = 2.0 * math.sqrt(6.0)

TRAPEZOID_VERTICES = [
    {"id": 0, "x": 0.0, "y": S6},
    {"id": 1, "x": 5.0, "y": S6},
    {"id": 2, "x": -1.0, "y": 0.0},
    {"id": 3, "x": 6.0, "y": 0.0},
]
TRAPEZOID_EDGES = [
    {"u": 0, "w": 1},  # top, length 5
    {"u": 2, "w": 3},  # bottom, length 7
    {"u": 2, "w": 0},  # left side, length 5
    {"u": 3, "w": 1},  # right side, length 5
]


def trapezoid_doc(alpha=0.3, pairs=None, extra_facilities=()):
    facilities = [
        {"id": 0, "x": 2.5, "y": 6.0},
        {"id": 1, "x": 1.0, "y": -4.0},
    ]
    facilities += list(extra_facilities)
    return {
        "alpha": alpha,
        "vertices": [dict(v) for v in TRAPEZOID_VERTICES],
        "edges": [dict(e) for e in TRAPEZOID_EDGES],
        "facilities": facilities,
        "pairs": pairs if pairs is not None else [{"i": 0, "j": 1, "t": 1.0, "d": 10.0}],
    }


def fig4_doc(d_kr=10.5, alpha=0.4):
    return trapezoid_doc(
        alpha=alpha,
        pairs=[
            {"i": 0, "j": 1, "t": 1.0, "d": 10.0},
            {"i": 2, "j": 3, "t": 1.0, "d": d_kr},
        ],
        extra_facilities=[
            {"id": 2, "x": -2.0, "y": -4.5},
            {"id": 3, "x": 3.0, "y": 5.5},
        ],
    )


@pytest.fixture(scope="session")
def trapezoid():
    return parse_instance(trapezoid_doc())


@pytest.fixture(scope="session")
def trapezoid_a04():
    return parse_instance(trapezoid_doc(alpha=0.4))


@pytest.fixture(scope="session")
def two_pair_a04():
    return parse_instance(fig4_doc())


def antipodal_problem(inst: ProblemInstance) -> RestrictedProblem:
    """Restricted problem on (top edge segment) x (bottom middle segment)."""

    prep = preprocess_network(inst.network)
    for rp in restricted_problems(inst, prep):
        if (
            rp.seg_p.edge == 0
            and rp.seg_q.edge == 1
            and abs(rp.seg_q.start - 1.0) < 1e-9
            and abs(rp.seg_q.end - 6.0) < 1e-9
        ):
            return rp
    raise AssertionError("antipodal segment pair not found")


def domain_for(inst, seg_p, seg_q, dist):
    pc = classify_segment_pair(seg_p, seg_q, dist, inst.network)
    return pair_domain(inst.network, seg_p, seg_q, pc)


# ---------------------------------------------------------------------------
# independent distance oracles


def enumerated_vertex_distance(net: Network, a: int, b: int) -> float:
    """Min length over all simple vertex paths; exponential, tiny graphs only."""

    adjacency: dict[int, list[tuple[int, float]]] = {v.id: [] for v in net.vertices}
    for e in net.edges:
        adjacency[e.u].append((e.w, e.length))
        adjacency[e.w].append((e.u, e.length))
    best = math.inf

    def walk(v, seen, total):
        nonlocal best
        if total >= best:
            return
        if v == b:
            best = total
            return
        for nxt, length in adjacency[v]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + length)

    walk(a, {a}, 0.0)
    return best


def insertion_distance(
    net: Network,
    a: tuple[int, float],
    b: tuple[int, float],
) -> float:
    """Point-to-point network distance via temporary degree-2 vertex insertion.

    ``a``/``b`` are (edge index, arc length) pairs.  Builds a fresh graph with
    the two points spliced into their edges and runs a self-contained
    Dijkstra.
    """

    inserts: dict[int, list[tuple[float, str]]] = {}
    # clamp to the edge: floating-point segment arithmetic may overshoot the
    # far endpoint by an ulp, which would corrupt the splice into a negative
    # weight
    arc_a = min(max(a[1], 0.0), net.edges[a[0]].length)
    arc_b = min(max(b[1], 0.0), net.edges[b[0]].length)
    inserts.setdefault(a[0], []).append((arc_a, "A"))
    inserts.setdefault(b[0], []).append((arc_b, "B"))

    adjacency: dict[object, list[tuple[object, float]]] = {}

    def link(p, q, weight):
        adjacency.setdefault(p, []).append((q, weight))
        adjacency.setdefault(q, []).append((p, weight))

    for k, e in enumerate(net.edges):
        chain: list[tuple[float, object]] = [(0.0, ("v", e.u))]
        for t, name in sorted(inserts.get(k, [])):
            chain.append((t, name))
        chain.append((e.length, ("v", e.w)))
        for (t0, p), (t1, q) in zip(chain[:-1], chain[1:]):
            link(p, q, t1 - t0)

    dist = {node: math.inf for node in adjacency}
    dist["A"] = 0.0
    counter = 0
    heap = [(0.0, counter, "A")]
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if v == "B":
            return d
        for nxt, weight in adjacency[v]:
            nd = d + weight
            if nd < dist[nxt]:
                dist[nxt] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, nxt))
    return dist["B"]


# ---------------------------------------------------------------------------
# seeded random suite

SUITE_SEEDS = tuple(range(101, 121))
SUITE_TRACE_RES = 128


def random_instance_doc(seed: int) -> dict:
    """Small random instance: connected embedded network, facilities near it."""

    rng = np.random.default_rng(seed)
    nv = int(rng.integers(3, 7))
    while True:
        pts = rng.uniform(-8.0, 8.0, (nv, 2))
        gaps = [
            np.hypot(*(pts[i] - pts[j])) for i in range(nv) for j in range(i + 1, nv)
        ]
        if min(gaps) >= 2.0:
            break

    edges: set[tuple[int, int]] = set()
    order = rng.permutation(nv)
    for k in range(1, nv):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges.add((min(a, b), max(a, b)))
    max_extra = min(8, nv * (nv - 1) // 2) - len(edges)
    for _ in range(int(rng.integers(0, max_extra + 1)) if max_extra > 0 else 0):
        for _ in range(30):
            a, b = (int(v) for v in rng.integers(0, nv, 2))
            key = (min(a, b), max(a, b))
            if a != b and key not in edges:
                edges.add(key)
                break

    edge_rows = []
    for a, b in sorted(edges):
        euclid = float(np.hypot(*(pts[a] - pts[b])))
        stretch = float(rng.uniform(1.0, 1.2)) if rng.random() < 0.4 else 1.0
        edge_rows.append({"u": a, "w": b, "length": euclid * stretch})

    # facilities hug the network so mixed routes stand a chance
    nf = int(rng.integers(2, 6))
    edge_list = sorted(edges)
    fac = []
    for _ in range(nf):
        a, b = edge_list[int(rng.integers(0, len(edge_list)))]
        t = rng.uniform(0.0, 1.0)
        base = pts[a] + t * (pts[b] - pts[a])
        fac.append(base + rng.normal(0.0, 1.2, 2))
    fac = np.array(fac)

    nf_pairs = min(20, nf * (nf - 1))
    n_pairs = int(rng.integers(max(1, nf_pairs // 2), nf_pairs + 1))
    all_od = [(i, j) for i in range(nf) for j in range(nf) if i != j]
    chosen = rng.choice(len(all_od), size=n_pairs, replace=False)
    pair_rows = []
    for k in chosen:
        i, j = all_od[int(k)]
        gap = float(np.hypot(*(fac[i] - fac[j])))
        pair_rows.append(
            {
                "i": i,
                "j": j,
                "t": float(rng.integers(1, 6)),
                "d": gap * float(rng.uniform(0.5, 0.95)),
            }
        )

    return {
        "alpha": float(rng.uniform(0.2, 0.5)),
        "vertices": [
            {"id": k, "x": float(pts[k, 0]), "y": float(pts[k, 1])} for k in range(nv)
        ],
        "edges": edge_rows,
        "facilities": [
            {"id": k, "x": float(fac[k, 0]), "y": float(fac[k, 1])} for k in range(nf)
        ],
        "pairs": pair_rows,
    }


@pytest.fixture(scope="session")
def random_suite() -> list[ProblemInstance]:
    return [parse_instance(random_instance_doc(seed)) for seed in SUITE_SEEDS]


# ---------------------------------------------------------------------------
# unpruned reference sweep


def full_sweep(
    inst: ProblemInstance, trace_res: int
) -> tuple[list[RestrictedProblem], list[FdsSolution]]:
    """Solve every restricted problem, with no bound and no pruning."""

    problems = restricted_problems(inst, preprocess_network(inst.network))
    return problems, [solve_restricted(inst, rp, trace_res=trace_res) for rp in problems]


def sweep_winner(solutions: list[FdsSolution]) -> FdsSolution:
    """The restricted solution a full sweep reduces to, by the solver's tie order."""

    return min(solutions, key=lambda s: (-s.objective, s.rp_index, s.best[0], s.best[1]))


def sweep_solution(
    inst: ProblemInstance,
    problems: list[RestrictedProblem],
    solutions: list[FdsSolution],
) -> Solution:
    """The global solution a full sweep reduces to."""

    best = sweep_winner(solutions)
    rp = problems[best.rp_index]
    x1 = network_point(inst.network, rp.seg_p.edge, rp.seg_p.start + best.best[0])
    x2 = network_point(inst.network, rp.seg_q.edge, rp.seg_q.start + best.best[1])
    return Solution(x1, x2, best.objective, best.covered)


@pytest.fixture(scope="session")
def random_suite_sweeps(random_suite) -> list[list[FdsSolution]]:
    """Every restricted problem of the random suite, solved at ``SUITE_TRACE_RES``."""

    return [full_sweep(inst, SUITE_TRACE_RES)[1] for inst in random_suite]


# ---------------------------------------------------------------------------
# instance transformations and the gridN workload


def transformed_doc(doc: dict, scale: float = 1.0, shift: float = 0.0) -> dict:
    """``doc`` with every coordinate mapped to ``scale * c + shift``.

    Explicit edge lengths and acceptance levels scale with the coordinates;
    a pure shift leaves them unchanged.
    """

    def point(row):
        return {**row, "x": scale * row["x"] + shift, "y": scale * row["y"] + shift}

    return {
        **doc,
        "vertices": [point(v) for v in doc["vertices"]],
        "edges": [
            {**e, "length": scale * e["length"]} if "length" in e else dict(e)
            for e in doc["edges"]
        ],
        "facilities": [point(f) for f in doc["facilities"]],
        "pairs": [{**p, "d": scale * p["d"]} for p in doc["pairs"]],
    }


def grid_instance_doc(n: int, n_facilities: int, n_pairs: int, seed: int = 0) -> dict:
    """The "gridN" instance: an n x n jittered grid network.

    Vertex (i, j) sits at (4i, 4j) plus a jitter drawn from U(-0.5, 0.5) per
    coordinate, x first, in id order i*n + j.  Edges join 4-neighbours at
    their Euclidean length.  Facilities are uniform on [-1, 4(n-1)+1]^2.  O/D
    pairs are drawn without replacement from the ordered facility pairs; each
    then draws its weight t in 1..5 and its acceptance d = gap * U(0.6, 0.95).
    alpha is 0.3.
    """

    rng = np.random.default_rng(seed)
    vertices = []
    for i in range(n):
        for j in range(n):
            jx = float(rng.uniform(-0.5, 0.5))
            jy = float(rng.uniform(-0.5, 0.5))
            vertices.append({"id": i * n + j, "x": 4.0 * i + jx, "y": 4.0 * j + jy})
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if j + 1 < n:
                edges.append({"u": v, "w": v + 1})
            if i + 1 < n:
                edges.append({"u": v, "w": v + n})

    fac = rng.uniform(-1.0, 4.0 * (n - 1) + 1.0, (n_facilities, 2))
    all_od = [(i, j) for i in range(n_facilities) for j in range(n_facilities) if i != j]
    chosen = rng.choice(len(all_od), size=n_pairs, replace=False)
    pairs = []
    for k in chosen:
        i, j = all_od[int(k)]
        t = float(rng.integers(1, 6))
        gap = math.hypot(*(fac[i] - fac[j]))
        pairs.append({"i": i, "j": j, "t": t, "d": gap * float(rng.uniform(0.6, 0.95))})

    return {
        "alpha": 0.3,
        "vertices": vertices,
        "edges": edges,
        "facilities": [
            {"id": k, "x": float(fac[k, 0]), "y": float(fac[k, 1])}
            for k in range(n_facilities)
        ],
        "pairs": pairs,
    }
