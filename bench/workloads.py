"""Seeded workload generators for the solve benchmark.

A workload is a fixed list of base instances plus a seeded *variant* of
them.  The base instances are those the project measures against:

* ``suite20``: the 20 random instances of the test suite (generator seeds
  101..120), solved in-process;
* ``suite20-j2``: the same instances at two worker processes;
* ``grid4``: the 4x4 jittered grid network with 10 facilities and 12 O/D
  pairs (generator seed 0), at two worker processes.

The benchmark ``--seed`` picks the variant, not new base instances.  Disjoint
20-instance suites differ up to sixfold in solve time (3.9 s to 23 s per pass
for generator seeds 101..240), so fresh instances per seed would bury any
regression bound in workload noise.  A variant instead reflects every
coordinate through the x and/or y axis, relabels vertex and facility ids and
shuffles the solve order.  Negation is exact in floating point and ids are
only labels, so every variant does the same arithmetic as the base instance:
the same work, the same objectives, with different input documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUITE_SEEDS = tuple(range(101, 121))
TRACE_RES = 128


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # workloads with the same base solve the same instances
    jobs: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite20",
            "suite",
            1,
            "20 small random networks in-process: curve tracing, the minimiser "
            "and curve intersection dominate; no process pool",
        ),
        Workload(
            "suite20-j2",
            "suite",
            2,
            "the same 20 instances at 2 workers: a pool per instance for at most "
            "78 problems, so pool start-up and task pickling weigh heavily",
        ),
        Workload(
            "grid4",
            "grid4",
            2,
            "4x4 grid, 10 facilities, 12 pairs at 2 workers: 5151 restricted "
            "problems, 87% with objective 0, coverage evaluation dominates",
        ),
    )
}


def random_instance_doc(seed: int) -> dict:
    """Small random instance: connected embedded network, facilities near it.

    Draws exactly what the test suite's generator of the same name draws, so
    ``random_instance_doc(s)`` is the suite's instance ``s``.
    """

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


def grid_instance_doc(n: int, n_facilities: int, n_pairs: int, seed: int = 0) -> dict:
    """The "gridN" instance: an n x n jittered grid network.

    Vertex (i, j) sits at (4i, 4j) plus jitter and has id i*n + j; vertices
    are drawn in id order, each its x jitter, then its y jitter, from
    U(-0.5, 0.5).  Edges join 4-neighbours and take
    their Euclidean length.  Facilities are uniform on [-1, 4(n-1)+1]^2.  O/D
    pairs are drawn without replacement from the ordered pairs (i, j), i != j;
    each then draws its weight t in 1..5 and its acceptance
    d = gap * U(0.6, 0.95).  alpha is 0.3.
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


def base_docs(base: str) -> list[dict]:
    if base == "suite":
        return [random_instance_doc(s) for s in SUITE_SEEDS]
    if base == "grid4":
        return [grid_instance_doc(4, 10, 12, seed=0)]
    raise KeyError(base)


def variant(docs: list[dict], seed: int) -> list[dict]:
    """Seeded exact re-presentation of ``docs``; seed 0 returns them unchanged.

    Each document is reflected by (sx, sy) in {+1, -1}^2 and gets permuted
    vertex and facility ids; the list order is shuffled.
    """

    if seed == 0:
        return docs
    rng = np.random.default_rng(seed)
    out = []
    for doc in docs:
        sx, sy = (float(s) for s in rng.choice([-1.0, 1.0], size=2))
        vid = {
            v["id"]: int(k)
            for v, k in zip(doc["vertices"], rng.permutation(len(doc["vertices"])))
        }
        fid = {
            f["id"]: int(k)
            for f, k in zip(doc["facilities"], rng.permutation(len(doc["facilities"])))
        }
        out.append(
            {
                "alpha": doc["alpha"],
                "vertices": [
                    {"id": vid[v["id"]], "x": sx * v["x"], "y": sy * v["y"]}
                    for v in doc["vertices"]
                ],
                "edges": [
                    {**e, "u": vid[e["u"]], "w": vid[e["w"]]} for e in doc["edges"]
                ],
                "facilities": [
                    {"id": fid[f["id"]], "x": sx * f["x"], "y": sy * f["y"]}
                    for f in doc["facilities"]
                ],
                "pairs": [
                    {**p, "i": fid[p["i"]], "j": fid[p["j"]]} for p in doc["pairs"]
                ],
            }
        )
    return [out[k] for k in rng.permutation(len(out))]


def workload_docs(workload: str, seed: int) -> list[dict]:
    return variant(base_docs(WORKLOADS[workload].base), seed)
