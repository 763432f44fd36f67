"""Building the finite candidate set for one restricted problem.

Two demand pairs share the trapezoid network.  Each pair's coverage region is
bounded by level curves of the per-branch travel lengths; an optimal transfer
placement can always be found among (a) crossings of one pair's two branch
curves, (b) crossings between different pairs' curves, (c) curve endpoints on
the rectangle boundary, corners and branch minimizers, or (d) an arbitrary
fallback when nothing is coverable.  Each curve is a set of explicit arcs
y(x), so a crossing is a bisected root of the gap between two arcs.  This demo
traces the curves, shows the crossing counts, and solves the restricted
problem.
"""

import math

from tripcover import parse_instance
from tripcover.fds_solver import (
    cross_pair_candidates,
    pair_candidates,
    restricted_problems,
    solve_restricted,
)
from tripcover.level_curves import trace_level_curve
from tripcover.mixed_distance import branch_field
from tripcover.preprocess import preprocess_network

S6 = 2 * math.sqrt(6)


def make_instance(d_second):
    return parse_instance(
        {
            "alpha": 0.4,
            "vertices": [
                {"id": 0, "x": 0.0, "y": S6},
                {"id": 1, "x": 5.0, "y": S6},
                {"id": 2, "x": -1.0, "y": 0.0},
                {"id": 3, "x": 6.0, "y": 0.0},
            ],
            "edges": [
                {"u": 0, "w": 1}, {"u": 2, "w": 3}, {"u": 2, "w": 0}, {"u": 3, "w": 1},
            ],
            "facilities": [
                {"id": 0, "x": 2.5, "y": 6.0},
                {"id": 1, "x": 1.0, "y": -4.0},
                {"id": 2, "x": -2.0, "y": -4.5},
                {"id": 3, "x": 3.0, "y": 5.5},
            ],
            "pairs": [
                {"i": 0, "j": 1, "t": 1.0, "d": 10.0},
                {"i": 2, "j": 3, "t": 1.0, "d": d_second},
            ],
        }
    )


def trace_curves(inst, rp):
    by_pair = {}
    for pair in inst.pairs:
        store = {}
        for orientation in ("12", "21"):
            for branch in ("a", "b"):
                field = branch_field(inst, rp.domain, pair, orientation, branch)
                curve = trace_level_curve(field, pair.acceptance, 256)
                if not curve.empty:
                    store[(orientation, branch)] = curve
        by_pair[(pair.origin, pair.dest)] = store
    return by_pair


for d_second in (10.5, 9.8):
    inst = make_instance(d_second)
    prep = preprocess_network(inst.network)
    rp = next(
        p
        for p in restricted_problems(inst, prep)
        if p.seg_p.edge == 0 and p.seg_q.edge == 1 and abs(p.seg_q.start - 1.0) < 1e-9
    )
    curves = trace_curves(inst, rp)
    print(f"\nacceptance level of the second pair: {d_second}")
    for key, store in curves.items():
        labels = [f"{o}({b})" for o, b in sorted(store)]
        print(f"  pair {key}: nonempty curves {labels or 'none'}")

    own, _ = pair_candidates(rp, curves[(0, 1)])
    print(f"  branch crossings of pair (0,1): {len(own)}")
    cross, _ = cross_pair_candidates((0, 1), (2, 3), curves[(0, 1)], curves[(2, 3)])
    print(f"  crossings between the two pairs' curves: {len(cross)}")
    for p in cross:
        print(f"    ({p.x:.4f}, {p.y:.4f}), level mismatch {p.residual:.1e}")

    sol = solve_restricted(inst, rp, trace_res=256)
    print(
        f"  restricted optimum: weight {sol.objective:g} at "
        f"({sol.best[0]:.4f}, {sol.best[1]:.4f}), covering {list(sol.covered)}"
    )
    print(f"  candidate set size: {sol.counters['omega']}")
