"""End-to-end solve with independent brute-force verification.

Solves the full two-transfer-point problem on a small network and checks the
answer two ways: a dense grid search over every edge-pair rectangle (a lower
bound that must never exceed the solver's objective), and a direct
re-evaluation of the reported point pair that bypasses the segment machinery
entirely.
"""

import math

from tripcover import parse_instance
from tripcover.fds_solver import evaluate_point_pair, oracle_grid, solve_global
from tripcover.preprocess import all_pairs_shortest_paths

S6 = 2 * math.sqrt(6)
instance = parse_instance(
    {
        "alpha": 0.4,
        "vertices": [
            {"id": 0, "x": 0.0, "y": S6},
            {"id": 1, "x": 5.0, "y": S6},
            {"id": 2, "x": -1.0, "y": 0.0},
            {"id": 3, "x": 6.0, "y": 0.0},
        ],
        "edges": [{"u": 0, "w": 1}, {"u": 2, "w": 3}, {"u": 2, "w": 0}, {"u": 3, "w": 1}],
        "facilities": [
            {"id": 0, "x": 2.5, "y": 6.0},
            {"id": 1, "x": 1.0, "y": -4.0},
            {"id": 2, "x": -2.0, "y": -4.5},
            {"id": 3, "x": 3.0, "y": 5.5},
        ],
        "pairs": [
            {"i": 0, "j": 1, "t": 3.0, "d": 10.0},
            {"i": 2, "j": 3, "t": 2.0, "d": 10.5},
            {"i": 3, "j": 2, "t": 2.0, "d": 10.5},
        ],
    }
)

solution, stats = solve_global(instance, trace_res=128)
print(f"objective: {solution.objective:g}")
print(
    f"X1: edge {solution.x1.edge} at arc {solution.x1.arc_length:.4f} "
    f"-> planar ({solution.x1.point.x:.4f}, {solution.x1.point.y:.4f})"
)
print(
    f"X2: edge {solution.x2.edge} at arc {solution.x2.arc_length:.4f} "
    f"-> planar ({solution.x2.point.x:.4f}, {solution.x2.point.y:.4f})"
)
print(f"covered pairs: {list(solution.covered)}")
print(
    f"decomposition: {stats['segments']} segments, "
    f"{stats['restricted_problems']} restricted problems, "
    f"{stats['runtime_ms']:.0f} ms"
)
print(
    f"branch-and-bound: {stats['solved']} problems solved, "
    f"{stats['pruned']} pruned by their weight bound, "
    f"{stats['omega_total']} candidates evaluated"
)

# grid search lower bound: must never beat the solver
for res in (50, 200, 400):
    oracle = oracle_grid(instance, res=res)
    marker = "==" if oracle.objective == solution.objective else "<="
    print(f"grid oracle at {res:3d} points/axis: {oracle.objective:g} {marker} solver")
    assert oracle.objective <= solution.objective

# independent re-evaluation of the reported point pair
dist = all_pairs_shortest_paths(instance.network)
rows, total = evaluate_point_pair(instance, dist, solution.x1, solution.x2)
print(f"direct re-evaluation at the reported points: {total:g}")
assert total == solution.objective
for row in rows:
    tag = "covered" if row["covered"] else "not covered"
    print(
        f"  pair ({row['i']},{row['j']}): best trip length {row['f']:.4f} ({tag})"
    )
