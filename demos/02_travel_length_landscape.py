"""The mixed travel length over one segment-pair rectangle.

For the trapezoid's antipodal segment pair, the length of the trip
A_i -> X1 -> X2 -> A_j is shown as a function of the two arc-length
parameters.  The network term is the minimum of two affine forms, so the
surface looks like a pagoda roof: convex bowls glued along a ridge.
Sublevel sets of the per-branch lengths are convex; their boundaries are the
level curves the solver intersects.
"""

import math
import pathlib

import numpy as np

from tripcover import parse_instance
from tripcover.fds_solver import restricted_problems
from tripcover.level_curves import curves_to_csv, trace_level_curve
from tripcover.mixed_distance import branch_field, path_length
from tripcover.preprocess import preprocess_network

S6 = 2 * math.sqrt(6)
instance = parse_instance(
    {
        "alpha": 0.3,
        "vertices": [
            {"id": 0, "x": 0.0, "y": S6},
            {"id": 1, "x": 5.0, "y": S6},
            {"id": 2, "x": -1.0, "y": 0.0},
            {"id": 3, "x": 6.0, "y": 0.0},
        ],
        "edges": [{"u": 0, "w": 1}, {"u": 2, "w": 3}, {"u": 2, "w": 0}, {"u": 3, "w": 1}],
        "facilities": [{"id": 0, "x": 2.5, "y": 6.0}, {"id": 1, "x": 1.0, "y": -4.0}],
        "pairs": [{"i": 0, "j": 1, "t": 1.0, "d": 10.0}],
    }
)

prep = preprocess_network(instance.network)
rp = next(
    p
    for p in restricted_problems(instance, prep)
    if p.seg_p.edge == 0 and p.seg_q.edge == 1 and abs(p.seg_q.start - 1.0) < 1e-9
)
pair = instance.pairs[0]

print("travel length h(x, y) on a coarse grid (rows: x, cols: y):")
ticks = np.linspace(0.0, 5.0, 6)
gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
h = path_length(instance, rp.domain, pair, gx, gy, "12")
print("      " + "  ".join(f"y={t:4.1f}" for t in ticks))
for r, x in enumerate(ticks):
    print(f"x={x:4.1f} " + "  ".join(f"{v:6.3f}" for v in h[r]))
print("note the ridge along x + y = 5 where the two routings tie")

print("\nlevel curves per branch: explicit arcs y(x), and where they meet the rectangle")
for level in (8.0, 9.0, 10.0, 11.0):
    parts = []
    for branch in ("a", "b"):
        field = branch_field(instance, rp.domain, pair, "12", branch)
        curve = trace_level_curve(field, level, 128)
        parts.append(f"branch {branch} -> {len(curve.arcs)} arcs, {len(curve.boundary)} boundary hits")
    print(f"  level {level:5.2f}: " + ", ".join(parts))

# export one family to CSV for external plotting
curves = []
for branch in ("a", "b"):
    field = branch_field(instance, rp.domain, pair, "12", branch)
    curves.append(trace_level_curve(field, 10.0, 256))
out = pathlib.Path(__file__).parent / "level_curves_demo.csv"
out.write_text(curves_to_csv(curves))
print(f"\nwrote the level-10 branch curves to {out.name}")

try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots()
    for curve, color in zip(curves, ("tab:blue", "tab:red")):
        for poly in curve.polylines:
            ax.plot(poly[:, 0], poly[:, 1], color=color)
    ax.set_xlabel("x on top segment")
    ax.set_ylabel("y on bottom segment")
    fig.savefig(pathlib.Path(__file__).parent / "level_curves_demo.png", dpi=120)
    print("wrote level_curves_demo.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
