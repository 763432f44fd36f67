"""Decomposing a small network into linear arc segments.

A trapezoid network with four vertices: the top and bottom rails run
parallel, joined by two slanted sides.  Walking along an edge, the shortest
route to a fixed vertex eventually flips from leaving through one endpoint to
leaving through the other; the flip points (bottleneck points) cut the edge
into pieces on which every vertex distance is affine.  Those pieces are the
atoms the solver works with.
"""

import math

from tripcover import parse_instance
from tripcover.mixed_distance import restricted_problem
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
        # lengths default to the planar gap: 5, 7, 5, 5
        "edges": [{"u": 0, "w": 1}, {"u": 2, "w": 3}, {"u": 2, "w": 0}, {"u": 3, "w": 1}],
        "facilities": [{"id": 0, "x": 2.5, "y": 6.0}, {"id": 1, "x": 1.0, "y": -4.0}],
        "pairs": [{"i": 0, "j": 1, "t": 1.0, "d": 10.0}],
    }
)

prep = preprocess_network(instance.network)


def kind(rp):
    """Type 1 (concave) with two or more forms, else type 2."""

    return "type1" if len(rp.forms) > 1 else "type2"


print("vertex-to-vertex shortest distances:")
for row in prep.dist:
    print("   ", "  ".join(f"{v:5.1f}" for v in row))

print("\nbottleneck points per edge:")
for edge, points in enumerate(prep.bottlenecks):
    if not points:
        print(f"  edge {edge}: none (the whole edge is one segment)")
    for b in points:
        pos = instance.network.point_on_edge(edge, b.arc_length)
        print(
            f"  edge {edge}: arc {b.arc_length:.3f} -> planar ({pos.x:.3f}, {pos.y:.3f}),"
            f" ties the routes towards vertices {list(b.vertices)}"
        )

print("\nlinear arc segments:")
for k, seg in enumerate(prep.segments):
    print(f"  segment {k}: edge {seg.edge}, arc [{seg.start:.3f}, {seg.end:.3f}]")

# The top rail and the middle piece of the bottom rail face each other across
# the trapezoid: two routes compete between them, so the network distance is
# the minimum of two affine forms (a concave, type 1 pair).
top = prep.segments_by_edge[0][0]
bottom_mid = prep.segments_by_edge[1][1]
rp = restricted_problem(instance.network, prep.dist, top, bottom_mid)
print(f"\n(top) x (bottom middle) classifies as {kind(rp)}:")
for form, name in zip(rp.forms, rp.branches):
    print(f"  branch {name}: d = {form.c0:g} {form.cx:+d}*x {form.cy:+d}*y")

# A pair on one edge is convex (|x - y|); most other combinations are plain
# affine (type 2), one dominating route.
rp_diag = restricted_problem(instance.network, prep.dist, bottom_mid, bottom_mid)
print(f"(bottom middle) with itself: {kind(rp_diag)}, distance |x - y|")
rp_lin = restricted_problem(instance.network, prep.dist, prep.segments_by_edge[1][0], top)
form = rp_lin.forms[0]
print(
    f"(bottom start) x (top): {kind(rp_lin)}, single form "
    f"d = {form.c0:g} {form.cx:+d}*x {form.cy:+d}*y"
)
