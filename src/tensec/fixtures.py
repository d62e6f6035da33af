"""Bundled test configurations.

DESARGUES is the triangular-prism graph on p1..p6 (triangles {p1,p4,p5} and
{p2,p3,p6} joined by the rungs p1p2, p3p4, p5p6).  The positive placement
makes the three rung lines concurrent at the origin; the negative one moves
p6 off that pencil.

PASCAL is the hexagon p1..p6 with the three long diagonals.  The positive
placement puts the six points on the conic y = x^2; the negative one moves
p6 off the conic.

WHEEL5 is the 4-wheel: hub p1 of degree 4, rim p2..p5.  It carries a
self-stress for every generic placement, and its hub contributes one free
line slot, so placements are drawn at random where needed.
"""

from .framework import Framework, Graph
from .projective import ProjPoint


def _fw(graph, coords):
    return Framework(graph, {v: ProjPoint(c) for v, c in coords.items()})


DESARGUES_GRAPH = Graph(
    ["p1", "p2", "p3", "p4", "p5", "p6"],
    [("p1", "p2"), ("p3", "p4"), ("p5", "p6"),
     ("p1", "p4"), ("p4", "p5"), ("p1", "p5"),
     ("p2", "p3"), ("p3", "p6"), ("p2", "p6")],
)

DESARGUES_POS = _fw(DESARGUES_GRAPH, {
    "p1": (1, 0, 1), "p2": (2, 0, 1),
    "p3": (0, 1, 1), "p4": (0, 2, 1),
    "p5": (2, 2, 1), "p6": (3, 3, 1),
})

DESARGUES_NEG = _fw(DESARGUES_GRAPH, {
    "p1": (1, 0, 1), "p2": (2, 0, 1),
    "p3": (0, 1, 1), "p4": (0, 2, 1),
    "p5": (2, 2, 1), "p6": (1, 3, 1),
})

PASCAL_GRAPH = Graph(
    ["p1", "p2", "p3", "p4", "p5", "p6"],
    [("p1", "p2"), ("p2", "p3"), ("p3", "p4"),
     ("p4", "p5"), ("p5", "p6"), ("p1", "p6"),
     ("p1", "p4"), ("p2", "p5"), ("p3", "p6")],
)

_PASCAL_X = (-2, -1, 0, 1, 2, 3)

PASCAL_POS = _fw(PASCAL_GRAPH, {
    f"p{i + 1}": (x, x * x, 1) for i, x in enumerate(_PASCAL_X)
})

PASCAL_NEG = _fw(PASCAL_GRAPH, {
    **{f"p{i + 1}": (x, x * x, 1) for i, x in enumerate(_PASCAL_X[:5])},
    "p6": (3, 10, 1),
})

WHEEL5_GRAPH = Graph(
    ["p1", "p2", "p3", "p4", "p5"],
    [("p1", "p2"), ("p1", "p3"), ("p1", "p4"), ("p1", "p5"),
     ("p2", "p3"), ("p3", "p4"), ("p4", "p5"), ("p2", "p5")],
)
