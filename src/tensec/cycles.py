"""Framed cycles, their general position, and their monodromies.

A framed cycle is a cyclic point sequence p_1..p_k with a line l_i through
each p_i.  The shift along edge p_i p_{i+1} is the perspectivity
l_i -> l_{i+1} whose center is the intersection of the edge line with an
auxiliary line; the monodromy is the composition of the k shifts once around
the cycle, which the quantization tests for triviality on every consistency
cycle.  (The shift maps, projections and equilibrium loads of the paper's
lemmas are the tests' code, `tests/lemmas.py`.)

A map between lines is kept as the chain of perspectivities it composes.
Applying it takes two raw integer cross products per step, a join and a
meet up to scale, and makes the image canonical once, at the end.  A
projectivity of a line is fixed by the images of three distinct points, so
the monodromy is trivial iff it fixes three points of its line.  A
monodromy always fixes two of them, the base point and the base framing's
meet with aux, so one more point decides it (`is_trivial_monodromy`).  A
framed cycle tests only its framings: its edge lines are in general position
because the framework is (`Quantization`), so aux only misses the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import GeometryError, InputError, PreconditionError
from .projective import (
    ProjLine,
    ProjPoint,
    _cross,
    _independent_pair,
    join,
    meet,
    random_line_avoiding,
    rel_incident,
)


@dataclass(frozen=True)
class FramedCycle:
    """Points p_1..p_k with a framing l_i through each p_i.  The edge lines
    (TRUE where consecutive points coincide) are joined once, at
    construction."""

    points: tuple
    framings: tuple
    edge_lines: tuple = field(compare=False, repr=False)

    def __init__(self, points, framings):
        points = tuple(points)
        framings = tuple(framings)
        if len(points) != len(framings) or len(points) < 3:
            raise InputError("a framed cycle needs k >= 3 points with k framings")
        for i, (p, l) in enumerate(zip(points, framings)):
            if not rel_incident(p, l):
                raise GeometryError(f"framing {i} does not pass through point {i}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "framings", framings)
        object.__setattr__(self, "edge_lines", tuple(
            join(p, q) for p, q in zip(points, points[1:] + points[:1])))

    def __len__(self):
        return len(self.points)

    @cached_property
    def in_general_position(self) -> bool:
        """No framing passes through a neighbor (the module docstring);
        decided once, when first read."""
        p, k = self.points, len(self)
        return not any(l.contains(p[i - 1]) or l.contains(p[(i + 1) % k])
                       for i, l in enumerate(self.framings))


def _three_points(l: ProjLine):
    """Three distinct points of a line: b1, b2 and b1 + b2 for the first
    independent pair of triples on it.  A projectivity of a line is fixed by
    its images of three distinct points."""
    b1, b2 = _independent_pair(l.coeffs, "degenerate line")
    return (ProjPoint(b1), ProjPoint(b2),
            ProjPoint(tuple(x + y for x, y in zip(b1, b2))))


@dataclass(frozen=True)
class LineMap:
    """Projectivity from `source` onto `target` as a chain of perspectivities.

    A step (center, onto) sends each point p of the current line to
    onto ^ (center, p); the chain starts on `source` and ends on `target`.
    """

    source: ProjLine
    target: ProjLine
    steps: tuple

    def __post_init__(self):
        line = self.source
        for center, onto in self.steps:
            if line.contains(center) or onto.contains(center):
                raise GeometryError("line maps must be invertible")
            line = onto
        if line != self.target:
            raise GeometryError("perspectivity chain does not end on the target")

    def apply(self, p: ProjPoint) -> ProjPoint:
        """Image of a point of `source`: the chain p -> onto x (center x p)
        in raw integer triples, made canonical once, at the end.  Each
        step's center lies on neither of its lines (`__post_init__`), so
        neither cross product vanishes, and each is the meet or join that
        `meet(onto, join(center, p))` would build, up to scale."""
        if not self.source.contains(p):
            raise GeometryError("point not on the source line")
        t = p.coords
        for center, onto in self.steps:
            t = _cross(onto.coeffs, _cross(center.coords, t))
        return ProjPoint(t)


def monodromy(c: FramedCycle, start: int, aux: ProjLine) -> LineMap:
    """Composition of the k shift maps once around the cycle, based at the
    framing of `start`, as one chain: the step onto l_{i+1} has the center
    (p_i p_{i+1}) ^ aux.  Framings through no neighbor and an aux line
    through no vertex meet every precondition of each shift: distinct
    endpoints, framings other than the edge line, and aux through neither
    endpoint.  The edge lines' general position is the caller's.

    The result fixes the base point and the intersection of the base framing
    with aux; both are asserted on every call.
    """
    if not c.in_general_position:
        raise PreconditionError("framed cycle is not in general position")
    for p in c.points:
        if aux.contains(p):
            raise PreconditionError("auxiliary line passes through a vertex")
    k = len(c)
    start %= k
    base_line = c.framings[start]
    total = LineMap(base_line, base_line, tuple(
        (meet(c.edge_lines[i % k], aux), c.framings[(i + 1) % k])
        for i in range(start, start + k)))
    base = meet(base_line, aux)
    assert total.apply(c.points[start]) == c.points[start]
    assert total.apply(base) == base
    return total


def is_trivial_monodromy(c: FramedCycle, aux: ProjLine) -> bool:
    """The monodromy based at the first framing is the identity of its line,
    applying the chain to one point in place of three: the monodromy fixes
    the base point and the base framing ^ aux, two distinct points since aux
    avoids every vertex, and a projectivity of a line that fixes three
    distinct points is the identity.  Triviality depends neither on the base
    nor on aux.
    """
    m = monodromy(c, 0, aux)
    fixed = (c.points[0], meet(c.framings[0], aux))
    p = next(p for p in _three_points(m.source) if p not in fixed)
    return m.apply(p) == p


def pick_aux_line(c: FramedCycle, seed: int) -> ProjLine:
    """Seeded auxiliary line through no vertex of the cycle."""
    return random_line_avoiding(c.points, seed)


# ---------------------------------------------------------------------------
# JSON interface: {"points":[["1","0","1"],...],"framings":[[coeffs],...]}

def framed_cycle_from_json(obj) -> FramedCycle:
    try:
        points = [ProjPoint.from_strings(p) for p in obj["points"]]
        framings = [ProjLine.from_strings(l) for l in obj["framings"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed framed-cycle JSON: {exc}") from exc
    return FramedCycle(points, framings)
