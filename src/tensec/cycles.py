"""Framed cycles, shift operators, monodromies, and projections.

A framed cycle is a cyclic point sequence p_1..p_k with a line l_i through
each p_i.  The shift operator along edge p_i p_{i+1} is the perspectivity
l_i -> l_{i+1} whose center is the intersection of the edge line with an
auxiliary line; the monodromy is the composition of the k shifts once around
the cycle.

Maps between lines are exact 2x2 matrices over explicit ordered bases (the
cycle vertex plus a canonical second point), so triviality is
"scalar multiple of the identity" and map comparisons are exact up to scale.
The perspectivity with center c onto the line m lifts to the linear map
p |-> cross(m, cross(c, p)) on R^3, which restricts to the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError, InputError, PreconditionError
from .numeric import ExactMatrix, nullspace_basis, solve_in_span
from .projective import (
    TRUE,
    ProjLine,
    ProjPoint,
    _cross,
    join,
    lines_in_general_position,
    meet,
    random_line_avoiding,
    rel_incident,
)


@dataclass(frozen=True)
class FramedCycle:
    points: tuple
    framings: tuple

    def __init__(self, points, framings):
        points = tuple(points)
        framings = tuple(framings)
        if len(points) != len(framings) or len(points) < 3:
            raise InputError("a framed cycle needs k >= 3 points with k framings")
        for p, l in zip(points, framings):
            if not rel_incident(p, l):
                raise GeometryError(f"framing {l} does not pass through {p}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "framings", framings)

    def __len__(self):
        return len(self.points)

    def edge_line(self, i: int) -> ProjLine:
        k = len(self.points)
        line = join(self.points[i % k], self.points[(i + 1) % k])
        if line is TRUE:
            raise GeometryError("coincident consecutive cycle points")
        return line


def cycle_general_position(c: FramedCycle) -> bool:
    """Edge lines in general position, and no framing through a neighbor."""
    k = len(c)
    try:
        lines = [c.edge_line(i) for i in range(k)]
    except GeometryError:
        return False
    if not lines_in_general_position(lines):
        return False
    for i in range(k):
        l = c.framings[i]
        if l.contains(c.points[(i - 1) % k]) or l.contains(c.points[(i + 1) % k]):
            return False
    return True


_REFERENCE_LINES = (ProjLine((1, 0, 0)), ProjLine((0, 1, 0)),
                    ProjLine((0, 0, 1)), ProjLine((1, 1, 1)))


def line_basis(l: ProjLine, origin: ProjPoint):
    """Ordered basis (origin, second) of a line: the second point is the
    intersection with the first reference line that differs from l and does
    not contain the origin.  Deterministic, so equal (line, origin) pairs
    yield equal bases."""
    if not l.contains(origin):
        raise GeometryError("basis origin must lie on the line")
    for ref in _REFERENCE_LINES:
        if ref != l and not ref.contains(origin):
            return (origin, meet(l, ref))
    raise GeometryError("no reference line applies")  # unreachable


def _solve_in_basis(vec, b1: ProjPoint, b2: ProjPoint):
    """Exact (x, y) with vec = x*b1.coords + y*b2.coords; GeometryError if
    vec is not in the span."""
    return solve_in_span(vec, b1.coords, b2.coords,
                         "vector not on the line", "degenerate basis")


def _mat_mul(m2, m1):
    return (
        (m2[0][0] * m1[0][0] + m2[0][1] * m1[1][0],
         m2[0][0] * m1[0][1] + m2[0][1] * m1[1][1]),
        (m2[1][0] * m1[0][0] + m2[1][1] * m1[1][0],
         m2[1][0] * m1[0][1] + m2[1][1] * m1[1][1]),
    )


@dataclass(frozen=True)
class LineMap:
    """Exact linear map between two lines over explicit ordered bases."""

    source: ProjLine
    source_basis: tuple
    target: ProjLine
    target_basis: tuple
    matrix: tuple

    def __post_init__(self):
        m = self.matrix
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            raise GeometryError("line maps must be invertible")

    def apply(self, p: ProjPoint) -> ProjPoint:
        x, y = _solve_in_basis(p.coords, *self.source_basis)
        m = self.matrix
        u, v = m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y
        b1, b2 = self.target_basis
        return ProjPoint(tuple(u * Fraction(c1) + v * Fraction(c2)
                               for c1, c2 in zip(b1.coords, b2.coords)))

    def after(self, first: "LineMap") -> "LineMap":
        if (first.target, first.target_basis) != (self.source, self.source_basis):
            raise GeometryError("composition basis mismatch")
        return LineMap(first.source, first.source_basis,
                       self.target, self.target_basis,
                       _mat_mul(self.matrix, first.matrix))

    def proportional_to(self, other: "LineMap") -> bool:
        a = [x for row in self.matrix for x in row]
        b = [x for row in other.matrix for x in row]
        return all(a[i] * b[j] == a[j] * b[i]
                   for i in range(4) for j in range(i + 1, 4))


def is_trivial(m: LineMap) -> bool:
    """The map is a nonzero scalar multiple of the identity on its line."""
    if (m.source, m.source_basis) != (m.target, m.target_basis):
        raise GeometryError("triviality needs source = target with equal bases")
    mat = m.matrix
    return mat[0][1] == 0 and mat[1][0] == 0 and mat[0][0] == mat[1][1]


def shift_map(p_i: ProjPoint, p_i1: ProjPoint, l_i: ProjLine, l_i1: ProjLine,
              aux: ProjLine) -> LineMap:
    """Perspectivity l_i -> l_i1 sending p to l_i1 ^ ((p_i p_i1 ^ aux), p).

    Its center is the intersection of the edge line with aux; it maps p_i to
    p_i1 and l_i ^ aux to l_i1 ^ aux (both asserted).
    """
    if not l_i.contains(p_i) or not l_i1.contains(p_i1):
        raise PreconditionError("framing lines must pass through their points")
    if aux.contains(p_i) or aux.contains(p_i1):
        raise PreconditionError("auxiliary line must avoid both points")
    edge = join(p_i, p_i1)
    if edge is TRUE:
        raise PreconditionError("shift endpoints coincide")
    if l_i == edge or l_i1 == edge:
        raise PreconditionError("framing line equals the edge line")
    center = meet(edge, aux)  # a point: aux != edge since aux misses p_i
    src = line_basis(l_i, p_i)
    dst = line_basis(l_i1, p_i1)
    # the perspectivity lifts to p |-> cross(l_i1, cross(center, p)) on R^3
    cc = center.coords
    lc = l_i1.coeffs
    cols = []
    for b in src:
        image = _cross(lc, _cross(cc, b.coords))
        cols.append(_solve_in_basis(image, *dst))
    matrix = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    out = LineMap(l_i, src, l_i1, dst, matrix)
    assert out.apply(p_i) == p_i1
    assert out.apply(meet(l_i, aux)) == meet(l_i1, aux)
    return out


def monodromy(c: FramedCycle, start: int, aux: ProjLine) -> LineMap:
    """Composition of the k shift maps once around the cycle, based at the
    framing of `start`.

    The result fixes the base point and the intersection of the base framing
    with aux; both are asserted on every call.
    """
    if not cycle_general_position(c):
        raise PreconditionError("framed cycle is not in general position")
    for p in c.points:
        if aux.contains(p):
            raise PreconditionError("auxiliary line passes through a vertex")
    k = len(c)
    total = None
    for step in range(k):
        i = (start + step) % k
        j = (i + 1) % k
        shift = shift_map(c.points[i], c.points[j], c.framings[i], c.framings[j], aux)
        total = shift if total is None else shift.after(total)
    base = meet(c.framings[start % k], aux)
    assert total.apply(c.points[start % k]) == c.points[start % k]
    assert total.apply(base) == base
    return total


def project_cycle(c: FramedCycle, i: int) -> FramedCycle:
    """Merge vertices i and i+1 into p' = (p_{i-1} p_i) ^ (p_{i+1} p_{i+2})
    framed by the line through p' and l_i ^ l_{i+1}; yields a framed cycle
    on k-1 vertices, again in general position."""
    k = len(c)
    if k < 4:
        raise PreconditionError("projection needs k >= 4")
    if not cycle_general_position(c):
        raise PreconditionError("framed cycle is not in general position")
    i %= k
    pts, frs = c.points, c.framings
    new_pt = meet(join(pts[(i - 1) % k], pts[i]), join(pts[(i + 1) % k], pts[(i + 2) % k]))
    cross_pt = meet(frs[i], frs[(i + 1) % k])
    new_fr = join(new_pt, cross_pt)
    if new_pt is TRUE or new_fr is TRUE:
        raise GeometryError("degenerate projection")
    if i == k - 1:
        new_points = (new_pt,) + pts[1:k - 1]
        new_framings = (new_fr,) + frs[1:k - 1]
    else:
        new_points = pts[:i] + (new_pt,) + pts[i + 2:]
        new_framings = frs[:i] + (new_fr,) + frs[i + 2:]
    out = FramedCycle(new_points, new_framings)
    if not cycle_general_position(out):
        raise GeometryError("projection output is not in general position")
    return out


def cycle_equilibrium_basis(c: FramedCycle):
    """Exact basis of the equilibrium force-loads on the framed cycle.

    Unknowns: one scalar per cycle edge (stress along the edge line) and one
    per framing (force along l_i).  Constraints: at each vertex the incoming
    edge force, outgoing edge force and framing force sum to zero, as
    3-component dual equations.  Returns (edge_scalars, framing_scalars)
    pairs; nonempty iff a nonzero equilibrium force-load exists.
    """
    if not cycle_general_position(c):
        raise PreconditionError("framed cycle is not in general position")
    k = len(c)
    edge_reps = [c.edge_line(i).coeffs for i in range(k)]
    framing_reps = [l.coeffs for l in c.framings]
    rows = []
    for i in range(k):
        for coord in range(3):
            row = [Fraction(0)] * (2 * k)
            row[i] += Fraction(edge_reps[i][coord])
            row[(i - 1) % k] -= Fraction(edge_reps[(i - 1) % k][coord])
            row[k + i] = Fraction(framing_reps[i][coord])
            rows.append(row)
    basis = nullspace_basis(ExactMatrix(rows))
    return [(vec[:k], vec[k:]) for vec in basis]


def pick_aux_line(c: FramedCycle, seed: int, extra_avoid=()) -> ProjLine:
    """Seeded auxiliary line avoiding all vertices, all pairwise
    intersections of edge lines, and any extra points."""
    forbidden = set(c.points) | set(extra_avoid)
    k = len(c)
    lines = [c.edge_line(i) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            pt = meet(lines[i], lines[j])
            if pt is not TRUE:
                forbidden.add(pt)
    return random_line_avoiding(forbidden, seed)


# ---------------------------------------------------------------------------
# JSON interface: {"points":[["1","0","1"],...],"framings":[[coeffs],...]}

def framed_cycle_to_json(c: FramedCycle) -> dict:
    return {
        "points": [p.to_strings() for p in c.points],
        "framings": [l.to_strings() for l in c.framings],
    }


def framed_cycle_from_json(obj) -> FramedCycle:
    try:
        points = [ProjPoint.from_strings(p) for p in obj["points"]]
        framings = [ProjLine.from_strings(l) for l in obj["framings"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed framed-cycle JSON: {exc}") from exc
    return FramedCycle(points, framings)
