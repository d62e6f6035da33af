import json
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import (aux_line_avoiding, chart_avoiding, cycle_equilibrium_basis,
                    framed_cycle_in_general_position, framed_cycle_to_json,
                    is_trivial, lines_in_general_position, project_cycle,
                    proportional_to, random_framed_cycle, shift_map, stepwise_apply)
from reference_resolution import solve_in_span
from tensec.cycles import (FramedCycle, LineMap, _three_points, framed_cycle_from_json,
                           is_trivial_monodromy, monodromy, pick_aux_line)
from tensec.errors import GeometryError, PreconditionError
from tensec.fixtures import DESARGUES_POS
from tensec.projective import (TRUE, ProjLine, ProjPoint, _cross, join, meet,
                               pick_generic_line_through, pick_generic_point_on,
                               random_line_avoiding)


def concurrent_triangle():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((4, 0, 1)), ProjPoint((0, 4, 1))]
    hub = ProjPoint((1, 1, 1))
    return FramedCycle(pts, [join(p, hub) for p in pts])


def skew_triangle():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((4, 0, 1)), ProjPoint((0, 4, 1))]
    hub = ProjPoint((1, 1, 1))
    frs = [join(pts[0], hub), join(pts[1], hub), join(pts[2], ProjPoint((2, 1, 1)))]
    return FramedCycle(pts, frs)


def test_framed_cycle_validates_incidence():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((4, 0, 1)), ProjPoint((0, 4, 1))]
    with pytest.raises(GeometryError):
        FramedCycle(pts, [ProjLine((0, 0, 1))] * 3)


def test_shift_map_endpoints():
    c = concurrent_triangle()
    aux = pick_aux_line(c, 11)
    sm = shift_map(c.points[0], c.points[1], c.framings[0], c.framings[1], aux)
    assert sm.apply(c.points[0]) == c.points[1]
    assert sm.apply(meet(c.framings[0], aux)) == meet(c.framings[1], aux)


def test_shift_map_matches_pointwise_formula():
    c = skew_triangle()
    aux = pick_aux_line(c, 3)
    p_i, p_j = c.points[0], c.points[1]
    l_i, l_j = c.framings[0], c.framings[1]
    sm = shift_map(p_i, p_j, l_i, l_j, aux)
    for seed in range(5):
        p = pick_generic_point_on(l_i, [meet(l_i, aux)], seed)
        expected = meet(l_j, join(meet(join(p_i, p_j), aux), p))
        assert sm.apply(p) == expected


def test_shift_map_preconditions():
    c = concurrent_triangle()
    bad_aux = join(c.points[0], ProjPoint((9, 9, 1)))
    with pytest.raises(PreconditionError):
        shift_map(c.points[0], c.points[1], c.framings[0], c.framings[1], bad_aux)
    edge = join(c.points[0], c.points[1])
    aux = pick_aux_line(c, 4)
    with pytest.raises(PreconditionError):
        shift_map(c.points[0], c.points[1], edge, c.framings[1], aux)


def test_concurrent_framings_give_trivial_monodromy():
    c = concurrent_triangle()
    aux = pick_aux_line(c, 5)
    assert is_trivial(monodromy(c, 0, aux))


def test_skew_framings_give_nontrivial_monodromy():
    c = skew_triangle()
    aux = pick_aux_line(c, 5)
    assert not is_trivial(monodromy(c, 0, aux))


def test_triviality_independent_of_start_index():
    for maker in (concurrent_triangle, skew_triangle):
        c = maker()
        aux = pick_aux_line(c, 6)
        verdicts = {is_trivial(monodromy(c, i, aux)) for i in range(len(c))}
        assert len(verdicts) == 1


def test_triviality_independent_of_aux_line():
    for seed in range(8):
        c = random_framed_cycle(4, seed, equilibrium=(seed % 2 == 0))
        aux1 = pick_aux_line(c, 100 + seed)
        aux2 = pick_aux_line(c, 200 + seed)
        assert aux1 != aux2
        assert is_trivial(monodromy(c, 0, aux1)) == is_trivial(monodromy(c, 0, aux2))


def test_is_trivial_chain_semantics():
    c = concurrent_triangle()
    l0, l1 = c.framings[0], c.framings[1]
    assert is_trivial(LineMap(l0, l0, ()))
    center = ProjPoint((7, 3, 1))
    there = LineMap(l0, l1, ((center, l1),))
    back = LineMap(l1, l0, ((center, l0),))
    assert is_trivial(LineMap(l0, l0, there.steps + back.steps))
    assert not is_trivial(LineMap(l0, l0, ((center, l1), (ProjPoint((5, 9, 1)), l0))))
    skew = skew_triangle()
    assert not is_trivial(monodromy(skew, 0, pick_aux_line(skew, 5)))
    with pytest.raises(GeometryError):
        is_trivial(there)
    with pytest.raises(GeometryError):
        LineMap(l0, l1, ((c.points[0], l1),))  # center on the source line
    with pytest.raises(GeometryError):
        LineMap(l0, l0, ((center, l1),))  # chain ends off the target


def test_monodromy_requires_general_position():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((1, 0, 1)), ProjPoint((2, 1, 1))]
    frs = [join(pts[0], pts[1]), join(pts[1], ProjPoint((5, 5, 1))),
           join(pts[2], ProjPoint((0, 7, 1)))]
    c = FramedCycle(pts, frs)  # framing 0 contains neighbor p1
    assert not c.in_general_position
    with pytest.raises(PreconditionError):
        monodromy(c, 0, ProjLine((1, 1, 1)))


# ---------------------------------------------------------------------------
# reference: monodromy as exact 2x2 matrices over ordered bases of the lines
# (the earlier implementation, kept to cross-check the perspectivity chains)

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
class MatrixLineMap:
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

    def after(self, first: "MatrixLineMap") -> "MatrixLineMap":
        if (first.target, first.target_basis) != (self.source, self.source_basis):
            raise GeometryError("composition basis mismatch")
        return MatrixLineMap(first.source, first.source_basis,
                             self.target, self.target_basis,
                             _mat_mul(self.matrix, first.matrix))

    def proportional_to(self, other: "MatrixLineMap") -> bool:
        a = [x for row in self.matrix for x in row]
        b = [x for row in other.matrix for x in row]
        return all(a[i] * b[j] == a[j] * b[i]
                   for i in range(4) for j in range(i + 1, 4))


def matrix_is_trivial(m: MatrixLineMap) -> bool:
    """The map is a nonzero scalar multiple of the identity on its line."""
    if (m.source, m.source_basis) != (m.target, m.target_basis):
        raise GeometryError("triviality needs source = target with equal bases")
    mat = m.matrix
    return mat[0][1] == 0 and mat[1][0] == 0 and mat[0][0] == mat[1][1]


def matrix_shift_map(p_i: ProjPoint, p_i1: ProjPoint, l_i: ProjLine,
                     l_i1: ProjLine, aux: ProjLine) -> MatrixLineMap:
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
    out = MatrixLineMap(l_i, src, l_i1, dst, matrix)
    assert out.apply(p_i) == p_i1
    assert out.apply(meet(l_i, aux)) == meet(l_i1, aux)
    return out


def matrix_monodromy(c: FramedCycle, start: int, aux: ProjLine) -> MatrixLineMap:
    """Composition of the k shift maps once around the cycle, based at the
    framing of `start`.

    The result fixes the base point and the intersection of the base framing
    with aux; both are asserted on every call.
    """
    if not c.in_general_position:
        raise PreconditionError("framed cycle is not in general position")
    for p in c.points:
        if aux.contains(p):
            raise PreconditionError("auxiliary line passes through a vertex")
    k = len(c)
    total = None
    for step in range(k):
        i = (start + step) % k
        j = (i + 1) % k
        shift = matrix_shift_map(c.points[i], c.points[j], c.framings[i], c.framings[j], aux)
        total = shift if total is None else shift.after(total)
    base = meet(c.framings[start % k], aux)
    assert total.apply(c.points[start % k]) == c.points[start % k]
    assert total.apply(base) == base
    return total



@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(3, 8), seed=st.integers(0, 10**6), equilibrium=st.booleans(),
       start=st.integers(0, 7))
def test_one_point_triviality_matches_three_point_test(k, seed, equilibrium, start):
    # the monodromy fixes two points of its base framing, so one more point
    # decides it; `is_trivial` applies three, here at any base
    c = random_framed_cycle(k, seed, equilibrium=equilibrium)
    aux = pick_aux_line(c, seed)
    assert is_trivial_monodromy(c, aux) == is_trivial(monodromy(c, start, aux))
    assert is_trivial(monodromy(c, start, aux)) == equilibrium


@settings(max_examples=40, deadline=None)
@given(k=st.integers(3, 9), seed=st.integers(0, 10**6), equilibrium=st.booleans())
def test_chain_monodromy_matches_matrix_reference(k, seed, equilibrium):
    c = random_framed_cycle(k, seed, equilibrium=equilibrium)
    aux1 = pick_aux_line(c, seed)
    aux2 = pick_aux_line(c, seed + 1)
    for start in range(k):
        chains = [monodromy(c, start, aux) for aux in (aux1, aux2)]
        matrices = [matrix_monodromy(c, start, aux) for aux in (aux1, aux2)]
        for chain, matrix in zip(chains, matrices):
            assert is_trivial(chain) == matrix_is_trivial(matrix)
        assert (proportional_to(chains[0], chains[1])
                == matrices[0].proportional_to(matrices[1]))
        if k >= 4:  # the base framing survives merging the next two vertices
            out = project_cycle(c, start + 1)
            aux = aux_line_avoiding(c, seed + 2, out.points)
            base = min(start, k - 2)
            assert proportional_to(monodromy(c, start, aux), monodromy(out, base, aux))
            assert matrix_monodromy(c, start, aux).proportional_to(
                matrix_monodromy(out, base, aux))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(3, 8), seed=st.integers(0, 10**6), equilibrium=st.booleans())
def test_chain_apply_matches_stepwise_reference(k, seed, equilibrium):
    c = random_framed_cycle(k, seed, equilibrium=equilibrium)
    aux = pick_aux_line(c, seed)
    for start in range(k):
        m = monodromy(c, start, aux)
        for p in (c.points[start], meet(c.framings[start], aux)) + _three_points(m.source):
            assert m.apply(p) == stepwise_apply(m, p)
        # a chain part of the way round ends on another framing
        part = LineMap(m.source, m.steps[0][1], m.steps[:1])
        for p in _three_points(m.source):
            assert part.apply(p) == stepwise_apply(part, p)


def test_framed_cycle_decides_general_position_once(monkeypatch):
    # the edge lines' general position is the framework's, so a framed
    # cycle tests only its framings, 2k incidences once, and its monodromy
    # meets each edge line with aux alone: k centers and the base framing's
    # meet with aux
    import tensec.cycles

    drawn = random_framed_cycle(6, 5, equilibrium=True)
    c = FramedCycle(drawn.points, drawn.framings)
    k = len(c)
    contains, meets = [], []
    original = ProjLine.contains
    monkeypatch.setattr(ProjLine, "contains",
                        lambda l, p: contains.append(l) or original(l, p))
    monkeypatch.setattr(tensec.cycles, "meet",
                        lambda a, b: meets.append((a, b)) or meet(a, b))
    assert c.in_general_position
    assert c.in_general_position
    assert len(contains) == 2 * k
    aux = pick_aux_line(c, 5)
    assert meets == []
    assert is_trivial_monodromy(c, aux)
    for start in range(k):
        assert is_trivial(monodromy(c, start, aux))
    edges = set(c.edge_lines)
    assert not any(a in edges and b in edges for a, b in meets)
    assert len(meets) == (k + 1) + 1 + k * (k + 1)


def checked_edge_lines(c: FramedCycle) -> list:
    """The edge lines of a framed cycle; GeometryError where two
    consecutive points coincide."""
    if any(line is TRUE for line in c.edge_lines):
        raise GeometryError("coincident consecutive cycle points")
    return list(c.edge_lines)


# ---------------------------------------------------------------------------
# reference: general position, aux lines and monodromy as they were before a
# framed cycle joined its edge lines and met them pairwise once, and before
# the monodromy became one chain (it composed `shift_map`s with
# `LineMap.after`), kept verbatim to cross-check the new code

def reference_lines_in_general_position(lines) -> bool:
    lines = list(lines)
    n = len(lines)
    if len(set(lines)) != n:
        return False
    points = set()
    for i in range(n):
        for j in range(i + 1, n):
            points.add(meet(lines[i], lines[j]))
    return len(points) == n * (n - 1) // 2


def reference_cycle_general_position(c: FramedCycle) -> bool:
    k = len(c)
    try:
        lines = checked_edge_lines(c)
    except GeometryError:
        return False
    if not reference_lines_in_general_position(lines):
        return False
    for i in range(k):
        l = c.framings[i]
        if l.contains(c.points[(i - 1) % k]) or l.contains(c.points[(i + 1) % k]):
            return False
    return True


def reference_pick_aux_line(c: FramedCycle, seed: int) -> ProjLine:
    forbidden = set(c.points)
    k = len(c)
    lines = checked_edge_lines(c)
    for i in range(k):
        for j in range(i + 1, k):
            pt = meet(lines[i], lines[j])
            if pt is not TRUE:
                forbidden.add(pt)
    return random_line_avoiding(forbidden, seed)


def reference_after(second: LineMap, first: LineMap) -> LineMap:
    """`second.after(first)`: `first`, then `second`, as one chain."""
    if first.target != second.source:
        raise GeometryError("composition line mismatch")
    return LineMap(first.source, second.target, first.steps + second.steps)


def reference_monodromy(c: FramedCycle, start: int, aux: ProjLine) -> LineMap:
    if not reference_cycle_general_position(c):
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
        total = shift if total is None else reference_after(shift, total)
    base = meet(c.framings[start % k], aux)
    assert total.apply(c.points[start % k]) == c.points[start % k]
    assert total.apply(base) == base
    return total


#: Degeneracies a framed cycle is given on purpose; k >= 5 for "concurrent"
#: (three edge lines through one point of a 4-cycle put two edges on one line).
DEGENERACIES = ("none", "coincident", "collinear", "concurrent", "framing")


def degenerate_cycle(k: int, seed: int, equilibrium: bool, kind: str) -> FramedCycle:
    c = random_framed_cycle(k, seed, equilibrium=equilibrium)
    pts, frs = list(c.points), list(c.framings)

    def move(i, p):
        pts[i] = p
        frs[i] = pick_generic_line_through(p, [join(p, q) for q in pts if q != p], seed)

    if kind == "coincident":  # consecutive points 0 and 1 coincide
        move(1, pts[0])
    elif kind == "collinear":  # edges 0 and 1 on one line
        move(2, pick_generic_point_on(join(pts[0], pts[1]), pts, seed))
    elif kind == "concurrent":  # edge lines k-1, 0 and 2 through p_0
        move(3, pick_generic_point_on(join(pts[0], pts[2]), pts, seed))
    elif kind == "framing":  # the framing at p_0 passes through p_1
        frs[0] = join(pts[0], pts[1])
    return FramedCycle(pts, frs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(3, 8), seed=st.integers(0, 10**6), equilibrium=st.booleans(),
       kind=st.sampled_from(DEGENERACIES))
def test_cycle_pass_matches_reference(k, seed, equilibrium, kind):
    # the per-cycle test of `tests/lemmas.py` is the old pass; the library's
    # framed cycle tests its framings only, and its aux line misses the
    # vertices only, since the edge lines' part is the framework's
    if kind == "concurrent":
        k = max(k, 5)
    c = degenerate_cycle(k, seed, equilibrium, kind)
    general = framed_cycle_in_general_position(c)
    assert general == reference_cycle_general_position(c)
    assert general == (kind == "none")
    framed = c.in_general_position
    assert framed == (kind not in ("coincident", "framing"))
    auxes = [pick_aux_line(c, seed + d) for d in (0, 1)]
    for d, aux in enumerate(auxes):
        assert aux == random_line_avoiding(c.points, seed + d)
        assert not any(aux.contains(p) for p in c.points)
        if kind == "coincident":  # the reference cannot join p_0 with p_1
            with pytest.raises(GeometryError):
                reference_pick_aux_line(c, seed + d)
        else:
            assert aux_line_avoiding(c, seed + d, ()) == reference_pick_aux_line(c, seed + d)
    for start in range(k):
        if not general:
            walks = (monodromy, reference_monodromy) if not framed else (reference_monodromy,)
            for walk in walks:
                with pytest.raises(PreconditionError):
                    walk(c, start, auxes[0])
            continue
        chains = [monodromy(c, start, aux) for aux in auxes]
        refs = [reference_monodromy(c, start, aux) for aux in auxes]
        for chain, ref in zip(chains, refs):
            assert chain == ref
            assert is_trivial(chain) == is_trivial(ref)
            assert proportional_to(chain, ref)
        assert proportional_to(chains[0], chains[1]) == proportional_to(refs[0], refs[1])
        # the aux line that also missed the crossings gives the same verdict
        old = reference_monodromy(c, start, reference_pick_aux_line(c, seed))
        assert is_trivial(old) == is_trivial(chains[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any), max_size=6))
def test_lines_in_general_position_matches_reference(triples):
    # small coefficients give equal lines and concurrent triples often
    lines = [ProjLine(t) for t in triples]
    assert lines_in_general_position(lines) == reference_lines_in_general_position(lines)


# ---------------------------------------------------------------------------
# projection

def test_projection_shrinks_and_stays_general():
    for seed in range(6):
        c = random_framed_cycle(5, seed, equilibrium=False)
        out = project_cycle(c, 1)
        assert len(out) == 4
        assert out.in_general_position


def test_projection_wraparound_index():
    c = random_framed_cycle(4, 9, equilibrium=False)
    out = project_cycle(c, len(c) - 1)
    assert len(out) == 3
    assert out.in_general_position


def test_projection_preserves_surviving_monodromy():
    for seed in range(8):
        k = 4 + (seed % 3)
        c = random_framed_cycle(k, seed, equilibrium=(seed % 2 == 0))
        out = project_cycle(c, 1)  # base framing index 0 survives unchanged
        aux = aux_line_avoiding(c, 50 + seed, out.points)
        m1 = monodromy(c, 0, aux)
        m2 = monodromy(out, 0, aux)
        assert proportional_to(m1, m2)
        assert is_trivial(m1) == is_trivial(m2)


def test_projection_preserves_equilibrium_existence():
    for seed in range(8):
        c = random_framed_cycle(5, seed, equilibrium=(seed % 2 == 0))
        out = project_cycle(c, 2)
        assert bool(cycle_equilibrium_basis(c)) == bool(cycle_equilibrium_basis(out))


def test_projection_needs_four_vertices():
    with pytest.raises(PreconditionError):
        project_cycle(concurrent_triangle(), 0)


# ---------------------------------------------------------------------------
# equilibrium force-loads

def test_triangle_equilibrium_dimensions():
    assert len(cycle_equilibrium_basis(concurrent_triangle())) >= 1
    assert cycle_equilibrium_basis(skew_triangle()) == []


def test_equilibrium_iff_trivial_monodromy_sample():
    agree = 0
    for seed in range(30):
        k = 3 + seed % 5
        c = random_framed_cycle(k, seed, equilibrium=(seed % 2 == 0))
        aux = pick_aux_line(c, 1000 + seed)
        lhs = is_trivial(monodromy(c, 0, aux))
        rhs = bool(cycle_equilibrium_basis(c))
        assert lhs == rhs
        agree += 1
    assert agree == 30


def test_constructed_equilibrium_cycles_are_positive():
    for seed in range(6):
        c = random_framed_cycle(6, seed, equilibrium=True)
        assert cycle_equilibrium_basis(c)
        aux = pick_aux_line(c, seed)
        assert is_trivial(monodromy(c, 0, aux))


def test_almost_equilibrium_promotes_to_equilibrium():
    # solve the k-1 vertex equations with the exceptional vertex's framing
    # force excluded from the unknowns (it is engaged by no retained
    # equation); on a cycle admitting a nonzero equilibrium load every such
    # solution closes the last vertex with a suitable framing force
    from fractions import Fraction
    from integers import integer_rows
    from tensec.numeric import nullspace_basis
    from tensec.projective import line_of_force

    for seed in range(8):
        k = 4 + seed % 3
        positive = seed % 2 == 0
        c = random_framed_cycle(k, seed, equilibrium=positive)
        edge_reps = [l.coeffs for l in checked_edge_lines(c)]
        framing_reps = [l.coeffs for l in c.framings]
        rows = []
        for i in range(k - 1):  # omit the last vertex
            for coord in range(3):
                row = [Fraction(0)] * (2 * k - 1)
                row[i] += Fraction(edge_reps[i][coord])
                row[(i - 1) % k] -= Fraction(edge_reps[(i - 1) % k][coord])
                row[k + i] = Fraction(framing_reps[i][coord])
                rows.append(row)
        basis = nullspace_basis(integer_rows(rows), 2 * k - 1)
        assert len(basis) == 1  # almost-equilibrium loads are unique up to scale
        t = basis[0][:k]
        i = k - 1
        residual = tuple(t[i] * Fraction(edge_reps[i][coord])
                         - t[i - 1] * Fraction(edge_reps[i - 1][coord])
                         for coord in range(3))
        closes = not any(residual) or line_of_force(residual) == c.framings[i]
        assert closes == positive


def test_framed_cycle_json_roundtrip():
    c = concurrent_triangle()
    obj = json.loads(json.dumps(framed_cycle_to_json(c)))
    back = framed_cycle_from_json(obj)
    assert back.points == c.points
    assert back.framings == c.framings


def test_seeded_lines_match_recorded_values():
    # pick_aux_line (with its points avoided too, as `aux_line_avoiding`
    # draws) and chart_avoiding draw coefficient triples from one seeded
    # stream, `projective.splitmix64`; the values were recorded from it
    pts = [ProjPoint((0, 0, 1)), ProjPoint((4, 0, 1)), ProjPoint((5, 3, 1)),
           ProjPoint((1, 4, 1))]
    frs = [ProjLine((1, 2, 0)), ProjLine((1, -1, -4)), ProjLine((3, 1, -18)),
           ProjLine((2, 1, -6))]
    c = FramedCycle(pts, frs)
    # seed: (line, a point on it, line when that point is avoided too)
    recorded = {
        0: ((953, 888, 744), (888, -953, 0), (9, 37, 591)),
        1: ((84, -136, 139), (34, 21, 0), (295, -82, 5)),
        2: ((624, -286, 431), (11, 24, 0), (191, 778, -899)),
        3: ((583, -630, -735), (630, 583, 0), (239, -319, -519)),
        4: ((391, 44, -504), (44, -391, 0), (795, -205, 106)),
    }
    for seed, (first, on_first, second) in recorded.items():
        assert pick_aux_line(c, seed).coeffs == first
        assert aux_line_avoiding(c, seed, [ProjPoint(on_first)]).coeffs == second
        if seed:
            fixture = list(DESARGUES_POS.placement.values())
            chart = chart_avoiding(fixture, seed=seed)
            assert chart.infinity_line.coeffs == first
            chart = chart_avoiding(fixture + [ProjPoint(on_first)], seed=seed)
            assert chart.infinity_line.coeffs == second
