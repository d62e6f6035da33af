import json

import pytest

from tensec.cycles import (FramedCycle, LineMap, cycle_equilibrium_basis,
                           cycle_general_position, framed_cycle_from_json,
                           framed_cycle_to_json, is_trivial, line_basis,
                           monodromy, pick_aux_line, project_cycle, shift_map)
from tensec.errors import GeometryError, PreconditionError
from tensec.fixtures import DESARGUES_POS
from tensec.framework import chart_avoiding
from tensec.projective import (ProjLine, ProjPoint, join, meet,
                               pick_generic_point_on)
from tensec.sampling import random_framed_cycle


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


def test_is_trivial_matrix_semantics():
    c = concurrent_triangle()
    basis = line_basis(c.framings[0], c.points[0])
    ident = LineMap(c.framings[0], basis, c.framings[0], basis, ((1, 0), (0, 1)))
    assert is_trivial(ident)
    doubled = LineMap(c.framings[0], basis, c.framings[0], basis, ((2, 0), (0, 2)))
    assert is_trivial(doubled)
    diag = LineMap(c.framings[0], basis, c.framings[0], basis, ((1, 0), (0, 2)))
    assert not is_trivial(diag)
    other = line_basis(c.framings[1], c.points[1])
    crossmap = LineMap(c.framings[0], basis, c.framings[1], other, ((1, 0), (0, 1)))
    with pytest.raises(GeometryError):
        is_trivial(crossmap)


def test_monodromy_requires_general_position():
    pts = [ProjPoint((0, 0, 1)), ProjPoint((1, 0, 1)), ProjPoint((2, 1, 1))]
    frs = [join(pts[0], pts[1]), join(pts[1], ProjPoint((5, 5, 1))),
           join(pts[2], ProjPoint((0, 7, 1)))]
    c = FramedCycle(pts, frs)  # framing 0 contains neighbor p1
    assert not cycle_general_position(c)
    with pytest.raises(PreconditionError):
        monodromy(c, 0, ProjLine((1, 1, 1)))


# ---------------------------------------------------------------------------
# projection

def test_projection_shrinks_and_stays_general():
    for seed in range(6):
        c = random_framed_cycle(5, seed, equilibrium=False)
        out = project_cycle(c, 1)
        assert len(out) == 4
        assert cycle_general_position(out)


def test_projection_wraparound_index():
    c = random_framed_cycle(4, 9, equilibrium=False)
    out = project_cycle(c, len(c) - 1)
    assert len(out) == 3
    assert cycle_general_position(out)


def test_projection_preserves_surviving_monodromy():
    for seed in range(8):
        k = 4 + (seed % 3)
        c = random_framed_cycle(k, seed, equilibrium=(seed % 2 == 0))
        out = project_cycle(c, 1)  # base framing index 0 survives unchanged
        aux = pick_aux_line(c, 50 + seed, extra_avoid=list(out.points))
        m1 = monodromy(c, 0, aux)
        m2 = monodromy(out, 0, aux)
        assert m1.proportional_to(m2)
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
    from tensec.numeric import ExactMatrix, nullspace_basis
    from tensec.projective import Force, line_of_force

    for seed in range(8):
        k = 4 + seed % 3
        positive = seed % 2 == 0
        c = random_framed_cycle(k, seed, equilibrium=positive)
        edge_reps = [c.edge_line(i).coeffs for i in range(k)]
        framing_reps = [l.coeffs for l in c.framings]
        rows = []
        for i in range(k - 1):  # omit the last vertex
            for coord in range(3):
                row = [Fraction(0)] * (2 * k - 1)
                row[i] += Fraction(edge_reps[i][coord])
                row[(i - 1) % k] -= Fraction(edge_reps[(i - 1) % k][coord])
                row[k + i] = Fraction(framing_reps[i][coord])
                rows.append(row)
        basis = nullspace_basis(ExactMatrix(rows))
        assert len(basis) == 1  # almost-equilibrium loads are unique up to scale
        t = basis[0][:k]
        i = k - 1
        residual = Force(tuple(t[i] * Fraction(edge_reps[i][coord])
                               - t[i - 1] * Fraction(edge_reps[i - 1][coord])
                               for coord in range(3)))
        closes = residual.is_zero() or line_of_force(residual) == c.framings[i]
        assert closes == positive


def test_framed_cycle_json_roundtrip():
    c = concurrent_triangle()
    obj = json.loads(json.dumps(framed_cycle_to_json(c)))
    back = framed_cycle_from_json(obj)
    assert back.points == c.points
    assert back.framings == c.framings


def test_seeded_lines_match_recorded_values():
    # pick_aux_line and chart_avoiding draw coefficient triples from one
    # seeded stream; the values were recorded before the two shared a helper
    pts = [ProjPoint((0, 0, 1)), ProjPoint((4, 0, 1)), ProjPoint((5, 3, 1)),
           ProjPoint((1, 4, 1))]
    frs = [ProjLine((1, 2, 0)), ProjLine((1, -1, -4)), ProjLine((3, 1, -18)),
           ProjLine((2, 1, -6))]
    c = FramedCycle(pts, frs)
    # seed: (line, a point on it, line when that point is avoided too)
    recorded = {
        0: ((730, -211, 553), (211, 730, 0), (824, -138, -917)),
        1: ((362, -83, -368), (83, 362, 0), (644, 565, -870)),
        2: ((479, 384, 471), (384, -479, 0), (739, -884, -812)),
        3: ((512, -214, -115), (107, 256, 0), (366, 121, -438)),
        4: ((258, 189, 394), (63, -86, 0), (478, -188, -19)),
    }
    for seed, (first, on_first, second) in recorded.items():
        assert pick_aux_line(c, seed).coeffs == first
        assert pick_aux_line(c, seed, extra_avoid=[ProjPoint(on_first)]).coeffs == second
        if seed:
            fixture = list(DESARGUES_POS.placement.values())
            chart = chart_avoiding(fixture, seed=seed)
            assert chart.infinity_line.coeffs == first
            chart = chart_avoiding(fixture + [ProjPoint(on_first)], seed=seed)
            assert chart.infinity_line.coeffs == second
