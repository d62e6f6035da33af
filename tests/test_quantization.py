import random
from fractions import Fraction

import pytest

from tensec.errors import (GenericityError, InconsistentQuantizationError,
                           PreconditionError)
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_NEG, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import (find_nonparallelizable_stress, forceload_from_stress,
                              framework_in_general_position, is_equilibrium,
                              is_non_parallelizable, self_stress_basis,
                              stress_of_forceload)
from tensec.quantization import (Quantization, ResolutionGraph, construct_forceload,
                                 consistency_cycles, default_trees, framed_cycle_of,
                                 fundamental_cycles, induced_stress, is_consistent,
                                 is_consistent_at, quantization_from_stress)
from tensec.sampling import random_placement


def stressed_quantization(fw):
    w = self_stress_basis(fw)[0]
    return quantization_from_stress(fw, forceload_from_stress(fw, w)), w


def wheel_framework(seed=0):
    s = seed
    while True:
        s += 1
        fw = random_placement(WHEEL5_GRAPH, s, bound=60)
        if not framework_in_general_position(fw):
            continue
        w = find_nonparallelizable_stress(fw, self_stress_basis(fw))
        if w is not None and all(x != 0 for x in w.weights.values()):
            return fw, w


def test_quantization_from_stress_deg3_has_no_interior_labels():
    fw = DESARGUES_POS
    q, _ = stressed_quantization(fw)
    assert q.interior_labels == {}
    assert all(q.scheme_at(v).strongly_generic for v in fw.graph.vertices)


def test_quantization_requires_nonparallelizable_load():
    from tensec.framework import ForceLoad
    from tensec.projective import ZERO_FORCE

    zero = ForceLoad({(u, v): ZERO_FORCE for u, v in DESARGUES_POS.graph.edges})
    with pytest.raises(GenericityError):
        quantization_from_stress(DESARGUES_POS, zero)


def test_wheel_quantization_hub_label():
    fw, w = wheel_framework()
    fl = forceload_from_stress(fw, w)
    q = quantization_from_stress(fw, fl)
    assert sorted(q.interior_labels) == [("p1", 1)]
    assert q.interior_labels[("p1", 1)].contains(fw.placement["p1"])
    assert all(q.scheme_at(v).strongly_generic for v in fw.graph.vertices)


def test_scaled_forceload_gives_identical_quantization():
    fw, w = wheel_framework(3)
    fl = forceload_from_stress(fw, w)
    q1 = quantization_from_stress(fw, fl)
    q2 = quantization_from_stress(fw, fl.scaled(Fraction(7, 3)))
    assert q1.interior_labels == q2.interior_labels


def test_framed_cycle_of_triangle_uses_opposite_edge_lines():
    q, _ = stressed_quantization(DESARGUES_POS)
    fc = framed_cycle_of(q, ("p2", "p3", "p6"))
    fw = DESARGUES_POS
    assert fc.framings == (fw.edge_line("p1", "p2"),
                           fw.edge_line("p3", "p4"),
                           fw.edge_line("p5", "p6"))
    from tensec.projective import rel_incident
    for p, l in zip(fc.points, fc.framings):
        assert rel_incident(p, l)


def test_framed_cycle_must_omit_a_vertex():
    q, _ = stressed_quantization(DESARGUES_POS)
    with pytest.raises(PreconditionError):
        framed_cycle_of(q, ("p1", "p2", "p3", "p4", "p5", "p6"))


def test_consistency_on_fixtures():
    q_pos, _ = stressed_quantization(DESARGUES_POS)
    assert is_consistent_at(q_pos, ("p2", "p3", "p6"), seed=5)
    assert is_consistent(q_pos, seed=5)
    q_neg = Quantization(ResolutionGraph(DESARGUES_NEG,
                                         default_trees(DESARGUES_NEG.graph)), {})
    assert not is_consistent_at(q_neg, ("p2", "p3", "p6"), seed=5)
    assert not is_consistent(q_neg, seed=5)

    q_ppos, _ = stressed_quantization(PASCAL_POS)
    assert is_consistent(q_ppos, seed=5)
    q_pneg = Quantization(ResolutionGraph(PASCAL_NEG, default_trees(PASCAL_NEG.graph)), {})
    assert not is_consistent(q_pneg, seed=5)


def test_consistency_verdict_independent_of_seed():
    q_pos, _ = stressed_quantization(DESARGUES_POS)
    q_neg = Quantization(ResolutionGraph(DESARGUES_NEG,
                                         default_trees(DESARGUES_NEG.graph)), {})
    for seed in (1, 17, 3333):
        assert is_consistent_at(q_pos, ("p2", "p3", "p6"), seed)
        assert not is_consistent_at(q_neg, ("p2", "p3", "p6"), seed)


def test_generators_mode_agrees_with_full_mode_on_fixtures():
    for fw, positive in ((DESARGUES_POS, True), (DESARGUES_NEG, False),
                         (PASCAL_POS, True), (PASCAL_NEG, False)):
        if positive:
            q, _ = stressed_quantization(fw)
        else:
            q = Quantization(ResolutionGraph(fw, default_trees(fw.graph)), {})
        assert is_consistent(q, 2, mode="all") == positive
        assert is_consistent(q, 2, mode="generators") == positive


def test_fundamental_cycles_generate_and_stay_short():
    for g in (DESARGUES_GRAPH, WHEEL5_GRAPH):
        cycles = fundamental_cycles(g)
        n = len(g.vertices)
        e = len(g.edges)
        assert len(cycles) >= e - n + 1
        for c in cycles:
            assert len(c) < n or n == 3


def test_construct_forceload_roundtrip_desargues():
    q, w = stressed_quantization(DESARGUES_POS)
    gt = construct_forceload(q)
    assert all(not f.is_zero() for f in gt.values())
    ind = induced_stress(q, gt)
    assert is_equilibrium(DESARGUES_POS, ind)
    assert is_non_parallelizable(DESARGUES_POS, ind)
    got = stress_of_forceload(DESARGUES_POS, ind)
    ratios = {got.weights[e] / w.weights[e] for e in w.weights}
    assert len(ratios) == 1


def test_construct_forceload_roundtrip_pascal_and_wheel():
    for fw, w in ((PASCAL_POS, self_stress_basis(PASCAL_POS)[0]),
                  wheel_framework(9)):
        fl = forceload_from_stress(fw, w)
        q = quantization_from_stress(fw, fl)
        assert is_consistent(q, 4)
        gt = construct_forceload(q)
        ind = induced_stress(q, gt)
        assert is_equilibrium(fw, ind)
        got = stress_of_forceload(fw, ind)
        ratios = {got.weights[e] / w.weights[e] for e in w.weights}
        assert len(ratios) == 1


def test_construct_forceload_independent_of_seed_edge():
    q, _ = stressed_quantization(DESARGUES_POS)
    base = construct_forceload(q)
    for e in (("p3", "p4"), ("p5", "p6"), ("p2", "p6")):
        other = construct_forceload(q, seed_edge=e)
        scale = None
        for key, f in base.items():
            g = other[key]
            for i in range(3):
                if f.dual[i]:
                    r = g.dual[i] / f.dual[i]
                    assert scale is None or r == scale
                    scale = r
            assert g.dual == tuple(scale * x for x in f.dual)


def test_induced_stress_of_zero_load_is_zero():
    from tensec.projective import ZERO_FORCE

    q, _ = stressed_quantization(DESARGUES_POS)
    rg = q.rgraph
    zero = {}
    for e in DESARGUES_POS.graph.edges:
        i, j = e
        zero[(rg.attach_node(i, e), rg.attach_node(j, e))] = ZERO_FORCE
        zero[(rg.attach_node(j, e), rg.attach_node(i, e))] = ZERO_FORCE
    ind = induced_stress(q, zero)
    assert all(ind.force(u, v).is_zero() for u, v in DESARGUES_POS.graph.edges)


def test_construct_forceload_detects_inconsistency():
    q = Quantization(ResolutionGraph(DESARGUES_NEG, default_trees(DESARGUES_NEG.graph)), {})
    with pytest.raises(InconsistentQuantizationError) as err:
        construct_forceload(q)
    assert len(err.value.cycle) >= 3


def test_consistency_cycle_set_modes():
    cycles_all = consistency_cycles(DESARGUES_POS.graph, "all")
    assert all(len(c) <= 5 for c in cycles_all)
    assert len(cycles_all) == 11
    gens = consistency_cycles(DESARGUES_POS.graph, "generators")
    assert set(gens) <= set(cycles_all)
