import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from all_cycles import all_cycles_system, both_systems, framing
from lemmas import is_trivial, random_framed_cycle
from tensec import conditions, resolution
from tensec.cli import main
from tensec.conditions import (_node_table, condition_sexprs,
                               cycle_condition_expression, evaluate,
                               fulfilled_with_witness, generate_system,
                               system_to_json, to_json_ast, to_sexpr)
from tensec.errors import InputError, PreconditionError
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_GRAPH, PASCAL_NEG, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import (Framework, Graph, edge_key,
                              find_nonparallelizable_stress, framework_to_json,
                              forceload_from_stress, framework_from_json,
                              framework_in_general_position, read_json,
                              self_stress_basis)
from tensec.cycles import monodromy, pick_aux_line
from tensec.projective import (TRUE, AffineChart, ProjLine, ProjPoint, join, meet,
                               pick_generic_line_through, pick_generic_point_on,
                               rel_collinear, rel_concurrent, rel_incident,
                               sub_seed)
from tensec.quantization import (consistency_cycles, default_trees,
                                 quantization_from_stress, xi_slots)
from tensec.sampling import random_placement

STANDARD = AffineChart.standard()


def random_projective_map(seed: int):
    """Random invertible 3x3 rational matrix with its inverse transpose,
    as (point_map, line_map) callables."""
    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-20, 20)) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det != 0:
            break
    adj = [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3])
            for j in range(3)] for i in range(3)]

    def point_map(p: ProjPoint) -> ProjPoint:
        return ProjPoint(tuple(sum(m[i][j] * Fraction(p.coords[j]) for j in range(3))
                               for i in range(3)))

    def line_map(l: ProjLine) -> ProjLine:
        # inverse-transpose action: adj(M)^T up to the determinant
        return ProjLine(tuple(sum(Fraction(adj[j][i]) * Fraction(l.coeffs[j])
                                  for j in range(3)) for i in range(3)))

    return point_map, line_map


def transform_framework(fw: Framework, point_map) -> Framework:
    return Framework(fw.graph, {v: point_map(p) for v, p in fw.placement.items()})


def complete_graph(n):
    ids = [f"v{i}" for i in range(n)]
    return Graph(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])


def wheel_graph(spokes):
    rim = [f"r{i}" for i in range(spokes)]
    return Graph(["h"] + rim, [("h", r) for r in rim]
                 + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)])


def petersen_graph(n=5, k=2, chord=()):
    """GP(n, k): outer cycle u_i, spokes u_i w_i, inner star w_i w_{i+k};
    GP(4, 1) is the cube."""
    ids = [f"u{i}" for i in range(n)] + [f"w{i}" for i in range(n)]
    edges = {frozenset(e) for i in range(n)
             for e in ((f"u{i}", f"u{(i + 1) % n}"), (f"u{i}", f"w{i}"),
                       (f"w{i}", f"w{(i + k) % n}"))}
    if chord:
        edges.add(frozenset(chord))
    return Graph(ids, sorted(tuple(sorted(e)) for e in edges))


def pt(node, v):
    return node("point", (v,))


def lv(node, v):
    return node("linevar", (v, 1))


def test_xi_space_slot_counts():
    assert generate_system(DESARGUES_GRAPH).slots == ()
    assert generate_system(WHEEL5_GRAPH).slots == (("p1", 1),)
    assert len(generate_system(complete_graph(5)).slots) == 5
    with pytest.raises(InputError):
        xi_slots(default_trees(Graph(["a", "b", "c"],
                                     [("a", "b"), ("b", "c"), ("a", "c")])))


def reference_xi_space(g: Graph):
    """The slots as the configuration space once counted them, by vertex
    degree (kept as the reference of `xi_slots`)."""
    g.require_min_degree()
    slots = []
    for v in g.vertices:
        for idx in range(1, g.degree(v) - 3 + 1):
            slots.append((v, idx))
    return tuple(slots)


_SLOT_GRAPHS = {
    **{f"wheel{k}": wheel_graph(k) for k in range(4, 10)},
    **{f"K{n}": complete_graph(n) for n in range(4, 8)},
    "GP(5,2)": petersen_graph(), "GP(8,3)": petersen_graph(8, 3),
    "desargues": DESARGUES_GRAPH, "pascal": PASCAL_GRAPH, "wheel5-fixture": WHEEL5_GRAPH,
    "wheel6-golden": framework_from_json(read_json(
        Path(__file__).parent / "golden" / "wheel6_framework.json")).graph,
}


@pytest.mark.parametrize("name", sorted(_SLOT_GRAPHS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_xi_slots_match_degree_count(name, seed):
    # the vertices renamed in a seeded order, which reorders both the
    # vertices and each vertex's neighbors
    g = _SLOT_GRAPHS[name]
    names = [f"x{i}" for i in range(len(g.vertices))]
    random.Random(seed).shuffle(names)
    rename = dict(zip(g.vertices, names))
    g = Graph(names, [(rename[a], rename[b]) for a, b in g.edges])
    assert xi_slots(default_trees(g)) == reference_xi_space(g)


def test_ast_typing_enforced():
    node = _node_table()
    p = pt(node, "p1")
    l = lv(node, "p1")
    with pytest.raises(InputError):
        node("join", (p, l))
    with pytest.raises(InputError):
        node("meet", (p, p))
    with pytest.raises(InputError):
        node("concurrent", (p, l, l))
    node("incident", (p, l))  # well-typed


def test_framing_expression_degree3_is_third_edge():
    trees, node = default_trees(DESARGUES_GRAPH), _node_table()
    expr = framing(trees, "p2", ("p2", "p3"), ("p2", "p6"), node)
    assert expr is node("join", (pt(node, "p1"), pt(node, "p2")))


def test_framing_expression_degree4_adjacent_pairs_are_bare_linevars():
    trees, node = default_trees(WHEEL5_GRAPH), _node_table()
    # hub caterpillar order: (p1p2, p1p3 | p1p4, p1p5)
    expr_a = framing(trees, "p1", ("p1", "p2"), ("p1", "p3"), node)
    expr_b = framing(trees, "p1", ("p1", "p4"), ("p1", "p5"), node)
    assert expr_a is expr_b is lv(node, "p1")


def test_framing_expression_degree4_mixed_pair_expands_surgery():
    trees = default_trees(WHEEL5_GRAPH)
    expr = framing(trees, "p1", ("p1", "p2"), ("p1", "p4"), _node_table())
    text = to_sexpr(expr, {})
    assert "generic-point" in text and "generic-line" in text
    assert text.count("(join") >= 4


def test_cycle_condition_three_vertices():
    node = _node_table()
    f = [node("join", (pt(node, a), pt(node, b))) for a, b in ("ab", "cd", "ef")]
    pts = [pt(node, x) for x in "xyz"]
    assert cycle_condition_expression(pts, f, node) is node("concurrent", tuple(f))


def test_cycle_condition_four_vertices_display_form():
    node = _node_table()
    pts = [pt(node, f"p{i}") for i in range(1, 5)]
    frs = [lv(node, f"p{i}") for i in range(1, 5)]
    # slots need degree >= 4 hosts; the shape is what matters here
    expr = cycle_condition_expression(pts, frs, node)
    assert expr is node("collinear", (
        node("meet", (frs[0], frs[3])),
        node("meet", (frs[1], frs[2])),
        node("meet", (node("join", (pts[0], pts[1])), node("join", (pts[2], pts[3])))),
    ))


def test_cycle_condition_five_vertices_display_form():
    node = _node_table()
    pts = [pt(node, f"p{i}") for i in range(1, 6)]
    frs = [lv(node, f"p{i}") for i in range(1, 6)]
    expr = cycle_condition_expression(pts, frs, node)

    def line(a, b):
        return node("join", (a, b))

    def point(a, b):
        return node("meet", (a, b))

    assert expr is node("concurrent", (
        line(point(frs[1], frs[2]), point(line(pts[0], pts[1]), line(pts[2], pts[3]))),
        frs[0],
        line(point(frs[3], frs[4]), point(line(pts[2], pts[3]), line(pts[4], pts[0]))),
    ))


def head_condition_expression(cycle_points, framing_exprs, node):
    """`cycle_condition_expression` in one operation order for every k:
    merge the first two vertices until three remain (kept as the reference
    of the display shapes at k = 4 and k = 5)."""
    pts, frs = list(cycle_points), list(framing_exprs)
    while len(pts) > 3:
        merged = node("meet", (node("join", (pts[-1], pts[0])),
                               node("join", (pts[1], pts[2]))))
        frs = [node("join", (merged, node("meet", (frs[0], frs[1]))))] + frs[2:]
        pts = [merged] + pts[2:]
    return node("concurrent", tuple(frs))


def _framed_cycle_condition(c, build=cycle_condition_expression):
    """Condition expression plus evaluation context for a concrete framed
    cycle: points become constants q_i, framings become joins q_i r_i with
    r_i a second point on the framing line."""
    k = len(c)
    node = _node_table()
    placement = {}
    pts = []
    frs = []
    for i in range(k):
        qi, ri = f"q{i}", f"r{i}"
        placement[qi] = c.points[i]
        second = pick_generic_point_on(c.framings[i], {c.points[i]}, seed=i + 1)
        placement[ri] = second
        pts.append(pt(node, qi))
        frs.append(node("join", (pt(node, qi), pt(node, ri))))
    expr = build(pts, frs, node)
    ids = sorted(placement)
    # framework container only for evaluation: grid graph over the ids
    g = Graph(ids, [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)])
    return expr, Framework(g, placement)


def test_condition_matches_monodromy_on_random_cycles():
    for seed in range(200):
        k = 3 + seed % 5
        c = random_framed_cycle(k, seed, equilibrium=(seed % 2 == 0))
        expr, ctx = _framed_cycle_condition(c)
        verdict = evaluate(expr, ctx, {}, seed=17)
        aux = pick_aux_line(c, 31 + seed)
        assert verdict == is_trivial(monodromy(c, 0, aux))


def test_condition_variants_agree():
    for seed in range(40):
        k = 4 + seed % 4
        c = random_framed_cycle(k, seed, equilibrium=(seed % 2 == 0))
        e1, ctx = _framed_cycle_condition(c)
        e2, _ = _framed_cycle_condition(c, head_condition_expression)
        assert evaluate(e1, ctx, {}, seed=3) == evaluate(e2, ctx, {}, seed=3)


def test_evaluation_verdict_stable_across_seeds():
    for seed in range(10):
        c = random_framed_cycle(4, seed, equilibrium=(seed % 2 == 0))
        expr, ctx = _framed_cycle_condition(c)
        assert evaluate(expr, ctx, {}, seed=1) == evaluate(expr, ctx, {}, seed=999)


def test_early_true_fulfills_condition():
    # coincident intermediate lines absorb to TRUE and the relation holds
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    fw = Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((1, 0, 1)),
                       "c": ProjPoint((0, 1, 1))})
    node = _node_table()
    same = node("join", (pt(node, "a"), pt(node, "b")))
    other = node("join", (pt(node, "a"), pt(node, "c")))
    assert evaluate(node("concurrent", (same, same, other)), fw, {}, 0) is True
    inner = node("meet", (same, same))  # evaluates to TRUE and absorbs upward
    assert evaluate(node("collinear", (inner, pt(node, "b"), pt(node, "c"))),
                    fw, {}, 0) is True
    assert evaluate(node("incident", (inner, other)), fw, {}, 0) is True


def test_generate_system_fixture_contents():
    system = all_cycles_system(DESARGUES_GRAPH)
    sexprs = {to_sexpr(c.expr, {}) for c in system.conditions}
    assert "(concurrent (join p1 p2) (join p3 p4) (join p5 p6))" in sexprs
    assert len(system.conditions) == 11
    pascal = all_cycles_system(PASCAL_GRAPH)
    assert ("(collinear (meet (join p1 p6) (join p4 p5)) "
            "(meet (join p2 p5) (join p3 p6)) "
            "(meet (join p1 p2) (join p3 p4)))") in {to_sexpr(c.expr, {})
                                                     for c in pascal.conditions}
    # the compiled system: one condition per dimension of the cycle space
    assert len(generate_system(DESARGUES_GRAPH).conditions) == 9 - 6 + 1


def test_generate_system_rejects_low_degree_and_bad_frameworks():
    with pytest.raises(InputError):
        generate_system(Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]))


def test_fixture_verdicts_match_oracle():
    for system_d in both_systems(DESARGUES_GRAPH):
        assert fulfilled_with_witness(system_d, DESARGUES_POS, {}, 7)
        assert not fulfilled_with_witness(system_d, DESARGUES_NEG, {}, 7)
    for system_p in both_systems(PASCAL_GRAPH):
        assert fulfilled_with_witness(system_p, PASCAL_POS, {}, 7)
        assert not fulfilled_with_witness(system_p, PASCAL_NEG, {}, 7)


def test_small_randomized_equivalence_with_oracle():
    systems = both_systems(DESARGUES_GRAPH)
    hits = {True: 0, False: 0}
    from tensec.sampling import desargues_concurrent_placement

    for i in range(30):
        if i % 2:
            fw = desargues_concurrent_placement(DESARGUES_GRAPH, 7000 + i)
        else:
            fw = random_placement(DESARGUES_GRAPH, 9000 + i, bound=50)
        if not framework_in_general_position(fw):
            continue
        basis = self_stress_basis(fw, STANDARD)
        oracle = find_nonparallelizable_stress(fw, basis, STANDARD, seed=0) is not None
        for system in systems:
            assert fulfilled_with_witness(system, fw, {}, 100 + i) == oracle
        hits[oracle] += 1
    assert hits[True] >= 5 and hits[False] >= 5


def wheel_positive(seed):
    s = seed
    while True:
        s += 1
        fw = random_placement(WHEEL5_GRAPH, s, bound=60)
        if not framework_in_general_position(fw):
            continue
        w = find_nonparallelizable_stress(
            fw, self_stress_basis(fw, STANDARD), STANDARD, seed=0)
        if w is not None:
            return fw, w


def test_wheel_witness_direction_and_degree4_identity():
    systems = both_systems(WHEEL5_GRAPH)
    trees, node = default_trees(WHEEL5_GRAPH), _node_table()
    for seed in (100, 200, 300):
        fw, w = wheel_positive(seed)
        quant = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD), trees)
        witness = quant.interior_labels
        for system in systems:
            assert fulfilled_with_witness(system, fw, witness, seed)
        # complementary-pair identity at the degree-4 hub, evaluated
        e12, e13 = ("p1", "p2"), ("p1", "p3")
        e14, e15 = ("p1", "p4"), ("p1", "p5")
        one = framing(trees, "p1", e12, e14, node)
        two = framing(trees, "p1", e13, e15, node)
        l1 = evaluate(one, fw, witness, seed)
        l2 = evaluate(two, fw, witness, seed)
        assert l1 == l2


def test_symbolic_framing_matches_numeric_scheme():
    from tensec.resolution import associated_framing

    def check(fw, w, hub, pairs, eval_seeds):
        trees, node = default_trees(fw.graph), _node_table()
        quant = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD), trees)
        witness = quant.interior_labels
        scheme = quant.scheme_at(hub)
        for pair in pairs:
            expr = framing(trees, hub, *pair, node)
            numeric = associated_framing(scheme, *pair)
            for seed in eval_seeds:
                assert evaluate(expr, fw, witness, seed) == numeric

    for seed in (11, 22):
        fw, w = wheel_positive(seed)
        check(fw, w, "p1", ((("p1", "p2"), ("p1", "p4")),
                            (("p1", "p3"), ("p1", "p4")),
                            (("p1", "p2"), ("p1", "p5"))), (seed,))
    # a hub of degree 6, whose framings need up to three surgeries: all 15
    # edge pairs in both orders, stress as `check --seed 6` finds it
    fw = framework_from_json(read_json(Path(__file__).parent / "golden"
                                       / "wheel6_framework.json"))
    w = find_nonparallelizable_stress(fw, self_stress_basis(fw, STANDARD), STANDARD, seed=6)
    hub_edges = [edge_key("h", u) for u in fw.graph.neighbors("h")]
    check(fw, w, "h", permutations(hub_edges, 2), (1, 2))


def test_double_evaluation_of_surgery_expression_is_stable():
    trees = default_trees(WHEEL5_GRAPH)
    expr = framing(trees, "p1", ("p1", "p2"), ("p1", "p4"), _node_table())
    for seed in (5, 6):
        fw, w = wheel_positive(400 + seed)
        quant = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD), trees)
        witness = quant.interior_labels
        assert evaluate(expr, fw, witness, 1) == evaluate(expr, fw, witness, 2)


def test_projective_invariance_of_evaluation():
    for seed in (3, 4):
        point_map, _ = random_projective_map(seed)
        for fw, expected in ((DESARGUES_POS, True), (DESARGUES_NEG, False)):
            moved = transform_framework(fw, point_map)
            for system in both_systems(DESARGUES_GRAPH):
                assert fulfilled_with_witness(system, moved, {}, seed) == expected


def test_projective_invariance_with_witness_lines():
    fw, w = wheel_positive(77)
    quant = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                     default_trees(WHEEL5_GRAPH))
    witness = quant.interior_labels
    point_map, line_map = random_projective_map(8)
    moved = transform_framework(fw, point_map)
    moved_witness = {slot: line_map(l) for slot, l in witness.items()}
    for system in both_systems(WHEEL5_GRAPH):
        assert fulfilled_with_witness(system, moved, moved_witness, 5)


def test_witness_must_cover_slots():
    system = generate_system(WHEEL5_GRAPH)
    fw, _ = wheel_positive(55)
    with pytest.raises(InputError):
        fulfilled_with_witness(system, fw, {}, 1)


def test_generic_node_avoid_sets_recorded():
    trees, node = default_trees(WHEEL5_GRAPH), _node_table()
    expr = framing(trees, "p1", ("p1", "p2"), ("p1", "p4"), node)

    found = []

    def walk(e):
        if e.op == "generic-point":
            found.append(e)
        if e.op not in ("point", "linevar"):
            for x in e.args + e.avoid:
                walk(x)

    walk(expr)
    assert found
    chart_pick = found[0]
    p1 = pt(node, "p1")
    assert p1 in chart_pick.avoid or any(p1 in f.avoid for f in found)
    # the affine-chart membership constraint appears as a meet avoid point
    assert any(any(a.op == "meet" for a in f.avoid) for f in found)


def test_system_json_shape():
    payload = system_to_json(all_cycles_system(WHEEL5_GRAPH))
    assert payload["xi"]["slots"] == [["p1", 1]]
    assert len(payload["conditions"]) == 9
    assert system_to_json(generate_system(WHEEL5_GRAPH)) == {
        "xi": payload["xi"],
        "conditions": [c for c in payload["conditions"]
                       if tuple(c["cycle"]) in consistency_cycles(WHEEL5_GRAPH)]}
    first = payload["conditions"][0]
    assert set(first) == {"cycle", "ast", "sexpr"}
    assert first["ast"]["id"] == 0
    ids = []

    def collect(node):
        ids.append(node["id"])
        for key in ("args", "avoid"):
            for child in node.get(key, []):
                collect(child)
        if "arg" in node:
            collect(node["arg"])

    collect(first["ast"])
    assert sorted(ids) == list(range(len(ids)))


# ---------------------------------------------------------------------------
# reference: one frozen dataclass per operation, walked by isinstance ladders
# (the earlier implementation, kept to cross-check the one-node grammar)

def _require_point(e):
    if not isinstance(e, _POINT_NODES):
        raise InputError(f"expected a point-valued expression, got {type(e).__name__}")


def _require_line(e):
    if not isinstance(e, _LINE_NODES):
        raise InputError(f"expected a line-valued expression, got {type(e).__name__}")


@dataclass(frozen=True)
class PointConst:
    vertex: str


@dataclass(frozen=True)
class LineVar:
    vertex: str
    index: int


@dataclass(frozen=True)
class Join:
    a: object
    b: object

    def __post_init__(self):
        _require_point(self.a)
        _require_point(self.b)


@dataclass(frozen=True)
class Meet:
    a: object
    b: object

    def __post_init__(self):
        _require_line(self.a)
        _require_line(self.b)


@dataclass(frozen=True)
class GenericPointOn:
    line: object
    avoid: tuple = ()

    def __post_init__(self):
        _require_line(self.line)
        for a in self.avoid:
            _require_point(a)


@dataclass(frozen=True)
class GenericLineThrough:
    point: object
    avoid: tuple = ()

    def __post_init__(self):
        _require_point(self.point)
        for a in self.avoid:
            _require_line(a)


@dataclass(frozen=True)
class Concurrent3:
    a: object
    b: object
    c: object

    def __post_init__(self):
        for x in (self.a, self.b, self.c):
            _require_line(x)


@dataclass(frozen=True)
class Collinear3:
    a: object
    b: object
    c: object

    def __post_init__(self):
        for x in (self.a, self.b, self.c):
            _require_point(x)


@dataclass(frozen=True)
class Incident:
    point: object
    line: object

    def __post_init__(self):
        _require_point(self.point)
        _require_line(self.line)


_POINT_NODES = (PointConst, Meet, GenericPointOn)
_LINE_NODES = (LineVar, Join, GenericLineThrough)


def reference_sexpr(e) -> str:
    if isinstance(e, PointConst):
        return e.vertex
    if isinstance(e, LineVar):
        return f"(linevar {e.vertex} {e.index})"
    if isinstance(e, Join):
        return f"(join {reference_sexpr(e.a)} {reference_sexpr(e.b)})"
    if isinstance(e, Meet):
        return f"(meet {reference_sexpr(e.a)} {reference_sexpr(e.b)})"
    if isinstance(e, GenericPointOn):
        avoid = " ".join(reference_sexpr(a) for a in e.avoid)
        return f"(generic-point {reference_sexpr(e.line)} (avoid {avoid}))"
    if isinstance(e, GenericLineThrough):
        avoid = " ".join(reference_sexpr(a) for a in e.avoid)
        return f"(generic-line {reference_sexpr(e.point)} (avoid {avoid}))"
    if isinstance(e, Concurrent3):
        return (f"(concurrent {reference_sexpr(e.a)} {reference_sexpr(e.b)}"
                f" {reference_sexpr(e.c)})")
    if isinstance(e, Collinear3):
        return (f"(collinear {reference_sexpr(e.a)} {reference_sexpr(e.b)}"
                f" {reference_sexpr(e.c)})")
    if isinstance(e, Incident):
        return f"(incident {reference_sexpr(e.point)} {reference_sexpr(e.line)})"
    raise InputError(f"not an expression: {e!r}")


def reference_json_ast(e, counter=None) -> dict:
    if counter is None:
        counter = [0]
    nid = counter[0]
    counter[0] += 1
    if isinstance(e, PointConst):
        return {"id": nid, "op": "point", "vertex": e.vertex}
    if isinstance(e, LineVar):
        return {"id": nid, "op": "linevar", "vertex": e.vertex, "index": e.index}
    if isinstance(e, Join):
        return {"id": nid, "op": "join",
                "args": [reference_json_ast(e.a, counter),
                         reference_json_ast(e.b, counter)]}
    if isinstance(e, Meet):
        return {"id": nid, "op": "meet",
                "args": [reference_json_ast(e.a, counter),
                         reference_json_ast(e.b, counter)]}
    if isinstance(e, GenericPointOn):
        return {"id": nid, "op": "generic-point",
                "arg": reference_json_ast(e.line, counter),
                "avoid": [reference_json_ast(a, counter) for a in e.avoid]}
    if isinstance(e, GenericLineThrough):
        return {"id": nid, "op": "generic-line",
                "arg": reference_json_ast(e.point, counter),
                "avoid": [reference_json_ast(a, counter) for a in e.avoid]}
    if isinstance(e, Concurrent3):
        return {"id": nid, "op": "concurrent",
                "args": [reference_json_ast(x, counter) for x in (e.a, e.b, e.c)]}
    if isinstance(e, Collinear3):
        return {"id": nid, "op": "collinear",
                "args": [reference_json_ast(x, counter) for x in (e.a, e.b, e.c)]}
    if isinstance(e, Incident):
        return {"id": nid, "op": "incident",
                "args": [reference_json_ast(e.point, counter),
                         reference_json_ast(e.line, counter)]}
    raise InputError(f"not an expression: {e!r}")


def reference_node_value(expr, ev, fw: Framework, line_assignment, seed: int):
    if isinstance(expr, PointConst):
        try:
            return fw.placement[expr.vertex]
        except KeyError as exc:
            raise InputError(f"placement misses vertex {expr.vertex!r}") from exc
    if isinstance(expr, LineVar):
        key = (expr.vertex, expr.index)
        if key not in line_assignment:
            raise InputError(f"assignment misses slot {key}")
        line = line_assignment[key]
        if not line.contains(fw.placement[expr.vertex]):
            raise PreconditionError(f"assigned line for {key} misses its point")
        return line
    if isinstance(expr, Join):
        return join(ev(expr.a), ev(expr.b))
    if isinstance(expr, Meet):
        return meet(ev(expr.a), ev(expr.b))
    if isinstance(expr, GenericPointOn):
        line = ev(expr.line)
        if line is TRUE:
            return TRUE
        avoid = [a for a in map(ev, expr.avoid) if a is not TRUE]
        return pick_generic_point_on(line, avoid, sub_seed(seed, reference_sexpr(expr)))
    if isinstance(expr, GenericLineThrough):
        point = ev(expr.point)
        if point is TRUE:
            return TRUE
        avoid = [a for a in map(ev, expr.avoid) if a is not TRUE]
        return pick_generic_line_through(point, avoid,
                                         sub_seed(seed, reference_sexpr(expr)))
    if isinstance(expr, Concurrent3):
        return rel_concurrent(ev(expr.a), ev(expr.b), ev(expr.c))
    if isinstance(expr, Collinear3):
        return rel_collinear(ev(expr.a), ev(expr.b), ev(expr.c))
    if isinstance(expr, Incident):
        return rel_incident(ev(expr.point), ev(expr.line))
    raise InputError(f"not an expression: {expr!r}")


def reference_evaluate(expr, fw, line_assignment, seed):
    memo = {}

    def ev(e):
        if e not in memo:
            memo[e] = reference_node_value(e, ev, fw, line_assignment, seed)
        return memo[e]
    return ev(expr)


_REFERENCE_CLASSES = {"join": Join, "meet": Meet, "concurrent": Concurrent3,
                      "collinear": Collinear3, "incident": Incident}


@functools.cache
def to_reference(e):
    """The reference node equal to an `Expr`."""
    if e.op == "point":
        return PointConst(*e.args)
    if e.op == "linevar":
        return LineVar(*e.args)
    if e.op == "generic-point":
        return GenericPointOn(to_reference(e.args[0]), tuple(map(to_reference, e.avoid)))
    if e.op == "generic-line":
        return GenericLineThrough(to_reference(e.args[0]),
                                  tuple(map(to_reference, e.avoid)))
    return _REFERENCE_CLASSES[e.op](*map(to_reference, e.args))


_GRAPHS = {
    **{f"wheel{m}": wheel_graph(m) for m in range(4, 8)},
    "K4": complete_graph(4), "K5": complete_graph(5),
    "cube-chord": petersen_graph(4, 1, chord=("u0", "w2")),
    "petersen": petersen_graph(),
    "desargues": DESARGUES_GRAPH, "pascal": PASCAL_GRAPH,
}


def _system(name, cycles):
    """The compiled system, or the reference system of every simple cycle."""
    g = _GRAPHS[name]
    return all_cycles_system(g) if cycles == "all" else generate_system(g)


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_compiled_system_is_the_reference_on_the_fundamental_cycles(name):
    g = _GRAPHS[name]
    fundamental = set(consistency_cycles(g))
    reference = [c for c in all_cycles_system(g).conditions if c.cycle in fundamental]
    system = generate_system(g)
    assert system.slots == all_cycles_system(g).slots
    # the two systems come from two node tables, so they compare as text
    assert [c.cycle for c in system.conditions] == [c.cycle for c in reference]
    assert [c.cycle for c in system.conditions] == consistency_cycles(g)
    assert condition_sexprs(system) == [to_sexpr(c.expr, {}) for c in reference]
    assert ([to_json_ast(c.expr) for c in system.conditions]
            == [to_json_ast(c.expr) for c in reference])


def _nodes(system):
    """Every node object of a system once: {id: node}."""
    seen = {}
    stack = [c.expr for c in system.conditions]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            if e.op not in ("point", "linevar"):
                stack += [*e.args, *e.avoid]
    return seen


@pytest.mark.parametrize("graph", [complete_graph(6), wheel_graph(8), petersen_graph(),
                                   petersen_graph(8, 3)],
                         ids=["K6", "wheel8", "petersen", "GP(8,3)"])
def test_one_system_builds_each_node_once(graph):
    first, second = generate_system(graph), generate_system(graph)
    nodes = _nodes(first)
    # two nodes of one system are one object exactly when their texts agree
    memo = {}
    assert len({to_sexpr(e, memo) for e in nodes.values()}) == len(nodes)
    # the table lives for one call: a second system shares no node
    assert condition_sexprs(first) == condition_sexprs(second)
    assert set(nodes).isdisjoint(_nodes(second))


@pytest.mark.parametrize("name, shapes", [("K6", 1), ("cube-chord", 2)])
def test_compiling_builds_one_tree_per_degree(monkeypatch, name, shapes):
    built = []
    init = resolution.BinaryTree.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(resolution.BinaryTree, "__init__", counting_init)
    g = complete_graph(6) if name == "K6" else _GRAPHS[name]
    system = generate_system(g)
    # the framings need surgeries, and none of them builds a tree; each
    # vertex of a degree gets that degree's one validated caterpillar
    assert any(e.op == "generic-point" for e in _nodes(system).values())
    assert len({len(g.neighbors(v)) for v in g.vertices}) == shapes
    assert len(built) == shapes


def _count_texts(monkeypatch):
    """The generic nodes whose s-expression text `to_sexpr` builds, one
    entry per memo miss."""
    built = []
    to_sexpr = conditions.to_sexpr

    def counting(e, memo):
        if e.op in ("generic-point", "generic-line") and e not in memo:
            built.append(e)
        return to_sexpr(e, memo)

    monkeypatch.setattr(conditions, "to_sexpr", counting)
    return built


def _generic_count(g):
    return sum(e.op in ("generic-point", "generic-line")
               for e in _nodes(generate_system(g)).values())


@pytest.mark.parametrize("samples", ["1", "4"])
def test_verify_builds_each_generic_text_once(monkeypatch, tmp_path, capsys, samples):
    # the picks of every sample read the system's one memo
    path = tmp_path / "wheel5.json"
    path.write_text(json.dumps({"vertices": list(WHEEL5_GRAPH.vertices),
                                "edges": [list(e) for e in WHEEL5_GRAPH.edges]}))
    built = _count_texts(monkeypatch)
    assert main(["verify", str(path), "--samples", samples, "--seed", "2"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    assert len(built) == len(set(built)) == _generic_count(WHEEL5_GRAPH)


def test_check_json_builds_each_generic_text_once(monkeypatch, tmp_path, capsys):
    # the picks' seeds and the report's s-expressions share the memo
    g = complete_graph(6)
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(framework_to_json(random_placement(g, 1, bound=60))))
    built = _count_texts(monkeypatch)
    assert main(["check", str(path), "--seed", "1", "--format", "json"]) == 0
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert report["conditions_fulfilled"] is not None  # the picks were drawn
    assert len(built) == len(set(built)) == _generic_count(g)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except (InputError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_GRAPHS)),
       cycles=st.sampled_from(("all", "fundamental")),
       seed=st.integers(0, 10**6), bound=st.sampled_from((3, 60)))
def test_expr_matches_per_class_reference(name, cycles, seed, bound):
    system = _system(name, cycles)
    fw = random_placement(_GRAPHS[name], seed, bound=bound)
    slots = {(v, i): pick_generic_line_through(fw.placement[v], [], seed + i)
             for v, i in system.slots}
    values = []
    for cond in system.conditions:
        ref = to_reference(cond.expr)
        assert to_sexpr(cond.expr, {}) == reference_sexpr(ref)
        assert to_json_ast(cond.expr) == reference_json_ast(ref)
        got = _outcome(evaluate, cond.expr, fw, slots, seed)
        assert got == _outcome(reference_evaluate, ref, fw, slots, seed)
        values.append(got)
    if all(kind == "value" for kind, _ in values):
        assert fulfilled_with_witness(system, fw, slots, seed) == all(
            v for _, v in values)
