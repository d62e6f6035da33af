import contextlib
import json
import random
from fractions import Fraction
from itertools import count
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import reference_oracle
import tensec.framework as framework
from tensec import _kernel
from lemmas import chart_avoiding, hf_surgery_framework, lines_in_general_position
from reference_oracle import (reference_find_nonparallelizable_stress,
                              reference_forceload_from_stress,
                              reference_self_stress_basis,
                              reference_stress_of_forceload)

from tensec.errors import (GeometryError, InputError, PointAtInfinityError,
                           PreconditionError)
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_GRAPH, PASCAL_NEG, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import (ForceLoad, Framework, Graph, bfs_parents,
                              enumerate_simple_cycles,
                              find_nonparallelizable_stress,
                              forceload_from_stress, framework_from_json,
                              framework_in_general_position, framework_to_json,
                              is_equilibrium, is_connected, is_non_parallelizable,
                              root_path, self_stress_basis, vertex_force_sum)
from tensec.numeric import clear_denominators
from tensec.projective import AffineChart, ProjLine, ProjPoint, _cross, _dot
from tensec.sampling import (desargues_concurrent_placement,
                             pascal_conic_placement, random_placement)

STANDARD = AffineChart.standard()


def triangle_framework():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    return Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((3, 0, 1)),
                         "c": ProjPoint((0, 3, 1))})


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(["a", "b"], [("a", "a")])
    with pytest.raises(InputError):
        Graph(["a", "b", "c"], [("a", "b")])  # disconnected
    with pytest.raises(InputError):
        Graph(["a", "a"], [])


def test_framework_rejects_coincident_points():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(GeometryError):
        Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((0, 0, 1)),
                      "c": ProjPoint((1, 1, 1))})


def test_desargues_oracle_dimensions():
    basis = self_stress_basis(DESARGUES_POS, STANDARD)
    assert len(basis) == 1
    assert all(w != 0 for w in basis[0])
    assert self_stress_basis(DESARGUES_NEG, STANDARD) == []


def test_pascal_oracle_dimensions():
    basis = self_stress_basis(PASCAL_POS, STANDARD)
    assert len(basis) == 1
    assert all(w != 0 for w in basis[0])
    assert self_stress_basis(PASCAL_NEG, STANDARD) == []


def test_triangle_has_no_self_stress():
    assert self_stress_basis(triangle_framework(), STANDARD) == []


def test_oracle_rejects_points_at_infinity():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    fw = Framework(g, {"a": ProjPoint((1, 0, 0)), "b": ProjPoint((3, 0, 1)),
                       "c": ProjPoint((0, 3, 1))})
    with pytest.raises(PointAtInfinityError):
        self_stress_basis(fw, STANDARD)
    # a chart avoiding every point makes the same framework analyzable
    chart = chart_avoiding(fw.placement.values(), seed=1)
    assert self_stress_basis(fw, chart) == []


def test_oracle_chart_independence_on_fixture():
    chart = chart_avoiding(DESARGUES_POS.placement.values(), seed=3)
    assert len(self_stress_basis(DESARGUES_POS, chart)) == 1
    assert len(self_stress_basis(DESARGUES_NEG, chart)) == 0


def test_forceload_equilibrium_and_roundtrip():
    w = self_stress_basis(DESARGUES_POS, STANDARD)[0]
    fl = forceload_from_stress(DESARGUES_POS, w, STANDARD)
    assert is_equilibrium(DESARGUES_POS, fl)
    for v in DESARGUES_POS.graph.vertices:
        assert vertex_force_sum(DESARGUES_POS, fl, v).is_zero()
    back = reference_stress_of_forceload(DESARGUES_POS, fl, STANDARD)
    one_positive_ratio(back, w)


def test_zero_stress_gives_zero_forceload():
    zero = (0,) * len(DESARGUES_POS.graph.edges)
    fl = forceload_from_stress(DESARGUES_POS, zero, STANDARD)
    for (u, v) in DESARGUES_POS.graph.edges:
        assert fl.force(u, v).is_zero()


def test_forceload_needs_one_weight_per_edge():
    w = self_stress_basis(DESARGUES_POS, STANDARD)[0]
    for weights in (w[:-1], w + (1,)):
        for forceload in (forceload_from_stress, reference_forceload_from_stress):
            with pytest.raises(InputError, match="weights"):
                forceload(DESARGUES_POS, weights, STANDARD)


def test_forceload_antisymmetry_random_stress():
    import random

    rng = random.Random(4)
    edges = DESARGUES_POS.graph.edges
    # integer weights, as the stress basis gives: the rationals cleared
    w = tuple(clear_denominators(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in edges]))
    fl = forceload_from_stress(DESARGUES_POS, w, STANDARD)
    for (u, v) in DESARGUES_POS.graph.edges:
        assert (fl.force(u, v) + fl.force(v, u)).is_zero()


def test_nonparallelizable_on_fixture():
    w = self_stress_basis(DESARGUES_POS, STANDARD)[0]
    fl = forceload_from_stress(DESARGUES_POS, w, STANDARD)
    assert is_non_parallelizable(DESARGUES_POS, fl)


def test_zero_force_edge_breaks_nonparallelizability():
    # a pendant edge carries zero stress in any equilibrium load
    g = Graph(list(DESARGUES_GRAPH.vertices) + ["p7"],
              list(DESARGUES_GRAPH.edges) + [("p1", "p7")])
    placement = dict(DESARGUES_POS.placement)
    placement["p7"] = ProjPoint((5, 1, 1))
    fw = Framework(g, placement)
    basis = self_stress_basis(fw, STANDARD)
    assert len(basis) == 1
    assert basis[0][g.edges.index(("p1", "p7"))] == 0
    fl = forceload_from_stress(fw, basis[0], STANDARD)
    assert not is_non_parallelizable(fw, fl)


def test_collinear_incident_edges_break_nonparallelizability():
    # K4 with one vertex placed on the line of two of its edges
    g = Graph(["a", "b", "c", "d"],
              [("a", "b"), ("a", "c"), ("a", "d"),
               ("b", "c"), ("b", "d"), ("c", "d")])
    fw = Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((2, 0, 1)),
                       "d": ProjPoint((1, 0, 1)), "c": ProjPoint((1, 2, 1))})
    basis = self_stress_basis(fw, STANDARD)
    assert basis
    for w in basis:
        if any(w):
            fl = forceload_from_stress(fw, w, STANDARD)
            if is_equilibrium(fw, fl):
                assert not is_non_parallelizable(fw, fl)


def test_nonparallelizability_requires_equilibrium():
    from tensec.framework import ForceLoad
    from tensec.projective import Force

    fl = ForceLoad({("p1", "p2"): Force((1, 0, 0))})
    with pytest.raises(PreconditionError):
        is_non_parallelizable(DESARGUES_POS, fl)


# ---------------------------------------------------------------------------
# the breadth-first walk

def reference_is_connected(adjacency) -> bool:
    """`is_connected` before it read the shared breadth-first walk (a
    depth-first search of its own), kept verbatim as a reference."""
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adjacency)


def reference_bfs_tree(g):
    """The spanning tree walk `quantization.consistency_cycles` and
    `construct_forceload` had of their own, kept verbatim as a reference."""
    root = min(g.vertices)
    parent = {root: None}
    order = [root]
    for v in order:
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def reference_root_path(parent, u):
    path = []
    while u is not None:
        path.append(u)
        u = parent[u]
    return path


def _renamed_edges(edges, rng, prefix):
    """Edges of a graph under a seeded renaming of its vertices."""
    names = sorted({v for e in edges for v in e})
    shuffled = [f"{prefix}{i}" for i in range(len(names))]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    return [(rename[u], rename[v]) for u, v in edges]


def _wheel_edges(spokes):
    return ([(0, r) for r in range(1, spokes + 1)]
            + [(r, r % spokes + 1) for r in range(1, spokes + 1)])


def _complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _petersen_edges(n, k):
    return ([(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
            + [(n + i, n + (i + k) % n) for i in range(n)])


WALK_GRAPHS = ([_wheel_edges(m) for m in range(3, 9)]
               + [_complete_edges(n) for n in range(4, 8)]
               + [_petersen_edges(5, 2), _petersen_edges(8, 3)])


def _adjacency(edges, isolated=()):
    adj = {v: [] for v in isolated}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(first=st.integers(0, len(WALK_GRAPHS) - 1),
       second=st.integers(-1, len(WALK_GRAPHS) - 1),
       isolated=st.booleans(), seed=st.integers(0, 10**6))
def test_breadth_first_walk_matches_references(first, second, isolated, seed):
    rng = random.Random(seed)
    edges = _renamed_edges(WALK_GRAPHS[first], rng, "a")
    g = Graph(sorted({v for e in edges for v in e}), edges)
    parent = bfs_parents(g.adjacency, min(g.vertices))
    ref = reference_bfs_tree(g)
    assert list(parent.items()) == list(ref.items())
    for v in g.vertices:
        assert root_path(parent, v) == reference_root_path(ref, v)
    assert is_connected(g.adjacency) and reference_is_connected(g.adjacency)
    # a second component, an isolated vertex, or both
    more = _renamed_edges(WALK_GRAPHS[second], rng, "b") if second >= 0 else []
    adj = _adjacency(edges + more, ["c"] if isolated or not more else [])
    assert is_connected(adj) is reference_is_connected(adj) is False
    view = SimpleNamespace(vertices=tuple(adj), neighbors=adj.__getitem__)
    assert (list(bfs_parents(adj, min(adj)).items())
            == list(reference_bfs_tree(view).items()))


# ---------------------------------------------------------------------------
# simple cycles

def nx_cycles(g, max_len):
    gx = nx.Graph(list(g.edges))
    found = set()
    for cyc in nx.simple_cycles(gx, length_bound=max_len):
        k = len(cyc)
        best = None
        for rev in (list(cyc), list(reversed(cyc))):
            for r in range(k):
                cand = tuple(rev[r:] + rev[:r])
                if best is None or cand < best:
                    best = cand
        found.add(best)
    return found


def test_triangle_single_cycle():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert enumerate_simple_cycles(g, 3) == [("a", "b", "c")]


@pytest.mark.parametrize("graph,max_len", [
    (DESARGUES_GRAPH, 5), (DESARGUES_GRAPH, 6),
    (PASCAL_GRAPH, 4), (PASCAL_GRAPH, 6),
    (WHEEL5_GRAPH, 4), (WHEEL5_GRAPH, 5),
])
def test_cycle_enumeration_matches_networkx(graph, max_len):
    ours = enumerate_simple_cycles(graph, max_len)
    assert len(set(ours)) == len(ours)
    assert set(ours) == nx_cycles(graph, max_len)


def test_k33_has_nine_4cycles():
    assert len(enumerate_simple_cycles(PASCAL_GRAPH, 4)) == 9


def test_max_len_bound_checked():
    with pytest.raises(InputError):
        enumerate_simple_cycles(DESARGUES_GRAPH, 7)


# ---------------------------------------------------------------------------
# general position

# The reference: the literal per-cycle test, which meets every pair of edge
# lines of every simple cycle on at most n-1 vertices.

def cycle_in_general_position(fw: Framework, cycle) -> bool:
    """The cycle's edge lines are pairwise distinct with no three concurrent,
    i.e. they have exactly k(k-1)/2 distinct pairwise intersection points."""
    k = len(cycle)
    return lines_in_general_position(
        [fw.edge_line(cycle[i], cycle[(i + 1) % k]) for i in range(k)])


def reference_framework_in_general_position(fw: Framework) -> bool:
    """Every simple cycle on at most n-1 vertices is in general position."""
    fw.graph.require_min_degree()
    n = len(fw.graph.vertices)
    for cycle in enumerate_simple_cycles(fw.graph, n - 1):
        if not cycle_in_general_position(fw, cycle):
            return False
    return True


def test_generic_triangle_cycle_in_general_position():
    fw = triangle_framework()
    assert cycle_in_general_position(fw, ("a", "b", "c"))


def test_concurrent_edge_lines_fail_general_position():
    # p2, p4, p5 collinear puts p2 on the edge line p4p5 of this 5-cycle:
    # three of its edge lines are pairwise distinct but concurrent at p2
    placement = dict(DESARGUES_POS.placement)
    placement["p5"] = ProjPoint((1, 1, 1))
    placement["p6"] = ProjPoint((2, 2, 1))
    fw = Framework(DESARGUES_GRAPH, placement)
    bad = ("p1", "p2", "p3", "p4", "p5")
    lines = [fw.edge_line(bad[i], bad[(i + 1) % 5]) for i in range(5)]
    assert len(set(lines)) == 5
    assert not cycle_in_general_position(fw, bad)
    assert not framework_in_general_position(fw)


def test_coincident_edge_lines_fail_general_position():
    g = Graph(["a", "b", "c", "d"],
              [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    fw = Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((1, 0, 1)),
                       "c": ProjPoint((2, 0, 1)), "d": ProjPoint((3, 0, 1))})
    assert not cycle_in_general_position(fw, ("a", "b", "c", "d"))


def test_projectively_parallel_sides_still_general_position():
    # affine parallelogram: opposite sides meet at infinity, still 6 points
    g = Graph(["a", "b", "c", "d"],
              [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    fw = Framework(g, {"a": ProjPoint((0, 0, 1)), "b": ProjPoint((2, 0, 1)),
                       "c": ProjPoint((3, 1, 1)), "d": ProjPoint((1, 1, 1))})
    assert cycle_in_general_position(fw, ("a", "b", "c", "d"))


def test_fixture_frameworks_in_general_position():
    assert framework_in_general_position(DESARGUES_POS)
    assert framework_in_general_position(DESARGUES_NEG)
    assert framework_in_general_position(PASCAL_POS)
    assert framework_in_general_position(PASCAL_NEG)


def test_degree_requirement_for_general_position_predicate():
    with pytest.raises(InputError):
        framework_in_general_position(triangle_framework())


def _named(edges):
    edges = [(f"v{u}", f"v{w}") for u, w in edges]
    return Graph(sorted({v for e in edges for v in e}), edges)


# wheels with 4-8 spokes, K4-K6, the prism, K3,3, the cube, the cube plus a
# chord and the Petersen graph
POSITION_GRAPHS = ([_named(_wheel_edges(m)) for m in range(4, 9)]
                   + [_named(_complete_edges(n)) for n in (4, 5, 6)]
                   + [DESARGUES_GRAPH, PASCAL_GRAPH, _named(_petersen_edges(4, 1)),
                      _named(_petersen_edges(4, 1) + [(0, 6)]),
                      _named(_petersen_edges(5, 2))])


def _point_on(rng, a, b, bound):
    """A seeded point s*a + t*b on the line through the points a and b."""
    s, t = (rng.choice([i for i in range(-bound, bound + 1) if i]) for _ in "st")
    return ProjPoint(tuple(s * x + t * y for x, y in zip(a.coords, b.coords)))


def _moves(g, placement, kind, rng, bound):
    if kind == "on_line":
        u, w = rng.choice(g.edges)
        v = rng.choice([x for x in g.vertices if x not in (u, w)])
        return {v: _point_on(rng, placement[u], placement[w], bound)}
    # three edge lines through one point, which may lie at infinity
    center = ProjPoint((rng.randint(-bound, bound), rng.randint(-bound, bound),
                        rng.randint(0, 1)))
    moved, touched = {}, set()
    for e in rng.sample(g.edges, len(g.edges)):
        free = [x for x in e if x not in touched]
        if free and len(moved) < 3:
            b = rng.choice(free)
            a = e[0] if b == e[1] else e[1]
            moved[b] = _point_on(rng, center, moved.get(a, placement[a]), bound)
            touched.update(e)
    return moved


def degenerate_placement(g, kind, bound, seed):
    """A seeded placement that often fails general position: concurrent
    Desargues rungs, six points on a conic, small coordinates, or small
    coordinates with one vertex moved onto another edge's line or three
    edge lines moved through one point."""
    if kind == "desargues":
        return desargues_concurrent_placement(DESARGUES_GRAPH, seed)
    if kind == "pascal":
        return pascal_conic_placement(PASCAL_GRAPH, seed)
    fw = random_placement(g, seed, bound)
    if kind == "random":
        return fw
    rng = random.Random(seed)
    while True:
        try:
            return Framework(g, {**fw.placement,
                                 **_moves(g, fw.placement, kind, rng, bound)})
        except GeometryError:
            continue


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graph=st.integers(0, len(POSITION_GRAPHS) - 1),
       kind=st.sampled_from(("random", "on_line", "concurrent", "desargues",
                             "pascal")),
       bound=st.sampled_from((2, 3, 4, 60)), seed=st.integers(0, 10**6))
def test_general_position_matches_reference(graph, kind, bound, seed):
    fw = degenerate_placement(POSITION_GRAPHS[graph], kind, bound, seed)
    assert (framework_in_general_position(fw)
            is reference_framework_in_general_position(fw))


# Built cases of the meet keys: `framework_in_general_position` keys the meet
# (x, y, z) of an edge line (a, b, c) with a later line by s / t, with (s, t)
# = (x, y) if c != 0, (x, z) if c = 0 != b and (y, z) otherwise.

def meet_ratio(fw, edge, other):
    """(s, t) of the meet of two edge lines, read on the line of `edge`."""
    a, b, c = fw.edge_line(*edge).coeffs
    x, y, z = _cross((a, b, c), fw.edge_line(*other).coeffs)
    return (x, y) if c else (x, z) if b else (y, z)


def test_general_position_separates_meets_with_equal_float_keys():
    # v0 and v1 lie on the line y = z, where the meets at v0 and at v1 have
    # quotients 2**53 and 2**53 + 1, which round to one float
    big = 2 ** 53
    fw = Framework(_named(_complete_edges(4)), {
        "v0": ProjPoint((big, 1, 1)), "v1": ProjPoint((big + 1, 1, 1)),
        "v2": ProjPoint((0, 0, 1)), "v3": ProjPoint((1, 2, 1))})
    (s, t), (s2, t2) = (meet_ratio(fw, ("v0", "v1"), other)
                        for other in (("v0", "v2"), ("v1", "v2")))
    assert s / t == s2 / t2
    assert s * t2 != s2 * t
    assert framework_in_general_position(fw)
    assert reference_framework_in_general_position(fw)


def _desargues_moved(**moved):
    return Framework(DESARGUES_GRAPH, {**DESARGUES_POS.placement,
                                       **{v: ProjPoint(c) for v, c in moved.items()}})


HUGE = 2 ** 1100


@pytest.mark.parametrize("moved,other,raised,expected", [
    # p2 far beyond the float range; then p5 on the line p2p4, so that the
    # edge lines p1p2, p2p3 and p4p5 of the 5-cycle p1..p5 meet at p2
    ({"p2": (HUGE, 1, 1)}, ("p2", "p3"), OverflowError, True),
    ({"p2": (HUGE, 1, 1), "p5": (HUGE, 3, 2)}, ("p4", "p5"), OverflowError, False),
    # p2 on the x-axis and p1 off it: the line p1p2 has c != 0, and its meets
    # at p2 have t = y = 0
    ({"p1": (1, 3, 1), "p2": (5, 0, 1)}, ("p2", "p3"), ZeroDivisionError, True),
    ({"p1": (1, 3, 1), "p2": (5, 0, 1), "p5": (5, 2, 2)}, ("p4", "p5"),
     ZeroDivisionError, False),
])
def test_general_position_keys_meets_without_a_float_quotient(moved, other, raised,
                                                              expected):
    fw = _desargues_moved(**moved)
    s, t = meet_ratio(fw, ("p1", "p2"), other)
    with pytest.raises(raised):
        s / t
    assert framework_in_general_position(fw) is expected
    assert reference_framework_in_general_position(fw) is expected


def test_generic_placement_enumerates_no_cycles(monkeypatch):
    import tensec.framework as framework

    calls = []
    enumerate_all = framework.enumerate_simple_cycles
    monkeypatch.setattr(framework, "enumerate_simple_cycles",
                        lambda *args: calls.append(args) or enumerate_all(*args))
    fw = random_placement(_named(_petersen_edges(8, 3)), seed=83, bound=1000)
    assert framework_in_general_position(fw)
    assert calls == []
    assert reference_framework_in_general_position(fw)


@pytest.mark.parametrize("n", [67, 200])
def test_check_decides_large_graph_without_enumerating_cycles(n, monkeypatch, tmp_path,
                                                               capsys):
    # GP(67,7) and GP(200,7) have 201 and 600 edges, and more short cycles
    # than MAX_CYCLE_EXTENSIONS lets the enumeration reach; their
    # arrangements have no group, so general position is decided from the
    # |E|(|E|-1)/2 meets alone
    import tensec.framework as framework
    from tensec.cli import main

    calls = []
    enumerate_all = framework.enumerate_simple_cycles
    monkeypatch.setattr(framework, "enumerate_simple_cycles",
                        lambda *args: calls.append(args) or enumerate_all(*args))
    fw = random_placement(_named(_petersen_edges(n, 7)), 1, bound=60)
    path = tmp_path / "gp.json"
    path.write_text(json.dumps(framework_to_json(fw)))
    assert main(["check", str(path), "--seed", "1"]) == 0
    assert "general position: YES" in capsys.readouterr().out.splitlines()
    assert calls == []


def test_rank_bound_on_random_frameworks():
    for seed in range(6):
        fw = random_placement(DESARGUES_GRAPH, seed, bound=1000)
        e = len(fw.graph.edges)
        n = len(fw.graph.vertices)
        assert len(self_stress_basis(fw, STANDARD)) >= e - 2 * n + 3


# ---------------------------------------------------------------------------
# H/Phi surgery

ROLES = {"q3": "p4", "q4": "p5", "q5": "p3", "q6": "p6"}


def test_surgery_preserves_stress_dimension_on_fixture():
    out = hf_surgery_framework(DESARGUES_POS, ("p1", "p2"), ROLES)
    chart = chart_avoiding(list(DESARGUES_POS.placement.values())
                           + list(out.placement.values()), seed=2)
    assert len(self_stress_basis(out, chart)) == len(
        self_stress_basis(DESARGUES_POS, chart)) == 1


def test_surgery_then_reverse_restores_placement():
    out = hf_surgery_framework(DESARGUES_POS, ("p1", "p2"), ROLES)
    back = hf_surgery_framework(out, ("p1'", "p2'"),
                                {"q3": "p4", "q4": "p3", "q5": "p5", "q6": "p6"})
    assert back.placement["p1''"] == DESARGUES_POS.placement["p1"]
    assert back.placement["p2''"] == DESARGUES_POS.placement["p2"]
    chart = chart_avoiding(back.placement.values(), seed=5)
    assert len(self_stress_basis(back, chart)) == 1


def test_surgery_precondition_violation_named():
    fw = DESARGUES_POS
    with pytest.raises(PreconditionError):
        hf_surgery_framework(fw, ("p1", "p4"), ROLES)  # q3,q4 mismatch
    with pytest.raises(PreconditionError):
        hf_surgery_framework(fw, ("p3", "p4"),
                             {"q3": "p1", "q4": "p6", "q5": "p1", "q6": "p5"})
    # force the equal-lines failure: build a placement with p4 on p2p3
    placement = dict(fw.placement)
    placement["p4"] = ProjPoint((Fraction(4, 3), Fraction(1, 3), 1))
    degenerate = Framework(fw.graph, placement)
    l13 = degenerate.edge_line("p1", "p4")
    l25 = degenerate.edge_line("p2", "p3")
    if l13 == l25:
        with pytest.raises(PreconditionError, match="q1q3 = q2q5"):
            hf_surgery_framework(degenerate, ("p1", "p2"), ROLES)


def test_surgery_dimension_invariance_random():
    kept = 0
    seed = 0
    while kept < 25:
        seed += 1
        fw = random_placement(DESARGUES_GRAPH, seed, bound=40)
        try:
            out = hf_surgery_framework(fw, ("p1", "p2"), ROLES)
        except (PreconditionError, GeometryError):
            continue
        chart = chart_avoiding(list(fw.placement.values())
                               + list(out.placement.values()), seed=seed)
        assert len(self_stress_basis(out, chart)) == len(self_stress_basis(fw, chart))
        kept += 1


# ---------------------------------------------------------------------------
# JSON and oracle verdict helpers

def test_framework_json_roundtrip():
    obj = framework_to_json(DESARGUES_POS)
    text = json.dumps(obj)
    back = framework_from_json(json.loads(text))
    assert back.graph == DESARGUES_POS.graph
    assert back.placement == DESARGUES_POS.placement


def test_framework_json_rejects_garbage():
    with pytest.raises(InputError):
        framework_from_json({"vertices": [{"id": "a"}], "edges": []})


def test_exists_nonparallelizable_stress_verdicts():
    for fw, expected in ((DESARGUES_POS, True), (DESARGUES_NEG, False)):
        w = find_nonparallelizable_stress(
            fw, self_stress_basis(fw, STANDARD), STANDARD, seed=0)
        assert (w is not None) == expected
    w = find_nonparallelizable_stress(
        PASCAL_POS, self_stress_basis(PASCAL_POS, STANDARD), STANDARD, seed=0)
    assert w is not None
    assert is_non_parallelizable(PASCAL_POS, forceload_from_stress(PASCAL_POS, w, STANDARD))


# ---------------------------------------------------------------------------
# The integer oracle against the chart-Fraction reference oracle
# (`reference_oracle.py`).  The library scales the rigidity column of edge
# uv by s_u s_v, s = <p, V>, maps null vectors back by the same scales, and
# tests each candidate stress on a positive multiple of its force-load.  A
# wrong scale or a lost sign changes the stresses, the loads or the accepted
# candidate, so every property here runs under the standard chart and under
# charts whose <p, V> takes both signs on the placement.


def mixed_sign_chart(fw, seed):
    """The first `chart_avoiding` chart from `seed` on under which <p, V>
    takes both signs on the placed points."""
    points = list(fw.placement.values())
    for s in count(seed):
        chart = chart_avoiding(points, s)
        if len({_dot(p.coords, chart.field) > 0 for p in points}) == 2:
            return chart


@contextlib.contextmanager
def counted_candidates():
    """Count the candidates both oracles test: their calls of
    `is_non_parallelizable`."""
    calls = []
    original = framework.is_non_parallelizable

    def counted(fw, fl):
        calls.append(fl)
        return original(fw, fl)

    framework.is_non_parallelizable = counted
    reference_oracle.is_non_parallelizable = counted
    try:
        yield calls
    finally:
        framework.is_non_parallelizable = original
        reference_oracle.is_non_parallelizable = original


def _is_int_load(fl):
    return all(type(x) is int for f in fl.forces.values() for x in f.dual)


def one_positive_ratio(got, want):
    """The one positive k with got[i] = k want[i] for every i, for two
    equally long scalar sequences, `want` not all zero; AssertionError if
    there is none."""
    assert len(got) == len(want)
    i = next(i for i, x in enumerate(want) if x)
    k = Fraction(got[i], want[i])
    assert k > 0 and all(g == k * x for g, x in zip(got, want))
    return k


def dual_entries(forces, keys):
    return [x for key in keys for x in forces[key].dual]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph=st.integers(0, len(POSITION_GRAPHS) - 1), bound=st.sampled_from((2, 3, 60)),
       placement=st.integers(0, 10**6), mixed=st.booleans(), seed=st.integers(0, 10**6))
def test_integer_oracle_matches_chart_fraction_reference(graph, bound, placement,
                                                         mixed, seed):
    # coordinates up to 2 or 3 often give the cubic graphs a stress, and
    # make stresses fail the search
    fw = random_placement(POSITION_GRAPHS[graph], placement, bound)
    chart = mixed_sign_chart(fw, seed) if mixed else AffineChart.standard()
    basis = self_stress_basis(fw, chart)
    assert basis == reference_self_stress_basis(fw, chart)
    assert all(type(x) is int for w in basis for x in w)
    for w in basis:
        fl = forceload_from_stress(fw, w, chart)
        want = reference_forceload_from_stress(fw, w, chart).forces
        assert fl.forces.keys() == want.keys()
        one_positive_ratio(dual_entries(fl.forces, want), dual_entries(want, want))
        assert _is_int_load(fl)
        back = reference_stress_of_forceload(fw, fl, chart)
        one_positive_ratio(back, w)
    with counted_candidates() as tried:
        got = find_nonparallelizable_stress(fw, basis, chart, seed)
    with counted_candidates() as tried_reference:
        want = reference_find_nonparallelizable_stress(fw, basis, chart, seed)
    assert got == want
    assert len(tried) == len(tried_reference)
    if got is not None:
        assert all(type(x) is int for x in got)


@pytest.mark.parametrize("graph, bound", [(6, 3), (7, 60)])
def test_seeded_probes_agree_with_reference(graph, bound):
    # K5 (dimension 3) and K6 (dimension 6): the seeded combinations must be
    # the reference's, tested in its order
    probed = False
    for placement in range(4):
        fw = random_placement(POSITION_GRAPHS[graph], placement, bound)
        for chart in (AffineChart.standard(), mixed_sign_chart(fw, placement)):
            basis = self_stress_basis(fw, chart)
            for seed in range(3):
                with counted_candidates() as tried:
                    got = find_nonparallelizable_stress(fw, basis, chart, seed)
                with counted_candidates() as tried_reference:
                    want = reference_find_nonparallelizable_stress(fw, basis, chart,
                                                                   seed)
                assert got == want
                assert len(tried) == len(tried_reference)
                probed |= len(basis) > 1 and len(tried) > 0
    assert probed


@pytest.mark.parametrize("graph", [_named(_complete_edges(n)) for n in range(5, 9)]
                         + [_named(_wheel_edges(m)) for m in range(4, 9)])
def test_each_basis_vector_alone_loads_an_edge(graph):
    # the premise of the oracle's candidate rule: a combination of the basis
    # with a zero coefficient leaves an edge without force
    for placement in range(3):
        fw = random_placement(graph, placement, 60)
        for chart in (AffineChart.standard(), mixed_sign_chart(fw, placement)):
            basis = self_stress_basis(fw, chart)
            assert len(basis) >= 1
            for w in basis:
                assert any(x and not any(b[i] for b in basis if b is not w)
                           for i, x in enumerate(w))


def kernel_calls(monkeypatch, fw, chart):
    """`self_stress_basis(fw, chart)` and every (rows, (reduced, pivots))
    it got from `_kernel.echelon_int`."""
    calls = []
    echelon = _kernel.echelon_int

    def counted(rows, ncols):
        calls.append((rows, echelon(rows, ncols)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(_kernel, "echelon_int", counted)
        return self_stress_basis(fw, chart), calls


def relisted(fw, vertices):
    """fw with its vertex list in another order."""
    return Framework(Graph(vertices, fw.graph.edges), fw.placement)


def sharing_placement(fw, chart, k):
    """fw with b, the smallest neighbor of the smallest vertex a, moved so
    that its chart representative agrees with a's on coordinate k: p_b =
    p_a + t s_a cross(V, e_k), which keeps <p, V> and coordinate k of p /
    <p, V>, for the first t = 1, 2, ... that keeps the points distinct."""
    a = min(fw.graph.vertices)
    b = fw.graph.neighbors(a)[0]
    pa = fw.placement[a].coords
    s = _dot(pa, chart.field)
    d = _cross(chart.field, [int(i == k) for i in range(3)])
    for t in count(1):
        try:
            moved = Framework(fw.graph, {**fw.placement, b: ProjPoint(
                tuple(x + t * s * y for x, y in zip(pa, d)))})
        except GeometryError:
            continue
        pb = moved.placement[b].coords
        assert pb[k] * s == pa[k] * _dot(pb, chart.field)
        return moved


def placement_in_chart(g, chart, seed):
    """The first `random_placement(g, s, 60)`, s = seed, seed + 1, ..., with
    no point on the chart's infinity line."""
    for s in count(seed):
        fw = random_placement(g, s, 60)
        if all(_dot(p.coords, chart.field) for p in fw.placement.values()):
            return fw


# K4-K7, wheels with 4-9 spokes, the cube with a chord, the 3-, 5- and
# 6-rung prisms, GP(8,3) and GP(16,3)
ROW_ORDER_GRAPHS = ([_named(_complete_edges(n)) for n in range(4, 8)]
                    + [_named(_wheel_edges(m)) for m in range(4, 10)]
                    + [_named(_petersen_edges(4, 1) + [(0, 6)])]
                    + [_named(_petersen_edges(m, 1)) for m in (3, 5, 6)]
                    + [_named(_petersen_edges(8, 3)), _named(_petersen_edges(16, 3))])


@pytest.mark.parametrize("chart", [(0, 0, 1), (1, 2, 3), (-1, 1, 17)])
@pytest.mark.parametrize("graph", range(len(ROW_ORDER_GRAPHS)))
def test_kernel_rows_do_not_depend_on_the_vertex_listing(graph, chart, monkeypatch):
    # the oracle hands the kernel 2|V| - 3 rows in an order fixed by the
    # graph, and the three it leaves out change no basis, also when b's
    # chart point shares a coordinate with a's (either row of b left out)
    g = ROW_ORDER_GRAPHS[graph]
    chart = AffineChart(ProjLine(chart))
    fw = placement_in_chart(g, chart, graph)
    _drop, keep = chart.axes()
    rng = random.Random(graph)
    for placed in [fw] + [sharing_placement(fw, chart, k) for k in keep]:
        shuffled = list(g.vertices)
        rng.shuffle(shuffled)
        listings = [g.vertices[::-1], shuffled, sorted(g.vertices)]
        basis, calls = kernel_calls(monkeypatch, placed, chart)
        ((rows, _result),) = calls
        assert len(rows) == 2 * len(g.vertices) - 3
        assert basis == reference_self_stress_basis(placed, chart)
        for vertices in listings:
            other = relisted(placed, vertices)
            got, other_calls = kernel_calls(monkeypatch, other, chart)
            assert [r for r, _ in other_calls] == [rows]
            assert got == basis


def generalized_petersen(n, k):
    """GP(n, k) listed as the outer cycle u0..u(n-1), then the inner star
    w0..w(n-1), so that sorting the ids changes the listing."""
    names = [f"u{i}" for i in range(n)] + [f"w{i}" for i in range(n)]
    return Graph(names, [(names[a], names[b]) for a, b in _petersen_edges(n, k)])


def test_oracle_entries_stay_short_at_size(monkeypatch):
    # GP(150,7) written with sorted ids: eliminating in the listed order
    # made reduced entries of 5,934 bits; the breadth-first order keeps
    # them to 2,108
    fw = framework_from_json(framework_to_json(
        random_placement(generalized_petersen(150, 7), 1, bound=1000)))
    assert list(fw.graph.vertices) == sorted(fw.graph.vertices)
    basis, ((_rows, (reduced, _pivots)),) = kernel_calls(monkeypatch, fw, STANDARD)
    assert basis == []
    assert max(abs(x).bit_length() for row in reduced for x in row) <= 3000


@pytest.mark.parametrize("n", range(9, 14))
def test_oracle_finds_a_stress_of_large_complete_graphs(n):
    # stress dimensions 21-55: each basis vector fails, and a probe with a
    # zero coefficient would too
    graph = _named(_complete_edges(n))
    for seed in range(1, 13):
        fw = random_placement(graph, seed, bound=60)
        basis = self_stress_basis(fw, STANDARD)
        assert len(basis) == n * (n - 1) // 2 - 2 * n + 3
        stress = find_nonparallelizable_stress(fw, basis, STANDARD, seed=seed)
        assert stress is not None, seed


def test_point_at_infinity_keeps_its_message_and_vertex_order():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    fw = Framework(g, {"a": ProjPoint((3, 0, 1)), "b": ProjPoint((1, 0, 0)),
                       "c": ProjPoint((0, 1, 0))})
    chart = AffineChart.standard()
    # b and c are both at infinity; the first in vertex order is named
    for oracle in (self_stress_basis, reference_self_stress_basis,
                   find_nonparallelizable_stress_of_basis):
        with pytest.raises(PointAtInfinityError,
                           match=r"^vertex 'b' lies on the infinity line$"):
            oracle(fw, chart)
    # only c lies on the line x = 0
    for oracle in (self_stress_basis, forceload_of_zero_stress,
                   reference_stress_of_forceload_of_zero_load):
        with pytest.raises(PointAtInfinityError, match=r"^vertex 'c' lies"):
            oracle(fw, AffineChart(ProjLine((1, 0, 0))))


def find_nonparallelizable_stress_of_basis(fw, chart):
    w = (Fraction(1),) * len(fw.graph.edges)
    return find_nonparallelizable_stress(fw, [w], chart, seed=0)


def forceload_of_zero_stress(fw, chart):
    return forceload_from_stress(fw, (0,) * len(fw.graph.edges), chart)


def reference_stress_of_forceload_of_zero_load(fw, chart):
    return reference_stress_of_forceload(fw, ForceLoad({}), chart)
