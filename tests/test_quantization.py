import functools
import random
from math import gcd
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from all_cycles import all_cycles_system, simple_cycles
from lemmas import (crossings, distinct_crossings, force_sum,
                    framed_cycle_in_general_position, has_edge, negated, scaled)
from reference_oracle import reference_stress_of_forceload
from reference_resolution import _decompose, _ratio, positive_scale
from reference_resolution import construct_forceload as fraction_construct_forceload
from test_census import census_graphs
from test_lifts import LIFTED_GRAPHS, maxwell_cremona_lift, moved_first_vertex
from tensec.errors import (GenericityError, GeometryError,
                           InconsistentQuantizationError, InputError,
                           PreconditionError)
from tensec.fixtures import (DESARGUES_GRAPH, DESARGUES_NEG, DESARGUES_POS,
                             PASCAL_GRAPH, PASCAL_NEG, PASCAL_POS, WHEEL5_GRAPH)
from tensec.framework import (Framework, Graph, edge_key,
                              find_nonparallelizable_stress, forceload_from_stress,
                              framework_in_general_position, is_equilibrium,
                              is_non_parallelizable, self_stress_basis)
from tensec.conditions import fulfilled_with_witness, generate_system
from tensec.projective import (AffineChart, ProjLine, ProjPoint, line_of_force,
                               pick_generic_line_through)
from tensec.cycles import is_trivial_monodromy, pick_aux_line
from tensec.quantization import (Quantization, construct_forceload,
                                 consistency_cycles, default_trees, framed_cycle_of,
                                 is_consistent, is_consistent_at,
                                 quantization_from_stress)
from tensec.sampling import (desargues_concurrent_placement, random_affine_point,
                             random_placement)

STANDARD = AffineChart.standard()


def stressed_quantization(fw):
    w = self_stress_basis(fw, STANDARD)[0]
    return quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                    default_trees(fw.graph)), w


def wheel_framework(seed=0, graph=WHEEL5_GRAPH):
    s = seed
    while True:
        s += 1
        fw = random_placement(graph, s, bound=60)
        if not framework_in_general_position(fw):
            continue
        w = find_nonparallelizable_stress(
            fw, self_stress_basis(fw, STANDARD), STANDARD, seed=0)
        if w is not None and all(x != 0 for x in w):
            return fw, w


def test_quantization_from_stress_deg3_has_no_interior_labels():
    fw = DESARGUES_POS
    q, _ = stressed_quantization(fw)
    assert q.interior_labels == {}
    assert all(q.scheme_at(v).strongly_generic for v in fw.graph.vertices)


def test_quantization_requires_nonparallelizable_load():
    zero = {(u, v): (0, 0, 0) for e in DESARGUES_POS.graph.edges for u, v in (e, e[::-1])}
    with pytest.raises(GenericityError):
        quantization_from_stress(DESARGUES_POS, zero, default_trees(DESARGUES_GRAPH))


def test_wheel_quantization_hub_label():
    fw, w = wheel_framework()
    fl = forceload_from_stress(fw, w, STANDARD)
    q = quantization_from_stress(fw, fl, default_trees(fw.graph))
    assert sorted(q.interior_labels) == [("p1", 1)]
    assert q.interior_labels[("p1", 1)].contains(fw.placement["p1"])
    assert all(q.scheme_at(v).strongly_generic for v in fw.graph.vertices)


def test_scaled_forceload_gives_identical_quantization():
    fw, w = wheel_framework(3)
    fl = forceload_from_stress(fw, w, STANDARD)
    trees = default_trees(fw.graph)
    q1 = quantization_from_stress(fw, fl, trees)
    q2 = quantization_from_stress(
        fw, {p: scaled(f, Fraction(7, 3)) for p, f in fl.items()}, trees)
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
    assert is_consistent_at(q_pos, ("p2", "p3", "p6"))
    q_neg = Quantization(DESARGUES_NEG, {}, default_trees(DESARGUES_GRAPH))
    assert not is_consistent_at(q_neg, ("p2", "p3", "p6"))
    q_ppos, _ = stressed_quantization(PASCAL_POS)
    q_pneg = Quantization(PASCAL_NEG, {}, default_trees(PASCAL_GRAPH))
    # on the fundamental cycles and on every simple cycle
    for cycles in (consistency_cycles(DESARGUES_GRAPH), simple_cycles(DESARGUES_GRAPH)):
        assert is_consistent(q_pos, cycles)
        assert not is_consistent(q_neg, cycles)
    for cycles in (consistency_cycles(PASCAL_GRAPH), simple_cycles(PASCAL_GRAPH)):
        assert is_consistent(q_ppos, cycles)
        assert not is_consistent(q_pneg, cycles)


def test_consistency_verdict_independent_of_seed():
    # consistency seeds its auxiliary line by the cycle alone; the monodromy
    # under lines of other seeds decides the same
    q_pos, _ = stressed_quantization(DESARGUES_POS)
    q_neg = Quantization(DESARGUES_NEG, {}, default_trees(DESARGUES_GRAPH))
    cycle = ("p2", "p3", "p6")
    for q, consistent in ((q_pos, True), (q_neg, False)):
        assert is_consistent_at(q, cycle) == consistent
        fc = framed_cycle_of(q, cycle)
        for seed in (1, 17, 3333):
            assert is_trivial_monodromy(fc, pick_aux_line(fc, seed)) == consistent


def test_generators_mode_agrees_with_full_mode_on_fixtures():
    for fw, positive in ((DESARGUES_POS, True), (DESARGUES_NEG, False),
                         (PASCAL_POS, True), (PASCAL_NEG, False)):
        if positive:
            q, _ = stressed_quantization(fw)
        else:
            q = Quantization(fw, {}, default_trees(fw.graph))
        assert is_consistent(q, simple_cycles(fw.graph)) == positive
        assert is_consistent(q, consistency_cycles(fw.graph)) == positive


def random_min_degree3_graphs(count):
    """Seeded connected G(n, p) graphs of minimum degree 3, n = 4..14 and
    p = 0.35, 0.5, 0.65."""
    import networkx as nx

    graphs = []
    seed = 0
    while len(graphs) < count:
        gx = nx.gnp_random_graph(4 + seed % 11, (0.35, 0.5, 0.65)[seed // 11 % 3],
                                 seed=seed)
        seed += 1
        if nx.is_connected(gx) and min(d for _, d in gx.degree) >= 3:
            graphs.append(Graph([f"v{x:02d}" for x in gx.nodes],
                                [(f"v{a:02d}", f"v{b:02d}") for a, b in gx.edges]))
    return graphs


def test_fundamental_cycles_generate_and_stay_short():
    # a basis of the cycle space: |E| - |V| + 1 cycles of the graph, each
    # with an edge of its own; on minimum degree 3 none passes through
    # every vertex
    for g in (DESARGUES_GRAPH, WHEEL5_GRAPH, *random_min_degree3_graphs(60)):
        cycles = consistency_cycles(g)
        n = len(g.vertices)
        e = len(g.edges)
        assert len(cycles) == e - n + 1
        edge_sets = [{edge_key(c[i], c[(i + 1) % len(c)]) for i in range(len(c))}
                     for c in cycles]
        for i, edges in enumerate(edge_sets):
            assert edges <= set(g.edges)
            assert edges - set().union(*edge_sets[:i], *edge_sets[i + 1:])
        for c in cycles:
            assert len(c) < n


def test_construct_forceload_roundtrip_desargues():
    q, w = stressed_quantization(DESARGUES_POS)
    ind = construct_forceload(q)
    assert (0, 0, 0) not in ind.values()
    assert is_equilibrium(DESARGUES_POS, ind)
    assert is_non_parallelizable(DESARGUES_POS, ind)
    got = reference_stress_of_forceload(DESARGUES_POS, ind, STANDARD)
    ratios = {g / x for g, x in zip(got, w)}
    assert len(ratios) == 1


def test_construct_forceload_roundtrip_pascal_and_wheel():
    for fw, w in ((PASCAL_POS, self_stress_basis(PASCAL_POS, STANDARD)[0]),
                  wheel_framework(9)):
        fl = forceload_from_stress(fw, w, STANDARD)
        q = quantization_from_stress(fw, fl, default_trees(fw.graph))
        assert is_consistent(q, consistency_cycles(fw.graph))
        assert is_consistent(q, simple_cycles(fw.graph))
        ind = construct_forceload(q)
        assert is_equilibrium(fw, ind)
        got = reference_stress_of_forceload(fw, ind, STANDARD)
        ratios = {g / x for g, x in zip(got, w)}
        assert len(ratios) == 1


def test_construct_forceload_detects_inconsistency():
    q = Quantization(DESARGUES_NEG, {}, default_trees(DESARGUES_GRAPH))
    with pytest.raises(InconsistentQuantizationError) as err:
        construct_forceload(q)
    assert len(err.value.cycle) >= 3
    with pytest.raises(InconsistentQuantizationError) as ref:
        fraction_construct_forceload(q)
    assert err.value.cycle == ref.value.cycle


@pytest.mark.parametrize("spokes", range(4, 10))
def test_oracle_load_has_content_one(spokes):
    """The load of the accepted stress is divided by the gcd of its
    entries; undivided, its gcd had 33-46 bits on these wheels."""
    fw, w = wheel_framework(graph=wheel_graph(spokes))
    fl = forceload_from_stress(fw, w, STANDARD)
    assert gcd(*(x for f in fl.values() for x in f)) == 1
    assert is_non_parallelizable(fw, fl)


@pytest.mark.parametrize("name", ["desargues_pos", "pascal_pos",
                                  *(f"wheel{n}" for n in range(4, 10))])
def test_integer_forceload_is_a_positive_multiple_of_the_fraction_reference(name):
    """Integer scales give int forces, the Fraction construction's load
    times one positive scalar."""
    if name.startswith("wheel"):
        fw, w = wheel_framework(graph=wheel_graph(int(name[5:])))
    else:
        fw = {"desargues_pos": DESARGUES_POS, "pascal_pos": PASCAL_POS}[name]
        w = self_stress_basis(fw, STANDARD)[0]
    q = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                 default_trees(fw.graph))
    ours = construct_forceload(q)
    assert all(type(x) is int for f in ours.values() for x in f)
    positive_scale(ours, fraction_construct_forceload(q))


def assert_load_contract(load, edges):
    """A load is a plain dict from both orientations of every edge to an int
    triple, the force on (v, u) the negation of the one on (u, v)."""
    assert type(load) is dict
    assert load.keys() == {pair for u, v in edges for pair in ((u, v), (v, u))}
    for (u, v), f in load.items():
        assert type(f) is tuple and len(f) == 3 and all(type(x) is int for x in f)
        assert load[(v, u)] == negated(f)


def _contract_cases(name):
    """(framework, a non-parallelizable stress or None): a placed wheel whose
    oracle finds one, or every census graph at its census placement."""
    if name.startswith("wheel"):
        return [wheel_framework(graph=wheel_graph(int(name[5:])))]
    cases = []
    for _, g in census_graphs():
        fw = random_placement(g, 1, bound=60)
        basis = self_stress_basis(fw, STANDARD)
        cases.append((fw, find_nonparallelizable_stress(fw, basis, STANDARD, 1)))
    return cases


@pytest.mark.parametrize("name", [*(f"wheel{n}" for n in range(4, 10)), "census"])
def test_every_load_is_an_antisymmetric_dict_of_int_triples(name):
    """The oracle's loads, every vertex scheme's load and the quantization's
    framework load keep the load contract: on the stress's quantization, or
    on seeded slot lines where the oracle finds no stress."""
    for fw, w in _contract_cases(name):
        edges, trees = fw.graph.edges, default_trees(fw.graph)
        for stress in self_stress_basis(fw, STANDARD) + ([] if w is None else [w]):
            assert_load_contract(forceload_from_stress(fw, stress, STANDARD), edges)
        if w is None:
            q = Quantization(fw, random_slot_lines(fw, fw.graph.vertices, 1), trees)
        else:
            q = quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD), trees)
            assert_load_contract(construct_forceload(q), edges)
        for v in fw.graph.vertices:
            assert_load_contract(q.scheme_at(v).forceload, trees[v].edges())


def test_consistency_cycle_set_modes():
    cycles_all = simple_cycles(DESARGUES_POS.graph)
    assert all(len(c) <= 5 for c in cycles_all)
    assert len(cycles_all) == 11
    gens = consistency_cycles(DESARGUES_POS.graph)
    assert set(gens) <= set(cycles_all)


# ---------------------------------------------------------------------------
# Differential reference: the force-load construction on the glued resolution
# graph, node by node, as it stood before `construct_forceload` scaled the
# vertex schemes' own loads.  Kept verbatim apart from the names.

@dataclass
class ResolutionGraph:
    """Trees glued along matching leaf edges; nodes are (vertex, tree node).

    A glued edge for framework edge (i, j) connects the interior attachment
    nodes of the two leaves labeled by it; the leaf nodes themselves vanish,
    so every node of the resolution graph has degree 3.
    """

    framework: Framework
    trees: dict

    def __post_init__(self):
        g = self.framework.graph
        g.require_min_degree()
        if set(self.trees) != set(g.vertices):
            raise InputError("trees must cover exactly the framework vertices")
        for v, tree in self.trees.items():
            want = {edge_key(v, u) for u in g.neighbors(v)}
            if set(tree.leaf_labels.values()) != want:
                raise InputError(f"tree at {v!r} must have one leaf per incident edge")

    def attach_node(self, v: str, e):
        """Tree node of T_v that the leaf for edge e hangs from."""
        tree = self.trees[v]
        leaf = tree.leaf_node(e)
        return (v, tree.adjacency[leaf][0])

    def nodes(self):
        out = []
        for v in sorted(self.trees):
            tree = self.trees[v]
            for node in sorted(tree.adjacency):
                if tree.degree(node) == 3:
                    out.append((v, node))
        return out

    def glued_edge(self, e):
        i, j = e
        return tuple(sorted((self.attach_node(i, e), self.attach_node(j, e))))

    def edges(self):
        """All edges: glued (tagged by framework edge) and interior."""
        out = {}
        for e in self.framework.graph.edges:
            out[self.glued_edge(e)] = ("leaf", e)
        for v in sorted(self.trees):
            for te in self.trees[v].interior_edges():
                u, w = te
                out[tuple(sorted(((v, u), (v, w))))] = ("interior", v, te)
        return out

    def incident_edges(self, node):
        v, u = node
        tree = self.trees[v]
        out = []
        for w in tree.adjacency[u]:
            if tree.degree(w) == 1:
                e = tree.leaf_labels[w]
                out.append(self.glued_edge(e))
            else:
                out.append(tuple(sorted(((v, u), (v, w)))))
        return out


@dataclass
class ReferenceQuantization:
    """The quantization surface the reference reads: the glued graph and
    the interior labels."""

    rgraph: ResolutionGraph
    interior_labels: dict

    @property
    def framework(self):
        return self.rgraph.framework

    def edge_label(self, gt_edge_value) -> ProjLine:
        """Line of a resolution-graph edge given its tag from edges()."""
        if gt_edge_value[0] == "leaf":
            i, j = gt_edge_value[1]
            return self.framework.edge_line(i, j)
        _, v, te = gt_edge_value
        idx = self.rgraph.trees[v].interior_edges().index(te) + 1
        return self.interior_labels[(v, idx)]


def reference_resolution_forceload(q, seed_edge=None) -> dict:
    """Equilibrium force-load on the resolution graph, by vertex addition.

    Seeds one glued edge (the lexicographically smallest unless `seed_edge`
    names a framework edge) with a unit stress and resolves one node at a
    time: a node with one known incident force splits its negative along the
    two other labels; a closing edge or node is checked exactly and raises
    InconsistentQuantizationError (naming the framework cycle) on mismatch.
    Nodes not touching interior edges of the last vertex's tree are resolved
    first, so closing cycles avoid that vertex while possible.

    Returns a dict mapping ordered node pairs to the force applied at the
    first node; all forces are nonzero, and the result is independent of the
    seed edge up to one global scalar.
    """
    rg = q.rgraph
    edges = rg.edges()
    labels = {ek: q.edge_label(val) for ek, val in edges.items()}

    last = sorted(rg.trees)[-1]
    deferred = set()
    for te in rg.trees[last].interior_edges():
        deferred.add((last, te[0]))
        deferred.add((last, te[1]))
    priority = {node: (1 if node in deferred else 0, node) for node in rg.nodes()}

    if seed_edge is None:
        start = min(ek for ek, val in edges.items() if val[0] == "leaf")
    else:
        start = rg.glued_edge(edge_key(*seed_edge))
    a, b = start
    f = labels[start].coeffs
    forces = {(a, b): f, (b, a): negated(f)}

    resolved = set()
    pending = len(rg.nodes())
    while pending:
        candidates = [n for n in rg.nodes()
                      if n not in resolved
                      and any((n, _other(ek, n)) in forces
                              for ek in rg.incident_edges(n))]
        node = min(candidates, key=lambda n: priority[n])
        incident = rg.incident_edges(node)
        known = [ek for ek in incident if (node, _other(ek, node)) in forces]
        unknown = [ek for ek in incident if (node, _other(ek, node)) not in forces]
        if len(unknown) == 2:
            incoming = forces[(node, _other(known[0], node))]
            e1, e2 = unknown
            f1, f2 = _decompose(incoming, labels[e1], labels[e2])
            for ek, fx in ((e1, f1), (e2, f2)):
                other = _other(ek, node)
                forces[(node, other)] = fx
                forces[(other, node)] = negated(fx)
        elif len(unknown) == 1:
            f3 = negated(force_sum(forces[(node, _other(ek, node))] for ek in known))
            ek = unknown[0]
            other = _other(ek, node)
            if not any(f3) or line_of_force(f3) != labels[ek]:
                raise InconsistentQuantizationError(
                    "cycle closes with mismatched stress",
                    _closing_cycle(forces, node, other))
            forces[(node, other)] = f3
            forces[(other, node)] = negated(f3)
        else:
            if any(force_sum(forces[(node, _other(ek, node))] for ek in known)):
                raise InconsistentQuantizationError(
                    "cycle closes with mismatched stress",
                    _closing_cycle(forces, node, _other(known[0], node)))
        resolved.add(node)
        pending -= 1
    if any(not any(f) for f in forces.values()):
        raise GeometryError("constructed force-load vanishes on an edge")
    return forces


def _other(edge_key_pair, node):
    u, v = edge_key_pair
    return v if node == u else u


def _closing_cycle(forces, node, other):
    """Framework-vertex cycle witnessing the failed closure, via a path from
    `other` back to `node` through edges that already carry forces."""
    adj = {}
    for (u, v) in forces:
        adj.setdefault(u, set()).add(v)
    prev = {other: None}
    queue = [other]
    while queue:
        w = queue.pop(0)
        if w == node:
            break
        for x in sorted(adj.get(w, ())):
            if x not in prev and not (w == other and x == node):
                prev[x] = w
                queue.append(x)
    if node not in prev:
        return ()
    path = [node]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    verts = []
    for gt_node in path:
        v = gt_node[0]
        if not verts or verts[-1] != v:
            verts.append(v)
    if len(verts) > 1 and verts[0] == verts[-1]:
        verts.pop()
    return tuple(verts)


def reference_induced_stress(q, gt_forces: dict) -> dict:
    """Restriction of a resolution-graph force-load to the glued edges, as a
    force-load on the framework."""
    rg = q.rgraph
    out = {}
    for e in q.framework.graph.edges:
        i, j = e
        ni = rg.attach_node(i, e)
        nj = rg.attach_node(j, e)
        f = gt_forces.get((ni, nj))
        if f is None:
            raise InputError(f"missing force at glued edge {e}")
        out[(i, j)] = f
        out[(j, i)] = negated(f)
    return out


def wheel_graph(spokes, hub="h"):
    rim = [f"r{i}" for i in range(spokes)]
    return Graph([hub] + rim, [(hub, r) for r in rim]
                 + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)])


@st.composite
def quantized_frameworks(draw):
    """(framework, interior labels): a negative fixture, which has no slots,
    or a general-position wheel whose hub slots hold the lines of the
    oracle's load or seeded lines through the hub."""
    kind = draw(st.sampled_from(("fixture", "oracle", "seeded")))
    if kind == "fixture":
        return draw(st.sampled_from((DESARGUES_NEG, PASCAL_NEG))), {}
    fw = random_placement(wheel_graph(draw(st.integers(4, 7))),
                          draw(st.integers(0, 10**6)), bound=60)
    assume(framework_in_general_position(fw))
    if kind == "oracle":
        w = find_nonparallelizable_stress(
            fw, self_stress_basis(fw, STANDARD), STANDARD, seed=0)
        assume(w is not None)
        return fw, quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                            default_trees(fw.graph)).interior_labels
    hub = fw.placement["h"]
    avoid = [fw.edge_line("h", r) for r in fw.graph.neighbors("h")]
    seed = draw(st.integers(0, 10**6))
    labels = {}
    for k in range(1, fw.graph.degree("h") - 2):
        labels[("h", k)] = pick_generic_line_through(hub, avoid, seed + k)
        avoid.append(labels[("h", k)])
    return fw, labels


def _outcome(construct):
    try:
        return construct(), None
    except InconsistentQuantizationError as exc:
        return None, exc


@settings(max_examples=100, deadline=None)
@given(case=quantized_frameworks())
def test_construct_forceload_matches_resolution_graph_reference(case):
    """Scaling the vertex schemes' loads agrees with propagating one load
    node by node through the glued resolution graph: proportional loads, or
    an inconsistency on both sides, named by a simple cycle."""
    fw, labels = case
    trees = default_trees(fw.graph)
    ours, err = _outcome(lambda: construct_forceload(Quantization(fw, labels, trees)))
    ref_q = ReferenceQuantization(ResolutionGraph(fw, trees), labels)
    theirs, ref_err = _outcome(
        lambda: reference_induced_stress(ref_q, reference_resolution_forceload(ref_q)))
    assert (err is None) == (ref_err is None)
    if err is not None:
        cycle, g = err.cycle, fw.graph
        assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
        assert all(has_edge(g, cycle[m - 1], cycle[m]) for m in range(len(cycle)))
        return
    assert is_equilibrium(fw, ours)
    ratios = set()
    for u, v in fw.graph.edges:
        a, b = ours[(u, v)], theirs[(u, v)]
        k = _ratio(a, b)
        assert a == scaled(b, k)
        ratios.add(k)
    assert len(ratios) == 1


# ---------------------------------------------------------------------------
# The edge-ratio holonomy of the module docstring, computed here from the
# vertex schemes' leaf forces only: a cycle is consistent iff its holonomy
# is 1, so all simple cycles, the fundamental cycles and
# `construct_forceload` decide alike.

def holonomy(q, cycle):
    """Product around the cycle of -f_u(e)/f_v(e) over its edges e = uv,
    f_v the leaf forces of v's scheme."""
    leaf = {}
    for v in cycle:
        scheme = q.scheme_at(v)
        leaf[v] = scheme.leaf_forces
    h = Fraction(1)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        a, b = leaf[u][edge_key(u, v)], leaf[v][edge_key(u, v)]
        assert a == scaled(b, _ratio(a, b))
        h *= -_ratio(a, b)
    return h


def random_slot_lines(fw, vertices, seed):
    """Seeded lines through each vertex's point, one per Xi slot, avoiding
    the vertex's edge lines."""
    labels = {}
    for v in vertices:
        avoid = [fw.edge_line(v, u) for u in fw.graph.neighbors(v)]
        for k in range(1, fw.graph.degree(v) - 2):
            labels[(v, k)] = pick_generic_line_through(fw.placement[v], avoid,
                                                       seed * 31 + k)
            avoid.append(labels[(v, k)])
    return labels


def renamed(fw, prefix):
    """The framework's points and edges with vertex p_i renamed prefix + i."""
    name = {v: prefix + v[1:] for v in fw.graph.vertices}
    return ({name[v]: p for v, p in fw.placement.items()},
            [(name[u], name[v]) for u, v in fw.graph.edges])


def glued_desargues_blocks(seed):
    """A seeded Desargues-positive prism (concurrent rungs) and a random
    one, seeded apart, joined by the bridges a2-b2, a3-b3 and a6-b6.

    The triangles a1a4a5 and b1b4b5 keep degree 3, so the first carries the
    positive block's stress and the second almost surely fails, while random
    slot lines at the six bridge ends decide the cycles through them.  A
    cycle crosses between a prism's triangles an even number of times, so it
    never holds all three concurrent rungs.
    """
    pos_points, pos_edges = renamed(
        desargues_concurrent_placement(DESARGUES_GRAPH, seed), "a")
    neg_points, neg_edges = renamed(
        random_placement(DESARGUES_GRAPH, seed + 10**7, bound=60), "b")
    bridges = [("a2", "b2"), ("a3", "b3"), ("a6", "b6")]
    g = Graph(sorted(pos_points) + sorted(neg_points), pos_edges + neg_edges + bridges)
    fw = Framework(g, {**pos_points, **neg_points})
    return fw, random_slot_lines(fw, [v for e in bridges for v in e], seed)


def moved_vertex(fw, seed):
    """The positive fixture with one seeded vertex moved to a random point."""
    rng = random.Random(seed)
    v = rng.choice(fw.graph.vertices)
    placement = dict(fw.placement, **{v: random_affine_point(rng, 60)})
    return Framework(fw.graph, placement)


@st.composite
def holonomy_cases(draw):
    """(framework, interior labels) mixing passing and failing cycles."""
    kind = draw(st.sampled_from(("wheel", "k5", "moved", "fixture", "glued")))
    seed = draw(st.integers(0, 10**6))
    if kind == "fixture":
        return draw(st.sampled_from((DESARGUES_POS, DESARGUES_NEG,
                                     PASCAL_POS, PASCAL_NEG))), {}
    if kind == "moved":
        return moved_vertex(draw(st.sampled_from((DESARGUES_POS, PASCAL_POS))), seed), {}
    if kind == "glued":
        return glued_desargues_blocks(seed)
    if kind == "k5":  # a slot at every vertex
        g = Graph([f"v{i}" for i in range(5)],
                  [(f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)])
    else:
        # the hub first or last in vertex order: the fundamental cycles are
        # then all hub triangles, or include the rim cycle
        g = wheel_graph(draw(st.integers(4, 8)), draw(st.sampled_from(("h", "z"))))
    fw = random_placement(g, seed, bound=60)
    return fw, random_slot_lines(fw, g.vertices, seed)


@functools.cache
def compiled(g):
    """`generate_system`, once per graph across examples."""
    return generate_system(g)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=holonomy_cases(), seed=st.integers(0, 10**6))
def test_consistency_is_trivial_holonomy(case, seed):
    fw, labels = case
    assume(framework_in_general_position(fw))
    g = fw.graph
    q = Quantization(fw, labels, default_trees(g))
    try:
        per_cycle = {c: is_consistent_at(q, c) for c in simple_cycles(g)}
    except (GenericityError, PreconditionError):
        assume(False)  # a framed cycle outside general position
    for c, consistent in per_cycle.items():
        assert consistent == (holonomy(q, c) == 1), c
    generators = is_consistent(q, consistency_cycles(g))
    assert all(per_cycle.values()) == generators
    assert is_consistent(q, simple_cycles(g)) == generators
    assert (_outcome(lambda: construct_forceload(q))[1] is None) == generators
    fulfilled = {cycles: fulfilled_with_witness(system, fw, labels, seed)
                 for cycles, system in (("all", all_cycles_system(g)),
                                        ("generators", compiled(g)))}
    assert fulfilled["all"] == fulfilled["generators"] == generators


def test_holonomy_inputs_separate_the_cycle_modes():
    """The property's inputs discriminate: on a glued block and on a wheel
    whose rim comes first in vertex order, some fundamental cycles pass and
    some fail, and the rim cycle passes with random hub lines."""
    wheel = random_placement(wheel_graph(4, "z"), 3, bound=60)
    for fw, labels in (glued_desargues_blocks(1),
                       (wheel, random_slot_lines(wheel, ["z"], 3))):
        assert framework_in_general_position(fw)
        q = Quantization(fw, labels, default_trees(fw.graph))
        verdicts = {c: is_consistent_at(q, c)
                    for c in consistency_cycles(fw.graph)}
        assert set(verdicts.values()) == {True, False}
    assert verdicts[("r0", "r1", "r2", "r3")]


# ---------------------------------------------------------------------------
# The lemma consistency rests on: on a framework in general position, every
# framed cycle of a quantization passes the per-cycle test of
# `tests/lemmas.py` (edge lines in general position, no framing through a
# neighbor), so the library's framed cycle tests its framings alone.

def assert_framed_cycles_pass_the_per_cycle_test(fw, cycles, seed):
    assert fw.in_general_position
    q = Quantization(fw, random_slot_lines(fw, fw.graph.vertices, seed),
                     default_trees(fw.graph))
    for cycle in cycles:
        fc = framed_cycle_of(q, cycle)
        assert distinct_crossings(crossings(fc)), cycle
        assert framed_cycle_in_general_position(fc) == fc.in_general_position, cycle


def test_census_framed_cycles_pass_the_per_cycle_test():
    for index, g in census_graphs():
        fw = random_placement(g, 1, bound=60)
        assert_framed_cycles_pass_the_per_cycle_test(fw, simple_cycles(g), index)


@pytest.mark.parametrize("name", LIFTED_GRAPHS)
def test_lifted_framed_cycles_pass_the_per_cycle_test(name):
    g = nx.convert_node_labels_to_integers(LIFTED_GRAPHS[name])
    for seed in (1, 2, 3):
        lift = maxwell_cremona_lift(g, seed)
        for fw in (lift, moved_first_vertex(lift)):
            cycles = consistency_cycles(fw.graph)
            if len(fw.graph.vertices) <= 12:
                cycles = simple_cycles(fw.graph)
            assert_framed_cycles_pass_the_per_cycle_test(fw, cycles, seed)


def test_desargues_and_pascal_framed_cycles_pass_the_per_cycle_test():
    from tensec.sampling import pascal_conic_placement

    for g, draw in ((DESARGUES_GRAPH, desargues_concurrent_placement),
                    (PASCAL_GRAPH, pascal_conic_placement),
                    (DESARGUES_GRAPH, lambda g, s: random_placement(g, s, bound=60))):
        tested = 0
        for seed in range(12):
            fw = draw(g, seed)
            if fw.in_general_position:
                assert_framed_cycles_pass_the_per_cycle_test(fw, simple_cycles(g), seed)
                tested += 1
        assert tested >= 6


def test_quantization_refuses_a_framework_outside_general_position():
    # the collinear triple p5, p6 and p1 ... of `test_check_exit_codes`
    placement = dict(DESARGUES_POS.placement)
    placement["p5"] = ProjPoint((1, 1, 1))
    placement["p6"] = ProjPoint((2, 2, 1))
    fw = Framework(DESARGUES_GRAPH, placement)
    assert not framework_in_general_position(fw)
    with pytest.raises(PreconditionError, match="general position"):
        Quantization(fw, {}, default_trees(DESARGUES_GRAPH))
    wheel = random_placement(wheel_graph(4, "z"), 3, bound=60)
    labels = random_slot_lines(wheel, ["z"], 3)
    Quantization(wheel, labels, default_trees(wheel.graph))
    rim = dict(wheel.placement)
    a, b = (rim[v].coords for v in ("r0", "r1"))
    rim["r2"] = ProjPoint(tuple(2 * x - y for x, y in zip(a, b)))
    bent = Framework(wheel.graph, rim)
    assert not framework_in_general_position(bent)
    with pytest.raises(PreconditionError, match="general position"):
        Quantization(bent, random_slot_lines(bent, ["z"], 3), default_trees(bent.graph))


def test_framework_decides_general_position_once(monkeypatch):
    import tensec.framework

    calls = []
    general = tensec.framework.framework_in_general_position
    monkeypatch.setattr(tensec.framework, "framework_in_general_position",
                        lambda fw: calls.append(fw) or general(fw))
    fw = Framework(DESARGUES_GRAPH, DESARGUES_POS.placement)
    q = Quantization(fw, {}, default_trees(DESARGUES_GRAPH))
    assert fw.in_general_position
    assert is_consistent(q, consistency_cycles(DESARGUES_GRAPH))
    assert calls == [fw]
