import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import enumerate_equivalent_schemes, topology_key, walk_to_shared_node
from reference_resolution import _decompose, nonzero_scale, positive_scale
from reference_resolution import scheme_forceload as fraction_scheme_forceload
from test_census import census_graphs
from test_integer_core import wheel
from tensec.errors import GenericityError, GeometryError, InputError
from tensec.framework import (edge_key, find_nonparallelizable_stress,
                              forceload_from_stress, framework_from_json,
                              read_json, self_stress_basis)
from tensec.projective import (AffineChart, Force, ProjLine, ProjPoint, line_of_force,
                               pick_generic_line_through)
from tensec.quantization import default_trees, quantization_from_stress
from tensec.resolution import _decompose as integer_decompose
from tensec.resolution import (BinaryTree, ResolutionScheme, associated_framing,
                               default_tree, fold_to_shared_node, is_strongly_generic,
                               is_weakly_generic, rewire, scheme_forceload,
                               scheme_hf_surgery, slot_edges)

BASE = ProjPoint((0, 0, 1))
STANDARD = AffineChart.standard()


def scheme_with_lines(labels_by_edge, tree):
    return ResolutionScheme(tree, BASE, labels_by_edge)


def distinct_lines_scheme(n_leaves, seed):
    """Caterpillar scheme with pairwise distinct random lines through BASE."""
    tree = default_tree([f"e{i}" for i in range(n_leaves)])
    rng = random.Random(seed)
    used = set()
    labels = {}
    for e in tree.edges():
        while True:
            line = pick_generic_line_through(BASE, [], rng.randint(0, 10 ** 6))
            if line not in used:
                used.add(line)
                labels[e] = line
                break
    return ResolutionScheme(tree, BASE, labels)


# the worked four-leaf example: all lines through the origin, interior line
# the x-axis; forces balancing at both interior nodes were computed by hand
L12 = ProjLine((0, 1, 0))
L13 = ProjLine((1, 0, 0))
L14 = ProjLine((1, -1, 0))
L25 = ProjLine((2, -1, 0))
L26 = ProjLine((3, -1, 0))


def worked_example():
    tree = default_tree(["e13", "e14", "e25", "e26"])
    labels = {edge_key(0, 4): L13, edge_key(1, 4): L14,
              edge_key(2, 5): L25, edge_key(3, 5): L26,
              edge_key(4, 5): L12}
    return ResolutionScheme(tree, BASE, labels)


def test_default_tree_shapes():
    t3 = default_tree(["a", "b", "c"])
    assert sorted(t3.leaf_labels.values()) == ["a", "b", "c"]
    assert t3.interior_edges() == []
    t4 = default_tree(["a", "b", "c", "d"])
    assert len(t4.interior_edges()) == 1
    t5 = default_tree(["a", "b", "c", "d", "e"])
    assert len(t5.interior_edges()) == 2
    # leaf order preserved: leaves 0..4 carry the labels in order
    assert [t5.leaf_labels[i] for i in range(5)] == ["a", "b", "c", "d", "e"]
    with pytest.raises(InputError):
        default_tree(["a", "b"])


# `default_tree` and `scheme_forceload` as they were before the caterpillar
# became one edge list and the propagation a walk over (node, known
# neighbor) pairs; kept verbatim (but for `edge_key`) as the references.
# The force-load reference splits with the Fraction `_decompose` of
# `reference_resolution`.

def reference_default_tree(leaf_labels) -> BinaryTree:
    """Left-comb caterpillar over the labels in the given order."""
    labels = list(leaf_labels)
    s = len(labels)
    if s < 3:
        raise InputError("need at least 3 leaf labels")
    adjacency = {i: [] for i in range(s)}
    if s == 3:
        adjacency[3] = [0, 1, 2]
        for i in range(3):
            adjacency[i] = [3]
    else:
        spine = list(range(s, 2 * s - 2))
        for j, node in enumerate(spine):
            adjacency[node] = []
        adjacency[spine[0]] = [0, 1, spine[1]]
        adjacency[0] = [spine[0]]
        adjacency[1] = [spine[0]]
        for j in range(1, s - 3):
            adjacency[spine[j]] = [spine[j - 1], j + 1, spine[j + 1]]
            adjacency[j + 1] = [spine[j]]
        adjacency[spine[-1]] = [spine[-2], s - 2, s - 1]
        adjacency[s - 2] = [spine[-1]]
        adjacency[s - 1] = [spine[-1]]
    return BinaryTree(adjacency, {i: labels[i] for i in range(s)})


def reference_scheme_forceload(s: ResolutionScheme, seed_edge, seed_force: Force):
    """Unique equilibrium force-load extending a nonzero seed stress."""
    if not is_weakly_generic(s):
        raise GenericityError("scheme is not weakly generic")
    key = edge_key(*seed_edge)
    if seed_force.is_zero() or line_of_force(seed_force) != s.labels[key]:
        raise GeometryError("seed force must be nonzero along the seed edge label")
    u, v = seed_edge
    forces = {(u, v): seed_force, (v, u): -seed_force}
    stack = [u, v]
    resolved = set()
    while stack:
        w = stack.pop()
        if w in resolved or s.tree.degree(w) != 3:
            continue
        known = [n for n in s.tree.adjacency[w] if (w, n) in forces]
        unknown = [n for n in s.tree.adjacency[w] if (w, n) not in forces]
        if not known:
            continue
        if unknown:
            incoming = forces[(w, known[0])]
            n1, n2 = unknown
            f1, f2 = _decompose(incoming, s.label(w, n1), s.label(w, n2))
            forces[(w, n1)], forces[(n1, w)] = f1, -f1
            forces[(w, n2)], forces[(n2, w)] = f2, -f2
            stack.extend([n1, n2])
        resolved.add(w)
    if len(forces) != 2 * len(s.tree.edges()):
        raise GeometryError("propagation did not reach every edge")
    return forces


def reference_side_labels(tree: BinaryTree, edge, node: int):
    """`BinaryTree.side_labels` before it read the shared breadth-first walk
    (a depth-first search of its own), kept verbatim as a reference."""
    u, v = edge
    if node not in (u, v):
        raise InputError("node must be an endpoint of the edge")
    other = v if node == u else u
    seen = {other, node}
    stack = [node]
    labels = []
    while stack:
        w = stack.pop()
        if tree.degree(w) == 1:
            labels.append(tree.leaf_labels[w])
        for x in tree.adjacency[w]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return frozenset(labels)


def reference_path(tree: BinaryTree, a: int, b: int):
    """`BinaryTree.path` before it read the shared breadth-first walk, kept
    verbatim as a reference."""
    prev = {a: None}
    stack = [a]
    while stack:
        w = stack.pop()
        if w == b:
            break
        for x in tree.adjacency[w]:
            if x not in prev:
                prev[x] = w
                stack.append(x)
    out = [b]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return out[::-1]


def seeded_tree(n_leaves, rewires, seed):
    """The default tree of n_leaves leaves after `rewires` seeded rewires at
    random interior edges and pairings: trees of other topologies."""
    tree = default_tree([f"e{i}" for i in range(n_leaves)])
    labels = dict.fromkeys(tree.edges())
    rng = random.Random(seed)
    for _ in range(rewires):
        interior = tree.interior_edges()
        if not interior:
            break
        v1, v2 = interior[rng.randrange(len(interior))]
        pairing = (rng.choice([n for n in tree.adjacency[v1] if n != v2]),
                   rng.choice([n for n in tree.adjacency[v2] if n != v1]))
        tree, labels = rewire(tree, labels, (v1, v2), pairing, lambda *h: None)
    return tree


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_leaves=st.integers(3, 16), rewires=st.integers(0, 6),
       seed=st.integers(0, 10**6))
def test_tree_walks_match_reference(n_leaves, rewires, seed):
    # default trees, and trees of other topologies reached by seeded rewires
    tree = seeded_tree(n_leaves, rewires, seed)
    leaves = sorted(tree.leaf_labels)
    for a in leaves:
        for b in leaves:
            assert tree.path(a, b) == reference_path(tree, a, b)
    for e in tree.edges():
        for node in e:
            assert tree.side_labels(e, node) == reference_side_labels(tree, e, node)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_leaves=st.integers(3, 16), rewires=st.integers(0, 6),
       seed=st.integers(0, 10**6))
def test_fold_matches_surgery_walk(n_leaves, rewires, seed):
    # opaque labels, and the fresh label of a surgery the tuple of the five
    # labels of its H, so equal results mean equal surgeries on equal H's
    tree = seeded_tree(n_leaves, rewires, seed)
    labels = {e: object() for e in tree.edges()}

    def walk_label(tree, labels, h):
        return tuple(labels[edge_key(*e)] for e in h)

    leaves = list(tree.leaf_labels.values())
    for a in leaves:
        for b in leaves:
            if a != b:
                assert fold_to_shared_node(tree, labels, a, b, lambda *h: h) == \
                    walk_to_shared_node(tree, labels, a, b, walk_label)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.text(max_size=2), st.integers(-5, 5)),
                min_size=3, max_size=16, unique=True))
def test_default_tree_matches_reference(labels):
    tree, ref = default_tree(labels), reference_default_tree(labels)
    assert tree.adjacency == ref.adjacency
    assert list(tree.adjacency) == list(ref.adjacency)
    assert tree.leaf_labels == ref.leaf_labels
    assert list(slot_edges(tree).values()) == ref.interior_edges()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_leaves=st.integers(3, 10), seed=st.integers(0, 10**6))
def test_forceload_matches_reference_from_every_seed_edge(n_leaves, seed):
    # the load is unique up to scale: the canonical integer load is one
    # nonzero multiple of the load seeded on any edge
    s = distinct_lines_scheme(n_leaves, seed)
    got = scheme_forceload(s)
    for e in s.tree.edges():
        for seed_edge in (e, e[::-1]):
            f0 = Force(s.labels[e].coeffs)
            exact = fraction_scheme_forceload(s, seed_edge, f0)
            # the Fraction loads: equal forces, propagated in the same order
            assert list(exact.items()) == list(
                reference_scheme_forceload(s, seed_edge, f0).items())
            nonzero_scale(got, exact)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_leaves=st.integers(3, 10), seed=st.integers(0, 10**6),
       num=st.integers(-9, 9).filter(bool), den=st.integers(1, 9))
def test_integer_forceload_is_the_coprime_positive_multiple(n_leaves, seed, num, den):
    """Against the Fraction load seeded on an edge with any rational
    multiple of its label, the integer load has the same lines and ratios,
    one nonzero scale apart, and coprime entries; it is the positive
    multiple of the load seeded on the first edge with its label."""
    s = distinct_lines_scheme(n_leaves, seed)
    e = s.tree.edges()[seed % len(s.tree.edges())]
    f0 = Force(s.labels[e].coeffs).scaled(Fraction(num, den))
    got = scheme_forceload(s)
    exact = fraction_scheme_forceload(s, e, f0)
    scale = nonzero_scale(got, exact)
    if e == s.tree.edges()[0]:
        assert (scale > 0) == (num > 0)
    assert all(line_of_force(got[key]) == line_of_force(exact[key]) for key in got)
    assert all(type(x) is int for f in got.values() for x in f.dual)
    assert gcd(*(x for f in got.values() for x in f.dual)) == 1


def test_wheel_hub_forceload_matches_fraction_reference():
    s = wheel6_hub_scheme()
    seed_edge = s.tree.edges()[0]
    exact = fraction_scheme_forceload(s, seed_edge, Force(s.labels[seed_edge].coeffs))
    positive_scale(s.forceload, exact)
    assert is_strongly_generic(s)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(-6, 6)] * 3), st.tuples(*[st.integers(-6, 6)] * 3),
       st.tuples(*[st.integers(-6, 6)] * 3))
def test_integer_decompose_matches_fraction_reference(force, a, b):
    """k force + f1 + f2 = 0 for a positive int k, with f1 and f2 the
    reference's components times k; the same GeometryError otherwise."""
    assume(any(a) and any(b))
    force, l1, l2 = Force(force), ProjLine(a), ProjLine(b)
    try:
        ref = _decompose(force, l1, l2)
    except GeometryError as exc:
        with pytest.raises(GeometryError, match=str(exc)):
            integer_decompose(force, l1, l2)
        return
    k, f1, f2 = integer_decompose(force, l1, l2)
    assert type(k) is int and k > 0
    assert (force.scaled(k) + f1 + f2).is_zero()
    assert (f1, f2) == (ref[0].scaled(k), ref[1].scaled(k))


def test_tree_validation():
    with pytest.raises(InputError):
        BinaryTree({0: (1, 2), 1: (0,), 2: (0,)}, {1: "a", 2: "b"})


def _tree_view(tree):
    """Everything a vertex tree answers: adjacency, edges, interior edges,
    leaf labels, the node of each label and the Xi slots."""
    return (tree.adjacency, list(tree.adjacency), tree.edges(), tree.interior_edges(),
            tree.leaf_labels,
            {label: tree.leaf_node(label) for label in tree.leaf_labels.values()},
            slot_edges(tree))


def test_shared_caterpillars_equal_fresh_ones():
    # each degree's caterpillar is built once; every other vertex of that
    # degree relabels it, and answers as a tree built for it would
    graphs = [g for _, g in census_graphs()] + [wheel(m) for m in range(4, 17)]
    for g in graphs:
        trees = default_trees(g)
        for v in g.vertices:
            fresh = default_tree([edge_key(v, u) for u in g.neighbors(v)])
            assert _tree_view(trees[v]) == _tree_view(fresh), v
        shapes = {id(tree.adjacency) for tree in trees.values()}
        assert len(shapes) == len({len(g.neighbors(v)) for v in g.vertices})


def test_relabeling_checks_the_labels():
    tree = default_tree(["a", "b", "c", "d"])
    other = tree.relabeled({0: "w", 1: "x", 2: "y", 3: "z"})
    assert other.leaf_node("z") == 3 and tree.leaf_node("d") == 3
    with pytest.raises(InputError, match="cover exactly"):
        tree.relabeled({0: "w", 1: "x", 2: "y"})
    with pytest.raises(InputError, match="cover exactly"):
        tree.relabeled({0: "w", 1: "x", 2: "y", 4: "z"})
    with pytest.raises(InputError, match="distinct"):
        tree.relabeled({0: "w", 1: "x", 2: "y", 3: "x"})


def test_weak_genericity():
    s = worked_example()
    assert is_weakly_generic(s)
    bad_labels = dict(s.labels)
    bad_labels[edge_key(0, 4)] = L12  # adjacent to the interior edge label
    assert not is_weakly_generic(scheme_with_lines(bad_labels, s.tree))
    # equal labels on non-adjacent edges stay weakly generic
    far_labels = dict(s.labels)
    far_labels[edge_key(2, 5)] = L13
    assert is_weakly_generic(scheme_with_lines(far_labels, s.tree))


def test_forceload_matches_hand_computation():
    s = worked_example()
    # seeded with the coefficients of L13 on the first edge, (0, 4)
    fl = scheme_forceload(s)
    assert fl[(4, 0)] == Force((-1, 0, 0))
    assert fl[(4, 1)] == Force((1, -1, 0))
    assert fl[(4, 5)] == Force((0, 1, 0))
    assert fl[(5, 2)] == Force((-6, 3, 0))
    assert fl[(5, 3)] == Force((6, -2, 0))


def test_forceload_equilibrium_and_nonzero_everywhere():
    for seed in (1, 2, 3):
        s = distinct_lines_scheme(5, seed)
        fl = scheme_forceload(s)
        for node, nbrs in s.tree.adjacency.items():
            if len(nbrs) == 3:
                total = Force((0, 0, 0))
                for w in nbrs:
                    total = total + fl[(node, w)]
                assert total.is_zero()
        assert all(not f.is_zero() for f in fl.values())


def test_forceload_scales_linearly():
    s = worked_example()
    ref1 = fraction_scheme_forceload(s, (0, 4), Force((-1, 0, 0)))
    ref3 = fraction_scheme_forceload(s, (0, 4), Force((-3, 0, 0)))
    for key in ref1:
        assert ref3[key] == ref1[key].scaled(3)
    # the integer load is the one coprime multiple of both
    assert nonzero_scale(scheme_forceload(s), ref1) == -1
    assert nonzero_scale(scheme_forceload(s), ref3) == Fraction(-1, 3)


def test_forceload_independent_of_propagation_order():
    # breadth-first reference propagation written independently
    def bfs_forceload(s, seed_edge, seed_force):
        u, v = seed_edge
        forces = {(u, v): seed_force, (v, u): -seed_force}
        from collections import deque

        queue = deque([u, v])
        done = set()
        while queue:
            w = queue.popleft()
            if w in done or s.tree.degree(w) != 3:
                continue
            known = [n for n in s.tree.adjacency[w] if (w, n) in forces]
            unknown = [n for n in s.tree.adjacency[w] if (w, n) not in forces]
            if not known:
                continue
            if unknown:
                f1, f2 = _decompose(forces[(w, known[0])],
                                    s.label(w, unknown[0]), s.label(w, unknown[1]))
                for n, f in zip(unknown, (f1, f2)):
                    forces[(w, n)], forces[(n, w)] = f, -f
                    queue.append(n)
            done.add(w)
        return forces

    for seed in (5, 6):
        s = distinct_lines_scheme(6, seed)
        e = s.tree.edges()[2]
        f0 = Force(s.labels[e].coeffs)
        ref = bfs_forceload(s, e, f0)
        assert fraction_scheme_forceload(s, e, f0) == ref
        nonzero_scale(scheme_forceload(s), ref)


def test_forceload_rejects_nongeneric_scheme():
    s = worked_example()
    bad_labels = dict(s.labels)
    bad_labels[edge_key(0, 4)] = L12
    bad = scheme_with_lines(bad_labels, s.tree)
    with pytest.raises(GenericityError):
        scheme_forceload(bad)


def twisted_example():
    """The worked example with leaf e25 moved onto the line of e13."""
    s = worked_example()
    labels = dict(s.labels)
    labels[edge_key(2, 5)] = L13  # same line as leaf e13 on the other side
    return scheme_with_lines(labels, s.tree)


def test_strong_genericity_small_cases():
    assert is_strongly_generic(distinct_lines_scheme(3, 1))
    assert is_strongly_generic(distinct_lines_scheme(4, 1))
    # four leaves, two of them on the same line: weakly generic when they are
    # not adjacent, but the partial sums collide
    twisted = twisted_example()
    assert is_weakly_generic(twisted)
    assert not is_strongly_generic(twisted)


def test_genericity_guard_before_first_surgery():
    twisted = twisted_example()
    # e13 and e25 meet only after one surgery, which needs strong genericity
    with pytest.raises(GenericityError):
        associated_framing(twisted, "e13", "e25")
    with pytest.raises(GenericityError):
        associated_framing(twisted, "e25", "e13")
    with pytest.raises(GenericityError):
        scheme_hf_surgery(twisted, (4, 5), pairing=(0, 2))
    with pytest.raises(GenericityError):
        enumerate_equivalent_schemes(twisted)
    # leaves that already share a node need no surgery: their framing is the
    # shared interior label
    assert associated_framing(twisted, "e13", "e14") == L12
    assert associated_framing(twisted, "e26", "e25") == L12


def test_surgery_matches_hand_computation():
    s = worked_example()
    out = scheme_hf_surgery(s, (4, 5), pairing=(0, 2))
    new_edges = out.tree.interior_edges()
    assert len(new_edges) == 1
    assert out.labels[new_edges[0]] == ProjLine((7, -3, 0))
    assert is_strongly_generic(out)
    # leaf forces, by leaf label, are preserved by the surgery up to scale
    before, after = s.leaf_forces, out.leaf_forces
    scale = None
    for lab in before:
        f_b, f_a = before[lab], after[lab]
        for i in range(3):
            if f_b.dual[i]:
                r = Fraction(f_a.dual[i], f_b.dual[i])
                assert scale is None or r == scale
                scale = r
        assert f_a.dual == tuple(scale * x for x in f_b.dual)


def test_surgery_guard_and_interior_requirement():
    s = worked_example()
    with pytest.raises(InputError):
        scheme_hf_surgery(s, (0, 4), pairing=(1, 5))  # leaf edge
    # nodes 6 and 8 of the 6-leaf caterpillar both have degree 3 but are
    # not adjacent
    s6 = distinct_lines_scheme(6, 2)
    assert s6.tree.degree(6) == 3 and s6.tree.degree(8) == 3
    assert 8 not in s6.tree.adjacency[6]
    with pytest.raises(InputError, match="not an interior edge"):
        scheme_hf_surgery(s6, (6, 8), pairing=(0, 3))


def test_resurgery_cycles_through_three_topologies():
    # a surgery always moves to one of the two alternative pairings, and
    # re-surgeries stay inside the 3-element topology orbit
    s = worked_example()
    seen = {topology_key(s.tree)}
    frontier = [s]
    for _ in range(3):
        nxt = []
        for cur in frontier:
            (v1, v2) = cur.tree.interior_edges()[0]
            side1 = [n for n in cur.tree.adjacency[v1] if n != v2]
            side2 = [n for n in cur.tree.adjacency[v2] if n != v1]
            for n5 in side2:
                out = scheme_hf_surgery(cur, (v1, v2), pairing=(side1[0], n5))
                assert topology_key(out.tree) != topology_key(cur.tree)
                nxt.append(out)
                seen.add(topology_key(out.tree))
        frontier = nxt
    assert len(seen) == 3


def walked_framing(s, leaf_a, leaf_b):
    """The associated framing by its definition: H-to-Phi surgeries at the
    first interior edge of the leaf-to-leaf path, pairing the two path
    neighbors, until the leaves share a node; then the third edge's label."""
    while True:
        na, nb = s.tree.leaf_node(leaf_a), s.tree.leaf_node(leaf_b)
        path = s.tree.path(na, nb)
        if len(path) == 3:
            third = next(n for n in s.tree.adjacency[path[1]] if n not in (na, nb))
            return s.label(path[1], third)
        s = scheme_hf_surgery(s, (path[1], path[2]), pairing=(path[0], path[3]))


def wheel6_hub_scheme():
    """Scheme at the degree-6 hub of the golden wheel, stress as
    `check --seed 6` finds it."""
    fw = framework_from_json(read_json(Path(__file__).parent / "golden"
                                       / "wheel6_framework.json"))
    w = find_nonparallelizable_stress(fw, self_stress_basis(fw, STANDARD), STANDARD, seed=6)
    return quantization_from_stress(fw, forceload_from_stress(fw, w, STANDARD),
                                    default_trees(fw.graph)).scheme_at("h")


def test_associated_framing_direct_and_symmetric():
    schemes = [distinct_lines_scheme(5, seed) for seed in (2, 3, 4)]
    schemes += [distinct_lines_scheme(6, seed) for seed in (3, 9)]
    schemes.append(wheel6_hub_scheme())
    for s in schemes:
        labs = sorted(s.tree.leaf_labels.values())
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                fwd = associated_framing(s, labs[i], labs[j])
                assert fwd == associated_framing(s, labs[j], labs[i])
                assert fwd == walked_framing(s, labs[i], labs[j])


def test_degree3_and_degree4_framing_identities():
    s3 = distinct_lines_scheme(3, 7)
    labs = sorted(s3.tree.leaf_labels.values())
    third = [l for l in labs if l not in (labs[0], labs[1])][0]
    third_edge = [e for e in s3.tree.edges()
                  if s3.tree.leaf_labels.get(e[0]) == third
                  or s3.tree.leaf_labels.get(e[1]) == third][0]
    assert associated_framing(s3, labs[0], labs[1]) == s3.labels[third_edge]

    s4 = distinct_lines_scheme(4, 8)
    a, b, c, d = sorted(s4.tree.leaf_labels.values())
    assert associated_framing(s4, a, c) == associated_framing(s4, b, d)
    assert associated_framing(s4, a, d) == associated_framing(s4, b, c)
    assert associated_framing(s4, a, b) == associated_framing(s4, c, d)


def test_force_structure_invariant():
    # the line of the summed leaf forces on one side of an interior edge is
    # that edge's label
    for seed in (3, 9):
        s = distinct_lines_scheme(6, seed)
        lf = s.leaf_forces
        for e in s.tree.interior_edges():
            side = s.tree.side_labels(e, e[0])
            total = Force((0, 0, 0))
            for lab in side:
                total = total + lf[lab]
            assert not total.is_zero()
            assert line_of_force(total) == s.labels[e]


def test_leaf_forces_determine_scheme():
    # two schemes on the same tree with the same leaf forces carry the same
    # labels
    s = distinct_lines_scheme(5, 12)
    lf = s.leaf_forces
    rebuilt = {}
    for e in s.tree.edges():
        u, v = e
        if s.tree.degree(u) == 1 or s.tree.degree(v) == 1:
            leaf = u if s.tree.degree(u) == 1 else v
            rebuilt[e] = line_of_force(lf[s.tree.leaf_labels[leaf]])
        else:
            side = s.tree.side_labels(e, e[0])
            total = Force((0, 0, 0))
            for lab in side:
                total = total + lf[lab]
            rebuilt[e] = line_of_force(total)
    assert rebuilt == s.labels


def brute_force_topologies(labels):
    """All leaf-labeled unrooted full binary tree topologies by iterative
    leaf insertion; returns the set of split-system keys."""
    base = default_tree(labels[:3])
    trees = [base]
    for lab in labels[3:]:
        grown = []
        for t in trees:
            for e in t.edges():
                adjacency = {u: list(vs) for u, vs in t.adjacency.items()}
                mid = max(adjacency) + 1
                leaf = mid + 1
                u, v = e
                adjacency[u] = [mid if x == v else x for x in adjacency[u]]
                adjacency[v] = [mid if x == u else x for x in adjacency[v]]
                adjacency[mid] = [u, v, leaf]
                adjacency[leaf] = [mid]
                leaf_labels = dict(t.leaf_labels)
                leaf_labels[leaf] = lab
                grown.append(BinaryTree(adjacency, leaf_labels))
        trees = grown
    return {topology_key(t) for t in trees}


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 3), (5, 15)])
def test_equivalent_scheme_enumeration_counts(n, expected):
    labels = [f"e{i}" for i in range(n)]
    assert len(brute_force_topologies(labels)) == expected
    s = distinct_lines_scheme(n, 21)
    schemes = enumerate_equivalent_schemes(s)
    assert len(schemes) == expected
    assert {topology_key(x.tree) for x in schemes} == brute_force_topologies(labels)
    for x in schemes:
        assert is_strongly_generic(x)
