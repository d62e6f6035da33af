"""Resolution schemes: labeled unrooted full binary trees at a point.

A scheme resolves the force balance at a vertex: each tree edge carries a
line through the base point, and an equilibrium force-load assigns a force
along that line to every edge so that the three forces at each interior tree
node cancel.  That load is unique up to scale, and `scheme_forceload`
computes the canonical one, seeded on the first tree edge, in integers.
The H-to-Phi surgery rewires an interior edge and relabels it with the line
of the two forces that come together at the new node; walking surgeries
along a leaf-to-leaf path until the two leaves share a node defines the
associated framing of a pair of host edges, the label of the third edge at
that node.  A surgery keeps the leaf forces up to one scale, and the third
edge balances the pair, so the framing is the line of the sum of the two
leaf forces: `associated_framing` computes it that way.  The walk remains
the definition, and `rewire` takes the label of the fresh edge as a rule,
so `scheme_hf_surgery` walks it with lines.  The condition compiler follows
the same walk with expression labels, folded over the original leaf path by
`fold_to_shared_node`, which builds no tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import GenericityError, GeometryError, InputError
from .framework import bfs_parents, edge_key, is_connected, root_path
from .projective import Force, ProjLine, ProjPoint, line_of_force, \
    non_parallelizable_star


class BinaryTree:
    """Unrooted full binary tree with labeled leaves.

    `adjacency` maps node ids to neighbor tuples (degrees 1 or 3);
    `leaf_labels` maps each degree-1 node to its label.  Labels are
    arbitrary hashables (host-graph edge keys in practice).

    A tree is never changed after construction, so its sorted edges, its
    interior edges and the node of each leaf label are computed once, when
    it is built; `edges` and `interior_edges` return those lists themselves,
    which callers must not change.  Trees of one shape (`relabeled`) share
    their adjacency and edge lists.
    """

    __slots__ = ("adjacency", "leaf_labels", "_edges", "_interior", "_leaf_nodes")

    def __init__(self, adjacency, leaf_labels):
        adjacency = {u: tuple(sorted(vs)) for u, vs in adjacency.items()}
        edges = []
        for u, vs in adjacency.items():
            if len(vs) not in (1, 3):
                raise InputError(f"tree node {u} has degree {len(vs)}")
            for v in vs:
                if u not in adjacency.get(v, ()):
                    raise InputError("asymmetric adjacency")
                if u < v:
                    edges.append((u, v))
                elif u == v:
                    raise InputError(f"loop edge at {u!r}")
        leaves = {u for u, vs in adjacency.items() if len(vs) == 1}
        _check_leaf_labels(leaves, leaf_labels)
        if len(leaves) < 3:
            raise InputError("a full binary tree has at least 3 leaves")
        self.adjacency = adjacency
        self.leaf_labels = dict(leaf_labels)
        if not is_connected(adjacency):
            raise InputError("tree is not connected")
        edges.sort()
        self._edges = edges
        self._interior = [(u, v) for u, v in edges
                          if len(adjacency[u]) == 3 == len(adjacency[v])]
        self._leaf_nodes = {label: node for node, label in self.leaf_labels.items()}

    def relabeled(self, leaf_labels) -> "BinaryTree":
        """This tree's shape with other leaf labels.  The shape was
        validated when this tree was built and is shared, not copied; only
        the labels are checked: they cover exactly the degree-1 nodes and
        are distinct."""
        _check_leaf_labels(self.leaf_labels.keys(), leaf_labels)
        tree = object.__new__(BinaryTree)
        tree.adjacency = self.adjacency
        tree.leaf_labels = dict(leaf_labels)
        tree._edges = self._edges
        tree._interior = self._interior
        tree._leaf_nodes = {label: node for node, label in tree.leaf_labels.items()}
        return tree

    def edges(self):
        """The edges (u, v), u < v, in sorted order."""
        return self._edges

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def leaf_node(self, label) -> int:
        try:
            return self._leaf_nodes[label]
        except KeyError:
            raise InputError(f"no leaf labeled {label!r}") from None

    def interior_edges(self):
        """The edges between two degree-3 nodes, in the order of `edges`."""
        return self._interior

    def side_labels(self, edge, node: int):
        """Leaf labels of the component of tree minus `edge` containing `node`."""
        u, v = edge
        if node not in (u, v):
            raise InputError("node must be an endpoint of the edge")
        side = bfs_parents(self.adjacency, node, avoid=v if node == u else u)
        return frozenset(self.leaf_labels[w] for w in side if self.degree(w) == 1)

    def path(self, a: int, b: int):
        """Nodes of the tree path from a to b."""
        return root_path(bfs_parents(self.adjacency, a), b)[::-1]


def _check_leaf_labels(leaves, leaf_labels):
    """Leaf labels {node: label} cover exactly the leaf nodes and are
    distinct (InputError otherwise)."""
    if leaf_labels.keys() != leaves:
        raise InputError("leaf labels must cover exactly the degree-1 nodes")
    if len(set(leaf_labels.values())) != len(leaf_labels):
        raise InputError("leaf labels must be distinct")


def default_tree(leaf_labels) -> BinaryTree:
    """Left-comb caterpillar over the labels in the given order.

    Leaf i is node i, and the spine nodes s .. 2s-3 form a path.  Leaves 0
    and 1 hang on spine node s, leaf i on spine node s+i-1, and the last two
    leaves on the last spine node.
    """
    labels = list(leaf_labels)
    s = len(labels)
    if s < 3:
        raise InputError("need at least 3 leaf labels")
    edges = [(n, n + 1) for n in range(s, 2 * s - 3)]
    edges += [(i, s + min(max(i - 1, 0), s - 3)) for i in range(s)]
    adjacency = {u: [] for u in range(2 * s - 2)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return BinaryTree(adjacency, dict(enumerate(labels)))


def slot_edges(tree: BinaryTree) -> dict:
    """The Xi slots of a vertex tree: {k: k-th interior edge}, counted from
    1 in the order of `interior_edges`.  One free line through the vertex's
    point labels each slot."""
    return dict(enumerate(tree.interior_edges(), start=1))


def tree_labels(tree: BinaryTree, leaf_label, slot_label) -> dict:
    """Label of every tree edge: leaf_label(i, j) on the leaf edge of host
    edge (i, j), slot_label(k) on the interior edge of slot k."""
    labels = {te: slot_label(k) for k, te in slot_edges(tree).items()}
    for leaf, (i, j) in tree.leaf_labels.items():
        labels[edge_key(leaf, tree.adjacency[leaf][0])] = leaf_label(i, j)
    return labels


@dataclass
class ResolutionScheme:
    """Binary tree whose edges carry lines through a common base point."""

    tree: BinaryTree
    base: ProjPoint
    labels: dict

    def __post_init__(self):
        edges = set(self.tree.edges())
        if set(self.labels) != edges:
            raise InputError("labels must cover exactly the tree edges")
        for e, line in self.labels.items():
            if not line.contains(self.base):
                raise GeometryError(f"label of {e} misses the base point")

    def label(self, u: int, v: int) -> ProjLine:
        return self.labels[edge_key(u, v)]

    @cached_property
    def forceload(self) -> dict:
        """`scheme_forceload` of the scheme, computed once; surgeries,
        framings and strong genericity only need it up to scale."""
        return scheme_forceload(self)

    @cached_property
    def leaf_forces(self) -> dict:
        """Force of the canonical load at each leaf edge, applied at its
        interior endpoint, by leaf label.  Computed once; framings and
        strong genericity read it."""
        forces, adjacency = self.forceload, self.tree.adjacency
        return {label: forces[(adjacency[node][0], node)]
                for node, label in self.tree.leaf_labels.items()}

    @cached_property
    def strongly_generic(self) -> bool:
        """`is_strongly_generic` of the scheme, computed once."""
        return is_strongly_generic(self)


def is_weakly_generic(s: ResolutionScheme) -> bool:
    """No two edges sharing a tree node carry the same line."""
    for u, vs in s.tree.adjacency.items():
        lines = [s.label(u, v) for v in vs]
        if len(set(lines)) != len(lines):
            return False
    return True


def _decompose(force: Force, l1: ProjLine, l2: ProjLine):
    """Split a positive multiple of -force along two distinct concurrent
    lines, in integers: returns (k, f1, f2) with k a positive int,
    k force + f1 + f2 = 0 and line(f_i) <= l_i, for an int force.

    Cramer's rule on the first nonzero 2x2 minor det of the two lines'
    coefficients gives f1 and f2 times det; k is |det| over its gcd with the
    two numerators.  The third coordinate is checked.  Raises GeometryError
    when the force is not in the span of the lines, or when they are equal.
    """
    a, b, v = l1.coeffs, l2.coeffs, force.dual
    for r, t in ((0, 1), (0, 2), (1, 2)):
        det = a[r] * b[t] - a[t] * b[r]
        if det:
            x = v[t] * b[r] - v[r] * b[t]
            y = a[t] * v[r] - a[r] * v[t]
            u = 3 - r - t
            if x * a[u] + y * b[u] != -det * v[u]:
                raise GeometryError("force not in the span of the two lines")
            g = gcd(det, x, y)
            if det < 0:
                g = -g
            x //= g
            y //= g
            return (det // g, Force((x * a[0], x * a[1], x * a[2])),
                    Force((y * b[0], y * b[1], y * b[2])))
    raise GeometryError("cannot decompose along equal lines")


def scheme_forceload(s: ResolutionScheme):
    """Canonical equilibrium force-load of a weakly generic scheme, in
    coprime integers.

    Returns a dict mapping ordered node pairs (u, v) to the force applied at
    u along edge uv; opposite orientations are negatives.  The load is
    unique up to scale exactly when the scheme is weakly generic (else
    GenericityError), and the one returned is the positive integer multiple
    of the load whose force at u along the first tree edge (u, v) is the
    label's coefficients.  It propagates from that edge: at every degree-3
    node the incoming force is split along the other two labels by
    `_decompose`, whose positive factor k rescales the load built so far.
    The load needs no division by its content: the seed, a label's
    coefficients, is primitive, and a split of a load of content 1 scales
    it by k and adds the forces x a and y b, with a and b the primitive
    coefficients of the two labels, so the new content is gcd(k, x, y),
    which `_decompose` makes 1.
    """
    if not is_weakly_generic(s):
        raise GenericityError("scheme is not weakly generic")
    u, v = s.tree.edges()[0]
    seed = Force(s.label(u, v).coeffs)
    forces = {(u, v): seed, (v, u): -seed}
    # (node, the neighbor whose force at that node is known)
    stack = [(u, v), (v, u)]
    while stack:
        w, known = stack.pop()
        if s.tree.degree(w) != 3:
            continue
        n1, n2 = (n for n in s.tree.adjacency[w] if n != known)
        k, f1, f2 = _decompose(forces[(w, known)], s.label(w, n1), s.label(w, n2))
        if k != 1:
            forces = {pair: f.scaled(k) for pair, f in forces.items()}
        forces[(w, n1)], forces[(n1, w)] = f1, -f1
        forces[(w, n2)], forces[(n2, w)] = f2, -f2
        stack.extend([(n1, w), (n2, w)])
    if len(forces) != 2 * len(s.tree.edges()):
        raise GeometryError("propagation did not reach every edge")
    return forces


def is_strongly_generic(s: ResolutionScheme) -> bool:
    """Only trivial 0/1-combinations of the leaf forces vanish, and the
    2^(s-1) - 1 partial-sum force lines are pairwise distinct.

    Raises GenericityError unless the scheme is weakly generic (its
    force-load is then not unique).
    """
    lf = s.leaf_forces
    return non_parallelizable_star([lf[lab] for lab in sorted(lf)])


def rewire(tree: BinaryTree, labels: dict, edge, pairing, new_label):
    """Rewire the H at an interior edge of a labeled tree into a Phi.

    With v1v2 the interior edge, v3,v4 the other neighbors of v1 and v5,v6
    of v2, the new tree joins v3 with v5 at one fresh node and v4 with v6 at
    the other.  `pairing` = (v3, v5) selects which neighbors come together.
    Every kept edge keeps its label; the fresh interior edge gets
    new_label(tree, labels, h), where h lists the node pairs (v1, v2),
    (v1, v3), (v1, v4), (v2, v5), (v2, v6) of the H.
    Labels may be lines or expressions.  Returns (tree, labels).
    """
    v1, v2 = edge
    if edge_key(v1, v2) not in tree.interior_edges():
        raise InputError(f"({v1},{v2}) is not an interior edge")
    side1 = [n for n in tree.adjacency[v1] if n != v2]
    side2 = [n for n in tree.adjacency[v2] if n != v1]
    n3, n5 = pairing
    if n3 not in side1 or n5 not in side2:
        raise InputError("pairing must name one neighbor of each endpoint")
    n4 = side1[0] if side1[1] == n3 else side1[1]
    n6 = side2[0] if side2[1] == n5 else side2[1]
    fresh = new_label(tree, labels, ((v1, v2), (v1, n3), (v1, n4), (v2, n5), (v2, n6)))

    a = max(tree.adjacency) + 1
    b = a + 1
    adjacency = {u: list(vs) for u, vs in tree.adjacency.items() if u not in (v1, v2)}
    for node, old, new in ((n3, v1, a), (n5, v2, a), (n4, v1, b), (n6, v2, b)):
        adjacency[node] = [new if x == old else x for x in adjacency[node]]
    adjacency[a] = [n3, n5, b]
    adjacency[b] = [n4, n6, a]
    out = {e: x for e, x in labels.items() if v1 not in e and v2 not in e}
    out[edge_key(a, n3)] = labels[edge_key(v1, n3)]
    out[edge_key(a, n5)] = labels[edge_key(v2, n5)]
    out[edge_key(b, n4)] = labels[edge_key(v1, n4)]
    out[edge_key(b, n6)] = labels[edge_key(v2, n6)]
    out[edge_key(a, b)] = fresh
    return BinaryTree(adjacency, tree.leaf_labels), out


def shared_node_edge(tree: BinaryTree, leaf_a, leaf_b):
    """Third edge at the node two leaves share, or None if they share none."""
    na = tree.leaf_node(leaf_a)
    nb = tree.leaf_node(leaf_b)
    mid = tree.adjacency[na][0]
    if tree.adjacency[nb][0] != mid:
        return None
    return edge_key(mid, next(n for n in tree.adjacency[mid] if n not in (na, nb)))


def fold_to_shared_node(tree: BinaryTree, labels: dict, leaf_a, leaf_b, rule):
    """Label of the third edge at the node two leaves come to share: the
    walk of `rewire`s that defines the associated framing, with no tree built.

    The walk rewires at the first interior edge (P1, P2) of the leaf path
    P0 .. Pr, pairing P0 with P3, until the leaves share a node.  Each
    rewire joins P0 and P3 at a fresh node, whose edge off the path carries
    the fresh label; every other edge keeps its label.  So the walk is a
    fold over the original path.  With L(u, v) the label of edge uv and
    off(i) the neighbor of Pi off the path, start with side = L(P1, off(1))
    and link = L(P1, P2); for i = 2 .. r-1 set
    side = rule(link, L(P0, P1), side, L(Pi, Pi+1), L(Pi, off(i))) and
    link = L(Pi, Pi+1).  The framing is the last side; leaves that share a
    node (r = 2) read it with no path walked.  `rule` maps the five labels
    of an H, in the order of `rewire`'s node pairs, to the fresh label.
    """
    edge = shared_node_edge(tree, leaf_a, leaf_b)
    if edge is not None:
        return labels[edge]
    adjacency = tree.adjacency
    path = tree.path(tree.leaf_node(leaf_a), tree.leaf_node(leaf_b))

    def off_label(i):
        node = path[i]
        off = next(n for n in adjacency[node] if n != path[i - 1] and n != path[i + 1])
        return labels[edge_key(node, off)]

    leaf = labels[edge_key(path[0], path[1])]
    link = labels[edge_key(path[1], path[2])]
    side = off_label(1)
    for i in range(2, len(path) - 1):
        step = labels[edge_key(path[i], path[i + 1])]
        side = rule(link, leaf, side, step, off_label(i))
        link = step
    return side


def scheme_hf_surgery(s: ResolutionScheme, interior_edge, pairing) -> ResolutionScheme:
    """Rewire the H at an interior edge into the Phi pairing.

    The tree is rewired as in `rewire`; the fresh interior edge is labeled
    by the line of force of the sum of the two forces of the canonical load
    (h[1] and h[3] in `rewire`'s node pairs) that come together at the new
    node.  `pairing` = (v3, v5) selects which neighbors come together.

    Raises GenericityError unless the scheme is strongly generic; a surgery
    keeps the leaf forces up to one scale, so its result is strongly
    generic too.
    """
    if not s.strongly_generic:
        raise GenericityError("scheme is not strongly generic")
    forces = s.forceload

    def paired_line(tree, labels, h):
        combined = forces[h[1]] + forces[h[3]]
        if combined.is_zero():
            raise GeometryError("surgery undefined: the paired forces cancel")
        return line_of_force(combined)

    tree, labels = rewire(s.tree, s.labels, interior_edge, pairing, paired_line)
    return ResolutionScheme(tree, s.base, labels)


def associated_framing(s: ResolutionScheme, leaf_a, leaf_b) -> ProjLine:
    """Line at the third edge once the two leaves share a tree node, after
    the surgeries along the leaf-to-leaf path.  Symmetric in the two leaves.

    A pair that already shares a node reads the third edge's label.  Any
    other pair needs surgeries, which need strong genericity (checked here,
    GenericityError when it fails); each keeps the leaf forces up to one
    scale, and at the final shared node the third edge balances the pair, so
    the framing is line_of_force(F_a + F_b) of the canonical leaf forces.
    The surgery walk (`scheme_hf_surgery` along the path) remains the
    definition; the tests follow it, and the condition compiler folds it
    with `fold_to_shared_node`.
    """
    if leaf_a == leaf_b:
        raise InputError("framing needs two distinct leaf labels")
    edge = shared_node_edge(s.tree, leaf_a, leaf_b)
    if edge is not None:
        return s.labels[edge]
    if not s.strongly_generic:
        raise GenericityError("scheme is not strongly generic")
    lf = s.leaf_forces
    return line_of_force(lf[leaf_a] + lf[leaf_b])
