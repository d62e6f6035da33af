"""Quantizations, consistency, and force-load construction.

A quantization labels the default binary tree of every framework vertex:
each leaf edge carries its edge line, and each interior edge a line through
the vertex's point.  The interior edges are the Xi slots, deg(v) - 3 of them
at vertex v, numbered by `slot_edges`; `xi_slots` lists them for all
vertices.  The trees glued along matching leaf edges form the resolution
graph; each tree, as a resolution scheme, carries one equilibrium
force-load up to scale.

Consistency asks each associated framed cycle (cycle vertices framed by the
associated framings of their cycle-edge pairs) for a trivial monodromy.
When the vertex schemes' force-loads can be scaled to balance on every
framework edge, their leaf forces form an equilibrium force-load of the
framework (`construct_forceload`).

Why the fundamental cycles decide consistency (`consistency_cycles`).
Write f_v(e) for the leaf force of v's scheme on edge e.

- At a vertex v with cycle edges e and e', the associated framing is the
  line of f_v(e) + f_v(e').  Three distinct lines through p_v carry a
  one-dimensional space of balanced forces, so an equilibrium of the framed
  cycle puts forces proportional to f_v(e) and f_v(e') on the two edges:
  it fixes the ratio of the edge scalars at v to f_v(e)/f_v(e').
- An edge e = uv pushes its two ends oppositely, so the scales at u and v
  differ by the factor h(u, v) = -f_u(e)/f_v(e) (the ratio of the two
  ends' leaf forces, negated), and h(v, u) = 1/h(u, v).  Around a cycle the
  per-vertex ratios regroup into one such factor per edge, and each
  vertex's own scale cancels.
- The holonomy, the product of h around a cycle, is therefore a
  homomorphism from the integer cycle space H_1 to Q*.  By the per-cycle
  lemma (a framed cycle in general position has a trivial monodromy iff it
  carries a nonzero equilibrium), a cycle is consistent iff its holonomy
  is 1.  A homomorphism is trivial iff it is trivial on generators, and
  `consistency_cycles` is a basis of H_1.  So consistency on every simple
  cycle <=> consistency on the fundamental cycles <=> h is a coboundary,
  which is what `construct_forceload` checks edge by edge.  The compiled
  conditions state the same per-cycle equilibrium, so the same holds for
  them, cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .cycles import FramedCycle, is_trivial_monodromy, pick_aux_line
from .errors import (GenericityError, GeometryError, InconsistentQuantizationError,
                     InputError, PreconditionError)
from .framework import Framework, Graph, bfs_parents, cycle_corners, edge_key, root_path
from .projective import ProjLine, line_of_force, sub_seed
from .resolution import (ResolutionScheme, associated_framing, default_tree,
                         slot_edges, tree_labels)


def default_trees(g: Graph) -> dict:
    """Caterpillar tree at every vertex, leaves in sorted-neighbor order.
    Its shape depends only on the degree, so the caterpillar of each degree
    is built and validated once, and every other vertex of that degree gets
    its shape with its own leaf labels (`BinaryTree.relabeled`)."""
    shapes, trees = {}, {}
    for v in g.vertices:
        labels = [edge_key(v, u) for u in g.neighbors(v)]
        shape = shapes.get(len(labels))
        if shape is None:
            trees[v] = shapes[len(labels)] = default_tree(labels)
        else:
            trees[v] = shape.relabeled(dict(enumerate(labels)))
    return trees


def xi_slots(trees: dict) -> tuple:
    """The Xi slots (vertex, k) of the vertex trees, in vertex order: the
    k-th interior edge of a vertex's tree carries one free line through its
    point, deg(v) - 3 of them at vertex v."""
    return tuple((v, k) for v, tree in trees.items() for k in slot_edges(tree))


@dataclass
class Quantization:
    """Interior line labels on the default vertex trees, one per Xi slot.

    `interior_labels` maps each slot (vertex id, k) of `xi_slots` to a line
    through that vertex's point, the label of the interior edge
    `slot_edges` numbers k in the vertex's default tree; leaf edges are
    always labeled by their edge lines.  The labels are the slot assignment
    the conditions are evaluated under.

    Each vertex scheme is built once.  A scheme computes its canonical
    force-load, its leaf forces and its strong-genericity verdict once, so
    all framings at one vertex share them.  `trees` are the vertex trees the
    labels sit on, the `default_trees` of the graph.  The per-cycle lemma
    needs the framework in general position (PreconditionError otherwise);
    in `check` that reads the framework's kept verdict.
    """

    framework: Framework
    interior_labels: dict
    trees: dict = field(repr=False, compare=False)
    _schemes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        fw = self.framework
        fw.graph.require_min_degree()
        slots = set(xi_slots(self.trees))
        if set(self.interior_labels) != slots:
            raise InputError(f"interior labels must cover exactly the slots {sorted(slots)}")
        for (v, _idx), line in self.interior_labels.items():
            if not line.contains(fw.placement[v]):
                raise GeometryError(f"interior label at {v!r} misses its point")
        if not fw.in_general_position:
            raise PreconditionError("a quantization needs a framework in general position")

    def scheme_at(self, v: str) -> ResolutionScheme:
        scheme = self._schemes.get(v)
        if scheme is None:
            tree = self.trees[v]
            labels = tree_labels(tree, self.framework.edge_line,
                                 lambda k: self.interior_labels[(v, k)])
            scheme = self._schemes[v] = ResolutionScheme(
                tree, self.framework.placement[v], labels)
        return scheme

    def framing(self, v: str, edge_a, edge_b) -> ProjLine:
        """Associated framing of two incident edges at vertex v."""
        return associated_framing(self.scheme_at(v), edge_a, edge_b)


def quantization_from_stress(fw: Framework, fl: dict, trees: dict) -> Quantization:
    """Quantization associated to a non-parallelizable equilibrium load, such
    as the load of a stress that `find_nonparallelizable_stress` accepted,
    on `trees`, the `default_trees` of the graph (`check` passes the trees
    its condition system was compiled over).

    Each interior tree edge is labeled by the line of force of the summed
    leaf forces on one of its sides; non-parallelizability makes every such
    sum nonzero and the labeling unique (proportional loads give the same
    quantization).  The subset tests are not repeated here: only a zero
    force on an edge or a vanishing labeled sum raises GenericityError.
    The sums keep the type of the load's entries, so on the integer load
    that `check` and `verify` pass (`framework.forceload_from_stress`) they
    stay in ints.
    """
    if any(fl[e] == (0, 0, 0) for e in fw.graph.edges):
        raise GenericityError("force-load vanishes on an edge")
    labels = {}
    for v, tree in trees.items():
        for idx, te in slot_edges(tree).items():
            forces = [fl[(v, j if i == v else i)]
                      for i, j in sorted(tree.side_labels(te, te[0]))]
            total = tuple(map(sum, zip(*forces)))
            if total == (0, 0, 0):
                raise GenericityError(f"force-load sum vanishes at slot ({v}, {idx})")
            labels[(v, idx)] = line_of_force(total)
    return Quantization(fw, labels, trees)


def framed_cycle_of(q: Quantization, cycle) -> FramedCycle:
    """Framed cycle on the cycle's points, framed at each vertex by the
    associated framing of its two cycle edges."""
    fw = q.framework
    if len(cycle) >= len(fw.graph.vertices):
        raise PreconditionError("cycle must omit at least one vertex")
    return FramedCycle([fw.placement[v] for v in cycle],
                       [q.framing(*corner) for corner in cycle_corners(cycle)])


def is_consistent_at(q: Quantization, cycle) -> bool:
    """Monodromy of the associated framed cycle is trivial.  The framework
    is in general position (`Quantization`), so only the framings are
    tested.  The auxiliary line is seeded by the cycle's vertex ids alone:
    triviality does not depend on it."""
    fc = framed_cycle_of(q, cycle)
    if not fc.in_general_position:
        raise PreconditionError(
            f"framed cycle {tuple(cycle)} is not in general position")
    aux = pick_aux_line(fc, sub_seed(0, ",".join(map(str, cycle))))
    return is_trivial_monodromy(fc, aux)


#: Most vertices of one consistency cycle.  A condition nests about two
#: levels per cycle vertex, and its evaluation and serialization recurse
#: once per level.  The longest consistency cycle of the benchmark has 8
#: vertices (GP(8,3)); the tests compile the 64-vertex fundamental cycles of
#: a 62-rung prism.
MAX_CONDITION_CYCLE = 64


def consistency_cycles(g: Graph):
    """Cycle set checked for consistency and compiled into conditions: the
    |E| - |V| + 1 fundamental cycles of a BFS spanning tree, a basis of the
    cycle space, pairwise distinct since each holds its own non-tree edge.
    A cycle on more than MAX_CONDITION_CYCLE vertices raises
    PreconditionError.

    Every caller requires minimum degree 3 (`Quantization`,
    `generate_system`), so no fundamental cycle passes through every vertex
    and each can be framed (`framed_cycle_of`): the root's neighbors, at
    least three, are all its children in the BFS tree, so the tree is no
    path; but the tree path of a cycle through all |V| vertices would hold
    all |V| - 1 tree edges.
    """
    parent = bfs_parents(g.adjacency, min(g.vertices))
    cycles = [_tree_cycle(parent, u, v) for u, v in g.edges
              if parent[u] != v and parent[v] != u]
    longest = max(map(len, cycles), default=0)
    if longest > MAX_CONDITION_CYCLE:
        raise PreconditionError(
            f"a consistency cycle has {longest} vertices, more than"
            f" MAX_CONDITION_CYCLE = {MAX_CONDITION_CYCLE}")
    return sorted(cycles, key=lambda c: (len(c), c))


def _tree_cycle(parent, u, v):
    """Canonical cycle that the non-tree edge uv closes with the tree path
    from u to v."""
    pu, pv = root_path(parent, u), root_path(parent, v)
    on_pv = set(pv)
    meet_at = next(x for x in pu if x in on_pv)
    return _canonical_cycle(pu[:pu.index(meet_at) + 1]
                            + pv[:pv.index(meet_at)][::-1])


def _canonical_cycle(seq):
    """Smallest rotation of the vertex sequence or of its reverse."""
    best = None
    for rev in (list(seq), list(reversed(seq))):
        for r in range(len(rev)):
            cand = tuple(rev[r:] + rev[:r])
            if best is None or cand < best:
                best = cand
    return best


def is_consistent(q: Quantization, cycles) -> bool:
    """Every cycle of `cycles`, such as the `consistency_cycles` of the
    framework's graph, has a trivial monodromy (`is_consistent_at`)."""
    return all(is_consistent_at(q, c) for c in cycles)


def construct_forceload(q: Quantization) -> dict:
    """Equilibrium force-load of the framework carried by the quantization.

    Every vertex scheme has one equilibrium force-load up to scale
    (`ResolutionScheme.forceload`, in ints), and its leaf forces balance at
    the vertex.  A breadth-first walk from the smallest vertex gives each
    newly reached vertex the integer scale that balances the two ends of the
    edge it is reached by: with k / r that scale in lowest terms, r > 0, the
    scales so far are multiplied by r and the new one is k, so every scale
    stays a positive integer multiple of the rational one.  Every other edge
    is checked exactly, and a mismatch raises InconsistentQuantizationError
    naming the cycle that edge closes in the walk's tree.  A zero force on
    any tree edge raises GeometryError.

    Returns the load of the leaf forces on both orientations of every edge,
    an int load unique up to one global scalar.
    """
    g = q.framework.graph
    leaf = {}
    for v in g.vertices:
        scheme = q.scheme_at(v)
        if (0, 0, 0) in scheme.forceload.values():
            raise GeometryError("constructed force-load vanishes on an edge")
        leaf[v] = scheme.leaf_forces
    parent = bfs_parents(g.adjacency, min(g.vertices))
    scale = {}
    for v, u in parent.items():
        if u is None:
            scale[v] = 1
            continue
        e = edge_key(u, v)
        a, b = leaf[u][e], leaf[v][e]
        i = next(i for i, x in enumerate(b) if x)
        k, r = -scale[u] * a[i], b[i]
        d = gcd(k, r) if r > 0 else -gcd(k, r)
        if r != d:
            scale = {w: (r // d) * x for w, x in scale.items()}
        scale[v] = k // d
    forces = {}
    for u, v in g.edges:
        s, t = scale[u], scale[v]
        (a, b, c), (x, y, z) = leaf[u][(u, v)], leaf[v][(u, v)]
        a, b, c = s * a, s * b, s * c
        if (a + t * x, b + t * y, c + t * z) != (0, 0, 0):
            raise InconsistentQuantizationError(
                "cycle closes with mismatched stress", _tree_cycle(parent, u, v))
        forces[(u, v)], forces[(v, u)] = (a, b, c), (-a, -b, -c)
    return forces

