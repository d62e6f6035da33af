"""Resolution graphs, quantizations, consistency, and force-load
construction.

A resolution graph replaces every framework vertex by a binary tree whose
leaves are its incident edges; gluing the leaf edges of matching trees gives
a cubic graph.  A quantization labels every glued (leaf) edge with its edge
line and every interior tree edge with a line through the tree's vertex.

Consistency asks each associated framed cycle (cycle vertices framed by the
associated framings of their cycle-edge pairs) for a trivial monodromy; when
that holds, an equilibrium force-load on the whole resolution graph is built
by vertex-at-a-time propagation, and its restriction to leaf edges is an
equilibrium force-load of the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cycles import FramedCycle, cycle_general_position, is_trivial, monodromy, \
    pick_aux_line
from .errors import (GenericityError, GeometryError, InconsistentQuantizationError,
                     InputError, PreconditionError)
from .framework import (ForceLoad, Framework, Graph, cycle_corners, edge_key,
                        enumerate_simple_cycles, is_non_parallelizable)
from .projective import Force, ProjLine, line_of_force, sub_seed
from .resolution import (ResolutionScheme, _decompose, associated_framing,
                         default_tree, tree_labels)


def default_trees(g: Graph) -> dict:
    """Caterpillar tree at every vertex, leaves in sorted-neighbor order."""
    return {v: default_tree([edge_key(v, u) for u in g.neighbors(v)])
            for v in g.vertices}


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
        g.require_min_degree(3)
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
class Quantization:
    """Resolution graph plus interior line labels, one per Xi slot.

    `interior_labels` maps (vertex id, index >= 1) to a line through that
    vertex's point, following the fixed interior-edge enumeration; glued
    edges are always labeled by their edge lines.

    `framing` memoizes each vertex scheme and each associated framing, keyed
    by (vertex, unordered edge pair): the framing is symmetric in the pair.
    A scheme computes its canonical force-load and its strong-genericity
    verdict once, so all framings at one vertex share them.  The memo lives
    and dies with the instance; nothing is cached at module level.
    """

    rgraph: ResolutionGraph
    interior_labels: dict = field(default_factory=dict)
    _schemes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _framings: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        fw = self.rgraph.framework
        slots = set()
        for v in fw.graph.vertices:
            for idx in range(1, len(self.rgraph.trees[v].interior_edges()) + 1):
                slots.add((v, idx))
        if set(self.interior_labels) != slots:
            raise InputError(f"interior labels must cover exactly the slots {sorted(slots)}")
        for (v, _idx), line in self.interior_labels.items():
            if not line.contains(fw.placement[v]):
                raise GeometryError(f"interior label at {v!r} misses its point")

    @property
    def framework(self) -> Framework:
        return self.rgraph.framework

    def edge_label(self, gt_edge_value) -> ProjLine:
        """Line of a resolution-graph edge given its tag from edges()."""
        if gt_edge_value[0] == "leaf":
            i, j = gt_edge_value[1]
            return self.framework.edge_line(i, j)
        _, v, te = gt_edge_value
        idx = self.rgraph.trees[v].interior_edges().index(te) + 1
        return self.interior_labels[(v, idx)]

    def scheme_at(self, v: str) -> ResolutionScheme:
        tree = self.rgraph.trees[v]
        labels = tree_labels(tree, self.framework.edge_line,
                             lambda k: self.interior_labels[(v, k)])
        return ResolutionScheme(tree, self.framework.placement[v], labels)

    def framing(self, v: str, edge_a, edge_b) -> ProjLine:
        """Associated framing of two incident edges at vertex v."""
        key = (v, frozenset((edge_a, edge_b)))
        line = self._framings.get(key)
        if line is None:
            scheme = self._schemes.get(v)
            if scheme is None:
                scheme = self._schemes[v] = self.scheme_at(v)
            line = self._framings[key] = associated_framing(scheme, edge_a, edge_b)
        return line

    def xi_witness(self) -> dict:
        """Slot assignment for the configuration space: the interior labels."""
        return dict(self.interior_labels)


def quantization_from_stress(fw: Framework, fl: ForceLoad) -> Quantization:
    """Quantization associated to a non-parallelizable equilibrium load.

    Each interior tree edge is labeled by the line of force of the summed
    leaf forces on one of its sides; non-parallelizability makes every such
    sum nonzero and the labeling unique (proportional loads give the same
    quantization).
    """
    if not is_non_parallelizable(fw, fl):
        raise GenericityError("force-load is parallelizable at some vertex")
    rg = ResolutionGraph(fw, default_trees(fw.graph))
    labels = {}
    for v in fw.graph.vertices:
        tree = rg.trees[v]
        for idx, te in enumerate(tree.interior_edges(), start=1):
            side = tree.side_labels(te, te[0])
            total = Force((0, 0, 0))
            for e in sorted(side):
                i, j = e
                other = j if i == v else i
                total = total + fl.force(v, other)
            labels[(v, idx)] = line_of_force(total)
    return Quantization(rg, labels)


def framed_cycle_of(q: Quantization, cycle) -> FramedCycle:
    """Framed cycle on the cycle's points, framed at each vertex by the
    associated framing of its two cycle edges."""
    fw = q.framework
    if len(cycle) >= len(fw.graph.vertices):
        raise PreconditionError("cycle must omit at least one vertex")
    return FramedCycle([fw.placement[v] for v in cycle],
                       [q.framing(*corner) for corner in cycle_corners(cycle)])


def is_consistent_at(q: Quantization, cycle, seed: int) -> bool:
    """Monodromy of the associated framed cycle is trivial."""
    fc = framed_cycle_of(q, cycle)
    if not cycle_general_position(fc):
        raise PreconditionError(
            f"framed cycle {tuple(cycle)} is not in general position")
    aux = pick_aux_line(fc, sub_seed(seed, ",".join(map(str, cycle))))
    return is_trivial(monodromy(fc, 0, aux))


def consistency_cycles(g: Graph, mode: str = "all"):
    """Cycle set checked for consistency and compiled into conditions: every
    simple cycle on <= n-1 vertices, or a fundamental system generating the
    cycle space."""
    if mode == "all":
        return enumerate_simple_cycles(g, len(g.vertices) - 1)
    if mode != "generators":
        raise InputError(f"unknown cycle mode {mode!r}")
    return fundamental_cycles(g)


def fundamental_cycles(g):
    """Fundamental cycles of a BFS spanning tree; a basis cycle through all
    vertices is replaced by the two cycles cut by its smallest chord."""
    root = sorted(g.vertices)[0]
    parent = {root: None}
    order = [root]
    for v in order:
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)

    def tree_path(u):
        path = []
        while u is not None:
            path.append(u)
            u = parent[u]
        return path

    tree_edges = {edge_key(v, parent[v]) for v in g.vertices if parent[v] is not None}
    cycles = []
    for e in g.edges:
        if e in tree_edges:
            continue
        u, v = e
        pu, pv = tree_path(u), tree_path(v)
        common = set(pu) & set(pv)
        cu = [x for x in pu if x not in common]
        cv = [x for x in pv if x not in common]
        meet_at = next(x for x in pu if x in common)
        cycle = _canonical_cycle(cu + [meet_at] + cv[::-1])
        if len(cycle) == len(g.vertices):
            cycles.extend(_split_by_chord(g, cycle))
        else:
            cycles.append(cycle)
    return sorted(set(cycles), key=lambda c: (len(c), c))


def _split_by_chord(g, cycle):
    k = len(cycle)
    cycle_edges = {edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    chords = sorted(e for e in g.edges if e not in cycle_edges)
    if not chords:
        raise PreconditionError("cycle through all vertices admits no chord")
    a, b = chords[0]
    ia, ib = cycle.index(a), cycle.index(b)
    if ia > ib:
        ia, ib = ib, ia
    arc1 = cycle[ia:ib + 1]
    arc2 = cycle[ib:] + cycle[:ia + 1]
    return [_canonical_cycle(arc1), _canonical_cycle(arc2)]


def _canonical_cycle(seq):
    """Smallest rotation of the vertex sequence or of its reverse."""
    best = None
    for rev in (list(seq), list(reversed(seq))):
        for r in range(len(rev)):
            cand = tuple(rev[r:] + rev[:r])
            if best is None or cand < best:
                best = cand
    return best


def is_consistent(q: Quantization, seed: int, mode: str = "all") -> bool:
    return all(is_consistent_at(q, c, seed)
               for c in consistency_cycles(q.framework.graph, mode))


def construct_forceload(q: Quantization, seed_edge=None) -> dict:
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
    f = Force(labels[start].coeffs)
    forces = {(a, b): f, (b, a): -f}

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
                forces[(other, node)] = -fx
        elif len(unknown) == 1:
            total = Force((0, 0, 0))
            for ek in known:
                total = total + forces[(node, _other(ek, node))]
            f3 = -total
            ek = unknown[0]
            other = _other(ek, node)
            if f3.is_zero() or line_of_force(f3) != labels[ek]:
                raise InconsistentQuantizationError(
                    "cycle closes with mismatched stress",
                    _closing_cycle(forces, node, other))
            forces[(node, other)] = f3
            forces[(other, node)] = -f3
        else:
            total = Force((0, 0, 0))
            for ek in known:
                total = total + forces[(node, _other(ek, node))]
            if not total.is_zero():
                raise InconsistentQuantizationError(
                    "cycle closes with mismatched stress",
                    _closing_cycle(forces, node, _other(known[0], node)))
        resolved.add(node)
        pending -= 1
    if any(f.is_zero() for f in forces.values()):
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


def induced_stress(q: Quantization, gt_forces: dict) -> ForceLoad:
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
        out[(j, i)] = -f
    return ForceLoad(out)
