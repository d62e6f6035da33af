"""The paper's lemma code that no command runs: the tests' side of the
monodromy, projection, surgery and scheme-enumeration lemmas.

The commands decide existence from the null-space oracle, the quantization
monodromies and the compiled conditions; the functions here state the
lemmas those verdicts rest on, and the tests check them (the criteria are
those of `tests/test_acceptance.py`).

* Framed cycles (`tests/test_cycles.py`, `tests/test_conditions.py`):
  - `pairwise_meets`, `distinct_crossings` and `crossings` meet a framed
    cycle's edge lines pairwise, and `framed_cycle_in_general_position`
    is the per-cycle general-position test they make: the edge lines in
    general position and no framing through a neighbor.  The library
    tests only the framings (`FramedCycle.in_general_position`) and takes
    the edge lines' part from the framework's general position; on an
    arbitrary framed cycle, as the lemmas below draw, this is the test.
  - `shift_map`, the perspectivity along one cycle edge, is the step the
    monodromy chains; `is_trivial` and `proportional_to` compare line maps
    on three points.  Criterion 3 (trivial monodromy iff a nonzero
    equilibrium load) and criterion 4 (aux and base invariance).
  - `stepwise_apply` runs a line map's chain one canonical join and meet
    at a time: the reference for `LineMap.apply`, which composes raw
    integer cross products.
  - `project_cycle`, the projection of a framed cycle onto k - 1 vertices,
    keeps the monodromy (criterion 4) and the existence of an equilibrium.
  - `cycle_equilibrium_basis`, the exact equilibrium loads of a framed
    cycle: the right-hand side of criterion 3.
  - `random_framed_cycle` and `random_cycle_points` draw the seeded framed
    cycles in general position that criteria 3 and 4 sample, with or
    without an equilibrium; `lines_in_general_position` is their test.
  - `aux_line_avoiding` is a seeded auxiliary line that misses the
    vertices, every crossing and given points too, such as the vertices of
    a projection, so that two monodromies can be compared on one auxiliary
    line (criterion 4).
  - `framed_cycle_to_json` writes a framed cycle as `render` reads it.
* Frameworks (`tests/test_framework.py`):
  - `hf_surgery_framework` (with `_fresh_id`), the H-to-Phi surgery of a
    framework, keeps the stress dimension: criterion 5.
  - `chart_avoiding` picks a chart that misses given points, so the
    oracle's verdict can be compared across charts.
  - `has_edge` tests adjacency in a graph.
  - `affine_vector`, the chart vector of a force, reads a stress back
    from a force-load (`tests/reference_oracle.py`).
* Forces, which the library keeps as plain triples (`tensec.projective`):
  `force_sum`, `negated` and `scaled` add, negate and scale them
  componentwise, in the type of their entries.
* Resolution schemes (`tests/test_resolution.py`):
  - `enumerate_equivalent_schemes` closes a strongly generic scheme under
    surgeries: 1, 3 and 15 topologies on 3, 4 and 5 leaves, criterion 6.
    `topology_key` and `topology_sort_key` identify and order the
    leaf-labeled topologies.
  - `walk_to_shared_node`, the walk of `rewire`s along a leaf path that
    defines the associated framing, building a tree per step: the
    reference that `resolution.fold_to_shared_node` folds.
"""

import random
from fractions import Fraction

from tensec.cycles import FramedCycle, LineMap, _three_points
from tensec.errors import GeometryError, PreconditionError
from tensec.framework import Framework, Graph, edge_key
from tensec.numeric import nullspace_basis
from tensec.projective import (TRUE, AffineChart, ProjLine, ProjPoint, _cross,
                               join, line_of_force, meet, random_line_avoiding)
from tensec.resolution import (BinaryTree, ResolutionScheme, rewire, scheme_hf_surgery,
                               shared_node_edge)
from tensec.sampling import random_affine_point, random_fraction


# ---------------------------------------------------------------------------
# Framed cycles

def pairwise_meets(lines) -> tuple:
    """Meet of every pair of the lines, (0, 1), (0, 2), ..., (1, 2), ...;
    TRUE for a pair of equal lines."""
    return tuple(meet(lines[i], lines[j])
                 for i in range(len(lines)) for j in range(i + 1, len(lines)))


def distinct_crossings(meets) -> bool:
    """The pairwise meets of lines in general position: none is TRUE (no two
    lines are equal) and no two coincide (no three lines are concurrent)."""
    points = set(meets)
    return TRUE not in points and len(points) == len(meets)


def crossings(c: FramedCycle) -> tuple:
    """`pairwise_meets` of the edge lines."""
    return pairwise_meets(c.edge_lines)


def framed_cycle_in_general_position(c: FramedCycle) -> bool:
    """Edge lines in general position, and no framing through a neighbor:
    the per-cycle test, which a framed cycle of a framework in general
    position always passes."""
    return distinct_crossings(crossings(c)) and c.in_general_position


def proportional_to(m: LineMap, other: LineMap) -> bool:
    """Same lines and the same projectivity (proportional matrices in
    any bases): equal images of three distinct source points."""
    return ((m.source, m.target) == (other.source, other.target)
            and all(m.apply(p) == other.apply(p)
                    for p in _three_points(m.source)))


def stepwise_apply(m: LineMap, p: ProjPoint) -> ProjPoint:
    """Image of p under the chain, each step p -> onto ^ (center, p) as a
    canonical join and meet: `LineMap.apply` as it was before it composed
    raw integer cross products, kept as the reference."""
    if not m.source.contains(p):
        raise GeometryError("point not on the source line")
    for center, onto in m.steps:
        p = meet(onto, join(center, p))
    return p


def is_trivial(m: LineMap) -> bool:
    """The map is the identity of its line: it fixes three distinct points."""
    if m.source != m.target:
        raise GeometryError("triviality needs source = target")
    return all(m.apply(p) == p for p in _three_points(m.source))


def shift_map(p_i: ProjPoint, p_i1: ProjPoint, l_i: ProjLine, l_i1: ProjLine,
              aux: ProjLine) -> LineMap:
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
    out = LineMap(l_i, l_i1, ((center, l_i1),))
    assert out.apply(p_i) == p_i1
    assert out.apply(meet(l_i, aux)) == meet(l_i1, aux)
    return out


def project_cycle(c: FramedCycle, i: int) -> FramedCycle:
    """Merge vertices i and i+1 into p' = (p_{i-1} p_i) ^ (p_{i+1} p_{i+2})
    framed by the line through p' and l_i ^ l_{i+1}; yields a framed cycle
    on k-1 vertices, again in general position."""
    k = len(c)
    if k < 4:
        raise PreconditionError("projection needs k >= 4")
    if not framed_cycle_in_general_position(c):
        raise PreconditionError("framed cycle is not in general position")
    i %= k
    pts, frs = c.points, c.framings
    new_pt = meet(c.edge_lines[(i - 1) % k], c.edge_lines[(i + 1) % k])
    cross_pt = meet(frs[i], frs[(i + 1) % k])
    new_fr = join(new_pt, cross_pt)
    if new_pt is TRUE or new_fr is TRUE:
        raise GeometryError("degenerate projection")
    if i == k - 1:
        new_points = (new_pt,) + pts[1:k - 1]
        new_framings = (new_fr,) + frs[1:k - 1]
    else:
        new_points = pts[:i] + (new_pt,) + pts[i + 2:]
        new_framings = frs[:i] + (new_fr,) + frs[i + 2:]
    out = FramedCycle(new_points, new_framings)
    if not framed_cycle_in_general_position(out):
        raise GeometryError("projection output is not in general position")
    return out


def cycle_equilibrium_basis(c: FramedCycle):
    """Exact basis of the equilibrium force-loads on the framed cycle.

    Unknowns: one scalar per cycle edge (stress along the edge line) and one
    per framing (force along l_i).  Constraints: at each vertex the incoming
    edge force, outgoing edge force and framing force sum to zero, as
    3-component dual equations, with the integer line triples as
    coefficients.  Returns (edge_scalars, framing_scalars) pairs of int
    tuples; nonempty iff a nonzero equilibrium force-load exists.
    """
    if not framed_cycle_in_general_position(c):
        raise PreconditionError("framed cycle is not in general position")
    k = len(c)
    edge_reps = [l.coeffs for l in c.edge_lines]
    framing_reps = [l.coeffs for l in c.framings]
    rows = []
    for i in range(k):
        for coord in range(3):
            row = [0] * (2 * k)
            row[i] = edge_reps[i][coord]
            row[(i - 1) % k] = -edge_reps[(i - 1) % k][coord]
            row[k + i] = framing_reps[i][coord]
            rows.append(row)
    basis = nullspace_basis(rows, 2 * k)
    return [(vec[:k], vec[k:]) for vec in basis]


def aux_line_avoiding(c: FramedCycle, seed: int, points) -> ProjLine:
    """Seeded line that misses the vertices, every meet of two edge lines
    (`crossings`) and every given point; with no given points, the line
    `cycles.pick_aux_line` drew when it avoided the crossings too."""
    forbidden = set(c.points) | (set(crossings(c)) - {TRUE}) | set(points)
    return random_line_avoiding(forbidden, seed)


def framed_cycle_to_json(c: FramedCycle) -> dict:
    return {
        "points": [p.to_strings() for p in c.points],
        "framings": [l.to_strings() for l in c.framings],
    }


def lines_in_general_position(lines) -> bool:
    """An n-tuple of lines is in general position iff it has exactly
    n(n-1)/2 distinct pairwise intersection points (pairwise distinct lines,
    no three concurrent)."""
    return distinct_crossings(pairwise_meets(list(lines)))


def random_cycle_points(k: int, rng: random.Random, bound: int = 200):
    """k affine points whose cyclic edge lines are in general position."""
    while True:
        pts = [random_affine_point(rng, bound) for _ in range(k)]
        if len(set(pts)) != k:
            continue
        lines = [join(pts[i], pts[(i + 1) % k]) for i in range(k)]
        if lines_in_general_position(lines):
            return pts


def random_framed_cycle(k: int, seed: int, equilibrium: bool) -> FramedCycle:
    """Random framed cycle in general position.

    With `equilibrium` the framings are the lines of the forces balancing
    random nonzero edge stresses, so a nonzero equilibrium force-load exists
    by construction; otherwise independent random framings make one almost
    surely impossible.
    """
    rng = random.Random(seed)
    while True:
        pts = random_cycle_points(k, rng)
        edge_reps = [_cross(pts[i].coords, pts[(i + 1) % k].coords) for i in range(k)]
        if equilibrium:
            ts = [random_fraction(rng, 50) for _ in range(k)]
            if any(t == 0 for t in ts):
                continue
            framings = []
            for i in range(k):
                dual = tuple(ts[i] * Fraction(edge_reps[i][c])
                             - ts[i - 1] * Fraction(edge_reps[i - 1][c])
                             for c in range(3))
                if not any(dual):
                    framings = None
                    break
                framings.append(line_of_force(negated(dual)))
            if framings is None:
                continue
        else:
            framings = []
            for i in range(k):
                guard = 0
                line = None
                while guard < 40:
                    guard += 1
                    q = random_affine_point(rng, 200)
                    if q == pts[i]:
                        continue
                    cand = join(pts[i], q)
                    if not cand.contains(pts[(i - 1) % k]) and not cand.contains(pts[(i + 1) % k]):
                        line = cand
                        break
                if line is None:
                    framings = None
                    break
                framings.append(line)
            if framings is None:
                continue
        try:
            c = FramedCycle(pts, framings)
        except GeometryError:
            continue
        if framed_cycle_in_general_position(c):
            return c


# ---------------------------------------------------------------------------
# Frameworks and forces

def has_edge(g: Graph, u: str, v: str) -> bool:
    return edge_key(u, v) in g.edges


def _fresh_id(base: str, taken) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    return name


def hf_surgery_framework(fw: Framework, edge, roles) -> Framework:
    """Replace the H-pattern at a degree-3 edge q1q2 by the Phi pattern.

    `roles` maps "q3","q4" to the other neighbors of q1 and "q5","q6" to the
    other neighbors of q2.  The new vertices are placed at
    q1' = q1q3 ^ q2q5 and q2' = q1q4 ^ q2q6, with edges
    q1'q2', q1'q3, q1'q5, q2'q4, q2'q6.
    """
    q1, q2 = edge
    g = fw.graph
    if not has_edge(g, q1, q2):
        raise PreconditionError(f"({q1},{q2}) is not an edge")
    if g.degree(q1) != 3 or g.degree(q2) != 3:
        raise PreconditionError("both endpoints of the surgery edge must have degree 3")
    q3, q4, q5, q6 = (roles[k] for k in ("q3", "q4", "q5", "q6"))
    if {q3, q4} != set(g.neighbors(q1)) - {q2}:
        raise PreconditionError("q3,q4 must be the other neighbors of q1")
    if {q5, q6} != set(g.neighbors(q2)) - {q1}:
        raise PreconditionError("q5,q6 must be the other neighbors of q2")
    if len({q1, q2, q3, q4, q5, q6}) != 6:
        raise PreconditionError("the six pattern vertices must be distinct")
    p = fw.placement
    l13, l25 = join(p[q1], p[q3]), join(p[q2], p[q5])
    l14, l26 = join(p[q1], p[q4]), join(p[q2], p[q6])
    if l13 == l25:
        raise PreconditionError("q1q3 = q2q5")
    if l14 == l26:
        raise PreconditionError("q1q4 = q2q6")
    new1 = meet(l13, l25)
    new2 = meet(l14, l26)
    assert new1 is not TRUE and new2 is not TRUE

    keep = [v for v in g.vertices if v not in (q1, q2)]
    id1 = _fresh_id(q1, set(keep))
    id2 = _fresh_id(q2, set(keep) | {id1})
    vertices = [id1 if v == q1 else id2 if v == q2 else v for v in g.vertices]
    edges = [e for e in g.edges if q1 not in e and q2 not in e]
    edges += [(id1, id2), (id1, q3), (id1, q5), (id2, q4), (id2, q6)]
    placement = {v: p[v] for v in keep}
    placement[id1] = new1
    placement[id2] = new2
    return Framework(Graph(vertices, edges), placement)


def chart_avoiding(points, seed: int = 0) -> AffineChart:
    """Deterministic chart whose infinity line misses every given point."""
    return AffineChart(random_line_avoiding(points, seed))


def affine_vector(f, chart: AffineChart):
    """Chart vector of the force triple f: the 1-form iota_V F, as a covector
    triple.

    Linear in f; always orthogonal to V.
    """
    return tuple(Fraction(x) for x in _cross(f, chart.field))


# ---------------------------------------------------------------------------
# Forces: the library's plain triples, added and scaled componentwise

def force_sum(forces) -> tuple:
    """Componentwise sum of force triples; (0, 0, 0) for none."""
    x = y = z = 0
    for a, b, c in forces:
        x, y, z = x + a, y + b, z + c
    return (x, y, z)


def negated(f) -> tuple:
    return tuple(-x for x in f)


def scaled(f, k) -> tuple:
    return tuple(k * x for x in f)


# ---------------------------------------------------------------------------
# Resolution schemes

def topology_key(tree: BinaryTree):
    """Complete invariant of the leaf-labeled topology: the set of leaf
    bipartitions induced by interior edges."""
    splits = set()
    for e in tree.interior_edges():
        a = tree.side_labels(e, e[0])
        b = tree.side_labels(e, e[1])
        splits.add(frozenset((a, b)))
    return frozenset(splits)


def topology_sort_key(key):
    """Deterministic total order on topology keys (nested frozensets)."""
    return sorted(sorted(tuple(sorted(map(str, side))) for side in split)
                  for split in key)


def enumerate_equivalent_schemes(s: ResolutionScheme):
    """One scheme per leaf-labeled tree topology, reached by surgeries.

    Breadth-first closure over all interior edges and both pairings;
    deterministic order (sorted by topology key).  Each surgery checks
    strong genericity (`scheme_hf_surgery`, GenericityError), which every
    surgery keeps.
    """
    seen = {topology_key(s.tree): s}
    queue = [s]
    while queue:
        cur = queue.pop(0)
        for e in cur.tree.interior_edges():
            v1, v2 = e
            side1 = [n for n in cur.tree.adjacency[v1] if n != v2]
            side2 = [n for n in cur.tree.adjacency[v2] if n != v1]
            for n3 in side1:
                for n5 in side2:
                    nxt = scheme_hf_surgery(cur, e, pairing=(n3, n5))
                    key = topology_key(nxt.tree)
                    if key not in seen:
                        seen[key] = nxt
                        queue.append(nxt)
    return [seen[k] for k in sorted(seen, key=topology_sort_key)]


def walk_to_shared_node(tree: BinaryTree, labels: dict, leaf_a, leaf_b, new_label):
    """Label of the third edge at the node two leaves come to share.

    Rewires (`rewire`, fresh labels from `new_label`) at the first interior
    edge of the leaf-to-leaf path, pairing the two path neighbors, until the
    leaves share a node: the associated framing of the pair, as a line or
    as an expression depending on the labels.
    """
    while (edge := shared_node_edge(tree, leaf_a, leaf_b)) is None:
        path = tree.path(tree.leaf_node(leaf_a), tree.leaf_node(leaf_b))
        tree, labels = rewire(tree, labels, (path[1], path[2]),
                              (path[0], path[3]), new_label)
    return labels[edge]
