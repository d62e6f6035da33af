"""Planar frameworks over exact rational projective coordinates.

Holds the graph/framework value types and their JSON interface, the
breadth-first walk, the brute-force self-stress oracle (exact null space of
the rigidity system in an affine chart), equilibrium force-loads and their
non-parallelizability test, simple-cycle enumeration, and the
general-position test over the edge-line arrangement.  The H-to-Phi surgery
of a framework, which keeps the stress dimension, is the tests' lemma code
(`tests/lemmas.py`).

The oracle is the ground truth every other verdict in the package is
cross-validated against.  It runs on the placement's canonical integer
triples p and their chart scales s = <p, V>, with no Fraction between the
input coordinates and the verdict: the rigidity system is built with the
column of edge uv scaled by s_u s_v, which makes every entry an integer,
and its stresses have int weights.  A force-load is a plain dict from
each ordered pair (u, v) of an edge's ends to the force triple at u
(`projective`); it holds both orientations of every edge, and (v, u) maps
to the negation of (u, v).  There is one kind of force-load:
`forceload_from_stress` builds a positive integer multiple of a stress's
chart load, which has the same equilibrium, the same lines of force and the
same subset tests.  The oracle tests its candidate stresses on these loads,
and `check` and `verify` derive the slot witness's quantization from the
load of the oracle's stress.
"""

from __future__ import annotations

import json
import random
from math import gcd, lcm

from .errors import GeometryError, InputError, PointAtInfinityError, PreconditionError
from .numeric import nullspace_basis, primitive, primitive_triple
from .projective import (
    AffineChart,
    ProjPoint,
    _cross,
    _dot,
    join,
    non_parallelizable_star,
)


def edge_key(u, v):
    if u == v:
        raise InputError(f"loop edge at {u!r}")
    return (u, v) if u < v else (v, u)


def bfs_parents(adjacency, root, avoid=None) -> dict:
    """Breadth-first walk of an adjacency mapping from `root` that never
    enters `avoid`: the parent of each node reached (None at the root),
    keyed in the order reached."""
    parent = {root: None}
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if w not in parent and w != avoid:
                parent[w] = v
                order.append(w)
    return parent


def root_path(parent, u) -> list:
    """Nodes from u up to the root of a `bfs_parents` walk."""
    path = []
    while u is not None:
        path.append(u)
        u = parent[u]
    return path


def is_connected(adjacency) -> bool:
    """A walk from the first node of a nonempty adjacency mapping reaches
    every node."""
    return len(bfs_parents(adjacency, next(iter(adjacency)))) == len(adjacency)


class Graph:
    """Simple connected graph with string vertex ids.  A graph never changes
    after construction; `_short_cycles` holds the edge sets of its short
    simple cycles once the general-position test has enumerated them."""

    __slots__ = ("vertices", "edges", "adjacency", "_short_cycles")

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        if not vertices:
            raise InputError("a graph needs at least one vertex")
        if not all(isinstance(v, str) for v in vertices):
            raise InputError("vertex ids are strings")
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        edges = list(edges)
        if any(len(e) != 2 for e in edges):
            raise InputError("edges are pairs of vertex ids")
        known = set(vertices)
        for u, v in edges:
            if not all(isinstance(x, str) and x in known for x in (u, v)):
                raise InputError(f"edge ({u!r}, {v!r}) uses unknown vertex")
        keys = sorted({edge_key(u, v) for u, v in edges})
        self.vertices = vertices
        self.edges = tuple(keys)
        adj = {v: [] for v in vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._short_cycles = None
        if not is_connected(self.adjacency):
            raise InputError("graph is not connected")

    def neighbors(self, v: str):
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def require_min_degree(self):
        """Every vertex has degree at least 3, the theorem's hypothesis on
        the graph; InputError otherwise."""
        for v in self.vertices:
            if self.degree(v) < 3:
                raise InputError(f"vertex {v!r} has degree {self.degree(v)} < 3")

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))


class Framework:
    """Graph with a placement of its vertices at pairwise distinct points.
    Each edge line is joined once, at construction."""

    __slots__ = ("graph", "placement", "_lines", "_general_position")

    def __init__(self, graph: Graph, placement):
        placement = dict(placement)
        missing = [v for v in graph.vertices if v not in placement]
        if missing:
            raise InputError(f"missing placement for {missing}")
        pts = [placement[v] for v in graph.vertices]
        if len(set(pts)) != len(pts):
            raise GeometryError("placed points must be pairwise distinct")
        self.graph = graph
        self.placement = {v: placement[v] for v in graph.vertices}
        self._lines = {(u, v): join(placement[u], placement[v]) for u, v in graph.edges}
        self._general_position = None

    def edge_line(self, u: str, v: str):
        """The line of the edge uv."""
        return self._lines[edge_key(u, v)]

    @property
    def in_general_position(self) -> bool:
        """`framework_in_general_position`, decided on the first read."""
        if self._general_position is None:
            self._general_position = framework_in_general_position(self)
        return self._general_position


def vertex_force_sum(fw: Framework, fl: dict, v: str) -> tuple:
    """Sum of the forces fl[(v, u)] at v, componentwise, in the type of
    their entries."""
    x = y = z = 0
    for u in fw.graph.neighbors(v):
        a, b, c = fl[(v, u)]
        x += a
        y += b
        z += c
    return (x, y, z)


def is_equilibrium(fw: Framework, fl: dict) -> bool:
    return all(vertex_force_sum(fw, fl, v) == (0, 0, 0) for v in fw.graph.vertices)


def _chart_scales(fw: Framework, chart: AffineChart) -> dict:
    """s_v = <p_v, V> of every placed point's integer triple, in vertex
    order; the chart representative of p_v is p_v / s_v."""
    field = chart.field
    scales = {}
    for v in fw.graph.vertices:
        s = _dot(fw.placement[v].coords, field)
        if not s:
            raise PointAtInfinityError(f"vertex {v!r} lies on the infinity line")
        scales[v] = s
    return scales


def self_stress_basis(fw: Framework, chart: AffineChart):
    """Exact basis of the self-stress space of the framework in a chart.

    The rigidity-type system has two chart coordinates per vertex and one
    column per edge, with entries n_v - n_u on the chart representatives
    n = p / s (s = <p, V>).  Scaling the column of edge uv by s_u s_v makes
    every entry the integer p_v s_u - p_u s_v, so the system is built from
    the integer triples alone.  A null vector x of the scaled system is the
    stress w_e = s_u s_v x_e.  Column scaling keeps the pivot columns, and
    each basis vector is fixed up to scale by its free column, so the
    canonical (`primitive`) basis is the one of the unscaled system.
    Each stress is the tuple of its int weights in `fw.graph.edges` order.
    This is the brute-force oracle the rest of the package is validated
    against.

    The rows go to the kernel vertex by vertex in reversed breadth-first
    order from the smallest vertex a, so a comes last (Cuthill & McKee,
    1969).  The order depends on the graph alone, not on how the input
    lists its vertices, and it keeps the kernel's fill-in and entries small
    (`_kernel`).  Three rows are left out: both rows of a, and one row
    of b, the vertex just before a.  With (k0, k1) the chart's axes, that is
    row (b, k0) if n_b[k1] != n_a[k1] (in ints, p_b[k1] s_a != p_a[k1]
    s_b), and row (b, k1) otherwise.  This is exact: the two chart
    translations and the rotation about a are left null vectors of the
    system (a motion lambda with (lambda_v - lambda_u) . (n_v - n_u) = 0 on
    every edge; column scaling keeps left null vectors).  On the left out
    rows (a, k0), (a, k1) and b's they read (1, 0, t0), (0, 1, t1) and
    (0, 0, r), where t_i is 1 if b's row is (b, k_i) and 0 otherwise, and r
    is -(n_b[k1] - n_a[k1]) on row (b, k0) and n_b[k0] - n_a[k0] on row
    (b, k1).  The choice above makes r nonzero, since distinct points differ
    in a chart coordinate.  So that 3 x 3 matrix is invertible and each left
    out row is a combination of the kept rows: the row space, the null
    space, the pivot columns and the canonical basis are unchanged.
    """
    scale = _chart_scales(fw, chart)
    _drop, (k0, k1) = chart.axes()
    g = fw.graph
    p = fw.placement
    edges = g.edges
    col = {e: j for j, e in enumerate(edges)}
    a, *reached = bfs_parents(g.adjacency, min(g.vertices))
    kept = [(v, c) for v in reversed(reached) for c in (k0, k1)]
    if reached:
        b = reached[0]
        apart_on_k1 = p[b].coords[k1] * scale[a] != p[a].coords[k1] * scale[b]
        kept.remove((b, k0 if apart_on_k1 else k1))
    rows = []
    for v, c in kept:
        pv, sv = p[v].coords[c], scale[v]
        row = [0] * len(edges)
        for u in g.neighbors(v):
            row[col[edge_key(u, v)]] = pv * scale[u] - p[u].coords[c] * sv
        rows.append(row)
    col_scale = [scale[u] * scale[v] for u, v in edges]
    return [tuple(primitive([k * x for k, x in zip(col_scale, vec)]))
            for vec in nullspace_basis(rows, len(edges))]


def is_non_parallelizable(fw: Framework, fl: dict) -> bool:
    """Non-parallelizability of an equilibrium force-load, by exhaustive
    subset enumeration at every vertex.

    The incident forces at every vertex must pass `non_parallelizable_star`.
    """
    if not is_equilibrium(fw, fl):
        raise PreconditionError("force-load is not an equilibrium force-load")
    return all(non_parallelizable_star([fl[(v, u)] for u in fw.graph.neighbors(v)])
               for v in fw.graph.vertices)


def forceload_from_stress(fw: Framework, w, chart: AffineChart) -> dict:
    """Force-load of a stress w, its int weights in `fw.graph.edges` order:
    the positive multiple of the load whose chart vectors are w_ij (n_i -
    n_j) on every edge, n the chart representatives, in ints with gcd 1.
    Equilibrium, `non_parallelizable_star` and every line of force are those
    of that load.  InputError if w does not have one weight per edge."""
    if len(w) != len(fw.graph.edges):
        raise InputError(f"stress has {len(w)} weights for {len(fw.graph.edges)} edges")
    return _integer_forceloads(fw, chart)(w)


def _integer_forceloads(fw: Framework, chart: AffineChart):
    """`load(weights)`, the `forceload_from_stress` load of the weights w of
    a stress in edge order, with the duals computed once for many stresses.

    Its duals are w_e (M / (s_u s_v)) cross(p_v, p_u) with M = lcm |s_u s_v|
    over the edges, divided by the positive gcd of all their entries.  As
    w / (s_u s_v) cross(p_v, p_u) is the dual with iota_V F_{u,v} =
    w (n_u - n_v), that is the chart load times M over that gcd.  Every use
    of a load (equilibrium, the subset tests, lines of force) is invariant
    under a positive scale; on placed wheels with 4-9 spokes the gcd has
    33-46 bits.
    """
    scale = _chart_scales(fw, chart)
    p = fw.placement
    edges = fw.graph.edges
    m = lcm(*(scale[u] * scale[v] for u, v in edges))
    duals = [tuple(m // (scale[u] * scale[v]) * d
                   for d in _cross(p[v].coords, p[u].coords)) for u, v in edges]
    contents = [gcd(*d) for d in duals]

    def load(weights) -> dict:
        g = gcd(*(k * d for k, d in zip(weights, contents))) or 1
        fl = {}
        for (u, v), k, (a, b, c) in zip(edges, weights, duals):
            a, b, c = k * a // g, k * b // g, k * c // g
            fl[(u, v)], fl[(v, u)] = (a, b, c), (-a, -b, -c)
        return fl
    return load


#: Seeded combinations of the basis tried when the stress space has
#: dimension >= 2, each coefficient a nonzero integer in -9..9.
_PROBES = 16


def find_nonparallelizable_stress(fw: Framework, basis, chart: AffineChart, seed: int):
    """A self-stress whose load is non-parallelizable, as its weight tuple,
    or None.

    Searches the span of `basis`, the self-stress basis
    `self_stress_basis(fw, chart)`.  At dimension 1 the one candidate is the
    basis vector, and the answer is exact (non-parallelizability is
    scale-invariant).  At dimension r >= 2 the candidates are `_PROBES`
    seeded combinations sum c_i b_i with every c_i nonzero.  No other
    combination can pass: each b_i is nonzero on the edge of its free
    column, where every other b_j is 0, so c_i = 0 puts a zero force on that
    edge, which `non_parallelizable_star` rejects.  The probes can all
    still miss, so at r >= 2 the search can under-report (ROADMAP item 1).

    Each candidate is tested on its `forceload_from_stress` load, with the
    duals computed once for all of them, and handed back as the weights
    that passed.
    """
    if not basis:
        return None
    columns = list(zip(*basis))
    if len(basis) == 1:
        draws = [[1]]
    else:
        rng = random.Random(seed)
        draws = ([rng.choice((-1, 1)) * rng.randint(1, 9) for _ in basis]
                 for _ in range(_PROBES))
    load = _integer_forceloads(fw, chart)
    for coeffs in draws:
        weights = tuple(sum(a * x for a, x in zip(coeffs, column)) for column in columns)
        if is_non_parallelizable(fw, load(weights)):
            return weights
    return None


#: Path extensions one simple-cycle enumeration may make before it stops
#: with PreconditionError (exit 3).  GP(8,3) needs 5,057, K8 11,024 and the
#: 10-rung prism 17,478; the 12-rung prism needs 67,537 and is refused.
#: It limits only the general-position test, which enumerates a graph's
#: short cycles at most once, and only for a placement whose edge-line
#: arrangement has a line or point group.
MAX_CYCLE_EXTENSIONS = 20_000


def enumerate_simple_cycles(g: Graph, max_len: int):
    """All simple cycles with at most max_len vertices, once each.

    Cycles are reported as vertex tuples in canonical form: smallest vertex
    first, oriented toward its smaller neighbor; output sorted by length
    then lexicographically.  The depth-first search keeps its own stack and
    raises PreconditionError after MAX_CYCLE_EXTENSIONS path extensions.
    """
    if max_len > len(g.vertices):
        raise InputError("max_len exceeds vertex count")
    cycles = []
    extensions = 0
    for start in sorted(g.vertices):
        path = [start]
        on_path = {start}
        stack = [iter(g.neighbors(start))]
        while stack:
            for w in stack[-1]:
                if w == start and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                elif w > start and w not in on_path and len(path) < max_len:
                    extensions += 1
                    if extensions > MAX_CYCLE_EXTENSIONS:
                        raise PreconditionError(
                            "simple-cycle enumeration exceeds MAX_CYCLE_EXTENSIONS"
                            f" = {MAX_CYCLE_EXTENSIONS} path extensions")
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(g.neighbors(w)))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return sorted(cycles, key=lambda c: (len(c), c))


def cycle_corners(cycle):
    """Yield (v, e_prev, e_next) for each vertex of a cycle: the vertex and
    the keys of the cycle edges before and after it."""
    k = len(cycle)
    for m, v in enumerate(cycle):
        yield v, edge_key(cycle[m - 1], v), edge_key(v, cycle[(m + 1) % k])


def _short_cycle_edges(g: Graph):
    """The edge sets of the simple cycles of g on at most n-1 vertices,
    enumerated on first need and kept on the graph."""
    if g._short_cycles is None:
        g._short_cycles = [frozenset(e for _, _, e in cycle_corners(cycle))
                           for cycle in enumerate_simple_cycles(g, len(g.vertices) - 1)]
    return g._short_cycles


def framework_in_general_position(fw: Framework) -> bool:
    """Every simple cycle on at most n-1 vertices is in general position:
    its k edge lines are pairwise distinct with no three concurrent, i.e.
    they have exactly k(k-1)/2 distinct pairwise meets.

    The edge-line arrangement is built once per framework (Edelsbrunner,
    O'Rourke & Seidel, SIAM J. Comput. 15, 1986): each edge line is joined
    once, and each pair of distinct lines is met once.  A cycle's meets
    contain TRUE iff two of its edges lie on one line.  Two of its meets
    coincide iff at least three of its edge lines pass through one point,
    because two pairs of lines meeting at one point put at least three
    distinct lines through it.  So a cycle fails iff it holds >= 2 edges of
    one line, or >= 3 edges of the lines through a point that >= 3 distinct
    edge lines pass through (if two of those 3 edges share a line, the
    cycle fails by the first rule).  A point group at a vertex's own point
    whose edges are all incident to that vertex fails no cycle: a simple
    cycle holds at most two of them.  With no group left the answer is YES
    without enumerating cycles; otherwise each short cycle is tested against
    the groups by set membership, with no further meets.

    Only the meets that coincide are normalised.  A point (x, y, z) of the
    line (a, b, c) is fixed by the ratio s : t of two of its coordinates,
    (x, y) if c != 0, (x, z) if c = 0 != b and (y, z) otherwise, so the
    meets of line i with the later lines are keyed by the float s / t.  An
    int/int true division is correctly rounded, so one point always gets
    one key; t = 0 gets the key None, and a quotient beyond the float range
    the exact key `primitive((s, t))`.  Two meets under one key are one
    point iff s t' = s' t.  A point that three or more lines pass through
    is normalised (`primitive_triple`) on each of them that two later ones
    meet there, and grouped; no other meet is divided.

    The arrangement makes up to |E|(|E|-1)/2 meets, so its cost is
    quadratic in |E| and has no limit; a placement with no group decides
    YES however many cycles its graph has.  The short cycles of a graph are
    enumerated at most once (`_short_cycle_edges`), and only for a
    placement with a group.
    """
    g = fw.graph
    g.require_min_degree()
    by_line = {}
    for e, line in fw._lines.items():
        by_line.setdefault(line.coeffs, []).append(e)
    lines = list(by_line)
    # the lines are pairwise distinct, so every meet is a point
    by_point = {}
    for i, (a, b, c) in enumerate(lines):
        keyed, collided = {}, {}
        for j, (d, e, f) in enumerate(lines[i + 1:], i + 1):
            if c:
                s, t = b * f - c * e, c * d - a * f
            elif b:
                s, t = b * f, a * e - b * d
            else:
                s, t = -a * f, a * e
            try:
                key = s / t
            except ZeroDivisionError:
                key = None
            except OverflowError:
                key = primitive((s, t))
            entry = (s, t, j)
            first = keyed.setdefault(key, entry)
            if first is not entry:
                collided.setdefault(key, [first]).append(entry)
        for entries in collided.values():
            points = []
            for s, t, j in entries:
                for s2, t2, through in points:
                    if s * t2 == s2 * t:
                        through.append(j)
                        break
                else:
                    points.append((s, t, [j]))
            for _, _, through in points:
                if len(through) >= 2:
                    p = primitive_triple(*_cross(lines[i], lines[through[0]]))
                    by_point.setdefault(p, {i}).update(through)
    line_edges = list(by_line.values())
    vertex_at = {p.coords: v for v, p in fw.placement.items()}
    groups = [(set(edges), 2) for edges in line_edges if len(edges) >= 2]
    for p, through in by_point.items():
        edges = {e for k in through for e in line_edges[k]}
        v = vertex_at.get(p)
        if v is None or not all(v in e for e in edges):
            groups.append((edges, 3))
    if not groups:
        return True
    return not any(len(held & edges) >= at_least
                   for held in _short_cycle_edges(g) for edges, at_least in groups)


# ---------------------------------------------------------------------------
# JSON interface: {"vertices":[{"id":"p1","coords":["1","0","1"]},...],
#                  "edges":[["p1","p2"],...]}

def framework_to_json(fw: Framework) -> dict:
    return {
        "vertices": [
            {"id": v, "coords": fw.placement[v].to_strings()}
            for v in sorted(fw.graph.vertices)
        ],
        "edges": [list(e) for e in fw.graph.edges],
    }


def _json_kind(value) -> str:
    """A JSON value as an error message names it: a container by its kind,
    a scalar as written."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value)


def _json_list(value, what: str) -> list:
    """`value` itself if it is a JSON list; a string or an object is never
    read as a sequence of its characters or keys."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {_json_kind(value)}")
    return value


def _json_field(obj, key: str, what: str, shape: str):
    """obj[key] of the JSON object `what`; InputError naming the missing key,
    or the expected `shape` when `obj` is not an object (a list or a string
    is never indexed by the key)."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be {shape}, got {_json_kind(obj)}")
    if key not in obj:
        raise InputError(f'{what} has no "{key}"')
    return obj[key]


def _document_list(obj, key: str, shape: str) -> list:
    """The list under `key` of a JSON document of the given shape."""
    return _json_list(_json_field(obj, key, "the document", shape), key)


_FRAMEWORK_SHAPE = 'an object {"vertices": [...], "edges": [...]}'
_VERTEX_SHAPE = 'an object {"id": ..., "coords": [...]}'


def _edges_from_json(obj):
    return [tuple(_json_list(e, "an edge"))
            for e in _document_list(obj, "edges", _FRAMEWORK_SHAPE)]


def framework_from_json(obj) -> Framework:
    try:
        entries = _document_list(obj, "vertices", _FRAMEWORK_SHAPE)
        vertices = [_json_field(entry, "id", f"vertices[{i}]", _VERTEX_SHAPE)
                    for i, entry in enumerate(entries)]
        coords = [_json_field(entry, "coords", f"vertices[{i}]", _VERTEX_SHAPE)
                  for i, entry in enumerate(entries)]
        edges = _edges_from_json(obj)
    except InputError as exc:
        raise InputError(f"malformed framework JSON: {exc}") from exc
    return Framework(Graph(vertices, edges),
                     {v: ProjPoint.from_strings(c) for v, c in zip(vertices, coords)})


def read_json(path):
    """Parsed contents of a JSON file; InputError if it cannot be read.  A
    ValueError covers bytes that are not UTF-8, malformed JSON and an int
    literal past the interpreter's int-from-str limit; RecursionError,
    nesting deeper than the decoder's recursion."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def graph_from_json(obj) -> Graph:
    """Graph-only JSON: vertices may be bare ids or framework-style objects."""
    try:
        entries = _document_list(obj, "vertices", _FRAMEWORK_SHAPE)
        vertices = [_json_field(entry, "id", f"vertices[{i}]", _VERTEX_SHAPE)
                    if isinstance(entry, dict) else entry
                    for i, entry in enumerate(entries)]
        edges = _edges_from_json(obj)
    except InputError as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    return Graph(vertices, edges)
