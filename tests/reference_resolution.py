"""Fraction references of the resolution layer: the force decomposition
and scheme force-load propagation that the integer Cramer's rule replaced,
and the framework force-load construction that integer scales replaced.

`solve_in_span` (from `numeric`), `_decompose` and `scheme_forceload` (from
`resolution`), and `construct_forceload` and `_ratio` (from
`quantization`) are kept verbatim.  `scheme_forceload` here returns the load
extending a seed force on any edge exactly, in Fractions; the library's
returns the one canonical load of the scheme in coprime integers.  The load
is unique up to scale, so the tests compare the two up to one nonzero scale
(`nonzero_scale`).  `construct_forceload` here scales the
vertex loads by Fraction ratios, the smallest vertex by 1; the library's
scales them by integers, each a positive multiple of these, so the tests
compare the two up to one positive scale as well.
"""

from fractions import Fraction

from tensec.errors import GenericityError, GeometryError, InconsistentQuantizationError
from tensec.framework import ForceLoad, bfs_parents, edge_key
from tensec.projective import Force, ProjLine, line_of_force
from tensec.quantization import Quantization, _tree_cycle
from tensec.resolution import ResolutionScheme, is_weakly_generic


def solve_in_span(v, a, b, off_span: str, parallel: str):
    """Exact (x, y) with x a + y b = v for rational triples a, b and v.

    Solves on the first nonzero 2x2 minor of (a, b) and checks the third
    coordinate.  Raises GeometryError with the message `off_span` when v is
    not in the span, and with `parallel` when a and b are dependent.
    """
    for r in range(3):
        for t in range(r + 1, 3):
            det = Fraction(a[r] * b[t] - a[t] * b[r])
            if det:
                x = (v[r] * b[t] - v[t] * b[r]) / det
                y = (a[r] * v[t] - a[t] * v[r]) / det
                u = 3 - r - t
                if x * a[u] + y * b[u] != v[u]:
                    raise GeometryError(off_span)
                return x, y
    raise GeometryError(parallel)


def _decompose(force: Force, l1: ProjLine, l2: ProjLine):
    """Split -force into components along two distinct concurrent lines:
    returns (f1, f2) with force + f1 + f2 = 0 and line(f_i) <= l_i."""
    a, b = l1.coeffs, l2.coeffs
    x, y = solve_in_span([-x for x in force.dual], a, b,
                         "force not in the span of the two lines",
                         "cannot decompose along equal lines")
    return Force(tuple(x * c for c in a)), Force(tuple(y * c for c in b))


def scheme_forceload(s: ResolutionScheme, seed_edge, seed_force: Force):
    """Unique equilibrium force-load extending a nonzero seed stress.

    Returns a dict mapping ordered node pairs (u, v) to the force applied at
    u along edge uv; opposite orientations are negatives.  Propagates from
    the seed edge, splitting the incoming force at every degree-3 node along
    the other two labels (a 2x2 exact solve), which is unique exactly when
    the scheme is weakly generic.
    """
    if not is_weakly_generic(s):
        raise GenericityError("scheme is not weakly generic")
    key = edge_key(*seed_edge)
    if seed_force.is_zero() or line_of_force(seed_force) != s.labels[key]:
        raise GeometryError("seed force must be nonzero along the seed edge label")
    u, v = seed_edge
    forces = {(u, v): seed_force, (v, u): -seed_force}
    # (node, the neighbor whose force at that node is known)
    stack = [(u, v), (v, u)]
    while stack:
        w, known = stack.pop()
        if s.tree.degree(w) != 3:
            continue
        n1, n2 = (n for n in s.tree.adjacency[w] if n != known)
        f1, f2 = _decompose(forces[(w, known)], s.label(w, n1), s.label(w, n2))
        forces[(w, n1)], forces[(n1, w)] = f1, -f1
        forces[(w, n2)], forces[(n2, w)] = f2, -f2
        stack.extend([(n1, w), (n2, w)])
    if len(forces) != 2 * len(s.tree.edges()):
        raise GeometryError("propagation did not reach every edge")
    return forces



def construct_forceload(q: Quantization) -> ForceLoad:
    """Equilibrium force-load of the framework carried by the quantization.

    Every vertex scheme has one equilibrium force-load up to scale
    (`ResolutionScheme.forceload`), and its leaf forces balance at the
    vertex.  A breadth-first walk from the smallest vertex scales each newly
    reached vertex so that the two ends of the edge it is reached by
    balance; every other edge is checked exactly, and a mismatch raises
    InconsistentQuantizationError naming the cycle that edge closes in the
    walk's tree.  A zero force on any tree edge raises GeometryError.

    Returns the load of the leaf forces, unique up to one global scalar.
    """
    g = q.framework.graph
    leaf = {}
    for v in g.vertices:
        scheme = q.scheme_at(v)
        if any(f.is_zero() for f in scheme.forceload.values()):
            raise GeometryError("constructed force-load vanishes on an edge")
        leaf[v] = scheme.leaf_forces
    parent = bfs_parents(g.adjacency, min(g.vertices))
    scale = {}
    for v, u in parent.items():
        if u is None:
            scale[v] = Fraction(1)
        else:
            e = edge_key(u, v)
            scale[v] = -scale[u] * _ratio(leaf[u][e], leaf[v][e])
    forces = {}
    for u, v in g.edges:
        f = leaf[u][(u, v)].scaled(scale[u])
        if not (f + leaf[v][(u, v)].scaled(scale[v])).is_zero():
            raise InconsistentQuantizationError(
                "cycle closes with mismatched stress", _tree_cycle(parent, u, v))
        forces[(u, v)] = f
    return ForceLoad(forces)


def _ratio(a: Force, b: Force) -> Fraction:
    """k with a = k b, for nonzero forces along one line; a Fraction for
    int forces too (int / int would be a float)."""
    i = next(i for i, x in enumerate(b.dual) if x)
    return Fraction(a.dual[i], b.dual[i])


def nonzero_scale(got: dict, ref: dict):
    """The one Fraction k with got[key] = k ref[key] for every key of two
    loads on the same keys, not all zero; AssertionError if there is none."""
    assert got.keys() == ref.keys()
    scale = None
    for key, f in ref.items():
        i = next(i for i in range(3) if f.dual[i])
        k = Fraction(got[key].dual[i], f.dual[i])
        assert got[key].dual == tuple(k * x for x in f.dual)
        assert scale is None or k == scale
        scale = k
    assert scale
    return scale


def positive_scale(got: dict, ref: dict):
    """`nonzero_scale` of two loads, asserted positive."""
    scale = nonzero_scale(got, ref)
    assert scale > 0
    return scale
