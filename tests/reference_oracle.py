"""Reference oracle of the tests: the chart-Fraction null space and oracle
that the integer ones replaced.

`reference_nullspace_basis` is `numeric.nullspace_basis` with its Fraction
back-substitution.  `reference_self_stress_basis`,
`reference_forceload_from_stress`, `reference_stress_of_forceload` and
`reference_find_nonparallelizable_stress` are the `tensec.framework`
functions that convert every point to its chart representative p / <p, V>
(`reference_chart_points`, through `chart_normalize`, once
`AffineChart.normalize`) before they build the rigidity system or a
force-load.  All are kept verbatim apart from the names and from clearing
the rationals they hand the library (`integers`), except that the oracle
follows the library's one candidate rule: the basis vector of a
one-dimensional space, else seeded combinations with nonzero coefficients,
built here as Fraction stresses.  A stress is the tuple of its weights in
`fw.graph.edges` order, as in the library.  The library builds the
same system column-scaled from the integer triples and tests candidates on
integer force-loads; the tests require equal results from both.
"""

import random
from fractions import Fraction

import reference_kernel as _kernel
from tensec.errors import GeometryError, InputError, PointAtInfinityError
from tensec.framework import ForceLoad, _PROBES, edge_key, is_non_parallelizable
from tensec.numeric import clear_denominators, primitive
from integers import integer_load, integer_rows
from lemmas import affine_vector
from tensec.projective import AffineChart, Force, _cross, _dot


def reference_nullspace_basis(rows, ncols: int):
    """Exact basis of {x : rows x = 0} for rational `rows` of length `ncols`.

    Each row is cleared to integers on its own (row scaling keeps the null
    space) and reduced by the fraction-free kernel.  Returns a list of
    vectors of Fractions (canonically scaled to coprime integers), one per
    free column of the echelon form; empty iff the kernel is trivial.  No
    rows give the full standard basis.
    """
    reduced, pivots = _kernel.echelon_int(integer_rows(rows), ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if x[j]:
                    s += Fraction(reduced[r][j]) * x[j]
            x[pc] = -s / reduced[r][pc]
        basis.append(tuple(Fraction(v) for v in primitive(clear_denominators(x))))
    return basis


def chart_normalize(chart: AffineChart, p):
    """Representative of p scaled so <p, V> = 1; None if p is at infinity."""
    s = Fraction(_dot(p.coords, chart.field))
    if s == 0:
        return None
    return tuple(Fraction(c) / s for c in p.coords)


def reference_chart_points(fw, chart: AffineChart) -> dict:
    """Representative of every placed point scaled so <p, V> = 1."""
    normalized = {}
    for v in fw.graph.vertices:
        n = chart_normalize(chart, fw.placement[v])
        if n is None:
            raise PointAtInfinityError(f"vertex {v!r} lies on the infinity line")
        normalized[v] = n
    return normalized


def reference_self_stress_basis(fw, chart: AffineChart):
    """Exact basis of the self-stress space of the framework in a chart.

    Builds the 2n x |E| rigidity-type system (two chart coordinates per
    vertex, one column per edge, entries p_i - p_j on chart representatives)
    and returns its null space, each stress its Fraction weights in edge
    order.  This is the brute-force oracle the rest of the package is
    validated against.
    """
    normalized = reference_chart_points(fw, chart)
    _drop, keep = chart.axes()
    edges = fw.graph.edges
    col = {e: j for j, e in enumerate(edges)}
    rows = []
    for v in fw.graph.vertices:
        for c in keep:
            row = [Fraction(0)] * len(edges)
            for u in fw.graph.neighbors(v):
                row[col[edge_key(u, v)]] = normalized[v][c] - normalized[u][c]
            rows.append(row)
    return reference_nullspace_basis(rows, len(edges))


def reference_forceload_from_stress(fw, w, chart: AffineChart) -> ForceLoad:
    """Force-load whose chart vectors are w_ij (p_i - p_j) on every edge."""
    if len(w) != len(fw.graph.edges):
        raise InputError("stress weights do not match framework edges")
    normalized = reference_chart_points(fw, chart)
    forces = {}
    for (u, v), weight in zip(fw.graph.edges, w):
        # dual = w * cross(n_v, n_u) gives iota_V F_{u,v} = w (n_u - n_v);
        # the chart representatives must be used as-is, not recanonicalized.
        dual = _cross(normalized[v], normalized[u])
        f = Force(tuple(weight * d for d in dual))
        forces[(u, v)] = f
        forces[(v, u)] = -f
    return ForceLoad(forces)


def reference_stress_of_forceload(fw, fl: ForceLoad, chart: AffineChart) -> tuple:
    """Read back chart tensions: the w with iota_V F_{i,j} = w_ij (p_i - p_j),
    in edge order."""
    normalized = reference_chart_points(fw, chart)
    weights = []
    for u, v in fw.graph.edges:
        vec = affine_vector(fl.force(u, v), chart)
        diff = tuple(normalized[u][i] - normalized[v][i] for i in range(3))
        c = next(i for i in range(3) if diff[i] != 0)
        w = vec[c] / diff[c]
        if any(vec[i] != w * diff[i] for i in range(3)):
            raise GeometryError(f"force at edge ({u},{v}) is not along the edge")
        weights.append(w)
    return tuple(weights)


def reference_find_nonparallelizable_stress(fw, basis, chart: AffineChart, seed: int):
    """A self-stress whose load is non-parallelizable, or None.

    Searches `basis`, the self-stress basis `self_stress_basis(fw, chart)`.
    A one-vector basis is its only candidate.  A larger one is probed with
    `_PROBES` seeded combinations whose coefficients are all nonzero, in
    -9..9: a zero coefficient leaves the free edge of its basis vector
    without force.
    """
    if not basis:
        return None
    if len(basis) == 1:
        candidates = list(basis)
    else:
        rng = random.Random(seed)
        candidates = []
        for _ in range(_PROBES):
            coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in basis]
            candidates.append(tuple(
                sum((a * x for a, x in zip(coeffs, column)), Fraction(0))
                for column in zip(*basis)))
    for w in candidates:
        fl = reference_forceload_from_stress(fw, w, chart)
        if is_non_parallelizable(fw, integer_load(fl)):
            return w
    return None
