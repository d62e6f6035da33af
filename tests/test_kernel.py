"""The sparse elimination kernel against the dense Bareiss reference.

`tensec._kernel.echelon_int` may order its eliminations as it likes: the
pivot columns (the columns that are no combination of the columns before
them) and the null vector of each free column that is 1 there and 0 on the
other free columns do not depend on that order.  So `nullspace_basis` must
return exactly the basis of `reference_oracle.reference_nullspace_basis`,
which runs the Bareiss kernel of `reference_kernel` and Fraction
back-substitution.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernel
from reference_oracle import reference_nullspace_basis, reference_self_stress_basis
from tensec._kernel import echelon_int
from tensec.framework import Framework, self_stress_basis
from tensec.numeric import nullspace_basis
from tensec.projective import AffineChart, ProjPoint
from tensec.sampling import random_placement
from test_framework import _complete_edges, _named, _petersen_edges, _wheel_edges

STANDARD = AffineChart.standard()


@st.composite
def integer_matrices(draw):
    """(rows, ncols): integer rows of entries up to 2^2, 2^8 or 2^128, free
    or the product of two random factors of rank k, with zero rows and
    scaled copies of rows mixed in; wide, tall and empty shapes alike."""
    ncols = draw(st.integers(1, 9))
    nrows = draw(st.integers(0, 10))
    bits = draw(st.sampled_from((2, 8, 128)))
    entries = st.integers(-(1 << bits), 1 << bits)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    else:
        k = draw(st.integers(0, min(nrows, ncols)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        rows = [[sum(a * right[i][j] for i, a in enumerate(row)) for j in range(ncols)]
                for row in left]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            scale = draw(st.integers(-3, 3))
            rows.insert(at, [scale * x for x in rows[draw(st.integers(0, len(rows) - 1))]])
        else:
            rows.insert(at, [0] * ncols)
    return rows, ncols


@given(integer_matrices())
@example(([], 3))
@example(([[0, 0], [0, 0]], 2))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_nullspace_basis_matches_bareiss_reference(m):
    rows, ncols = m
    assert nullspace_basis(rows, ncols) == reference_nullspace_basis(rows, ncols)


@given(integer_matrices())
@example(([], 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_echelon_contract(m):
    rows, ncols = m
    before = [list(row) for row in rows]
    reduced, pivots = echelon_int(rows, ncols)
    assert rows == before
    assert len(reduced) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, c in zip(reduced, pivots):
        assert all(type(x) is int for x in row) and len(row) == ncols
        assert not any(row[:c]) and row[c]
        assert all(row is not original for original in rows)
    # the pivot columns do not depend on the elimination
    assert pivots == reference_kernel.echelon_int(rows, ncols)[1]


def test_echelon_stops_once_every_column_has_a_pivot():
    read = []

    def rows():
        for row in ([1, 2], [0, 3], [5, 7], [1, 1]):
            read.append(row)
            yield row

    assert echelon_int(rows(), 2)[1] == [0, 1]
    assert read == [[1, 2], [0, 3]]


STRESS_GRAPHS = {
    "prism20": _named(_petersen_edges(20, 1)),
    "gp16_3": _named(_petersen_edges(16, 3)),
    "K7": _named(_complete_edges(7)),
    "wheel12": _named(_wheel_edges(12)),
}


def collinear_placement(g, seed):
    """Distinct seeded points on the line y = 3x + 1: the stress space is
    the graph's cycle space, |E| - |V| + 1 dimensional."""
    xs = random.Random(seed).sample(range(-60, 61), len(g.vertices))
    return Framework(g, {v: ProjPoint((x, 3 * x + 1, 1)) for v, x in zip(g.vertices, xs)})


@pytest.mark.parametrize("name", sorted(STRESS_GRAPHS))
@pytest.mark.parametrize("seed", [1, 2])
def test_self_stress_basis_matches_bareiss_reference(name, seed):
    g = STRESS_GRAPHS[name]
    generic = random_placement(g, seed, bound=60)
    assert (self_stress_basis(generic, STANDARD)
            == reference_self_stress_basis(generic, STANDARD))
    collinear = collinear_placement(g, seed)
    basis = self_stress_basis(collinear, STANDARD)
    assert basis == reference_self_stress_basis(collinear, STANDARD)
    assert len(basis) == len(g.edges) - len(g.vertices) + 1
