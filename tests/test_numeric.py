from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from integers import integer_rows
from reference_oracle import reference_nullspace_basis
from tensec.errors import GeometryError, InputError
from tensec.numeric import (clear_denominators, nullspace_basis, primitive,
                            scalar_from_string)
from tensec.projective import ProjLine, ProjPoint

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_scalar_string_roundtrip():
    for text in ["3", "-7", "2/5", "-11/13", "0"]:
        p, q = scalar_from_string(text)
        assert str(Fraction(p, q)) == text
    assert scalar_from_string(" 4/6 ") == (4, 6)  # read, not reduced
    assert scalar_from_string("+05") == (5, 1)
    with pytest.raises(InputError):
        scalar_from_string("1/0")
    with pytest.raises(InputError):
        scalar_from_string("abc")
    with pytest.raises(InputError):
        scalar_from_string(3)  # JSON numbers are not rational literals


def _literal(draw):
    """A rational literal with an optional sign or leading "+", leading
    zeros, surrounding spaces and an unreduced or absent denominator."""
    sign = draw(st.sampled_from(("", "-", "+")))
    zeros = "0" * draw(st.integers(0, 3))
    num = draw(st.integers(0, 10**30))
    text = f"{sign}{zeros}{num}"
    if draw(st.booleans()):
        den = draw(st.integers(1, 10**6)) * draw(st.sampled_from((1, 2, 6, 35)))
        text += f"/{'0' * draw(st.integers(0, 2))}{den}"
    return " " * draw(st.integers(0, 2)) + text + " " * draw(st.integers(0, 2))


literals = st.composite(_literal)()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(literals, min_size=3, max_size=3)
       .filter(lambda t: any(Fraction(x) for x in t)))
def test_literal_triples_match_the_fraction_reference(strings):
    want = clear_denominators([Fraction(x) for x in strings])
    assert ProjPoint.from_strings(strings) == ProjPoint(want)
    assert ProjLine.from_strings(strings) == ProjLine(want)


@pytest.mark.parametrize("text", ["1/0", "-3/000", "1" * 4301, "1/" + "7" * 4301])
def test_bad_literals_are_bad_rational_literals(text):
    # past 4,300 digits the interpreter refuses to read an int
    with pytest.raises(InputError, match="bad rational literal"):
        ProjPoint.from_strings([text, "0", "1"])


def apply(rows, vec):
    return tuple(sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in rows)


def reference_rank(rows, ncols):
    """Rank by plain Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_identity_has_trivial_kernel():
    assert nullspace_basis([[1, 0], [0, 1]], 2) == []


def test_difference_matrix_kernel():
    basis = nullspace_basis([[1, -1]], 2)
    assert basis == [(Fraction(1), Fraction(1))]


def test_empty_matrix_full_kernel():
    basis = nullspace_basis([], 3)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    zero_rows = [[0, 0, 0]]
    basis = nullspace_basis(zero_rows, 3)
    assert len(basis) == 3
    for v in basis:
        assert apply(zero_rows, v) == (Fraction(0),)


@st.composite
def matrices(draw):
    """(rows, ncols): 1-5 rows of 1-5 rational entries each."""
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(fractions, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity_and_exactness(m):
    rows, ncols = m
    basis = nullspace_basis(integer_rows(rows), ncols)
    assert reference_rank(rows, ncols) + len(basis) == ncols
    zero = tuple(Fraction(0) for _ in rows)
    for v in basis:
        assert apply(rows, v) == zero


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_nullity_invariant_under_row_permutation_and_scaling(m, rng):
    rows, ncols = m
    shuffled = [list(r) for r in rows]
    rng.shuffle(shuffled)
    factors = [Fraction(rng.randint(1, 7)) for _ in shuffled]
    scaled = [[k * x for x in row] for k, row in zip(factors, shuffled)]
    assert (len(nullspace_basis(integer_rows(scaled), ncols))
            == len(nullspace_basis(integer_rows(rows), ncols)))


@given(fractions, fractions)
def test_exact_arithmetic(a, b):
    assert (a + b) - b == a


# The normal forms `primitive` replaced, kept verbatim as references:
# numeric._normalize_vector, projective._canonical_triple and
# projective._canonical_ints.

def _normalize_vector(vec):
    """Clear denominators, divide by the gcd, make the first nonzero entry
    positive.  Keeps basis vectors canonical and integer-valued."""
    mult = 1
    for x in vec:
        d = x.denominator
        mult = mult // gcd(mult, d) * d
    ints = [int(x * mult) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(Fraction(v) for v in ints)


def _canonical_triple(triple):
    xs = [Fraction(x) for x in triple]
    if len(xs) != 3:
        raise InputError("homogeneous triples have exactly 3 entries")
    if not any(xs):
        raise GeometryError("zero triple is not a projective element")
    mult = lcm(*(x.denominator for x in xs))
    return _canonical_ints([x.numerator * (mult // x.denominator) for x in xs])


def _canonical_ints(ints):
    """Normal form of a nonzero integer triple up to scale: coprime entries,
    first nonzero entry positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)


rationals = st.one_of(st.just(0), st.integers(-10**12, 10**12),
                      st.fractions(max_denominator=10**6))


@given(st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_primitive_matches_normalize_vector(vec):
    got = primitive(clear_denominators(vec))
    assert all(type(v) is int for v in got)
    assert got == _normalize_vector(vec)


@given(st.tuples(rationals, rationals, rationals))
@settings(max_examples=300, deadline=None)
def test_primitive_matches_canonical_triple(triple):
    if not any(triple):
        with pytest.raises(GeometryError):
            ProjPoint(triple)
        return
    want = _canonical_triple(triple)
    assert primitive(clear_denominators(triple)) == want
    assert ProjPoint(triple).coords == want == ProjLine(triple).coeffs


def test_projective_triples_keep_their_errors():
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(InputError):
            ProjPoint(bad)
        with pytest.raises(InputError):
            ProjLine(bad)
    with pytest.raises(GeometryError):
        ProjLine((0, Fraction(0), 0))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_nullspace_basis_returns_normalized_int_tuples(m):
    rows, ncols = m
    for vec in nullspace_basis(integer_rows(rows), ncols):
        assert type(vec) is tuple
        assert all(type(x) is int for x in vec)
        assert vec == _normalize_vector(vec)


@st.composite
def rank_deficient_matrices(draw):
    """(rows, ncols, deficit): the product of a random nrows x k and a random
    k x ncols rational matrix, k = ncols - deficit, deficit 0-3, so the
    kernel has dimension at least `deficit`."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    deficit = draw(st.integers(min_value=0, max_value=min(3, ncols)))
    k = ncols - deficit
    nrows = draw(st.integers(min_value=k, max_value=k + 2))
    left = draw(st.lists(st.lists(fractions, min_size=k, max_size=k),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(fractions, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    rows = [[sum((a * right[i][j] for i, a in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in left]
    return rows, ncols, deficit


@given(rank_deficient_matrices())
@settings(max_examples=150, deadline=None)
def test_fraction_free_back_substitution_matches_reference(m):
    rows, ncols, deficit = m
    basis = nullspace_basis(integer_rows(rows), ncols)
    assert basis == reference_nullspace_basis(rows, ncols)
    assert len(basis) >= deficit
    # rows cleared by hand, each by its own lcm, give the same basis
    ints = [[x.numerator * (lcm(*(y.denominator for y in row)) // x.denominator)
             for x in row] for row in rows]
    assert nullspace_basis(ints, ncols) == basis
