import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from integers import integer_forces
from lemmas import affine_vector, lines_in_general_position
from tensec.errors import GeometryError
from tensec.projective import (TRUE, AffineChart, Force, ProjLine, ProjPoint,
                               ZERO_FORCE, _cross, _proper_subset_sums,
                               join, line_of_force, meet,
                               non_parallelizable_star, nonvanishing_proper_subsets,
                               partial_sum_lines_distinct,
                               pick_generic_line_through, pick_generic_point_on,
                               rel_collinear, rel_concurrent, rel_incident)


def force_between(p: ProjPoint, q: ProjPoint, scale) -> Force:
    """Force scale * d(p) ^ d(q) built on the canonical representatives."""
    scale = Fraction(scale)
    if scale == 0:
        return ZERO_FORCE
    if p == q:
        raise GeometryError("force between coincident points is undefined")
    return Force(tuple(scale * c for c in _cross(p.coords, q.coords)))


ORIGIN = ProjPoint((0, 0, 1))
X_AXIS = ProjLine((0, 1, 0))
Y_AXIS = ProjLine((1, 0, 0))
Z_LINE = ProjLine((0, 0, 1))


def test_canonical_representative_scale_invariance():
    assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
    assert ProjPoint((-1, -2, -3)) == ProjPoint((1, 2, 3))
    assert ProjPoint((Fraction(1, 2), Fraction(1, 3), 0)) == ProjPoint((3, 2, 0))
    assert hash(ProjLine((2, 0, -2))) == hash(ProjLine((-1, 0, 1)))
    with pytest.raises(GeometryError):
        ProjPoint((0, 0, 0))


def test_meet_axes_at_origin():
    assert meet(Y_AXIS, X_AXIS) == ORIGIN


def test_meet_equal_lines_absorbs():
    l = ProjLine((1, 2, 3))
    assert meet(l, l) is TRUE
    assert meet(l, TRUE) is TRUE
    assert meet(TRUE, TRUE) is TRUE


def test_meet_cross_product_with_incidence():
    l1, l2 = ProjLine((1, 1, -1)), ProjLine((1, -1, 0))
    p = meet(l1, l2)
    assert p == ProjPoint((1, 1, 2))
    assert rel_incident(p, l1) and rel_incident(p, l2)


def test_join_and_dual_roundtrip():
    p, q = ProjPoint((1, 0, 1)), ProjPoint((0, 1, 1))
    l = join(p, q)
    assert l == ProjLine((-1, -1, 1))
    assert rel_incident(p, l) and rel_incident(q, l)
    assert join(p, p) is TRUE
    assert join(TRUE, q) is TRUE


def test_meet_join_duality():
    p, q, r = ProjPoint((0, 0, 1)), ProjPoint((1, 0, 1)), ProjPoint((0, 1, 1))
    assert meet(join(p, q), join(p, r)) == p


def test_three_line_relation():
    l1 = join(ORIGIN, ProjPoint((1, 0, 1)))
    l2 = join(ORIGIN, ProjPoint((0, 1, 1)))
    l3 = join(ORIGIN, ProjPoint((1, 1, 1)))
    assert rel_concurrent(l1, l2, l3)
    assert not rel_concurrent(Y_AXIS, X_AXIS, ProjLine((1, 1, -1)))
    assert rel_concurrent(l1, l1, ProjLine((1, 1, -1)))
    assert rel_concurrent(TRUE, l2, l3)


def test_three_point_relation():
    a, b, c = ProjPoint((0, 0, 1)), ProjPoint((1, 0, 1)), ProjPoint((2, 0, 1))
    assert rel_collinear(a, b, c)
    assert not rel_collinear(a, b, ProjPoint((0, 1, 1)))
    assert rel_collinear(a, a, ProjPoint((0, 1, 1)))
    assert rel_collinear(a, TRUE, c)


def test_point_line_relation():
    assert not rel_incident(ORIGIN, Z_LINE)
    assert rel_incident(ProjPoint((1, 0, 0)), Z_LINE)
    assert rel_incident(ORIGIN, TRUE)


def test_force_between_scale_and_antisymmetry():
    p, q = ProjPoint((1, 0, 1)), ProjPoint((0, 0, 1))
    f = force_between(p, q, 1)
    assert not f.is_zero()
    assert line_of_force(f) == join(p, q)
    assert force_between(p, q, 0).is_zero()
    assert (force_between(p, q, 1) + force_between(q, p, 1)).is_zero()
    with pytest.raises(GeometryError):
        force_between(p, p, 1)
    with pytest.raises(GeometryError):
        line_of_force(ZERO_FORCE)


def test_line_of_force_scale_invariance():
    f = force_between(ProjPoint((1, 0, 1)), ProjPoint((2, 0, 1)), 1)
    assert line_of_force(f) == X_AXIS
    assert line_of_force(f.scaled(5)) == line_of_force(f)


def test_sum_of_concurrent_forces_passes_through_common_point():
    r = ProjPoint((3, 5, 1))
    f1 = force_between(r, ProjPoint((1, 0, 1)), 2)
    f2 = force_between(r, ProjPoint((0, 1, 1)), -3)
    total = f1 + f2
    assert rel_incident(r, line_of_force(total))


def test_affine_vector_matches_coordinate_differences():
    chart = AffineChart.standard()
    a = (Fraction(2), Fraction(5), Fraction(1))
    b = (Fraction(-1), Fraction(3), Fraction(1))
    # dual built directly on the chart representatives
    from tensec.projective import _cross
    f = Force(_cross(a, b))
    vec = affine_vector(f, chart)
    diff = tuple(y - x for x, y in zip(a, b))
    assert vec == diff
    assert vec[2] == 0
    assert affine_vector(ZERO_FORCE, chart) == (0, 0, 0)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=40)
def test_force_addition_commutative_associative(a1, a2, a3, b1, b2, b3, c1, c2, c3):
    f, g, h = Force((a1, a2, a3)), Force((b1, b2, b3)), Force((c1, c2, c3))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    # at k=2 every dual triple is a force: nonzero ones have a line of force
    if not f.is_zero():
        line_of_force(f)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60)
def test_affine_vector_linear(a1, a2, a3, b1, b2, b3):
    chart = AffineChart(ProjLine((1, 2, 5)))
    f1, f2 = Force((a1, a2, a3)), Force((b1, b2, b3))
    lhs = affine_vector(f1 + f2, chart)
    rhs = tuple(x + y for x, y in zip(affine_vector(f1, chart),
                                      affine_vector(f2, chart)))
    assert lhs == rhs


def test_generic_point_determinism_and_avoidance():
    avoid = {ORIGIN}
    p1 = pick_generic_point_on(X_AXIS, avoid, seed=7)
    p2 = pick_generic_point_on(X_AXIS, avoid, seed=7)
    assert p1 == p2
    assert rel_incident(p1, X_AXIS)
    assert p1 != ORIGIN
    assert pick_generic_point_on(X_AXIS, (), seed=1) == pick_generic_point_on(
        X_AXIS, (), seed=1)


def test_generic_point_avoids_large_sets():
    avoid = {pick_generic_point_on(X_AXIS, (), seed=s) for s in range(10)}
    p = pick_generic_point_on(X_AXIS, avoid, seed=3)
    assert p not in avoid and rel_incident(p, X_AXIS)


def test_generic_line_determinism_and_avoidance():
    l1 = pick_generic_line_through(ORIGIN, {X_AXIS}, seed=3)
    l2 = pick_generic_line_through(ORIGIN, {X_AXIS}, seed=3)
    assert l1 == l2
    assert rel_incident(ORIGIN, l1)
    assert l1 != X_AXIS
    assert rel_incident(ProjPoint((5, 7, 1)),
                        pick_generic_line_through(ProjPoint((5, 7, 1)), (), 9))


points = st.builds(
    lambda x, y: ProjPoint((x, y, 1)),
    st.fractions(min_value=-30, max_value=30, max_denominator=7),
    st.fractions(min_value=-30, max_value=30, max_denominator=7),
)


@given(points, points, points)
@settings(max_examples=60)
def test_duality_roundtrip_generic(p, q, r):
    if p == q or p == r or q == r or rel_collinear(p, q, r):
        return
    assert meet(join(p, q), join(p, r)) == p


@given(points, points, points)
@settings(max_examples=60)
def test_concurrency_via_incidence(p, q, r):
    l1, l2 = join(p, q), join(p, r)
    if l1 is TRUE or l2 is TRUE or l1 == l2:
        return
    l3 = join(q, r)
    if l3 is TRUE:
        return
    assert rel_concurrent(l1, l2, l3) == rel_incident(meet(l1, l2), l3)


def test_lines_in_general_position():
    concurrent = [join(ORIGIN, ProjPoint((1, 0, 1))),
                  join(ORIGIN, ProjPoint((0, 1, 1))),
                  join(ORIGIN, ProjPoint((1, 1, 1)))]
    assert not lines_in_general_position(concurrent)
    generic = [ProjLine((0, 1, 0)), ProjLine((1, 0, 0)), ProjLine((1, 1, -1))]
    assert lines_in_general_position(generic)
    assert not lines_in_general_position([X_AXIS, X_AXIS, Y_AXIS])


# The Fraction-valued subset tests as they were before the integer
# enumeration replaced them; kept verbatim as the reference.

def reference_nonvanishing_proper_subsets(forces) -> bool:
    """True iff no proper nonempty 0/1-combination of the forces vanishes."""
    n = len(forces)
    for mask in range(1, (1 << n) - 1):
        total = ZERO_FORCE
        for i in range(n):
            if mask >> i & 1:
                total = total + forces[i]
        if total.is_zero():
            return False
    return True


def reference_partial_sum_lines_distinct(forces) -> bool:
    """True iff the 2^(s-1) - 1 lines of F1 + sum(a_i F_i, i >= 2) over all
    proper 0/1-tuples (a_2..a_s) are pairwise distinct.

    Assumes no proper nonempty subset vanishes, so every partial sum has a
    line of force.
    """
    s = len(forces)
    lines = []
    for mask in range((1 << (s - 1)) - 1):
        total = forces[0]
        for i in range(1, s):
            if mask >> (i - 1) & 1:
                total = total + forces[i]
        lines.append(line_of_force(total))
    return len(set(lines)) == len(lines)


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
any_force = st.builds(Force, st.tuples(small_fractions, small_fractions,
                                      small_fractions))


@st.composite
def with_vanishing_subset(draw):
    """Forces one of whose proper subsets sums to zero, in shuffled order."""
    base = draw(st.lists(any_force, min_size=2, max_size=7))
    subset = draw(st.lists(st.sampled_from(range(len(base))), min_size=1,
                           max_size=len(base) - 1, unique=True))
    total = ZERO_FORCE
    for i in subset:
        total = total + base[i]
    return draw(st.permutations(base + [-total]))


@st.composite
def with_equal_partial_sum_lines(draw):
    """F1, A, t(F1 + A), ...: the partial sums F1 + A and F1 + A + t(F1 + A)
    share a line whenever t is not 0 or -1."""
    first, a = draw(any_force), draw(any_force)
    t = draw(small_fractions.filter(lambda x: x not in (0, -1)))
    rest = draw(st.lists(any_force, max_size=5))
    return [first] + draw(st.permutations([a, (first + a).scaled(t)] + rest))


def _outcome(test, forces):
    try:
        return test(forces)
    except GeometryError:
        return GeometryError


@given(st.one_of(st.lists(any_force, min_size=3, max_size=8),
                 with_vanishing_subset(), with_equal_partial_sum_lines()))
@settings(max_examples=300, deadline=None)
def test_integer_subset_tests_match_fraction_reference(forces):
    ints = integer_forces(forces)
    assert (_outcome(nonvanishing_proper_subsets, ints)
            == _outcome(reference_nonvanishing_proper_subsets, forces))
    assert (_outcome(partial_sum_lines_distinct, ints)
            == _outcome(reference_partial_sum_lines_distinct, forces))


def reference_star(forces) -> bool:
    """The per-vertex test `is_non_parallelizable` ran inline before
    `non_parallelizable_star`; kept verbatim as the reference."""
    if any(f.is_zero() for f in forces):
        return False
    if not nonvanishing_proper_subsets(forces):
        return False
    if not partial_sum_lines_distinct(forces):
        return False
    return True


int_force = st.builds(Force, st.tuples(*[st.integers(-3, 3)] * 3))


@st.composite
def star_forces(draw):
    """1-8 integer forces, each new, zero, or a repeat or the opposite of an
    earlier one."""
    forces = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("new", "new", "zero", "repeat", "opposite")))
        if kind == "zero":
            forces.append(ZERO_FORCE)
        elif kind == "new" or not forces:
            forces.append(draw(int_force))
        else:
            f = draw(st.sampled_from(forces))
            forces.append(f if kind == "repeat" else -f)
    return forces


@given(star_forces())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_non_parallelizable_star_matches_two_step_test(forces):
    got = non_parallelizable_star(forces)
    assert got == reference_star(forces)
    if len(forces) >= 2:
        # the two subset tests alone, as `is_strongly_generic` ran them on
        # the three or more leaf forces of a scheme: a zero force is a
        # vanishing proper subset there
        assert got == (nonvanishing_proper_subsets(forces)
                       and partial_sum_lines_distinct(forces))


def test_integer_subset_tests_on_built_cases():
    f, g, h = Force((1, 2, 0)), Force((0, 1, Fraction(1, 3))), Force((5, -1, 2))
    assert nonvanishing_proper_subsets(integer_forces([f, g, h]))
    assert partial_sum_lines_distinct(integer_forces([f, g, h]))
    # a proper subset of four forces sums to zero
    assert not nonvanishing_proper_subsets(integer_forces([f, g, -(f + g), h]))
    # f + g and f + g + 2(f + g) span one line
    assert not partial_sum_lines_distinct(integer_forces([f, g, (f + g).scaled(2), h]))
    # the partial sum f + (-f) vanishes and has no line of force
    with pytest.raises(GeometryError):
        partial_sum_lines_distinct(integer_forces([f, -f, h]))


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=10),
       st.tuples(*[st.integers(-3, 3)] * 3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_proper_subset_sums_visit_every_proper_mask_once(vectors, start):
    """The blocks hold start plus the sum of each subset but the full one,
    by mask: the sums of the masks 0 .. 2^n - 2, in order, 2^8 to a block."""
    n = len(vectors)
    expected = [tuple(start[c] + sum(vectors[i][c] for i in range(n) if mask >> i & 1)
                      for c in range(3))
                for mask in range((1 << n) - 1)]
    blocks = list(_proper_subset_sums(start, vectors))
    assert [total for block in blocks for total in block] == expected
    assert all(len(block) <= 2 ** 8 for block in blocks)


@st.composite
def nonvanishing_inputs(draw):
    """1-12 int forces: random ones, or ones with a vanishing subset planted
    across the two halves that `nonvanishing_proper_subsets` splits them
    into, or an equilibrium (the full set vanishes), or one force, zero or
    not, or two opposite forces."""
    kind = draw(st.sampled_from(("random", "straddling", "equilibrium", "one", "opposite")))
    if kind == "one":
        return [draw(st.sampled_from((ZERO_FORCE, Force((2, -1, 3)))))]
    if kind == "opposite":
        f = draw(int_force)
        return [f, -f]
    forces = draw(st.lists(int_force, min_size=2, max_size=12))
    n = len(forces)
    if kind == "straddling":
        # a subset with members in both halves, closed by its last member
        half = n // 2
        subset = sorted({draw(st.integers(0, half - 1)), draw(st.integers(half, n - 1))}
                        | set(draw(st.lists(st.integers(0, n - 1), max_size=n))))
        total = ZERO_FORCE
        for i in subset[:-1]:
            total = total + forces[i]
        forces[subset[-1]] = -total
    elif kind == "equilibrium":
        total = ZERO_FORCE
        for f in forces[:-1]:
            total = total + f
        forces[-1] = -total
    return forces


@given(nonvanishing_inputs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_meet_in_the_middle_matches_fraction_reference(forces):
    assert (nonvanishing_proper_subsets(forces)
            == reference_nonvanishing_proper_subsets(forces))


def test_meet_in_the_middle_finds_planted_subsets():
    """For every nonempty subset A of the left half, a subset A + B that
    vanishes, B a seeded nonempty subset of the right half: none goes
    unseen.  An equilibrium, where only the full set vanishes, passes."""
    rng = random.Random(26)
    for n in range(3, 13):
        half = n // 2
        base = [Force(tuple(rng.randint(-2 ** 20, 2 ** 20) for _ in range(3)))
                for _ in range(n)]
        assert nonvanishing_proper_subsets(base)
        balanced = base[:-1] + [-sum(base[:-1], ZERO_FORCE)]
        assert nonvanishing_proper_subsets(balanced)
        for a_mask in range(1, 1 << half):
            subset = [i for i in range(half) if a_mask >> i & 1]
            subset += sorted(rng.sample(range(half, n), rng.randint(1, n - half)))
            if len(subset) == n:
                continue
            forces = list(base)
            forces[subset[-1]] = -sum((base[i] for i in subset[:-1]), ZERO_FORCE)
            assert not nonvanishing_proper_subsets(forces), subset


def test_partial_sum_lines_on_float_key_edge_cases():
    big = 2 ** 60
    # F1 and F1 + F2 are distinct lines with equal float keys
    assert big / 1 == (big + 1) / 1
    forces = [Force((big, 0, 1)), Force((1, 0, 0)), Force((0, 1, 0))]
    assert partial_sum_lines_distinct(forces)
    assert reference_partial_sum_lines_distinct(forces)
    # F1 + F2 = 3 F1: one line given by two proportional triples, for each
    # way a key is made (z != 0, z = 0, y = z = 0)
    for first in ((3, 5, 7), (3, 5, 0), (3, 0, 0)):
        forces = [Force(first), Force(tuple(2 * x for x in first)), Force((1, 1, 1))]
        assert not partial_sum_lines_distinct(forces)
        assert not reference_partial_sum_lines_distinct(forces)
    # ratios beyond the float range take the exact key
    huge = 2 ** 1100
    with pytest.raises(OverflowError):
        huge / 1
    for second, distinct in (((1, 0, 0), True), ((huge, 1, 1), False)):
        forces = [Force((huge, 1, 1)), Force(second), Force((0, 1, 0))]
        assert partial_sum_lines_distinct(forces) is distinct
        assert reference_partial_sum_lines_distinct(forces) is distinct


def test_subset_sums_are_streamed():
    """16 forces with 40-bit entries and no vanishing subset: meet in the
    middle keeps the subset sums of the two halves, 2 * 2^8 of them, and
    not the 65,534 proper ones (a list of those took about 11 MiB)."""
    rng = random.Random(40)
    forces = [Force(tuple(rng.randint(-2 ** 40, 2 ** 40) for _ in range(3)))
              for _ in range(16)]
    tracemalloc.start()
    try:
        assert nonvanishing_proper_subsets(forces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
