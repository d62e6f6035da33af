"""Homogeneous points and lines, forces as 2-forms, and the four geometric
operations with their three relations.

Points and lines are triples of exact rationals up to nonzero scale; we store
the canonical representative (coprime integers, first nonzero entry positive:
`numeric.primitive_triple`) so that equality and hashing are structural.  A
triple read from JSON literals is cleared to integers with one lcm of its
denominators before it is made canonical, and builds no Fraction; a triple
with Fraction entries is cleared the same way at construction.  The triples
the library computes (meets, joins, seeded picks and the affine, Desargues
and Pascal draws) are built from ints.  A point lies on a line iff the dot
product of the triples vanishes; the meet of two lines and the join of two
points are both cross products, and a zero cross product means the two
canonical triples are equal.

A force is a decomposable 2-form on R^3 stored through its Hodge dual: the
dual of d(p) ^ d(q) is cross(p, q).  With that encoding force addition is
componentwise, the line of a nonzero force has exactly the dual triple as
coefficients, and the chart vector of a force (its interior product with the
chart's constant field V) is dual x V.  Unlike points and lines, forces keep
their scale.

Geometric computations may collapse to the absorbing ``TRUE`` token (meet of
equal lines, join of equal points); every operation and relation propagates
it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GeometryError, InputError, PreconditionError
from .numeric import clear_denominators, primitive_triple, scalar_from_string


def _canonical_triple(triple):
    """`primitive_triple` of a nonzero triple of ints; a triple with
    Fraction entries is cleared to ints first (math.gcd refuses them)."""
    try:
        a, b, c = triple
    except ValueError:
        raise InputError("homogeneous triples have exactly 3 entries") from None
    if not (a or b or c):
        raise GeometryError("zero triple is not a projective element")
    try:
        return primitive_triple(a, b, c)
    except TypeError:
        return primitive_triple(*clear_denominators((a, b, c)))


def _triple_from_strings(strings):
    """Integer triple of an input triple, a list of three literals, its
    denominators cleared by their lcm.  A zero triple is malformed input
    here (InputError); computed ones raise GeometryError."""
    if not isinstance(strings, list) or len(strings) != 3:
        raise InputError(f"a triple is a list of three rational literals, got {strings!r}")
    (a, p), (b, q), (c, r) = map(scalar_from_string, strings)
    if not (a or b or c):
        raise InputError("zero triple is not a projective element")
    den = lcm(p, q, r)
    return a * (den // p), b * (den // q), c * (den // r)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass(frozen=True)
class ProjPoint:
    """Point of the rational projective plane, canonical homogeneous triple."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", _canonical_triple(coords))

    @classmethod
    def from_strings(cls, strings):
        return cls(_triple_from_strings(strings))

    def to_strings(self):
        return [str(c) for c in self.coords]

    def __repr__(self):
        return "({}:{}:{})".format(*self.coords)


@dataclass(frozen=True)
class ProjLine:
    """Line of the rational projective plane, canonical coefficient triple."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _canonical_triple(coeffs))

    @classmethod
    def from_strings(cls, strings):
        return cls(_triple_from_strings(strings))

    def to_strings(self):
        return [str(c) for c in self.coeffs]

    def contains(self, p: ProjPoint) -> bool:
        return _dot(self.coeffs, p.coords) == 0

    def __repr__(self):
        return "[{}:{}:{}]".format(*self.coeffs)


class TrueToken:
    """Absorbing result of degenerate meets/joins; compares equal to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TRUE"


TRUE = TrueToken()

# A GeomValue is a ProjPoint, a ProjLine, or TRUE.


def meet(a, b):
    """Intersection point of two lines; TRUE if they coincide or either
    argument is TRUE."""
    if a is TRUE or b is TRUE:
        return TRUE
    if not isinstance(a, ProjLine) or not isinstance(b, ProjLine):
        raise InputError("meet expects lines or TRUE")
    x, y, z = _cross(a.coeffs, b.coeffs)
    if not (x or y or z):  # canonical triples: the lines are equal
        return TRUE
    return ProjPoint((x, y, z))


def join(a, b):
    """Line through two points; TRUE if they coincide or either is TRUE."""
    if a is TRUE or b is TRUE:
        return TRUE
    if not isinstance(a, ProjPoint) or not isinstance(b, ProjPoint):
        raise InputError("join expects points or TRUE")
    x, y, z = _cross(a.coords, b.coords)
    if not (x or y or z):  # canonical triples: the points are equal
        return TRUE
    return ProjLine((x, y, z))


def rel_concurrent(l1, l2, l3) -> bool:
    """Three lines share a common point (TRUE absorbs to a true verdict)."""
    args = (l1, l2, l3)
    if any(a is TRUE for a in args):
        return True
    if not all(isinstance(a, ProjLine) for a in args):
        raise InputError("concurrency relation expects lines or TRUE")
    return _dot(_cross(l1.coeffs, l2.coeffs), l3.coeffs) == 0


def rel_collinear(p1, p2, p3) -> bool:
    """Three points lie on a common line (TRUE absorbs)."""
    args = (p1, p2, p3)
    if any(a is TRUE for a in args):
        return True
    if not all(isinstance(a, ProjPoint) for a in args):
        raise InputError("collinearity relation expects points or TRUE")
    return _dot(_cross(p1.coords, p2.coords), p3.coords) == 0


def rel_incident(p, l) -> bool:
    """Point lies on line (TRUE absorbs)."""
    if p is TRUE or l is TRUE:
        return True
    if not isinstance(p, ProjPoint) or not isinstance(l, ProjLine):
        raise InputError("incidence relation expects a point and a line")
    return l.contains(p)


@dataclass(frozen=True)
class Force:
    """Force on the projective plane: Hodge dual of a decomposable 2-form.

    ``dual`` is a triple of exact scalars kept as given; forces add
    componentwise and keep scale, and sums, negations and multiples keep the
    entries' type.  The library builds one kind of force-load, in ints: the
    oracle's (`framework.forceload_from_stress`), the resolution schemes'
    (`resolution.scheme_forceload`) and the quantization's
    (`quantization.construct_forceload`) are each a positive multiple of the
    exact rational load, which changes no line of force and no subset test.
    """

    dual: tuple

    def __init__(self, dual):
        dual = tuple(dual)
        if len(dual) != 3:
            raise InputError("force duals have exactly 3 entries")
        object.__setattr__(self, "dual", dual)

    def is_zero(self) -> bool:
        return not any(self.dual)

    def __add__(self, other: "Force") -> "Force":
        a, b = self.dual, other.dual
        return Force((a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def __neg__(self) -> "Force":
        a = self.dual
        return Force((-a[0], -a[1], -a[2]))

    def scaled(self, k) -> "Force":
        a = self.dual
        return Force((k * a[0], k * a[1], k * a[2]))

    def __repr__(self):
        return "Force({}, {}, {})".format(*map(str, self.dual))


ZERO_FORCE = Force((0, 0, 0))


def line_of_force(f: Force) -> ProjLine:
    if f.is_zero():
        raise GeometryError("zero force has no line of force")
    return ProjLine(f.dual)


@dataclass(frozen=True)
class AffineChart:
    """Affine chart determined by its line at infinity A1 x + A2 y + A3 z = 0.

    The constant field V has components (A1, A2, A3).
    """

    infinity_line: ProjLine

    @classmethod
    def standard(cls) -> "AffineChart":
        return cls(ProjLine((0, 0, 1)))

    @property
    def field(self):
        return self.infinity_line.coeffs

    def axes(self):
        """(drop, keep): the first coordinate where V is nonzero, and the two
        other coordinates, which serve as the chart's affine coordinates."""
        drop = next(i for i in range(3) if self.field[i] != 0)
        return drop, [i for i in range(3) if i != drop]


def _orthogonal_triples(t):
    """The nonzero ones of (b,-a,0), (c,0,-a), (0,c,-b) for t = (a, b, c).

    Each is orthogonal to t: as points they lie on the line t, as lines they
    pass through the point t.  The cross product of any two of them is a
    coordinate of t times t, so a pair is independent iff that coordinate is
    nonzero.
    """
    a, b, c = t
    return [u for u in ((b, -a, 0), (c, 0, -a), (0, c, -b)) if any(u)]


def _independent_pair(t, degenerate: str):
    """First independent pair of `_orthogonal_triples(t)`."""
    keep = _orthogonal_triples(t)
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            if any(_cross(keep[i], keep[j])):
                return keep[i], keep[j]
    raise GeometryError(degenerate)  # unreachable for nonzero t


def random_fraction(rng: random.Random, bound: int) -> Fraction:
    """Seeded rational p/q with |p| <= bound and 1 <= q <= bound."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_line_avoiding(points, seed: int) -> ProjLine:
    """Seeded line through none of the given points: the first nonzero
    coefficient triple, drawn uniformly from [-999, 999]^3, that qualifies."""
    coords = [p.coords for p in points]
    rng = random.Random(seed)
    while True:
        coeffs = tuple(rng.randint(-999, 999) for _ in range(3))
        if any(coeffs) and all(_dot(coeffs, q) != 0 for q in coords):
            return ProjLine(coeffs)


def sub_seed(seed: int, text: str) -> int:
    """Seed derived from a seed and a text, stable across processes (the
    builtin hash is randomized per process)."""
    digest = zlib.crc32(text.encode("utf-8"))
    return (seed * 0x9E3779B1 + digest) & 0x7FFFFFFF


def _pick_in_pencil(kind, triple, avoid, seed: int, degenerate: str):
    """Seeded `kind` (ProjPoint or ProjLine) orthogonal to `triple` and
    outside `avoid`: b1 + (p/q) b2 for a seeded rational p/q (p drawn first,
    as by `random_fraction`), built as the integer triple q b1 + p b2, with
    b1, b2 the canonical forms of the first independent pair of
    `_orthogonal_triples`."""
    (x1, y1, z1), (x2, y2, z2) = (primitive_triple(*u)
                                  for u in _independent_pair(triple, degenerate))
    avoid = set(avoid)
    rng = random.Random(seed)
    while True:
        p = rng.randint(-999, 999)
        q = rng.randint(1, 999)
        cand = kind((q * x1 + p * x2, q * y1 + p * y2, q * z1 + p * z2))
        if cand not in avoid:
            return cand


def pick_generic_point_on(l: ProjLine, avoid, seed: int) -> ProjPoint:
    """Deterministic pseudo-random rational point on l outside `avoid`.

    Draws b1 + t b2 for seeded rational t and rejects until the point misses
    the (finite) avoid set; the same seed always yields the same point.
    """
    return _pick_in_pencil(ProjPoint, l.coeffs, avoid, seed, "degenerate line")


def pick_generic_line_through(p: ProjPoint, avoid, seed: int) -> ProjLine:
    """Dual of pick_generic_point_on: seeded line through p outside `avoid`."""
    return _pick_in_pencil(ProjLine, p.coords, avoid, seed, "degenerate point")


#: Most vectors one subset enumeration takes, and so the highest vertex
#: degree the subset tests accept.  The vanishing-subset test makes
#: 2 * 2^(deg/2) sums, but the partial-sum line test still keys all
#: 2^(deg-1) - 1 of its sums, so its time and the keys it keeps double with
#: each added vector: one in-process `check --timings` run on
#: `random_placement(wheel16, 1, bound=60)` takes 0.08-0.14 s and 28 MB of
#: peak RSS (Python 3.11, 2-core x86), half of it in the oracle and half in
#: the quantization.  With the limit raised, 18 spokes took 0.52 s and 44 MB,
#: and 20 spokes 1.9 s and 117 MB.
MAX_SUBSET_DEGREE = 16


def _check_subset_degree(vectors):
    if len(vectors) > MAX_SUBSET_DEGREE:
        raise PreconditionError(
            f"subset enumeration over {len(vectors)} forces exceeds"
            f" MAX_SUBSET_DEGREE = {MAX_SUBSET_DEGREE}")


def _subset_sums(start, vectors):
    """start plus the sum of each subset of `vectors`, as a list indexed by
    mask: bit i of the index says whether vectors[i] is in the subset."""
    sums = [start]
    for a, b, c in vectors:
        sums += [(x + a, y + b, z + c) for x, y, z in sums]
    return sums


def _proper_subset_sums(start, vectors):
    """Yield start plus the sum of each proper subset of `vectors`, by mask
    from the empty one, in blocks of at most 2^8 sums: the sums over the
    first 8 vectors, then those sums plus each further nonempty subset sum
    of the others.  One block is kept at a time.  More than
    MAX_SUBSET_DEGREE vectors raise PreconditionError."""
    _check_subset_degree(vectors)
    first = block = _subset_sums(start, vectors[:8])
    for a, b, c in _subset_sums((0, 0, 0), vectors[8:])[1:]:
        yield block
        block = [(x + a, y + b, z + c) for x, y, z in first]
    yield block[:-1]


def nonvanishing_proper_subsets(forces) -> bool:
    """True iff no proper nonempty 0/1-combination of the forces vanishes.

    Meet in the middle (Horowitz & Sahni, J. ACM 21, 1974): a subset is a
    pair (A, B) of subsets of the two halves of the forces, and it vanishes
    iff sum(A) = -sum(B), so the subset sums of each half, 2 * 2^(s/2) of
    them, decide it.  The pair (empty, empty) is not proper, nor is (full,
    full); every other pair is.  More than MAX_SUBSET_DEGREE forces raise
    PreconditionError.
    """
    duals = [f.dual for f in forces]
    _check_subset_degree(duals)
    if len(duals) < 2:  # no proper nonempty subset
        return True
    half = len(duals) // 2
    left = _subset_sums((0, 0, 0), duals[:half])
    right = _subset_sums((0, 0, 0), duals[half:])
    # (empty, B) is proper for B nonempty, (full, B) for B not full
    x, y, z = left[-1]
    if (0, 0, 0) in right[1:] or (-x, -y, -z) in right[:-1]:
        return False
    rights = set(right)
    for x, y, z in left[1:-1]:
        if (-x, -y, -z) in rights:
            return False
    return True


def partial_sum_lines_distinct(forces) -> bool:
    """True iff the 2^(s-1) - 1 lines of F1 + sum(a_i F_i, i >= 2) over all
    proper 0/1-tuples (a_2..a_s) are pairwise distinct.

    Assumes no proper nonempty subset vanishes, so every partial sum has a
    line of force; a vanishing partial sum raises GeometryError, whether or
    not two lines coincide.  The duals are ints, as in every load the
    library builds.

    Each sum (x, y, z) is keyed by its float ratios (x/z, y/z), or x/y when
    z = 0.  CPython's int/int true division is correctly rounded, so
    proportional triples get equal keys, and sums with distinct keys have
    distinct lines.  Only when two sums share a key are the lines compared
    exactly, as `primitive_triple`s; so is a sum whose ratio overflows a
    float.
    """
    duals = [f.dual for f in forces]
    keys = set()
    count = 0
    for block in _proper_subset_sums(duals[0], duals[1:]):
        count += len(block)
        for x, y, z in block:
            try:
                if z:
                    key = (x / z, y / z)
                elif y:
                    key = x / y
                elif x:
                    key = None
                else:
                    raise GeometryError("zero force has no line of force")
            except OverflowError:
                key = primitive_triple(x, y, z)
            keys.add(key)
    if len(keys) == count:
        return True
    lines = {primitive_triple(*total)
             for block in _proper_subset_sums(duals[0], duals[1:]) for total in block}
    return len(lines) == count


def non_parallelizable_star(forces) -> bool:
    """The forces at one point are non-parallelizable: none is zero, no
    proper nonempty 0/1-combination vanishes, and the 2^(s-1) - 1 lines of
    F1 + sum(a_i F_i, i >= 2), (a_2..a_s) != (1..1), are pairwise distinct."""
    return ((0, 0, 0) not in [f.dual for f in forces]
            and nonvanishing_proper_subsets(forces)
            and partial_sum_lines_distinct(forces))
