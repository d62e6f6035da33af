"""Rational references of the tests: the Fraction formulas that the integer
normal form, picks and draws replaced, and the slot witness from the
Fraction force-load.

`reference_primitive` is `numeric.primitive` before the triple normal form
(clear denominators, one gcd over a list, sign of the first nonzero entry).
`reference_pick_generic_point_on` and `reference_pick_generic_line_through`
build b1 + t b2 for a seeded Fraction t = p/q, with p and q read from
`reference_splitmix64`, a SplitMix64 written out here rather than imported,
so that a change to the library's stream shows.  The picks reach no report,
so the library draws them from SplitMix64, which costs far less than
seeding a `random.Random`.  `reference_random_affine_point`,
`reference_random_placement`, `reference_desargues_concurrent_placement`
and `reference_pascal_conic_placement` draw Fraction coordinates with
`random.Random`, as `verify`'s samplers do, since their draws are report
data; they are kept verbatim apart from the names.
`reference_slot_witness` derives the slot lines from
`forceload_from_stress`, not from its integer multiple.  The library builds
the same triples from integers with the same draws, and the tests require
equal results from both.
"""

import random
from fractions import Fraction
from math import gcd

from tensec.errors import GeometryError
from tensec.framework import Framework, forceload_from_stress
from tensec.numeric import clear_denominators
from tensec.projective import ProjLine, ProjPoint, _independent_pair, join
from tensec.quantization import quantization_from_stress
from tensec.sampling import _direction, random_fraction


def reference_primitive(values):
    """Normal form of a rational vector up to nonzero scale: clear
    denominators, divide by the gcd, make the first nonzero entry positive.

    Returns a tuple of ints; a zero vector stays zero.  Entries are read
    through ``numerator`` and ``denominator``, so an integer vector is never
    converted to Fractions.
    """
    ints = clear_denominators(values)
    g = gcd(*ints)
    if next(filter(None, ints), 0) < 0:
        g = -g
    if g == 1 or not g:
        return tuple(ints)
    return tuple([v // g for v in ints])


def reference_splitmix64(seed: int):
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the 64-bit outputs
    of the generator seeded with `seed` mod 2^64."""
    mask = 2 ** 64 - 1
    state = seed % 2 ** 64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _reference_pick_in_pencil(kind, triple, avoid, seed: int, degenerate: str):
    """Seeded `kind` (ProjPoint or ProjLine) orthogonal to `triple` and
    outside `avoid`: b1 + t b2 for seeded rational t, with b1, b2 the
    canonical forms of the first independent pair of `_orthogonal_triples`.
    Candidate i reads t = p/q from the i-th draw r of
    `reference_splitmix64(seed)`: p = r mod 1999 - 999 and
    q = (r div 1999) mod 999 + 1."""
    b1, b2 = (reference_primitive(u) for u in _independent_pair(triple, degenerate))
    avoid = set(avoid)
    for r in reference_splitmix64(seed):
        t = Fraction(r % 1999 - 999, (r // 1999) % 999 + 1)
        cand = kind(tuple(Fraction(x) + t * Fraction(y) for x, y in zip(b1, b2)))
        if cand not in avoid:
            return cand


def reference_pick_generic_point_on(l: ProjLine, avoid, seed: int) -> ProjPoint:
    return _reference_pick_in_pencil(ProjPoint, l.coeffs, avoid, seed,
                                     "degenerate line")


def reference_pick_generic_line_through(p: ProjPoint, avoid, seed: int) -> ProjLine:
    return _reference_pick_in_pencil(ProjLine, p.coords, avoid, seed,
                                     "degenerate point")


def reference_random_affine_point(rng: random.Random, bound: int) -> ProjPoint:
    return ProjPoint((random_fraction(rng, bound), random_fraction(rng, bound), 1))


def reference_random_placement(g, seed: int, bound: int) -> Framework:
    """Random affine placement with pairwise distinct points."""
    rng = random.Random(seed)
    while True:
        try:
            return Framework(g, {v: reference_random_affine_point(rng, bound)
                                 for v in g.vertices})
        except GeometryError:
            continue


def reference_desargues_concurrent_placement(g, seed: int) -> Framework:
    """Placement of the prism fixture graph with the three rung lines
    (p1p2, p3p4, p5p6) concurrent at a random point."""
    rng = random.Random(seed)
    while True:
        center = reference_random_affine_point(rng, 60)
        lines = []
        while len(lines) < 3:
            q = reference_random_affine_point(rng, 60)
            if q == center:
                continue
            l = join(center, q)
            if l not in lines:
                lines.append(l)
        placement = {}
        ok = True
        used = {center}
        for (a, b), l in zip((("p1", "p2"), ("p3", "p4"), ("p5", "p6")), lines):
            pts = []
            guard = 0
            while len(pts) < 2 and guard < 40:
                guard += 1
                t = random_fraction(rng, 60)
                cand = ProjPoint(tuple(Fraction(x) + t * Fraction(y)
                                       for x, y in zip(center.coords, _direction(l, center))))
                if cand not in used:
                    used.add(cand)
                    pts.append(cand)
            if len(pts) < 2:
                ok = False
                break
            placement[a], placement[b] = pts
        if not ok:
            continue
        try:
            return Framework(g, placement)
        except GeometryError:
            continue


def reference_pascal_conic_placement(g, seed: int) -> Framework:
    """Placement of the hexagon fixture graph on a random parabola."""
    rng = random.Random(seed)
    while True:
        a = random_fraction(rng, 30)
        if a == 0:
            continue
        b = random_fraction(rng, 30)
        c = random_fraction(rng, 30)
        xs = set()
        guard = 0
        while len(xs) < 6 and guard < 60:
            guard += 1
            xs.add(random_fraction(rng, 30))
        if len(xs) < 6:
            continue
        xs = sorted(xs)
        placement = {f"p{i + 1}": ProjPoint((x, a * x * x + b * x + c, 1))
                     for i, x in enumerate(xs)}
        try:
            return Framework(g, placement)
        except GeometryError:
            continue


def reference_slot_witness(system, fw, stress, chart):
    """Lines on the Xi slots: {} without slots, the quantization labels of
    the Fraction force-load of an oracle stress, and None without one."""
    if not system.slots:
        return {}
    if stress is None:
        return None
    return quantization_from_stress(fw, forceload_from_stress(fw, stress, chart),
                                    system.trees).interior_labels
