"""Seeded random placements of a graph, the samples `verify` draws.

`random_placement` puts the vertices at random affine points; the
Desargues-concurrent and Pascal-conic placements put the two fixture graphs
on their special varieties.  Rational draws are bounded (numerators and
denominators up to the `bound` of `random_placement`, which is 60 in
`verify`, and up to 60 or 30 in the special placements) to keep
exact-arithmetic growth in check.  Every generator threads an explicit
seed; generation is deterministic per (seed, arguments).
"""

from __future__ import annotations

import random

from .errors import GeometryError
from .framework import Framework, Graph
from .projective import (ProjLine, ProjPoint, _orthogonal_triples, join,
                         random_fraction)


def random_affine_point(rng: random.Random, bound: int) -> ProjPoint:
    """The affine point (p1/q1, p2/q2) of two `random_fraction` draws, built
    as the integer triple (p1 q2, p2 q1, q1 q2)."""
    p1, q1 = rng.randint(-bound, bound), rng.randint(1, bound)
    p2, q2 = rng.randint(-bound, bound), rng.randint(1, bound)
    return ProjPoint((p1 * q2, p2 * q1, q1 * q2))


def random_placement(g: Graph, seed: int, bound: int) -> Framework:
    """Random affine placement with pairwise distinct points."""
    rng = random.Random(seed)
    while True:
        try:
            return Framework(g, {v: random_affine_point(rng, bound)
                                 for v in g.vertices})
        except GeometryError:
            continue


def desargues_concurrent_placement(g: Graph, seed: int) -> Framework:
    """Placement of the prism fixture graph with the three rung lines
    (p1p2, p3p4, p5p6) concurrent at a random point."""
    rng = random.Random(seed)
    while True:
        center = random_affine_point(rng, 60)
        lines = []
        while len(lines) < 3:
            q = random_affine_point(rng, 60)
            if q == center:
                continue
            l = join(center, q)
            if l not in lines:
                lines.append(l)
        placement = {}
        ok = True
        used = {center}
        for (a, b), l in zip((("p1", "p2"), ("p3", "p4"), ("p5", "p6")), lines):
            direction = _direction(l, center)
            pts = []
            guard = 0
            while len(pts) < 2 and guard < 40:
                guard += 1
                # center + (p/q) dir for a `random_fraction` draw p/q
                p, q = rng.randint(-60, 60), rng.randint(1, 60)
                cand = ProjPoint(tuple(q * x + p * y
                                       for x, y in zip(center.coords, direction)))
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


def _direction(l: ProjLine, through: ProjPoint):
    """A second point on l distinct from `through`."""
    for cand in _orthogonal_triples(l.coeffs):
        if ProjPoint(cand) != through:
            return cand
    raise GeometryError("degenerate line")


def pascal_conic_placement(g: Graph, seed: int) -> Framework:
    """Placement of the hexagon fixture graph on a random parabola
    y = a x^2 + b x + c, from `random_fraction` draws of a, b, c and six
    distinct x.  With D the product of the denominators of a, b and c, and
    A, B, C = aD, bD, cD, the point at x = p/q is the integer triple
    (p q D, A p^2 + B p q + C q^2, q^2 D)."""
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
        d = a.denominator * b.denominator * c.denominator
        A, B, C = (k.numerator * (d // k.denominator) for k in (a, b, c))
        placement = {}
        for i, x in enumerate(sorted(xs)):
            p, q = x.numerator, x.denominator
            placement[f"p{i + 1}"] = ProjPoint(
                (p * q * d, A * p * p + B * p * q + C * q * q, q * q * d))
        try:
            return Framework(g, placement)
        except GeometryError:
            continue
