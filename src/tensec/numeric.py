"""Exact rational scalars and the exact null space.

An input literal "p" or "p/q" is read as two ints (``scalar_from_string``),
and a triple of them is cleared to integers with one lcm of its
denominators where it is first read, so no input builds a Fraction; the
library computes in ints from there on.  ``clear_denominators`` clears
rationals (ints or Fractions) the same way.
``nullspace_basis`` takes integer rows and runs the sparse, fraction-free
integer elimination of ``tensec._kernel``, which is pure Python; its
back-substitution stays in the integers too, and it returns the canonical
null vectors as int tuples.  The library builds one system, the oracle's
rigidity system, column-scaled from the integer point triples; the
framed-cycle equilibrium system, built from the integer line triples, is
the tests' lemma code (`tests/lemmas.py`).  ``primitive_triple`` is
the normal form of an integer triple up to scale (one gcd, a sign, at most
three exact divisions): every projective point and line is stored in it,
and the meets, joins, seeded picks and subset-sum lines on the ``check``
and ``verify`` paths are integer triples.  ``primitive`` is the same normal
form for integer vectors of any length, for null-space bases.

All JSON interfaces serialize rationals as strings ``"p/q"`` or ``"p"``.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from . import _kernel
from .errors import InputError


#: A rational literal: optional sign, decimal digits, optional "/" and
#: digits.  Decimals, exponents and underscores are refused: "1e10000000"
#: alone would expand to ten million digits.
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)


def scalar_from_string(text: str) -> tuple:
    """Read a rational literal "p" or "p/q" as the ints (p, q), not reduced;
    q is 1 for "p" and never zero.  Surrounding whitespace is ignored."""
    if not isinstance(text, str):
        raise InputError(f"rational literals are strings, got {text!r}")
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise InputError(f"bad rational literal {text!r}: expected p or p/q")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # past the interpreter's int-from-str digit limit
        raise InputError(f"bad rational literal {text!r}: {exc}") from exc
    if not den:
        raise InputError(f"bad rational literal {text!r}: zero denominator")
    return num, den


def clear_denominators(values):
    """The rationals (ints or Fractions) times the lcm of their
    denominators, as a list of ints."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values]


def primitive_triple(a: int, b: int, c: int) -> tuple:
    """Normal form of an integer triple up to nonzero scale: divide by the
    gcd and make the first nonzero entry positive.  A zero triple stays
    zero."""
    g = gcd(a, b, c)
    if (a or b or c) < 0:
        g = -g
    if g == 1 or not g:
        return (a, b, c)
    return (a // g, b // g, c // g)


def primitive(values):
    """Normal form of an integer vector up to nonzero scale: divide by the
    gcd, make the first nonzero entry positive.

    Returns a tuple of ints; a zero vector stays zero.
    """
    g = gcd(*values)
    if next(filter(None, values), 0) < 0:
        g = -g
    if g == 1 or not g:
        return tuple(values)
    return tuple([v // g for v in values])


def nullspace_basis(rows, ncols: int):
    """Exact basis of {x : rows x = 0} for integer `rows` of length `ncols`.

    The rows are reduced by the sparse fraction-free kernel, whose pivot
    columns, and so the basis below, do not depend on the order of
    elimination.  Back-substitution is fraction-free as well: x stays an
    integer vector, and before a pivot entry is solved the whole of x is
    scaled by pivot / gcd(pivot, sum), so the division is exact.  Returns a
    list of int tuples, each the `primitive` null vector that is zero on
    every other free column of the echelon form, one per free column; empty
    iff the kernel is trivial.  No rows give the full standard basis.
    """
    reduced, pivots = _kernel.echelon_int(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        x = [0] * ncols
        x[fc] = 1
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = reduced[r]
            s = sum(row[j] * x[j] for j in range(pc + 1, ncols) if x[j])
            if s:
                p = row[pc]
                g = gcd(s, p)
                k = p // g
                if k != 1:
                    x = [k * v for v in x]
                x[pc] = -(s // g)
        basis.append(primitive(x))
    return basis
