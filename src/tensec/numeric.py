"""Exact rational scalars and dense exact linear algebra.

Scalars are :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator).  Matrices are immutable grids of
Fractions.  ``nullspace_basis`` and ``solve_linear`` are exact; they clear
denominators and run the fraction-free (Bareiss) integer elimination of
``tensec._kernel``, which is pure Python.  ``primitive`` is the normal form
of a rational vector up to scale, shared by null-space bases and by
projective points and lines.

All JSON interfaces serialize rationals as strings ``"p/q"`` or ``"p"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _kernel
from .errors import GeometryError, InputError

Scalar = Fraction


def scalar_from_string(text: str) -> Fraction:
    """Parse a rational literal of the form "p" or "p/q"."""
    if not isinstance(text, str):
        raise InputError(f"rational literals are strings, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from exc


def scalar_to_string(value: Fraction) -> str:
    """Format a rational as "p" or "p/q" (lowest terms, positive denominator)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class ExactMatrix:
    """Immutable dense matrix of Fractions.

    `cols` may be given explicitly to represent matrices with zero rows.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        self.rows = len(entries)
        if entries:
            self.cols = len(entries[0])
        else:
            self.cols = 0 if cols is None else cols
        if cols is not None and entries and self.cols != cols:
            raise InputError("cols disagrees with the entries")
        if any(len(row) != self.cols for row in entries):
            raise InputError("ragged matrix")
        self.entries = entries

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise InputError("dimension mismatch")
        return tuple(sum((r[j] * vec[j] for j in range(self.cols)), Fraction(0))
                     for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExactMatrix({[list(map(str, r)) for r in self.entries]})"


def clear_denominators(values):
    """The rationals (ints or Fractions) times the lcm of their
    denominators, as a list of ints."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def primitive(values):
    """Normal form of a rational vector up to nonzero scale: clear
    denominators, divide by the gcd, make the first nonzero entry positive.

    Returns a tuple of ints; a zero vector stays zero.  Entries are read
    through ``numerator`` and ``denominator``, so an integer vector is never
    converted to Fractions.
    """
    ints = clear_denominators(values)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)


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


def _integer_rows(m: ExactMatrix):
    """Scale each row by the lcm of its denominators (row scaling does not
    change the null space or the solution set of m x = b when b is scaled
    alongside, which callers do by augmenting first)."""
    return [clear_denominators(row) for row in m.entries]


def _echelon(m: ExactMatrix):
    return _kernel.echelon_int(_integer_rows(m), m.cols)


def rank(m: ExactMatrix) -> int:
    return len(_echelon(m)[1])


def nullspace_basis(m: ExactMatrix):
    """Exact basis of {x : m x = 0}.

    Returns a list of vectors of Fractions (canonically scaled to coprime
    integers), one per free column of the echelon form; empty iff the
    kernel is trivial.  A matrix with zero rows has the full standard basis.
    """
    n = m.cols
    if m.rows == 0:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    reduced, pivots = _echelon(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = Fraction(0)
            for j in range(pc + 1, n):
                if x[j]:
                    s += Fraction(reduced[r][j]) * x[j]
            x[pc] = -s / reduced[r][pc]
        basis.append(tuple(Fraction(v) for v in primitive(x)))
    return basis


def solve_linear(m: ExactMatrix, b):
    """One exact solution of m x = b (free variables set to 0), or None if
    the system is inconsistent."""
    if len(b) != m.rows:
        raise InputError("right-hand side length mismatch")
    if m.rows == 0:
        return tuple(Fraction(0) for _ in range(m.cols))
    aug = ExactMatrix([list(row) + [b[i]] for i, row in enumerate(m.entries)])
    reduced, pivots = _echelon(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    n = m.cols
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = Fraction(reduced[r][n])
        for j in range(pc + 1, n):
            if x[j]:
                s -= Fraction(reduced[r][j]) * x[j]
        x[pc] = s / reduced[r][pc]
    return tuple(x)
