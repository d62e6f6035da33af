"""Integer elimination kernel.

Sparse, fraction-free row reduction over Python integers, the one
elimination routine behind :mod:`tensec.numeric`.

Rows are read one at a time, each as a ``{column: entry}`` dict of its
nonzero entries, and reduced against the pivot rows stored so far.  While
the row's leading column c is the pivot column of a stored row p, the row
becomes (p[c] / g) row - (row[c] / g) p with g = gcd(p[c], row[c]): an
integer combination that cancels column c and, since p is zero before c,
touches no earlier column.  A row whose leading column has no pivot yet is
divided by its content (the gcd of its entries) and stored as that
column's pivot row; a row that cancels to nothing depends on the rows read
before it.  Reading stops once every column has a pivot.

A rigidity column has four nonzeros, so a row meets only the few pivot rows
that share its columns, where a dense elimination updates every row below
every pivot; the content division keeps the stored entries short.

The kernel reads the rows in the order it is given, and the caller chooses
that order.  The result's pivot columns do not depend on it, but the fill-in
and the size of the entries do: the oracle's rigidity rows of GP(300,7),
read in the order of its sorted vertex ids, grow entries of 11,719 bits,
and read in reversed breadth-first order (`framework.self_stress_basis`)
902.
"""

from itertools import compress
from math import gcd


def echelon_int(rows, ncols):
    """Reduce an integer matrix to row echelon form, fraction-free.

    `rows` is a list of length-`ncols` lists of ints; it is not modified.
    Returns `(reduced, pivot_cols)`: `pivot_cols` lists the pivot columns in
    increasing order, and `reduced` holds one length-`ncols` int list per
    pivot, in the same order, zero before its pivot column and nonzero on
    it.  A stored row is not cleared on the pivot columns after its own.
    The pivot columns are the columns that are no combination of the
    columns before them, whatever the order of elimination.
    """
    pivot_rows = {}
    for row in rows:
        v = dict(compress(enumerate(row), row))
        while v:
            c = min(v)
            b = v.pop(c)
            pivot = pivot_rows.get(c)
            if pivot is None:
                g = gcd(b, *v.values())
                pivot_rows[c] = (b // g, [(j, x // g) for j, x in v.items()])
                break
            a, tail = pivot
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                for j in v:
                    v[j] *= a
            for j, x in tail:
                y = v.get(j, 0) - b * x
                if y:
                    v[j] = y
                else:
                    del v[j]
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    reduced = []
    for c in pivots:
        dense = [0] * ncols
        dense[c], tail = pivot_rows[c]
        for j, x in tail:
            dense[j] = x
        reduced.append(dense)
    return reduced, pivots
