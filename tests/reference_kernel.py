"""Reference elimination kernel of the tests: the dense one-step Bareiss
row reduction that `tensec._kernel.echelon_int` replaced, kept verbatim
apart from this docstring.

Fraction-free (Bareiss, Math. Comp. 22, 1968) row reduction over Python
integers.  The one-step recurrence keeps every intermediate entry equal to a
minor determinant of the input, so the division by the previous pivot is
always exact.  It shares no code with the library's sparse kernel:
`reference_oracle.reference_nullspace_basis` runs it, so the tests compare
the library's null spaces with those of an independent elimination.
"""


def echelon_int(rows, ncols):
    """Reduce an integer matrix to row echelon form, fraction-free.

    `rows` is a list of length-`ncols` lists of ints; it is not modified.
    Returns `(reduced, pivot_cols)` where `reduced` is in echelon form with
    integer entries and `pivot_cols` lists the pivot column of each nonzero
    row in order.  Row order below the pivots is deterministic: the first
    row with a nonzero entry in the current column is swapped up.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            f = row_i[c]
            for j in range(c, ncols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
        prev = pivot
        pivots.append(c)
        r += 1
    return m, pivots
