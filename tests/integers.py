"""Rational test inputs cleared to integers before they reach the library.

Past the reader the library computes in ints: `numeric.nullspace_basis`
takes integer rows, `numeric.primitive` an integer vector, and the subset
tests and `framework.is_non_parallelizable` read integer force duals.
Tests and references that build rationals clear them with
`numeric.clear_denominators`, the library's own clearing, or through it
here, each by a positive scale: a vector's denominators (`primitive` is a
normal form up to scale), a row's own (row scaling keeps the null space),
or one common denominator of all the forces (`_integer_duals`, kept
verbatim from `tensec.projective`).
"""

from tensec.framework import ForceLoad
from tensec.numeric import clear_denominators
from tensec.projective import Force


def integer_rows(rows):
    """Each rational row times the lcm of its own denominators."""
    return [clear_denominators(row) for row in rows]


def _integer_duals(forces):
    """Force duals times one common denominator, as integer triples.

    A common positive scale changes neither which subset sums vanish nor
    which lines they span.
    """
    ints = clear_denominators([x for f in forces for x in f.dual])
    return [tuple(ints[i:i + 3]) for i in range(0, len(ints), 3)]


def integer_forces(forces):
    """The forces times one common denominator, as int forces."""
    return [Force(dual) for dual in _integer_duals(forces)]


def integer_load(fl: ForceLoad) -> ForceLoad:
    """The force-load times one common denominator of all its forces."""
    pairs = list(fl.forces)
    return ForceLoad(zip(pairs, integer_forces([fl.forces[p] for p in pairs])))
