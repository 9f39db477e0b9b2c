"""Seeded random arrangements in general position.

Draws small-integer normals and small-rational offsets until every d+1
of the homogenized forms (including the form at infinity) are linearly
independent.  That is exactly uniformity of the realized oriented
matroid: a realizable oriented matroid is uniform iff every rank-sized
subset of its vectors is a basis (Bjorner, Las Vergnas, Sturmfels,
White & Ziegler, *Oriented Matroids*).  So no covector is enumerated
here.  The test walks the d-subsets of the forms depth first, as the
cocircuits do (`realization._cofactor_walk`): each prefix's exterior
product is shared by the subsets that extend it, and every later form
must have a nonzero determinant with each d-subset.  The form at
infinity goes first, and the walk stops at the first dependent subset,
so a rejected draw usually costs a few wedges, and only the accepted
draw becomes an `Arrangement`.  The draw is deterministic in the seed,
so a (seed, n, d) triple names a reproducible test instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from .errors import DomainError, ResourceExhausted
from .realization import Arrangement, _cofactor_walk

_COEFF = 5  # normals are drawn from {-5..5}^d, zero vector redrawn
_OFFSET_NUM = 6  # offsets are num/den with |num| <= 6, den in {1,2,3}


def _every_subset_a_basis(forms, k: int) -> bool:
    """Is every k-subset of the forms (rows of k integers, at least k of
    them) a basis?  Each k-subset is a (k-1)-subset, with cofactor
    vector x, plus a later form f, and it is a basis iff
    f.x = det(f, subset) != 0.  A dependent prefix lies in some
    k-subset, so it answers no at once."""
    for i, x in _cofactor_walk(forms, k):
        if x is None or not all(sum(map(mul, f, x)) for f in forms[i + 1:]):
            return False
    return True


def _general_position(A: Arrangement) -> bool:
    """Every d+1 homogenized forms independent, i.e. every rank-sized
    subset is a basis; for a realized oriented matroid this holds iff
    it is uniform, so the test decides uniformity without enumerating
    covectors."""
    t = (0,) * A.dim + (1,)
    return _every_subset_a_basis((t,) + A.rows, A.dim + 1)


def generate_arrangement(
    n: int, d: int, seed: int = 0, max_tries: int = 200
) -> Arrangement:
    """A uniform arrangement of n hyperplanes in dimension d, labels
    h1..hn, deterministic in the seed.

    Requires n >= d + 1 so that the bounded complex is nonempty.  Raises
    ResourceExhausted if max_tries draws all land in special position
    (essentially impossible for the default coefficient ranges).
    """
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    if n < d + 1:
        raise DomainError(
            f"need at least d+1 = {d + 1} hyperplanes for a nonempty "
            f"bounded complex, got n = {n}"
        )
    rng = random.Random(seed)
    t = (0,) * d + (1,)
    for _ in range(max_tries):
        normals = []
        for _ in range(n):
            v = tuple(rng.randint(-_COEFF, _COEFF) for _ in range(d))
            while not any(v):
                v = tuple(rng.randint(-_COEFF, _COEFF) for _ in range(d))
            normals.append(v)
        offsets = [
            (rng.randint(-_OFFSET_NUM, _OFFSET_NUM), rng.randint(1, 3))
            for _ in range(n)
        ]
        # a . x = num/den homogenizes to (den * a, -num), up to scale
        forms = [t] + [
            tuple(den * c for c in a) + (-num,)
            for a, (num, den) in zip(normals, offsets)
        ]
        if _every_subset_a_basis(forms, d + 1):
            return Arrangement(
                dim=d,
                labels=tuple(f"h{i + 1}" for i in range(n)),
                normals=tuple(normals),
                offsets=tuple(Fraction(num, den) for num, den in offsets),
            )
    raise ResourceExhausted(
        f"no uniform arrangement found in {max_tries} draws "
        f"(seed {seed}, n {n}, d {d})"
    )
