"""Seeded random arrangements in general position.

Draws small-integer normals and small-rational offsets until every d+1
of the homogenized forms (including the form at infinity) are linearly
independent.  That is exactly uniformity of the realized oriented
matroid: a realizable oriented matroid is uniform iff every rank-sized
subset of its vectors is a basis (Bjorner, Las Vergnas, Sturmfels,
White & Ziegler, *Oriented Matroids*).  So no covector is enumerated
here.  The draw is deterministic in the seed, so a (seed, n, d) triple
names a reproducible test instance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DomainError, ResourceExhausted
from .realization import Arrangement, _rank, homogenize

_COEFF = 5  # normals are drawn from {-5..5}^d, zero vector redrawn
_OFFSET_NUM = 6  # offsets are num/den with |num| <= 6, den in {1,2,3}


def _general_position(A: Arrangement) -> bool:
    """Every d+1 homogenized forms independent, i.e. every rank-sized
    subset is a basis; for a realized oriented matroid this holds iff
    it is uniform, so the test decides uniformity without enumerating
    covectors."""
    forms = homogenize(A).forms
    k = A.dim + 1
    return all(
        _rank(sub) == k for sub in itertools.combinations(forms, k)
    )


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
    labels = tuple(f"h{i + 1}" for i in range(n))
    for _ in range(max_tries):
        normals = []
        for _ in range(n):
            v = tuple(rng.randint(-_COEFF, _COEFF) for _ in range(d))
            while not any(v):
                v = tuple(rng.randint(-_COEFF, _COEFF) for _ in range(d))
            normals.append(v)
        offsets = tuple(
            Fraction(rng.randint(-_OFFSET_NUM, _OFFSET_NUM), rng.randint(1, 3))
            for _ in range(n)
        )
        A = Arrangement(
            dim=d, labels=labels, normals=tuple(normals), offsets=offsets
        )
        if _general_position(A):
            return A
    raise ResourceExhausted(
        f"no uniform arrangement found in {max_tries} draws "
        f"(seed {seed}, n {n}, d {d})"
    )
