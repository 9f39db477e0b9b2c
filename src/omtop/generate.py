"""Seeded random arrangements in general position.

Draws small-integer normals and small-rational offsets until every d+1
of the homogenized forms (including the form at infinity) are linearly
independent.  That is exactly uniformity of the realized oriented
matroid: a realizable oriented matroid is uniform iff every rank-sized
subset of its vectors is a basis (Bjorner, Las Vergnas, Sturmfels,
White & Ziegler, *Oriented Matroids*).  So no covector is enumerated
here.  The test walks subsets depth first, as the cocircuits do
(`realization._cofactor_walk`): each prefix's exterior product is shared
by the subsets that extend it, and every later row must have a nonzero
determinant with each prefix of full length.  The subsets that hold the
form at infinity are walked as subsets of the normals, one dimension
lower (`_in_general_position`), and each walk stops at the first
dependent subset, so a rejected draw usually costs a few wedges, and
only the accepted draw becomes an `Arrangement`.  Most draws of many
hyperplanes in low dimension hold two parallel normals; those are
rejected before the walks, by a set of primitive rows.  The draw is
deterministic in the seed, so a (seed, n, d) triple names a
reproducible test instance: the coefficients are read off the
generator's words exactly as `random.randint` reads them
(`_randints`), without its per-call cost.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DomainError, ResourceExhausted
from .realization import Arrangement, _cofactor_walk


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


def _in_general_position(forms, d: int) -> bool:
    """Is every (d+1)-subset of t = (0, ..., 0, 1) and the homogenized
    forms (rows of d+1 integers, at least d+1 of them) a basis?  For a
    realized oriented matroid this holds iff it is uniform.  Two walks
    decide it.  A subset with t has det(t, S) = +-det of the normal
    parts of S, the first d entries of each form, so the first walk
    covers every d-subset of the normal parts.  The second covers every
    (d+1)-subset of the forms without t."""
    return _every_subset_a_basis([f[:d] for f in forms], d) and (
        _every_subset_a_basis(forms, d + 1)
    )


def _draw_spec(lo: int, hi: int) -> tuple[int, int, int]:
    """(lo, width, k) for the draws of randint(lo, hi): k bits of the
    generator, redrawn while not below the width hi - lo + 1."""
    width = hi - lo + 1
    return lo, width, width.bit_length()


# normals are drawn from {-5..5}^d, zero vector redrawn; offsets are
# num/den with |num| <= 6, den in {1,2,3}, drawn num first
_COEFF = _draw_spec(-5, 5)
_OFFSET = (_draw_spec(-6, 6), _draw_spec(1, 3))


def _randints(rng: random.Random, specs) -> list[int]:
    """One value per (lo, width, k) of `_draw_spec`, in order, equal to
    what rng.randint(lo, hi) would draw in its place, value for value
    and word for word.  CPython's randint(lo, hi) is lo plus
    r = rng.getrandbits(k), with r redrawn while it is not below the
    width; each draw of k <= 32 bits takes one word of the generator.
    Drawing the same way, in one loop, skips randint's argument checks
    and calls, so a seed names the same arrangement at a fraction of
    the cost."""
    getrandbits = rng.getrandbits
    out = []
    for lo, width, k in specs:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _parallel_pair(normals) -> bool:
    """Are two of the integer normals parallel?  Each is scaled to its
    primitive row with its first nonzero entry positive, so parallel
    normals scale to the same row."""
    seen = set()
    for v in normals:
        g = gcd(*v)
        if next(filter(None, v)) < 0:
            g = -g
        v = tuple([c // g for c in v])
        if v in seen:
            return True
        seen.add(v)
    return False


def generate_arrangement(
    n: int, d: int, seed: int = 0, max_tries: int = 200
) -> Arrangement:
    """A uniform arrangement of n hyperplanes in dimension d, labels
    h1..hn, deterministic in the seed.

    Requires n >= d + 1 so that the bounded complex is nonempty.  Raises
    ResourceExhausted if max_tries draws all land in special position
    (essentially impossible for the default coefficient ranges).

    For d >= 2 a draw with two parallel normals a_i, a_j is rejected
    before the wedge walks: a_i and a_j lie in some d-subset of the
    normals, so the walk over those would reject the draw too.  In
    dimension 1 every two normals are parallel, and only the walk
    decides.  Either way the draw consumes the same words of the
    generator, so the test changes the cost of a draw, never its
    outcome.
    """
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    if n < d + 1:
        raise DomainError(
            f"need at least d+1 = {d + 1} hyperplanes for a nonempty "
            f"bounded complex, got n = {n}"
        )
    rng = random.Random(seed)
    for _ in range(max_tries):
        # d coefficients per normal, a zero normal redrawn: each round
        # draws as many normals as are still missing, so no word is
        # drawn that one draw at a time would not draw
        normals = []
        while len(normals) < n:
            c = _randints(rng, [_COEFF] * ((n - len(normals)) * d))
            normals.extend(v for v in zip(*[iter(c)] * d) if any(v))
        drawn = _randints(rng, _OFFSET * n)
        offsets = list(zip(drawn[::2], drawn[1::2]))
        if d > 1 and _parallel_pair(normals):
            continue
        # a . x = num/den homogenizes to (den * a, -num), up to scale
        forms = [
            tuple(den * c for c in a) + (-num,)
            for a, (num, den) in zip(normals, offsets)
        ]
        if _in_general_position(forms, d):
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
