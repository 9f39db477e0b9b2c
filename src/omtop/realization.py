"""Rational hyperplane arrangements, their covectors and the geometric
boundedness oracle.

An arrangement a_i . x = b_i in R^d is homogenized to the vector
configuration (a_i, -b_i) on d+1 variables with the extra form
t = (0,...,0,1) playing the distinguished element g.  Covectors of the
resulting affine oriented matroid are exactly the feasible sign
patterns.  Each hyperplane or form is scaled once, when its
`Arrangement` or `VectorConfiguration` is built, to its primitive
integer row, a positive multiple with the same sign at every point.
From there on, all arithmetic is on integers.  No floating point
anywhere.

The covectors come from the cocircuits: the sign patterns of the kernel
lines of rank-deficient subsets of forms, spanned by signed minors.  One
depth-first walk over the subsets computes the minors as exterior
products, each prefix's shared by every subset that extends it; the
rank comes from fraction-free (Bareiss) elimination.  Every covector is
a composition of cocircuits, so the covectors reached from the
cocircuits by walking up covers, plus 0, are the whole set; the covers
of a covector are read off the cocircuits restricted to its zero set.

The affine faces are the covectors that are + at g, with g deleted.
The geometric boundedness oracle decides a face by its recession cone,
which the cocircuits of the normals alone read off: those of the
central arrangement a_i . u = 0 of the directions at infinity, with no
offsets and no g.  A nonempty face with pattern P is bounded iff the
arrangement is essential and no such cocircuit C has C <= P (the proof
is in `face_bounded`).  No linear program is solved and no sign-pattern
search is left.  The oracle is the independent cross-check for every
bounded-complex face count downstream: it reads the hyperplanes, never
the covector set it checks, and it decides on a different matrix (the
d-column normals, not the homogenized rows) by a different criterion (a
cocircuit at infinity below P, not the down-sets of L's order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    ResourceExhausted,
)
from .matroid import CovectorSet
from .signvec import GroundSet, SignVector

# the most covectors `enumerate_covectors` lists by default
_CAP = 20_000

# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------


def _primitive_row(fracs) -> tuple[int, ...]:
    """The primitive integer row that is a positive multiple of the
    given rationals, ints or Fractions (a zero row stays zero)."""
    mult = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (mult // f.denominator) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


@dataclass(frozen=True)
class Arrangement:
    """A finite list of affine hyperplanes a . x = b in R^dim, as given
    in `normals` and `offsets`, and as the primitive integer row, a
    positive multiple of (a, -b), in `rows`."""

    dim: int
    labels: tuple[str, ...]
    normals: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[Fraction, ...]
    rows: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _essential: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dimension must be positive, got {self.dim}")
        if not (len(self.labels) == len(self.normals) == len(self.offsets)):
            raise DimensionError("labels, normals and offsets must align")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("duplicate hyperplane labels")
        object.__setattr__(
            self,
            "normals",
            tuple(tuple(Fraction(c) for c in a) for a in self.normals),
        )
        object.__setattr__(
            self, "offsets", tuple(Fraction(b) for b in self.offsets)
        )
        for lab, a in zip(self.labels, self.normals):
            if len(a) != self.dim:
                raise DimensionError(
                    f"hyperplane {lab!r} has a normal of length {len(a)}, "
                    f"expected {self.dim}"
                )
            if not any(a):
                raise DomainError(f"hyperplane {lab!r} has a zero normal")
        rows = tuple(_primitive_row(a + (-b,)) for a, b in self.hyperplanes())
        object.__setattr__(self, "rows", rows)
        object.__setattr__(
            self, "_essential", _rank([r[:-1] for r in rows]) == self.dim
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    def hyperplanes(self):
        return tuple(zip(self.normals, self.offsets))

    @cached_property
    def _normal_cocircuits(self) -> list[int]:
        """The cocircuits of the normals alone, packed as `_cocircuits`
        packs them.  Computed on first use, not at construction:
        `generate_arrangement` builds an arrangement for every draw it
        rejects.  Each, with 0 at g appended, is a covector of
        `homogenize(self)`, so they stay under any cap that enumeration
        meets."""
        return _cocircuits(tuple(r[:-1] for r in self.rows), _CAP)

    def repeated_hyperplanes(self) -> list[tuple[str, str]]:
        """Pairs of labels naming the same hyperplane (up to scaling):
        their integer rows are equal up to sign."""
        seen: dict[tuple, str] = {}
        dups = []
        for lab, row in zip(self.labels, self.rows):
            lead = next(v for v in row if v)
            key = row if lead > 0 else tuple(-v for v in row)
            if key in seen:
                dups.append((seen[key], lab))
            else:
                seen[key] = lab
        return dups


@dataclass(frozen=True)
class VectorConfiguration:
    """Homogenized forms on d+1 variables; the g form (0,...,0,1) last.
    Each form is kept as its primitive integer row."""

    nvars: int
    forms: tuple[tuple[int, ...], ...]
    ground: GroundSet

    def __post_init__(self):
        if self.ground.g is None:
            raise DomainError("vector configuration needs a g element")
        if len(self.forms) != len(self.ground):
            raise DimensionError("one form per ground element required")
        for f in self.forms:
            if len(f) != self.nvars:
                raise DimensionError(
                    f"form {f} has length {len(f)}, expected {self.nvars}"
                )
        object.__setattr__(
            self,
            "forms",
            tuple(
                _primitive_row([Fraction(c) for c in f]) for f in self.forms
            ),
        )

    @property
    def n_forms(self) -> int:
        return len(self.forms)


def _g_label(labels) -> str:
    if "g" not in labels:
        return "g"
    k = 2
    while f"g{k}" in labels:
        k += 1
    return f"g{k}"


def homogenize(A: Arrangement) -> VectorConfiguration:
    """The hyperplanes' integer rows, positive multiples of (a_i, -b_i),
    plus the homogenizing form t, labeled g."""
    t = (0,) * A.dim + (1,)
    glab = _g_label(A.labels)
    ground = GroundSet(A.labels + (glab,), g=glab)
    return VectorConfiguration(
        nvars=A.dim + 1, forms=A.rows + (t,), ground=ground
    )


# ---------------------------------------------------------------------------
# covectors from cocircuits
# ---------------------------------------------------------------------------


def _over_cap(cap: int) -> ResourceExhausted:
    return ResourceExhausted(
        f"the covector set exceeds the enumeration cap of {cap} covectors"
    )


@cache  # one set of tables per number of columns, for the process
def _wedge_tables(r: int) -> tuple:
    """For j = 1..r-1, how the wedge of j forms on r columns follows
    from the wedge of the first j-1.  A wedge is the tuple of its
    Pluecker coordinates, the j-minors on the j-subsets S of the columns
    in `combinations` order.  Entry j-1 lists, for each S, the Laplace
    expansion of the minor along its last row: one term (c, t, s) per
    column c of S, with t the index of S - {c} among the (j-1)-subsets
    and s = (-1)^(j-1+p) for c at position p of S.  The last table
    (j = r-1) is reordered and signed to give the cofactor vector x,
    x_k = (-1)^k times the minor without column k."""
    tables = []
    for j in range(1, r):
        index = {S: t for t, S in enumerate(combinations(range(r), j - 1))}
        subsets = list(combinations(range(r), j))
        signs = [1] * len(subsets)
        if j == r - 1:  # reversed, subset k leaves out column k
            subsets.reverse()
            signs = [(-1) ** k for k in range(r)]
        tables.append(tuple(
            tuple(
                (c, index[S[:p] + S[p + 1:]], sgn * (-1) ** (j - 1 + p))
                for p, c in enumerate(S)
            )
            for S, sgn in zip(subsets, signs)
        ))
    return tuple(tables)


def _cofactor_walk(forms, r: int):
    """Walk the (r-1)-subsets of the forms (rows of r integers) depth
    first, in `combinations` order, extending each prefix's wedge (its
    exterior product, as exact integer Pluecker coordinates) by one
    form.  Yields (i, x) for the subset whose last form is forms[i],
    with x its cofactor vector: x_k = (-1)^k det(subset without column
    k), so f.x = det(f, subset) spans its kernel line.  A prefix whose
    wedge is zero is dependent, and so is every superset: it yields
    (i, None) for that prefix's last form i and is not extended."""
    if r == 1:  # the empty subset: the 0x0 minor is 1
        yield -1, (1,)
        return
    tables = _wedge_tables(r)
    depth = r - 1
    n = len(forms)
    wedge = [(1,)] + [()] * depth  # wedge[j]: of the prefix's first j forms
    prefix = [0] * depth  # prefix[j]: the index of its form j
    j = i = 0
    while True:
        if i > n - depth + j:  # too few forms left to fill the subset
            if j == 0:
                return
            j -= 1
            i = prefix[j] + 1
            continue
        f, w = forms[i], wedge[j]
        v = tuple([
            sum([s * f[c] * w[t] for c, t, s in terms]) for terms in tables[j]
        ])
        if not any(v):
            yield i, None
        elif j + 1 == depth:
            yield i, v
        else:
            prefix[j] = i
            j += 1
            wedge[j] = v
        i += 1


def _cocircuits(forms: tuple[tuple[int, ...], ...], cap: int) -> list[int]:
    """The cocircuits of the integer forms, each packed as
    plus | minus << n for n forms.

    With r the rank of the forms, restrict them to r columns of rank r
    (the pivot columns of their elimination): the image of y -> (f.y)
    is unchanged, and so are the sign patterns.  Each (r-1)-subset of
    rank r-1 then has a kernel line spanned by its cofactor vector x,
    and sign(f.x) over all forms f is a cocircuit, as is its negation.
    `_cofactor_walk` lists the x, sharing each prefix's wedge among the
    subsets that extend it and skipping every superset of a dependent
    prefix.  On non-uniform input many subsets span one hyperplane, so
    the set deduplicates them."""
    n = len(forms)
    cols, _ = _eliminate(forms)
    r = len(cols)
    if r == 0:
        return []
    forms = [tuple(f[c] for c in cols) for f in forms]
    live = [f for f in forms if any(f)]
    found: set[int] = set()
    for _, x in _cofactor_walk(live, r):
        if x is None:
            continue
        pos = neg = 0
        for j, f in enumerate(forms):
            v = sum(map(mul, f, x))
            if v > 0:
                pos |= 1 << j
            elif v < 0:
                neg |= 1 << j
        found.add(pos | neg << n)
        found.add(neg | pos << n)
        if len(found) >= cap:  # with 0, more than cap covectors
            raise _over_cap(cap)
    return sorted(found)


def _uniform_covector_count(n: int, r: int) -> int:
    """|L| for the uniform oriented matroid of rank r on n elements.  A
    covector with j < r zeros is a tope of the contraction of its zero
    set, uniform of rank r-j on n-j elements, which has
    2 * sum_{i < r-j} C(n-j-1, i) topes; with the zero vector,
    |L| = 1 + sum_{j < r} C(n, j) * 2 * sum_{i < r-j} C(n-j-1, i)
    (the regions of a central arrangement in general position: Buck
    1943; Zaslavsky 1975)."""
    return 1 + sum(
        comb(n, j) * 2 * sum(comb(n - j - 1, i) for i in range(r - j))
        for j in range(r)
    )


def _restriction_atoms(cocircuits: list[int], zero: int) -> list[int]:
    """The atoms of L|Z, for Z the zero set packed as `zero` = Z | Z << n:
    the minimal nonzero restrictions c|Z = c & zero of the cocircuits in
    the conformal order, which on packed ints is the subset order."""
    atoms: list[int] = []
    for w in sorted({c & zero for c in cocircuits} - {0}, key=int.bit_count):
        outside = ~w
        for a in atoms:
            if not a & outside:  # a <= w
                break
        else:
            atoms.append(w)
    return atoms


def enumerate_covectors(
    V: VectorConfiguration, cap: int = _CAP
) -> CovectorSet:
    """All sign patterns of the configuration's forms: 0 plus the
    covectors reached from the cocircuits by walking up covers.

    *Cover lemma.*  Let x be a covector of an oriented matroid, with
    zero set Z.  Then y -> y|Z is an order isomorphism from L>=x onto
    L|Z: it is injective on L>=x (the L2 lemma of
    `verify_covector_axioms`), onto since x o y lies above x and
    restricts to y|Z, and two members of L>=x, both equal to x off Z,
    compare as their restrictions do.  Every covector is a composition
    of the cocircuits below it (Bjorner, Las Vergnas, Sturmfels, White
    & Ziegler, Oriented Matroids, 3.7), and restriction commutes with
    composition, so the atoms of L|Z are the minimal nonzero members of
    {c|Z : c a cocircuit} (`_restriction_atoms`).  Hence the covers of
    x are exactly the x o w, that is x | w on the packed ints, for w an
    atom of L|Z.  Every nonzero covector lies above a cocircuit, so a
    breadth-first search over covers that starts from the cocircuits
    reaches all of L - {0}.  Forms always give an oriented matroid.
    The atoms are computed once per distinct zero set, in a dict that
    lives for one call.

    Raises ResourceExhausted as soon as there are more than `cap`
    covectors, the zero vector included: a cap below 1 raises on every
    configuration, rank 0 too.  A configuration of rank r is uniform
    exactly when it has 2 * C(n, r-1) cocircuits, one line per
    (r-1)-subset of forms; then |L| is known in closed form
    (`_uniform_covector_count`), so past the cap it raises before the
    closure.  The default cap, 20,000, bounds what comes next:
    `CovectorSet.order()` keeps a down-set and an up-set mask of up to
    N bits for each of N covectors, up to N**2 / 4 bytes: 100 MB at
    N = 20,000 (25 MB for the 11,003 covectors of
    `generate_arrangement(10, 4, seed=0)`)."""
    if cap < 1:  # the zero vector alone is more than cap covectors
        raise _over_cap(cap)
    n = V.n_forms
    cocircuits = _cocircuits(V.forms, cap)
    r = _rank(V.forms)
    if (
        r
        and len(cocircuits) == 2 * comb(n, r - 1)
        and _uniform_covector_count(n, r) > cap
    ):
        raise _over_cap(cap)
    seen = set(cocircuits)
    full = (1 << n) - 1
    atoms_at: dict[int, list[int]] = {}  # a zero set Z -> the atoms of L|Z
    frontier = cocircuits
    while frontier:
        nxt = []
        for x in frontier:
            z = full & ~(x | x >> n)
            atoms = atoms_at.get(z)
            if atoms is None:
                atoms = atoms_at[z] = _restriction_atoms(
                    cocircuits, z | z << n
                )
            for w in atoms:
                y = x | w
                if y not in seen:
                    if len(seen) + 1 >= cap:
                        raise _over_cap(cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    vecs = [SignVector(n, k & full, k >> n) for k in seen]
    vecs.append(SignVector.zero(n))
    return CovectorSet(V.ground, vecs)


# ---------------------------------------------------------------------------
# affine faces and the boundedness oracle
# ---------------------------------------------------------------------------


_FACE_ORDER = str.maketrans("0+-", "012")


def enumerate_affine_faces(A: Arrangement) -> list[SignVector]:
    """All affine sign patterns with a nonempty face: the covectors of
    `homogenize(A)` that are + at g, with g deleted, since the points
    with t > 0 scale to the affine chart t = 1.  Listed coordinate 0
    slowest, each coordinate in the order 0, +, -: the order in which
    `render_arrangement_svg` draws them.  Every pattern listed is the
    sign vector of a point, so it is nonempty with no feasibility test,
    as `face_bounded` requires.

    Raises ResourceExhausted past the 20,000-covector cap of
    `enumerate_covectors`."""
    n = A.n
    full = (1 << n) - 1
    faces = [
        SignVector(n, x._pos & full, x._neg)
        for x in enumerate_covectors(homogenize(A)).covectors
        if x._pos >> n  # g is the last element
    ]
    return sorted(faces, key=lambda P: str(P).translate(_FACE_ORDER))


def face_bounded(A: Arrangement, P: SignVector) -> bool:
    """Is the nonempty face with sign pattern P bounded?

    A nonempty polyhedron is bounded iff its recession cone
    R = {u : a_i.u = 0 where P_i = 0, P_i a_i.u >= 0 elsewhere} is the
    origin alone (Ziegler, Lectures on Polytopes, sec. 1).  In a
    non-essential arrangement R holds the common kernel of the normals,
    so no face is bounded.  Otherwise the normals span, so a nonzero u
    in R has a nonzero sign vector Y = (sign a_i.u)_i, a covector of the
    central arrangement of the normals with Y <= P.  Every nonzero
    covector is a conformal composition of cocircuits below it (the
    theorem `enumerate_covectors` rests on), so some cocircuit C of the
    normals has C <= Y <= P.  Conversely a cocircuit C <= P is the sign
    vector of some u != 0, and that u lies in R.  So the face is bounded
    iff A is essential and no cocircuit C of the normals has C <= P:
    C's + bits inside P's + bits and C's - bits inside P's - bits, one
    mask test on the packed pair (Bjorner, Las Vergnas, Sturmfels, White
    & Ziegler, Oriented Matroids, sec. 4.5).

    The cocircuits are computed on the first call and kept on A.  P is
    not tested for emptiness; the answer for an empty pattern means
    nothing.  Raises DimensionError when P's length is not A.n."""
    if P.n != A.n:
        raise DimensionError(
            f"pattern has length {P.n}, arrangement has {A.n} hyperplanes"
        )
    if not A._essential:
        return False
    p = P._pos | P._neg << A.n
    return all(c & ~p for c in A._normal_cocircuits)


def _eliminate(rows) -> tuple[list[int], int]:
    """Fraction-free (Bareiss, Math. Comp. 1968) elimination of an
    integer matrix: its pivot columns, and its last pivot signed by the
    row swaps.  After k pivots each entry below the pivot rows is a
    (k+1)-minor, and by Sylvester's identity the update divides exactly
    by the previous pivot, a k-minor, so entries stay integers bounded
    by the minors.  For a square matrix of full rank the signed last
    pivot is its determinant (1 for the empty matrix)."""
    mat = [list(r) for r in rows]
    cols: list[int] = []
    prev, sign = 1, 1
    for c in range(len(mat[0]) if mat else 0):
        rank = len(cols)
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            sign = -sign
        prow, p = mat[rank], mat[rank][c]
        for r in range(rank + 1, len(mat)):
            q = mat[r][c]
            mat[r] = [(p * x - q * y) // prev for x, y in zip(mat[r], prow)]
        prev = p
        cols.append(c)
        if len(cols) == len(mat):
            break
    return cols, sign * prev


def _rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(_eliminate(rows)[0])


def affine_face_dim(A: Arrangement, P: SignVector) -> int:
    """Dimension of the nonempty face with pattern P: the ambient
    dimension minus the rank of the normals it lies on."""
    zero_normals = [A.rows[i][:-1] for i in sorted(P.zero_set())]
    if not zero_normals:
        return A.dim
    return A.dim - _rank(zero_normals)


def is_essential(A: Arrangement) -> bool:
    """Do the normals span the ambient space?  Decided once, when the
    arrangement is built.

    Only for essential arrangements does metric boundedness of a face
    match the combinatorial notion (no nonzero covector below it with a
    zero at the extra element): parallel lines in the plane bound strips
    that are combinatorially bounded but metrically unbounded, because
    the whole picture is a cylinder over a lower-dimensional arrangement.
    """
    return A._essential


def bounded_faces(A: Arrangement) -> dict[SignVector, int]:
    """The sign pattern of every bounded face, mapped to its dimension:
    one pass over the affine faces of `enumerate_affine_faces`, each
    decided by `face_bounded`, the cocircuits of the normals below it.
    It reads only A, never a covector set or its order, and decides
    boundedness and dimension face by face, so it is an independent
    oracle for the bounded complex.  Every face in the list is nonempty
    and none is missing, by the cocircuit theorem of
    `enumerate_covectors`."""
    return {
        P: affine_face_dim(A, P)
        for P in enumerate_affine_faces(A)
        if face_bounded(A, P)
    }


def face_census(faces: dict[SignVector, int]) -> tuple[int, ...]:
    """f-vector of a face -> dimension map: entry k is the number of
    faces of dimension k, up to the largest dimension present."""
    counts = [0] * (max(faces.values(), default=0) + 1)
    for k in faces.values():
        counts[k] += 1
    return tuple(counts)


def bounded_face_census(A: Arrangement) -> tuple[int, ...]:
    """f-vector of the bounded faces, counted geometrically: entry k is
    the number of bounded faces of dimension k.  Raises
    ResourceExhausted past the 20,000-covector cap of
    `enumerate_covectors`."""
    return face_census(bounded_faces(A))


# ---------------------------------------------------------------------------
# arrangement file format
# ---------------------------------------------------------------------------

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _parse_rational(token: str, source: str, lineno: int) -> Fraction:
    if not _RAT_RE.match(token):
        raise InputFormatError(
            f"expected a rational like 3 or -5/2, got {token!r} "
            "(decimal notation is not accepted)",
            source=source,
            line=lineno,
        )
    return Fraction(token)


def parse_arrangement_file(text: str, source: str = "<string>") -> Arrangement:
    """Arrangement file: a `dim d` header, then one hyperplane per line
    as `label a1 ... ad b` with exact rational entries; `#` comments."""
    dim = None
    labels: list[str] = []
    normals: list[tuple[Fraction, ...]] = []
    offsets: list[Fraction] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if dim is None:
            if len(tokens) != 2 or tokens[0] != "dim" or not tokens[1].isdigit():
                raise InputFormatError(
                    f"expected header `dim d`, got {line!r}",
                    source=source,
                    line=lineno,
                )
            dim = int(tokens[1])
            if dim < 1:
                raise InputFormatError(
                    "dimension must be positive", source=source, line=lineno
                )
            continue
        if len(tokens) != dim + 2:
            raise InputFormatError(
                f"expected `label a1 ... a{dim} b` ({dim + 2} fields), "
                f"got {len(tokens)}",
                source=source,
                line=lineno,
            )
        label = tokens[0]
        if label in labels:
            raise InputFormatError(
                f"duplicate hyperplane label {label!r}",
                source=source,
                line=lineno,
            )
        entries = [_parse_rational(t, source, lineno) for t in tokens[1:]]
        normal = tuple(entries[:-1])
        if not any(normal):
            raise InputFormatError(
                f"hyperplane {label!r} has a zero normal",
                source=source,
                line=lineno,
            )
        labels.append(label)
        normals.append(normal)
        offsets.append(entries[-1])
    if dim is None:
        raise InputFormatError("no `dim d` header found", source=source)
    if not labels:
        raise InputFormatError("no hyperplane lines found", source=source)
    arr = Arrangement(
        dim=dim,
        labels=tuple(labels),
        normals=tuple(normals),
        offsets=tuple(offsets),
    )
    dups = arr.repeated_hyperplanes()
    if dups:
        a, b = dups[0]
        raise InputFormatError(
            f"hyperplanes {a!r} and {b!r} coincide", source=source
        )
    return arr


def format_arrangement(A: Arrangement) -> str:
    lines = [f"dim {A.dim}"]
    for lab, a, b in zip(A.labels, A.normals, A.offsets):
        entries = " ".join(str(c) for c in list(a) + [b])
        lines.append(f"{lab} {entries}")
    return "\n".join(lines) + "\n"
