"""The bounded complex of an affine oriented matroid and its star-level
machinery.

Given an axiom-checked covector set with a distinguished non-loop g,
this module extracts L+ (covectors positive at g) and the bounded
complex L++ (covectors all of whose nonzero faces stay positive at g),
then implements everything needed to take a bounded covector X apart:
the cube structure of L_{>=X}, the unbounded-tope set C_X and its
contraction counterpart D_X, the deletion/lifting bijection between
them, the shelling of [D_X] sorted by separation from a base tope, the
lifted shelling of [C_X] checked against the coatom condition, and the
lower/upper link decomposition.

Every verification op returns a report with witnesses instead of
asserting; statements that are theorems for genuine oriented matroids
raise only when their failure proves the input was not one.  The cube,
restriction and bijection checks test only what can fail on any set of
sign vectors; each docstring names the lemma that decides the rest.

The star checks run on indices, not on sign vectors.  Once per
`AffineOM` a tope table (`_TopeTable`) reads the topes of L/g off L's
conformal order (`CovectorSet.order`) in sign-string order, with their
sign columns, and maps each g-positive unbounded tope of L (an index of
L's order) to the tope of L/g it restricts to: r is a shift past g on
packed ints.  Then one pass over L++ (`_cell_table`) gives each bounded
covector X a record (`_Cell`), read at X's index in L's order:
|L_{>=X}| (the popcount of X's up-set), the link case (from X's up-set
popcounts in L++ and in L), C_X as a mask over L's order (X's up-set
met with the unbounded topes), D_X as a mask over the topes of L/g (an
AND of sign columns) and r(C_X) as a mask.  `check_bijection`,
`link_decomposition` and `induced_shelling_of_CX` read that record with
one dict lookup, and `cube_isomorphism`, given L alone, reads X's index
and up-set off L's order the same way.  The bijection is a mask
equality, the lift h is the inverse of r, [D_X] is sorted by an int key
on separation masks, and the lifted shelling of [C_X] is decided by
single flips on those masks: no face poset of [C_X] is built.  A `Star`
is a view of the record.  Sign vectors, their pairs, zero sets,
sub-posets, tope tuples and lifted vectors are built only when a report
is read, and the per-X problems are listed only when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    MembershipError,
    OmtopError,
    PreconditionError,
)
from .matroid import CovectorSet, delete_minor
from .signvec import SignVector, _bits
from .topology import Poset, ShellingReport, _popcount


class AffineOM:
    """A covector set together with its distinguished element g.

    The covector set is expected to pass the axiom check (the pipeline
    runs it first); construction validates only what g requires: g is
    named on the ground set, |E| > 1, and g is not a loop.
    """

    __slots__ = (
        "om", "_bc", "_cells", "_restriction", "_unbounded", "_topes",
    )

    def __init__(self, om: CovectorSet):
        if om.ground.g is None:
            raise PreconditionError(
                "affine oriented matroid needs a distinguished element g"
            )
        if len(om.ground) <= 1:
            raise PreconditionError(
                "the trivial case |E| = 1 is excluded; nothing bounded "
                "can happen on g alone"
            )
        if om.ground.g_index in om.loops():
            raise PreconditionError(
                f"distinguished element {om.ground.g!r} is a loop"
            )
        self.om = om
        self._bc = None
        self._restriction = None
        self._unbounded = None
        self._topes = None
        self._cells = None

    @property
    def ground(self):
        return self.om.ground

    @property
    def g(self) -> str:
        return self.om.ground.g

    @property
    def g_index(self) -> int:
        return self.om.ground.g_index

    def bounded_complex(self) -> "BoundedComplex":
        if self._bc is None:
            self._bc = _compute_bounded_complex(self)
        return self._bc

    def _unbounded_topes(self) -> int:
        """The topes outside L++, as a mask over L's order: C_X is the
        part of it above X."""
        if self._unbounded is None:
            up = self.om.order()._up
            topes = 0
            for i, u in enumerate(up):
                if u == 1 << i:
                    topes |= 1 << i
            self._unbounded = topes & ~self.bounded_complex()._mask
        return self._unbounded

    def _tope_table(self) -> "_TopeTable":
        if self._topes is None:
            self._topes = _TopeTable(self)
        return self._topes

    def star(self, X: SignVector) -> "Star":
        """Star(self, X), a view of X's cell record."""
        return Star(self, X)

    def _cell(self, X: SignVector, star: bool = True) -> "_Cell":
        """X's cell record, the records of every bounded covector built
        in one pass on the first request.  With star set, an X that has
        no star (support {g}, or a failed support restriction) raises."""
        cells = self._cells
        if cells is None:
            cells = self._cells = _cell_table(self)
        cell = cells.get(X)
        if cell is None:
            raise MembershipError(f"{X} is not in the bounded complex")
        if star and cell.bad is not None:
            raise cell.bad[0](cell.bad[1])
        return cell

    def _star_om(self) -> "AffineOM":
        """The AffineOM the stars of self live in: self, or its
        restriction to the support E1 once `_cell_table` built it."""
        r = self._restriction
        return self if r is None or r[0] is None else r[0]

    def __repr__(self) -> str:
        return f"AffineOM({len(self.om)} covectors, g={self.g!r})"


class BoundedComplex:
    """L++ with its purity data attached.

    dim is the pure dimension (covector rank minus one); support is the
    common support E1 of the maximal covectors, or None if they
    disagree (which would refute the common-support theorem for the
    input at hand).  All of these are read from the order, L's order
    restricted to the bounded covectors, and from L's heights by index.
    """

    __slots__ = (
        "ground",
        "covectors",
        "dim",
        "pure",
        "support",
        "f_vector",
        "_ranks",
        "_poset",
        "_names",
        "_mask",
    )

    def __init__(
        self, om: AffineOM, covectors: tuple[SignVector, ...], mask: int
    ):
        # the ground set, not om: om caches this complex
        self.ground = om.ground
        self.covectors = covectors
        order = om.om.order()
        heights = order._height_list()
        # the covector ranks, in the order of covectors
        self._ranks = [heights[i] for i in _bits(mask)]
        # the covectors as a mask over L's order, in the same order
        self._mask = mask
        self._poset = order._induced(mask)
        up = self._poset._up
        maximal = [j for j in range(len(up)) if up[j] == 1 << j]
        max_ranks = {self._ranks[j] for j in maximal}
        self.dim = max(max_ranks) - 1
        self.pure = len(max_ranks) == 1
        supports = {covectors[j].support() for j in maximal}
        self.support = supports.pop() if len(supports) == 1 else None
        f = [0] * (self.dim + 1)
        for r in self._ranks:
            f[r - 1] += 1
        self.f_vector = tuple(f)
        self._names = None

    def __len__(self) -> int:
        return len(self.covectors)

    def __contains__(self, x) -> bool:
        return x in self._poset._index

    def __iter__(self):
        return iter(self.covectors)

    @property
    def euler(self) -> int:
        return sum(
            (-1) ** k * count for k, count in enumerate(self.f_vector)
        )

    def face_dim(self, x: SignVector) -> int:
        """Dimension of a bounded face: its covector rank minus one."""
        j = self._poset._index.get(x)
        if j is None:
            raise MembershipError(f"{x} is not in the bounded complex")
        return self._ranks[j] - 1

    def names(self) -> tuple[str, ...]:
        """The covectors as strings, in order, computed once."""
        if self._names is None:
            self._names = tuple(map(str, self.covectors))
        return self._names

    def maximal(self) -> tuple[SignVector, ...]:
        return tuple(self._poset.maximal_elements())

    def as_poset(self) -> Poset:
        return self._poset

    def support_labels(self) -> tuple[str, ...]:
        if self.support is None:
            return ()
        return tuple(
            self.ground.labels[i] for i in sorted(self.support)
        )

    def __repr__(self) -> str:
        return (
            f"BoundedComplex(f={self.f_vector}, dim={self.dim}, "
            f"pure={self.pure})"
        )


def _compute_bounded_complex(M: AffineOM) -> BoundedComplex:
    """L++: the x with x_g = + whose down-set in L's order meets no
    nonzero covector of another g-sign.  Both sets are read off g's sign
    columns: the candidates are the plus column, and the other g-signs
    are the minus and zero columns without the zero vector, which a set
    handed to `AffineOM` directly need not hold."""
    P = M.om.order()
    plus, minus, at_zero = M.om._sign_columns()[M.g_index]
    bad = minus | at_zero
    z = P._index.get(M.om.zero)
    if z is not None:
        bad &= ~(1 << z)
    down = P._down
    mask = 0
    for i in _bits(plus):
        if not down[i] & bad:
            mask |= 1 << i
    if not mask:
        raise OmtopError(
            "the bounded complex is empty, which cannot happen for an "
            "affine oriented matroid"
        )
    return BoundedComplex(M, tuple(P.elements[i] for i in _bits(mask)), mask)


def bounded_complex(M: AffineOM) -> BoundedComplex:
    return M.bounded_complex()


# ---------------------------------------------------------------------------
# full-dimensionality: restriction to the common support E1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportRestriction:
    """The bounded complex re-expressed on its own support E1, with the
    explicit covector pairing witnessing the isomorphism."""

    original: AffineOM
    restricted: AffineOM
    dropped: tuple[str, ...]
    pairs: tuple[tuple[SignVector, SignVector], ...]
    ok: bool
    # pairs as a dict; shared by every restriction of one AffineOM
    _image: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._image is None:
            object.__setattr__(self, "_image", dict(self.pairs))

    def map(self, x: SignVector) -> SignVector:
        try:
            return self._image[x]
        except KeyError:
            raise MembershipError(f"{x} is not a bounded covector") from None


def restrict_to_support(M: AffineOM) -> SupportRestriction:
    """Delete the elements outside E1 and verify that the bounded
    complexes correspond covector-for-covector, order included.  Each
    bounded covector is below a maximal one, so it is zero off E1 and
    deletion is an order embedding of L++: only the image can fail.

    The restricted set is built once per AffineOM, so every star of M
    shares it, with its order, bounded complex and tope table."""
    bc = M.bounded_complex()
    if bc.support is None:
        raise PreconditionError(
            "maximal bounded covectors do not share a support; "
            "no canonical restriction exists"
        )
    if M._restriction is None:
        M._restriction = _restriction(M, bc)
    restricted, dropped, pairs, ok, image = M._restriction
    return SupportRestriction(
        M, M if restricted is None else restricted, dropped, pairs, ok, image
    )


def _restriction(M: AffineOM, bc: BoundedComplex) -> tuple:
    """What restrict_to_support reports, with None for an unrestricted
    M: the cache on M must not refer back to M."""
    ground = M.ground
    drop = [
        ground.labels[i]
        for i in range(len(ground))
        if i not in bc.support
    ]
    if not drop:
        pairs = tuple((x, x) for x in bc.covectors)
        return None, (), pairs, True, dict(pairs)
    drop_idx = ground.indices(drop)
    M2 = AffineOM(delete_minor(M.om, drop))
    bc2 = M2.bounded_complex()
    pairs = tuple((x, x.delete(drop_idx)) for x in bc.covectors)
    image = dict(pairs)
    ok = set(image.values()) == set(bc2.covectors)
    return M2, tuple(drop), pairs, ok, image


# ---------------------------------------------------------------------------
# the sign cube above a covector
# ---------------------------------------------------------------------------


class _OnFirstRead:
    """A dataclass field that may be given as a function of no arguments:
    the function is called on the first read, and its value kept, so a
    caller that never reads the field never builds it."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.key)  # the field has no default
        value = obj.__dict__[self.key]
        if callable(value):
            value = obj.__dict__[self.key] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


@dataclass(frozen=True)
class CubeReport:
    """Verification that L_{>=X} is the full sign cube on z(X) under
    deletion of supp(X).  zero_set and pairs are built on their first
    read."""

    X: SignVector
    zero_set: tuple[int, ...] = _OnFirstRead()
    expected_size: int
    actual_size: int
    pairs: tuple[tuple[SignVector, SignVector], ...] = _OnFirstRead()
    ok: bool
    counterexample: str | None = None


def cube_isomorphism(L: CovectorSet, X: SignVector) -> CubeReport:
    """Check that Y -> Y minus supp(X) maps L_{>=X} isomorphically onto
    {+,-,0}^{z(X)}.  True whenever L is uniform; on other input the
    report simply records how it fails.  Each Y >= X equals X on
    supp(X), so the deletion is an order embedding of L_{>=X} into the
    cube, and onto it exactly when |L_{>=X}| = 3^|z(X)|: the popcount
    of X's up-set mask, found by one lookup of X's index in L's order,
    decides it.  The zero set and the pairs are built on first read."""
    order = L.order()
    i = order._index.get(X)
    if i is None:
        raise MembershipError(f"{X} is not a covector of this set")
    support = X._pos | X._neg
    if not support:
        raise PreconditionError("the zero covector is excluded")
    up = order._up[i]
    size = up.bit_count()
    zeros = X.n - support.bit_count()

    def zero_set():
        return tuple(_bits((1 << X.n) - 1 & ~support))

    def pairs():
        supp = X.support()
        return tuple((y, y.delete(supp)) for y in order.up_set(X))

    expected = 3 ** zeros
    if size != expected:
        return CubeReport(
            X, zero_set, expected, size, pairs, False,
            f"|L_>=X| = {size}, expected 3^{zeros} = {expected}",
        )
    return CubeReport(X, zero_set, expected, size, pairs, True)


# ---------------------------------------------------------------------------
# the star of a bounded covector: C_X, D_X and their bijection
# ---------------------------------------------------------------------------


def _without(mask: int, g: int) -> int:
    """The mask with bit g deleted and the bits above it shifted down:
    a coordinate mask of a sign vector minus g."""
    low = (1 << g) - 1
    return (mask & low) | (mask >> 1 & ~low)


class _TopeTable:
    """The topes the star checks read, by index, built once per AffineOM
    from L's order alone.

    *Topes at infinity.*  The covectors of L/g are the Y minus g for Y
    in L zero at g, and Y <= Y' exactly when Y minus g <= Y' minus g, so
    the topes of L/g are the Y minus g for Y maximal among the
    covectors of L zero at g: Y's up-set meets g's zero column in Y
    alone.  Deleting a coordinate that is 0 in all of them keeps their
    sign-string order, so they come in that order, indexed j, as L/g's
    own order would list them; that order is never built.

    plus[e] and minus[e] are the masks of the j with + and - at
    coordinate e of L/g, so D_X is an AND of columns, and zero[e] those
    with 0 there.  ranked[j] is tope j's (+, -) masks with coordinate e
    moved to bit width - 1 - rank(e), rank(e) the place of e's label in
    label order: a separation mask taken on these is read by
    `_separation_key` as an int.

    *Lift lemma.*  For a g-positive unbounded tope t of L at order
    index k, rbit[k] is the bit of the tope r(t) = t minus g of L/g
    when r(t) is one; `past`, a bit past every tope, stands for r(t) of
    any other t.  r is injective on these topes, and lift[j] is the k
    with r(t) = tope j, or None.  For every d in D_X, h(d) = i(d) o X
    is d with + at g: d has X's sign wherever X minus g has one, and X
    is + at g.  So lift[j] is h(d) whenever h(d) is such a tope, and
    when it is none, h(d) is in no C_X.
    """

    __slots__ = (
        "topes", "width", "plus", "minus", "zero", "ranked", "rbit",
        "past", "lift", "_key", "_names", "_lift_names", "_elements",
    )

    def __init__(self, M: AffineOM):
        L, gi = M.om, M.g_index
        order = L.order()
        up, elements = order._up, order.elements
        positive, _, at_zero = L._sign_columns()[gi]
        n = self.width = len(L.ground) - 1
        labels = [lab for e, lab in enumerate(L.ground.labels) if e != gi]
        at_inf = []
        for i in _bits(at_zero):
            if up[i] & at_zero == 1 << i:
                y = elements[i]
                at_inf.append((_without(y._pos, gi), _without(y._neg, gi)))
        self.topes = tuple(SignVector(n, p, q) for p, q in at_inf)
        self.plus, self.minus = [0] * n, [0] * n
        self._key = {}
        # rank places: the least label takes the highest bit
        place = [0] * n
        for r, e in enumerate(sorted(range(n), key=labels.__getitem__)):
            place[e] = n - 1 - r
        self.ranked = []
        for j, (tp, tn) in enumerate(at_inf):
            self._key[tp | tn << n] = j
            rp = rn = 0
            for e in _bits(tp):
                self.plus[e] |= 1 << j
                rp |= 1 << place[e]
            for e in _bits(tn):
                self.minus[e] |= 1 << j
                rn |= 1 << place[e]
            self.ranked.append((rp, rn))
        full = (1 << len(at_inf)) - 1
        self.zero = [full & ~(p | m) for p, m in zip(self.plus, self.minus)]
        self._elements = elements
        self.past = 1 << len(at_inf)
        self.rbit = {}
        self.lift = [None] * len(at_inf)
        for k in _bits(M._unbounded_topes() & positive):
            t = elements[k]
            j = self._key.get(_without(t._pos, gi) | _without(t._neg, gi) << n)
            if j is not None:
                self.rbit[k] = 1 << j
                self.lift[j] = k
        self._names = self._lift_names = None

    @property
    def full(self) -> int:
        return (1 << len(self.topes)) - 1

    def index(self, T: SignVector) -> int | None:
        """The index of T among the topes of L/g, or None."""
        if T.n != self.width:
            return None
        return self._key.get(T._pos | T._neg << self.width)

    def names(self) -> list[str]:
        """str of each tope of L/g, computed once."""
        if self._names is None:
            self._names = list(map(str, self.topes))
        return self._names

    def name(self, j: int) -> str:
        return self.names()[j]

    def lift_names(self) -> list[str | None]:
        """str of each tope's lift (`lift`), None where it has none,
        computed once."""
        if self._lift_names is None:
            self._lift_names = [
                None if k is None else str(self._elements[k])
                for k in self.lift
            ]
        return self._lift_names


def _separation_key(sep: int, width: int) -> int:
    """The [D_X] sort key of a tope whose separation mask from the base,
    on ranked coordinates (`_TopeTable.ranked`), is sep: the size of the
    separation set first, then its labels in sorted order.  Of two sets
    of one size, the one holding the least label of their symmetric
    difference comes first; that label is the highest bit in which the
    ranked masks differ, so the complement orders them.  Topes have
    full support, so the base and sep determine the tope, and distinct
    topes get distinct keys."""
    return sep.bit_count() << width | ((1 << width) - 1) ^ sep


class _Cell:
    """The star facts of one bounded covector X, on indices, built by
    `_cell_table`.

    case is the link case of X in its own AffineOM M.  The rest is read
    in the AffineOM N the star lives in (M, or M restricted to its
    support E1), X there being the star's X, at X's index in N's order:
    size = |N_{>=X}|, xg the (+, -) masks of X minus g, cx the mask of
    C_X over N's order, dx the mask of D_X over the topes of N/g
    (`_TopeTable`), and image the mask of r(C_X), with `_TopeTable.past`
    set when some tope of C_X restricts to no tope of N/g.  C_X and D_X
    are the tuples, None until read (`Star`).  bad is None, or the
    (exception, message) that asking for X's star raises: X has support
    {g}, or X has no image under the support restriction."""

    __slots__ = (
        "case", "X", "size", "xg", "cx", "dx", "image", "C_X", "D_X",
        "bad",
    )

    def __init__(self, case, X, size, xg, cx, dx, image, bad=None):
        self.case = case
        self.X = X
        self.size = size
        self.xg = xg
        self.cx = cx
        self.dx = dx
        self.image = image
        self.C_X = self.D_X = None
        self.bad = bad

    @property
    def c_size(self) -> int:
        """|C_X|, the popcount of its mask."""
        return _popcount(self.cx)


_DEGENERATE = (
    PreconditionError,
    "X has support {g}; the degenerate case X minus g = 0 is excluded",
)


def _link_case(size: int, bounded_up: int) -> str:
    """The link case of a bounded X with |L_{>=X}| = size whose up-set
    in L++ is the mask bounded_up: no cell above X, all of L_{>X}
    bounded, or neither."""
    above = bounded_up.bit_count() - 1
    if not above:
        return "upper_empty"
    return "upper_full" if above == size - 1 else "proper"


def _cell_table(M: AffineOM) -> dict:
    """X -> `_Cell` for every bounded covector X of M, in one pass over
    L++ on L's order indices.  When M's bounded complex does not span
    E, the star facts are those of the image of X in M restricted to
    E1 (`restrict_to_support`), as `Star` reads them, and the link case
    stays M's own."""
    bc = M.bounded_complex()
    if bc.support is not None and len(bc.support) == len(M.ground):
        return _star_pass(M)
    order = M.om.order()
    up, elements = order._up, order.elements
    bup = bc.as_poset()._up
    others = ~(1 << M.g_index)
    unsupported = None
    try:
        res = restrict_to_support(M)
    except PreconditionError as exc:
        unsupported = PreconditionError, str(exc)
    else:
        restricted = _star_pass(res.restricted)
    cells = {}
    for j, i in enumerate(_bits(bc._mask)):
        x = elements[i]
        case = _link_case(up[i].bit_count(), bup[j])
        if not (x._pos | x._neg) & others:
            bad = _DEGENERATE
        elif unsupported is not None:
            bad = unsupported
        else:
            y = res.map(x)
            c = restricted.get(y)
            if c is not None:
                cells[x] = _Cell(
                    case, y, c.size, c.xg, c.cx, c.dx, c.image
                )
                continue
            bad = (
                MembershipError,
                f"the support restriction maps a bounded covector to "
                f"{y}, which is not bounded",
            )
        cells[x] = _Cell(case, x, 0, None, 0, 0, 0, bad)
    return cells


def _star_pass(N: AffineOM) -> dict:
    """`_cell_table` of N with every star read in N itself."""
    bc = N.bounded_complex()
    order = N.om.order()
    up, elements = order._up, order.elements
    bup = bc.as_poset()._up
    gi = N.g_index
    unbounded = N._unbounded_topes()
    table = N._tope_table()
    plus, minus, full = table.plus, table.minus, table.full
    cells = {}
    for j, i in enumerate(_bits(bc._mask)):
        x = elements[i]
        u = up[i]
        size = u.bit_count()
        case = _link_case(size, bup[j])
        xp, xn = _without(x._pos, gi), _without(x._neg, gi)
        if not xp | xn:
            cells[x] = _Cell(case, x, size, None, 0, 0, 0, _DEGENERATE)
            continue
        dx = full
        for e in _bits(xp):
            dx &= plus[e]
        for e in _bits(xn):
            dx &= minus[e]
        cx = u & unbounded
        cells[x] = _Cell(
            case, x, size, (xp, xn), cx, dx, _image(table, cx)
        )
    return cells


def _image(table: _TopeTable, cx: int) -> int:
    """r(C_X) as a mask over the topes of L/g: the OR of `rbit` over
    C_X, with `past` for a tope of C_X that restricts to no tope."""
    rbit, past = table.rbit, table.past
    image = 0
    while cx:
        bit = cx & -cx
        image |= rbit.get(bit.bit_length() - 1, past)
        cx ^= bit
    return image


def _lift(X: SignVector, gi: int, T: SignVector) -> SignVector:
    """h(T) = i(T) o X: re-insert g as zero, then compose with X."""
    low = (1 << gi) - 1
    inserted = SignVector(
        T.n + 1,
        (T._pos & low) | (T._pos & ~low) << 1,
        (T._neg & low) | (T._neg & ~low) << 1,
    )
    return inserted.compose(X)


class Star:
    """Everything star-local to one bounded covector X: the ambient
    full-dimensional affine OM (restricting to E1 first if needed) and
    the tope sets C_X and D_X.

    A star is a view of X's cell record (`_Cell`), which holds both tope
    sets as masks: C_X over L's order, the up-set of X met with the
    topes outside L++, and D_X over the topes of L/g (`_TopeTable`),
    those that conform to X minus g.  The tuples C_X and D_X, in
    sign-string order, are built on their first read; every check on X
    reads the masks.
    """

    __slots__ = ("om", "X", "restriction", "_cell")

    def __init__(self, M: AffineOM, X: SignVector):
        self._cell = M._cell(X)
        N = M._star_om()
        self.restriction = None if N is M else restrict_to_support(M)
        self.om = N
        self.X = self._cell.X

    @property
    def C_X(self) -> tuple[SignVector, ...]:
        cell = self._cell
        if cell.C_X is None:
            elements = self.om.om.order().elements
            cell.C_X = tuple(elements[k] for k in _bits(cell.cx))
        return cell.C_X

    @property
    def D_X(self) -> tuple[SignVector, ...]:
        cell = self._cell
        if cell.D_X is None:
            topes = self.om._tope_table().topes
            cell.D_X = tuple(topes[j] for j in _bits(cell.dx))
        return cell.D_X

    @property
    def c_size(self) -> int:
        """|C_X|, the popcount of its mask."""
        return self._cell.c_size

    def restrict(self, T: SignVector) -> SignVector:
        """r(T) = T minus g."""
        return T.delete([self.om.g_index])

    def lift(self, T: SignVector) -> SignVector:
        """h(T) = i(T) o X: re-insert g as zero, then compose with X."""
        return _lift(self.X, self.om.g_index, T)


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of checking that restriction r and lifting h are inverse
    bijections between C_X and D_X.  pairs is built on its first
    read."""

    X: SignVector
    pairs: tuple[tuple[SignVector, SignVector], ...] = _OnFirstRead()
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def check_bijection(M: AffineOM, X: SignVector) -> BijectionReport:
    """Check that r and h are inverse bijections between C_X and D_X.
    Each t in C_X is >= X, so it is + at g and h(r(t)) = t: r is
    injective and h inverts it, and only r(C_X) = D_X can fail.  That
    is one mask equality on X's cell record: r(C_X), the OR of
    `_TopeTable.rbit` over C_X, against D_X.  The problems are listed,
    tope by tope, only when it fails."""
    cell = M._cell(X)
    if cell.image == cell.dx:
        return BijectionReport(
            cell.X, lambda: _restriction_pairs(Star(M, X)), ()
        )
    star = Star(M, X)
    problems = []
    dset = set(star.D_X)
    pairs = _restriction_pairs(star)
    for t, rt in pairs:
        if rt not in dset:
            problems.append(f"r({t}) = {rt} is not in D_X")
    for d in sorted(dset - {rt for _, rt in pairs}, key=str):
        problems.append(f"{d} in D_X has no preimage under r")
        h = star.lift(d)
        if h not in star.om.om:
            problems.append(f"h({d}) = {h} is not even a covector")
    return BijectionReport(X=star.X, pairs=pairs, problems=tuple(problems))


def _restriction_pairs(star: Star) -> tuple:
    """(t, r(t)) for t in C_X."""
    return tuple((t, star.restrict(t)) for t in star.C_X)


# ---------------------------------------------------------------------------
# shellings: [D_X] by separation from a base, [C_X] by lifting
# ---------------------------------------------------------------------------


def shelling_of_DX(
    M: AffineOM, X: SignVector, B: SignVector | None = None
) -> list[SignVector]:
    """The topes of D_X in the order of a deterministic linear extension
    of the tope poset T(L/g, B) (topes ordered by containment of their
    separation sets from B): sorted by the size of the separation set,
    then by its labels in sorted order (`_separation_key`).  Size order
    alone refines the poset, so the sort is a linear extension.

    D_X must be an order ideal of T(L/g, B), and only topes that are
    zero somewhere on S = supp(X minus g) can break that.  Lemma: for
    B in D_X and s <=_B t in D_X, s is never opposite X minus g on S.
    B and t both agree with X minus g on S, so sep(B, t) misses S, and
    sep(B, s) is inside sep(B, t).  A tope s that is nonzero on all of
    S therefore agrees with X minus g there and lies in D_X; the scan
    runs only over the topes that are zero somewhere on S.
    """
    cell = M._cell(X)
    table = M._star_om()._tope_table()
    dx = cell.dx
    if not dx:
        raise PreconditionError(f"D_X is empty for X = {cell.X}")
    if B is None:
        b = (dx & -dx).bit_length() - 1  # the least sign string
    else:
        b = table.index(B)
        if b is None or not dx >> b & 1:
            raise MembershipError(f"base tope {B} is not in D_X")
    return [table.topes[j] for j in _dx_order(cell, table, b)]


def _dx_order(cell: _Cell, table: _TopeTable, b: int) -> list[int]:
    """`shelling_of_DX` from base tope b, on tope indices."""
    dx = cell.dx
    ranked = table.ranked
    bp, bn = ranked[b]
    partial = 0
    for e in _bits(cell.xg[0] | cell.xg[1]):
        partial |= table.zero[e]
    if partial:
        for t in _bits(dx):
            tp, tn = ranked[t]
            sep_t = (bp & tn) | (bn & tp)
            for s in _bits(partial):
                sp, sn = ranked[s]
                if not ((bp & sn) | (bn & sp)) & ~sep_t and not dx >> s & 1:
                    raise OmtopError(
                        f"D_X is not an order ideal of T(L/g, {table.name(b)}): "
                        f"{table.name(s)} <= {table.name(t)} but "
                        f"{table.name(s)} is missing; the input is "
                        "not an affine oriented matroid"
                    )
    width = table.width
    keyed = []
    m = dx
    while m:
        low = m & -m
        j = low.bit_length() - 1
        tp, tn = ranked[j]
        keyed.append((_separation_key((bp & tn) | (bn & tp), width), j))
        m ^= low
    keyed.sort()
    return [j for _, j in keyed]


@dataclass(frozen=True)
class InducedShelling:
    """The lifted facet order on [C_X] and its coatom-condition check
    inside the augmented face lattice with bottom X.  dx_order and
    order are built on their first read; names holds their strings."""

    X: SignVector
    dx_order: tuple[SignVector, ...] = _OnFirstRead()
    order: tuple[SignVector, ...] = _OnFirstRead()
    report: ShellingReport | None  # None if lifting failed
    problems: tuple[str, ...]
    names: tuple[tuple[str, ...], tuple[str, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return not self.problems and self.report is not None and self.report.ok

    def __bool__(self) -> bool:
        return self.ok

    def order_names(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(dx_order, order) as strings."""
        if self.names is not None:
            return self.names
        return tuple(map(str, self.dx_order)), tuple(map(str, self.order))


def induced_shelling_of_CX(M: AffineOM, X: SignVector) -> InducedShelling:
    """Lift a [D_X] shelling through h and verify it shells [C_X]: for
    every i < j some k < j has c_i ^ c_j <= c_k ^ c_j covered by c_j.

    The base tope matters: a linear extension of T(L/g, B) always shells
    [D_X], but its lift shells [C_X] only for suitable B (the interval
    [d_i, d_j] seen from d_i can order two of its topes opposite to how
    T(L/g, B) does when d_i and d_j are incomparable from B).  Bases are
    tried in sorted order and the first lift that shells [C_X] is
    returned; a failing result is only reported when every base fails.

    The condition is decided in the sign cube above X.  When
    |L_>=X| = 3^|z(X)| (the popcount of X's up-set, as in
    `cube_isomorphism`), deleting supp(X) is an order isomorphism from
    L_>=X onto {+,-,0}^z(X), X going to the zero vector, the bottom
    that the face poset of [C_X] is augmented with.

    *Flip lemma.*  In the cube the meet of topes c_i, c_j is their
    agreement vector, zero exactly on sep(c_i, c_j), and c_j covers
    c_k ^ c_j exactly when |sep(c_k, c_j)| = 1.  Two restrictions of
    c_j compare by their zero sets, so c_i ^ c_j <= c_k ^ c_j iff
    sep(c_k, c_j) is inside sep(c_i, c_j).  Hence (i, j) satisfies the
    condition iff some k < j has sep(c_k, c_j) equal to one element of
    sep(c_i, c_j): with F_j the OR of the one-bit masks sep(c_k, c_j)
    for k < j, the pair fails iff sep(c_i, c_j) & F_j is zero.  Every
    principal down-set of the face poset is the boolean lattice of the
    nonzero restrictions of one face, so the mode is always
    `simplicial`.  A lift is its [D_X] tope with + at g (the lift lemma
    of `_TopeTable`), so sep(c_i, c_j) is sep(d_i, d_j) moved past g,
    and the flips are taken on the topes of L/g.

    A lift that leaves C_X, or that misses some tope of C_X (on a
    non-uniform input |C_X| can exceed |D_X|, and D_X can be empty while
    C_X is not), is no order of the facets of [C_X], and an X whose
    L_>=X is not the cube has no flip decision: each is reported in
    `problems` with no shelling report.  On a uniform input the cube
    holds at every X by theorem.
    """
    cell = M._cell(X)
    N = M._star_om()
    dx = cell.dx
    if not dx:
        # an X with C_X but no D_X is possible only off uniform input
        problems = [f"D_X is empty, and |C_X| = {cell.c_size}"]
        cube = _cube_problem(cell)
        if cube is not None:
            problems.append(cube)
        return _indexed_shelling(cell, N, [], problems, None)
    table = N._tope_table()
    first = None
    for b in _bits(dx):
        order = _dx_order(cell, table, b)
        problems, failures = _lift_indices(cell, N, order)
        if failures is not None and not failures:
            return _indexed_shelling(cell, N, order, problems, failures)
        if first is None:
            first = order, problems, failures
    return _indexed_shelling(cell, N, *first)


def _cube_problem(cell: _Cell) -> str | None:
    """Why L_>=X is not the sign cube on z(X), or None when it is."""
    zeros = len(cell.X) - _popcount(cell.X._pos | cell.X._neg)
    if cell.size == 3 ** zeros:
        return None
    return (
        f"L_>=X is not the sign cube on z(X): |L_>=X| = {cell.size}, "
        f"expected 3^{zeros} = {3 ** zeros}"
    )


def _lift_indices(cell: _Cell, N: AffineOM, dx: list[int]):
    """(problems, failures) of the lift of dx, tope indices of N/g in a
    [D_X] order; failures is None when a problem stops the flip
    decision.  When r(C_X) = D_X and the cube holds, every lift is in
    C_X and the lifts cover it (the lift lemma of `_TopeTable`), so the
    flips alone decide."""
    table = N._tope_table()
    cube = _cube_problem(cell)
    if cube is None and cell.image == cell.dx:
        return [], _flip_failures([table.ranked[j] for j in dx])
    problems = []
    lift, cx = table.lift, cell.cx
    for j in dx:
        k = lift[j]
        if k is None or not cx >> k & 1:
            d = table.topes[j]
            problems.append(
                f"h({d}) = {_lift(cell.X, N.g_index, d)} is not in C_X"
            )
    if not problems and len(dx) != _popcount(cx):
        # |C_X| > |D_X|, which a non-uniform input allows
        problems.append(
            f"h(D_X) covers {len(dx)} of the {_popcount(cx)} topes of C_X"
        )
    if cube is not None:
        problems.append(cube)
    if problems:
        return problems, None
    return problems, _flip_failures([table.ranked[j] for j in dx])


def _indexed_shelling(
    cell: _Cell, N: AffineOM, dx: list[int], problems, failures
) -> InducedShelling:
    """The report of the lift of dx, tope indices of N/g, with its
    (problems, failures) from `_lift_indices`; the tope and lifted
    tuples are built on first read.  A tope whose lift h(d) is no
    g-positive unbounded tope of N (`_TopeTable.lift`) is lifted by
    composition, on a problem report only."""
    report = None
    if failures is not None:
        report = ShellingReport(
            ok=not failures, mode="simplicial", failures=tuple(failures)
        )
    table = N._tope_table()
    elements, topes, lift = N.om.order().elements, table.topes, table.lift
    X, gi = cell.X, N.g_index

    def lifted(j: int) -> SignVector:
        k = lift[j]
        return _lift(X, gi, topes[j]) if k is None else elements[k]

    names, lift_names = table.names(), table.lift_names()
    cx_names = [lift_names[j] for j in dx]
    if None in cx_names:
        cx_names = [str(lifted(j)) for j in dx]
    return InducedShelling(
        X=X,
        dx_order=lambda: tuple(topes[j] for j in dx),
        order=lambda: tuple(map(lifted, dx)),
        report=report,
        problems=tuple(problems),
        names=(tuple([names[j] for j in dx]), tuple(cx_names)),
    )


def _flip_failures(topes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, that fail the coatom condition on the
    facets of [C_X] in this order, each tope given by its (+, -) masks,
    by the flip lemma of `induced_shelling_of_CX`: j ascending, then
    i."""
    failures = []
    for j, (pj, nj) in enumerate(topes):
        seps = [(p & nj) | (n & pj) for p, n in topes[:j]]
        flips = 0
        for s in seps:
            if not s & (s - 1):
                flips |= s
        for i, s in enumerate(seps):
            if not s & flips:
                failures.append((i, j))
    return failures


# ---------------------------------------------------------------------------
# the boundary equivalence and the link decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryEquivalenceReport:
    """For X in L+ with X minus g nonzero: X minus g is a covector of
    L/g exactly when X is unbounded."""

    checked: int
    witnesses: tuple[SignVector, ...]

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def __bool__(self) -> bool:
        return self.ok


def boundary_equivalence(M: AffineOM) -> BoundaryEquivalenceReport:
    """Check the equivalence on L's order indices.  L+ is the plus
    column of g and L++ a mask over the order.  X minus g is a covector
    of L/g exactly when X with g set to 0 is a covector of L, looked up
    among the covectors zero at g as packed (+, -) masks."""
    L, gi = M.om, M.g_index
    elements = L.order().elements
    positive, _, at_zero = L._sign_columns()[gi]
    n = len(L.ground)
    at_inf = set()
    for i in _bits(at_zero):
        y = elements[i]
        at_inf.add(y._pos | y._neg << n)
    inside = M.bounded_complex()._mask
    gbit = 1 << gi
    checked = 0
    witnesses = []
    for i in _bits(positive):
        x = elements[i]
        p, q = x._pos & ~gbit, x._neg
        if not p | q:
            continue
        checked += 1
        if ((p | q << n) in at_inf) == bool(inside >> i & 1):
            witnesses.append(x)
    return BoundaryEquivalenceReport(checked=checked, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class LinkDecomposition:
    """The two halves of the link of X in the order complex of L++:
    everything strictly below X and everything strictly above.  case is
    read from the sizes of up-sets; lower and upper are built on their
    first read."""

    X: SignVector
    lower: Poset = _OnFirstRead()
    upper: Poset = _OnFirstRead()
    case: str  # "upper_empty" | "upper_full" | "proper"


def link_decomposition(M: AffineOM, X: SignVector) -> LinkDecomposition:
    """X's link halves, with the case read off X's cell record: X's
    up-set popcounts in L++ and in L."""
    case = M._cell(X, star=False).case
    P = M.bounded_complex().as_poset()
    return LinkDecomposition(
        X,
        lambda: P.strictly_below(X),
        lambda: P.strictly_above(X),
        case,
    )
