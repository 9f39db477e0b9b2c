"""The bounded complex of an affine oriented matroid and its star-level
machinery.

Given an axiom-checked covector set with a distinguished non-loop g,
this module extracts L+ (covectors positive at g) and the bounded
complex L++ (covectors all of whose nonzero faces stay positive at g),
then implements everything needed to take a bounded covector X apart:
the cube structure of L_{>=X}, the unbounded-tope set C_X and its
contraction counterpart D_X, the deletion/lifting bijection between
them, the shelling of [D_X] inherited from a tope-poset linear
extension, the lifted shelling of [C_X] checked against the coatom
condition, and the lower/upper link decomposition.

Every verification op returns a report with witnesses instead of
asserting; statements that are theorems for genuine oriented matroids
raise only when their failure proves the input was not one.  The cube,
restriction and bijection checks test only what can fail on any set of
sign vectors; each docstring names the lemma that decides the rest.

The star checks read L's conformal order (`CovectorSet.order`) as
bitmasks: C_X, the cube size and the link case come from up-set masks,
D_X and the [D_X] order from sign and separation masks, and h and r
shift a vector's masks past g.  The lifted shelling of [C_X] is decided
in the sign cube above X, on the separation masks of the lifted topes
alone: no face poset of [C_X] is built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .errors import (
    MembershipError,
    OmtopError,
    PreconditionError,
)
from .matroid import (
    CovectorSet,
    _separation,
    _separation_key,
    contract,
    delete_minor,
)
from .signvec import Sign, SignVector, _bits
from .topology import Poset, ShellingReport, _popcount


class AffineOM:
    """A covector set together with its distinguished element g.

    The covector set is expected to pass the axiom check (the pipeline
    runs it first); construction validates only what g requires: g is
    named on the ground set, |E| > 1, and g is not a loop.
    """

    __slots__ = (
        "om", "_bc", "_contraction", "_stars", "_restriction",
        "_unbounded", "_at_infinity",
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
        self._contraction = None
        self._restriction = None
        self._unbounded = None
        self._at_infinity = None
        # weak: a Star refers back to its AffineOM, and a strong cache
        # would make every star and the covector set a reference cycle
        # that lives until the garbage collector's next full pass
        self._stars = weakref.WeakValueDictionary()

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

    def contraction(self) -> CovectorSet:
        """L/g, the oriented matroid at infinity."""
        if self._contraction is None:
            self._contraction = contract(self.om, [self.g])
        return self._contraction

    def _unbounded_topes(self) -> int:
        """The topes outside L++, as a mask over L's order: C_X is the
        part of it above X."""
        if self._unbounded is None:
            P = self.om.order()
            bc = self.bounded_complex()
            mask = 0
            for i, x in enumerate(P.elements):
                if P._up[i] == 1 << i and x not in bc:
                    mask |= 1 << i
            self._unbounded = mask
        return self._unbounded

    def _topes_at_infinity(self) -> tuple[tuple[int, int, SignVector], ...]:
        """The topes of L/g in sign-string order, each with its + and -
        masks: D_X is the part of them that conforms to X minus g."""
        if self._at_infinity is None:
            P = self.contraction().order()
            self._at_infinity = tuple(
                (t._pos, t._neg, t)
                for i, t in enumerate(P.elements)
                if P._up[i] == 1 << i
            )
        return self._at_infinity

    def star(self, X: SignVector) -> "Star":
        """Star(self, X), built once per bounded covector and shared for
        as long as some caller holds it."""
        star = self._stars.get(X)
        if star is None:
            star = self._stars[X] = Star(self, X)
        return star

    def __repr__(self) -> str:
        return f"AffineOM({len(self.om)} covectors, g={self.g!r})"


def positive_part(M: AffineOM) -> tuple[SignVector, ...]:
    """L+: the covectors with positive g-coordinate, sorted."""
    gi = M.g_index
    return tuple(x for x in M.om if x.sign(gi) is Sign.PLUS)


class BoundedComplex:
    """L++ with its purity data attached.

    dim is the pure dimension (covector rank minus one); support is the
    common support E1 of the maximal covectors, or None if they
    disagree (which would refute the common-support theorem for the
    input at hand).  All of these are read from the order, L's order
    restricted to the bounded covectors.
    """

    __slots__ = (
        "ground",
        "covectors",
        "dim",
        "pure",
        "support",
        "f_vector",
        "_set",
        "_ranks",
        "_poset",
    )

    def __init__(self, om: AffineOM, covectors: tuple[SignVector, ...]):
        # the ground set, not om: om caches this complex
        self.ground = om.ground
        self.covectors = covectors
        self._set = frozenset(covectors)
        heights = om.om.heights()
        self._ranks = {x: heights[x] for x in covectors}
        self._poset = om.om.order().subposet(covectors)
        maximal = self.maximal()
        max_ranks = {self._ranks[x] for x in maximal}
        self.dim = max(max_ranks) - 1
        self.pure = len(max_ranks) == 1
        supports = {x.support() for x in maximal}
        self.support = supports.pop() if len(supports) == 1 else None
        f = [0] * (self.dim + 1)
        for x in covectors:
            f[self._ranks[x] - 1] += 1
        self.f_vector = tuple(f)

    def __len__(self) -> int:
        return len(self.covectors)

    def __contains__(self, x) -> bool:
        return x in self._set

    def __iter__(self):
        return iter(self.covectors)

    @property
    def euler(self) -> int:
        return sum(
            (-1) ** k * count for k, count in enumerate(self.f_vector)
        )

    def face_dim(self, x: SignVector) -> int:
        """Dimension of a bounded face: its covector rank minus one."""
        if x not in self._set:
            raise MembershipError(f"{x} is not in the bounded complex")
        return self._ranks[x] - 1

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
    nonzero covector of another g-sign."""
    P = M.om.order()
    gi = M.g_index
    bad = 0
    for i, y in enumerate(P.elements):
        if not y.is_zero and y.sign(gi) is not Sign.PLUS:
            bad |= 1 << i
    kept = tuple(
        x
        for i, x in enumerate(P.elements)
        if x.sign(gi) is Sign.PLUS and not P._down[i] & bad
    )
    if not kept:
        raise OmtopError(
            "the bounded complex is empty, which cannot happen for an "
            "affine oriented matroid"
        )
    return BoundedComplex(M, kept)


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
    shares it, with its order, bounded complex and contraction."""
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
    deletion of supp(X).  pairs is built on its first read."""

    X: SignVector
    zero_set: tuple[int, ...]
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
    of X's up-set mask decides it, and the pairs are built on first
    read."""
    if X not in L:
        raise MembershipError(f"{X} is not a covector of this set")
    if X.is_zero:
        raise PreconditionError("the zero covector is excluded")
    order = L.order()
    size = _popcount(order._up[order.index(X)])
    zset = tuple(sorted(X.zero_set()))
    supp = X.support()

    def pairs():
        return tuple((y, y.delete(supp)) for y in order.up_set(X))

    expected = 3 ** len(zset)
    if size != expected:
        return CubeReport(
            X, zset, expected, size, pairs, False,
            f"|L_>=X| = {size}, expected 3^{len(zset)} = {expected}",
        )
    return CubeReport(X, zset, expected, size, pairs, True)


# ---------------------------------------------------------------------------
# the star of a bounded covector: C_X, D_X and their bijection
# ---------------------------------------------------------------------------


class Star:
    """Everything star-local to one bounded covector X: the ambient
    full-dimensional affine OM (restricting to E1 first if needed), the
    tope sets C_X and D_X, and the contraction they live over.

    Both tope sets are read off masks, in sign-string order: C_X is the
    up-set of X in L's order met with the topes outside L++, and D_X the
    topes of L/g that conform to X minus g."""

    __slots__ = (
        "om", "X", "restriction", "C_X", "D_X", "_contraction", "_cx",
        "__weakref__",
    )

    def __init__(self, M: AffineOM, X: SignVector):
        bc = M.bounded_complex()
        if X not in bc:
            raise MembershipError(
                f"{X} is not in the bounded complex"
            )
        if not (X._pos | X._neg) & ~(1 << M.g_index):
            raise PreconditionError(
                "X has support {g}; the degenerate case X minus g = 0 "
                "is excluded"
            )
        restriction = None
        full = frozenset(range(len(M.ground)))
        if bc.support != full:
            restriction = restrict_to_support(M)
            X = restriction.map(X)
            M = restriction.restricted
        self.om = M
        self.X = X
        self.restriction = restriction
        self._contraction = M.contraction()
        order = M.om.order()
        # C_X as a mask over L's order; X is bounded, so not in it
        self._cx = order._up[order.index(X)] & M._unbounded_topes()
        self.C_X = tuple(order.elements[k] for k in _bits(self._cx))
        xg = X.delete([M.g_index])
        p, n = xg._pos, xg._neg
        self.D_X = tuple(
            t for tp, tn, t in M._topes_at_infinity()
            if not (p & ~tp or n & ~tn)
        )

    @property
    def contraction(self) -> CovectorSet:
        return self._contraction

    def restrict(self, T: SignVector) -> SignVector:
        """r(T) = T minus g."""
        return T.delete([self.om.g_index])

    def lift(self, T: SignVector) -> SignVector:
        """h(T) = i(T) o X: re-insert g as zero, then compose with X."""
        low = (1 << self.om.g_index) - 1
        inserted = SignVector(
            T.n + 1,
            (T._pos & low) | (T._pos & ~low) << 1,
            (T._neg & low) | (T._neg & ~low) << 1,
        )
        return inserted.compose(self.X)


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of checking that restriction r and lifting h are inverse
    bijections between C_X and D_X."""

    X: SignVector
    pairs: tuple[tuple[SignVector, SignVector], ...]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def check_bijection(M: AffineOM, X: SignVector) -> BijectionReport:
    """Check that r and h are inverse bijections between C_X and D_X.
    Each t in C_X is >= X, so it is + at g and h(r(t)) = t: r is
    injective and h inverts it, and only r(C_X) = D_X can fail."""
    star = M.star(X)
    problems = []
    dset = set(star.D_X)
    pairs = tuple((t, star.restrict(t)) for t in star.C_X)
    for t, rt in pairs:
        if rt not in dset:
            problems.append(f"r({t}) = {rt} is not in D_X")
    for d in sorted(dset - {rt for _, rt in pairs}, key=str):
        problems.append(f"{d} in D_X has no preimage under r")
        h = star.lift(d)
        if h not in star.om.om:
            problems.append(f"h({d}) = {h} is not even a covector")
    return BijectionReport(X=star.X, pairs=pairs, problems=tuple(problems))


# ---------------------------------------------------------------------------
# shellings: [D_X] by linear extension, [C_X] by lifting
# ---------------------------------------------------------------------------


def shelling_of_DX(
    M: AffineOM, X: SignVector, B: SignVector | None = None
) -> list[SignVector]:
    """The topes of D_X in the order induced by the deterministic linear
    extension of the tope poset T(L/g, B), that is, sorted by
    :meth:`~omtop.matroid.TopePoset.sort_key`, computed from
    separation masks.

    D_X must be an order ideal of T(L/g, B), and only topes that are
    zero somewhere on S = supp(X minus g) can break that.  Lemma: for
    B in D_X and s <=_B t in D_X, s is never opposite X minus g on S.
    B and t both agree with X minus g on S, so sep(B, t) misses S, and
    sep(B, s) is inside sep(B, t).  A tope s that is nonzero on all of
    S therefore agrees with X minus g there and lies in D_X; the scan
    runs only over the topes that are zero somewhere on S.
    """
    star = M.star(X)
    if not star.D_X:
        raise PreconditionError(f"D_X is empty for X = {star.X}")
    if B is None:
        B = min(star.D_X, key=str)
    if B not in star.D_X:
        raise MembershipError(f"base tope {B} is not in D_X")
    xg = star.restrict(star.X)
    S = xg._pos | xg._neg
    partial = [
        (_separation(B, s), s)
        for _, _, s in star.om._topes_at_infinity()
        if (s._pos | s._neg) & S != S
    ]
    if partial:
        dset = set(star.D_X)
        for t in star.D_X:
            sep_t = _separation(B, t)
            for sep_s, s in partial:
                if not sep_s & ~sep_t and s not in dset:
                    raise OmtopError(
                        f"D_X is not an order ideal of T(L/g, {B}): "
                        f"{s} <= {t} but {s} is missing; the input is "
                        "not an affine oriented matroid"
                    )
    ground = star.contraction.ground
    return sorted(
        star.D_X,
        key=lambda t: _separation_key(ground, _separation(B, t)),
    )


@dataclass(frozen=True)
class InducedShelling:
    """The lifted facet order on [C_X] and its coatom-condition check
    inside the augmented face lattice with bottom X."""

    X: SignVector
    dx_order: tuple[SignVector, ...]
    order: tuple[SignVector, ...]
    report: ShellingReport | None  # None if lifting failed
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems and self.report is not None and self.report.ok

    def __bool__(self) -> bool:
        return self.ok


def induced_shelling_of_CX(
    M: AffineOM, X: SignVector, dx_order=None
) -> InducedShelling:
    """Lift a [D_X] shelling through h and verify it shells [C_X]: for
    every i < j some k < j has c_i ^ c_j <= c_k ^ c_j covered by c_j.

    The base tope matters: a linear extension of T(L/g, B) always shells
    [D_X], but its lift shells [C_X] only for suitable B (the interval
    [d_i, d_j] seen from d_i can order two of its topes opposite to how
    T(L/g, B) does when d_i and d_j are incomparable from B).  With
    dx_order unset, bases are tried in sorted order and the first lift
    that shells [C_X] is returned; a failing result is only reported
    when every base fails.  An explicit dx_order is checked as given.

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
    `simplicial`.

    A lift that leaves C_X, or that misses some tope of C_X (on a
    non-uniform input |C_X| can exceed |D_X|), is no order of the facets
    of [C_X], and an X whose L_>=X is not the cube has no flip decision:
    each is reported in `problems` with no shelling report.  On a
    uniform input the cube holds at every X by theorem.
    """
    star = M.star(X)
    order = star.om.om.order()
    size = _popcount(order._up[order.index(star.X)])
    zeros = len(star.X) - _popcount(star.X._pos | star.X._neg)
    cube = None
    if size != 3 ** zeros:
        cube = (
            f"L_>=X is not the sign cube on z(X): |L_>=X| = {size}, "
            f"expected 3^{zeros} = {3 ** zeros}"
        )
    if dx_order is None:
        first = None
        for B in star.D_X:  # in sign-string order
            cand = _lift_and_check(star, cube, shelling_of_DX(M, X, B))
            if cand.ok:
                return cand
            if first is None:
                first = cand
        if first is None:
            raise PreconditionError(f"D_X is empty for X = {star.X}")
        return first
    dx_order = list(dx_order)
    # D_X has no repeated tope, so equal lengths and equal sets make a
    # permutation
    if len(dx_order) != len(star.D_X) or set(dx_order) != set(star.D_X):
        raise PreconditionError(
            "dx_order must be a permutation of D_X"
        )
    return _lift_and_check(star, cube, dx_order)


def _lift_and_check(
    star: Star, cube: str | None, dx_order: list
) -> InducedShelling:
    """The lift of dx_order, a permutation of D_X, and its report; cube
    is the problem that L_>=X is not the cube, or None."""
    problems = []
    order = []
    index = star.om.om.order()._index
    for d in dx_order:
        c = star.lift(d)
        order.append(c)
        k = index.get(c)
        if k is None or not star._cx >> k & 1:
            problems.append(f"h({d}) = {c} is not in C_X")
    if not problems and len(set(order)) != len(star.C_X):
        # |C_X| > |D_X|, which a non-uniform input allows
        problems.append(
            f"h(D_X) covers {len(set(order))} of the "
            f"{len(star.C_X)} topes of C_X"
        )
    if cube is not None:
        problems.append(cube)
    report = None
    if not problems:
        failures = _flip_failures(order)
        report = ShellingReport(
            ok=not failures, mode="simplicial", failures=tuple(failures)
        )
    return InducedShelling(
        X=star.X,
        dx_order=tuple(dx_order),
        order=tuple(order),
        report=report,
        problems=tuple(problems),
    )


def _flip_failures(topes: list[SignVector]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, that fail the coatom condition on the
    facets of [C_X] in this order, by the flip lemma of
    `induced_shelling_of_CX`: j ascending, then i."""
    failures = []
    for j, cj in enumerate(topes):
        seps = [_separation(c, cj) for c in topes[:j]]
        flips = 0
        for s in seps:
            if not s & (s - 1):
                flips |= s
        failures.extend((i, j) for i, s in enumerate(seps) if not s & flips)
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
    gi = M.g_index
    bc = M.bounded_complex()
    cg = M.contraction()
    checked = 0
    witnesses = []
    for x in positive_part(M):
        xg = x.delete([gi])
        if xg.is_zero:
            continue
        checked += 1
        if (xg in cg) == (x in bc):
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
    bc = M.bounded_complex()
    if X not in bc:
        raise MembershipError(f"{X} is not in the bounded complex")
    P = bc.as_poset()
    above = _popcount(P._up[P.index(X)]) - 1
    if above == 0:
        case = "upper_empty"
    else:
        order = M.om.order()
        all_above = _popcount(order._up[order.index(X)]) - 1
        case = "upper_full" if all_above == above else "proper"
    return LinkDecomposition(
        X,
        lambda: P.strictly_below(X),
        lambda: P.strictly_above(X),
        case,
    )
