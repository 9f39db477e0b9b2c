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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import (
    MembershipError,
    OmtopError,
    PreconditionError,
)
from .matroid import (
    CovectorSet,
    contract,
    delete_minor,
    tope_poset,
    topes,
)
from .signvec import Sign, SignVector
from .topology import Poset


class AffineOM:
    """A covector set together with its distinguished element g.

    The covector set is expected to pass the axiom check (the pipeline
    runs it first); construction validates only what g requires: g is
    named on the ground set, |E| > 1, and g is not a loop.
    """

    __slots__ = ("om", "_bc", "_contraction", "_stars")

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

    def map(self, x: SignVector) -> SignVector:
        for a, b in self.pairs:
            if a == x:
                return b
        raise MembershipError(f"{x} is not a bounded covector")


def restrict_to_support(M: AffineOM) -> SupportRestriction:
    """Delete the elements outside E1 and verify that the bounded
    complexes correspond covector-for-covector, order included.  Each
    bounded covector is below a maximal one, so it is zero off E1 and
    deletion is an order embedding of L++: only the image can fail."""
    bc = M.bounded_complex()
    if bc.support is None:
        raise PreconditionError(
            "maximal bounded covectors do not share a support; "
            "no canonical restriction exists"
        )
    ground = M.ground
    drop = [
        ground.labels[i]
        for i in range(len(ground))
        if i not in bc.support
    ]
    if not drop:
        pairs = tuple((x, x) for x in bc.covectors)
        return SupportRestriction(M, M, (), pairs, True)
    drop_idx = ground.indices(drop)
    M2 = AffineOM(delete_minor(M.om, drop))
    bc2 = M2.bounded_complex()
    pairs = tuple((x, x.delete(drop_idx)) for x in bc.covectors)
    ok = {b for _, b in pairs} == set(bc2.covectors)
    return SupportRestriction(M, M2, tuple(drop), pairs, ok)


# ---------------------------------------------------------------------------
# the sign cube above a covector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeReport:
    """Verification that L_{>=X} is the full sign cube on z(X) under
    deletion of supp(X)."""

    X: SignVector
    zero_set: tuple[int, ...]
    expected_size: int
    actual_size: int
    pairs: tuple[tuple[SignVector, SignVector], ...]
    ok: bool
    counterexample: str | None = None


def cube_isomorphism(L: CovectorSet, X: SignVector) -> CubeReport:
    """Check that Y -> Y minus supp(X) maps L_{>=X} isomorphically onto
    {+,-,0}^{z(X)}.  True whenever L is uniform; on other input the
    report simply records how it fails.  Each Y >= X equals X on
    supp(X), so the deletion is an order embedding of L_{>=X} into the
    cube, and onto it exactly when |L_{>=X}| = 3^|z(X)|."""
    if X not in L:
        raise MembershipError(f"{X} is not a covector of this set")
    if X.is_zero:
        raise PreconditionError("the zero covector is excluded")
    supp = sorted(X.support())
    zset = tuple(sorted(X.zero_set()))
    up = L.order().up_set(X)
    pairs = tuple((y, y.delete(supp)) for y in up)
    expected = 3 ** len(zset)
    if len(up) != expected:
        return CubeReport(
            X, zset, expected, len(up), pairs, False,
            f"|L_>=X| = {len(up)}, expected 3^{len(zset)} = {expected}",
        )
    return CubeReport(X, zset, expected, len(up), pairs, True)


# ---------------------------------------------------------------------------
# the star of a bounded covector: C_X, D_X and their bijection
# ---------------------------------------------------------------------------


class Star:
    """Everything star-local to one bounded covector X: the ambient
    full-dimensional affine OM (restricting to E1 first if needed), the
    tope sets C_X and D_X, and the contraction they live over."""

    __slots__ = (
        "om", "X", "restriction", "C_X", "D_X", "_contraction", "__weakref__"
    )

    def __init__(self, M: AffineOM, X: SignVector):
        bc = M.bounded_complex()
        if X not in bc:
            raise MembershipError(
                f"{X} is not in the bounded complex"
            )
        if X.delete([M.g_index]).is_zero:
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
        bc = M.bounded_complex()
        gi = M.g_index
        all_topes = topes(M.om)
        self.C_X = tuple(
            t
            for t in M.om.order().up_set(X)
            if t in all_topes and t != X and t not in bc
        )
        xg = X.delete([gi])
        need = sorted(xg.support())
        self.D_X = tuple(
            sorted(
                (
                    t
                    for t in topes(self._contraction)
                    if all(t.sign(e) is xg.sign(e) for e in need)
                ),
                key=str,
            )
        )

    @property
    def contraction(self) -> CovectorSet:
        return self._contraction

    def restrict(self, T: SignVector) -> SignVector:
        """r(T) = T minus g."""
        return T.delete([self.om.g_index])

    def lift(self, T: SignVector) -> SignVector:
        """h(T) = i(T) o X: re-insert g as zero, then compose with X."""
        gi = self.om.g_index
        signs = list(T.signs)
        signs.insert(gi, Sign.ZERO)
        return SignVector.from_signs(signs).compose(self.X)


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
    extension of the tope poset T(L/g, B)."""
    star = M.star(X)
    if not star.D_X:
        raise PreconditionError(f"D_X is empty for X = {star.X}")
    if B is None:
        B = min(star.D_X, key=str)
    if B not in star.D_X:
        raise MembershipError(f"base tope {B} is not in D_X")
    P = tope_poset(star.contraction, B)
    dset = set(star.D_X)
    for t in star.D_X:
        for s in P.topes:
            if P.less_equal(s, t) and s not in dset:
                raise OmtopError(
                    f"D_X is not an order ideal of T(L/g, {B}): "
                    f"{s} <= {t} but {s} is missing; the input is not "
                    "an affine oriented matroid"
                )
    return sorted(star.D_X, key=P.sort_key)


@dataclass(frozen=True)
class InducedShelling:
    """The lifted facet order on [C_X] and its coatom-condition check
    inside the augmented face lattice with bottom X."""

    X: SignVector
    dx_order: tuple[SignVector, ...]
    order: tuple[SignVector, ...]
    report: object | None  # ShellingReport, None if lifting failed
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
    that verify_shelling certifies is returned; a failing result is only
    reported when every base fails.  An explicit dx_order is checked
    as given.
    """
    star = M.star(X)
    # the face poset of [C_X] above X, shared by every base tried
    order = star.om.om.order()
    cx = set(star.C_X)
    faces = order.subposet(
        y
        for y in order.up_set(star.X)
        if y != star.X and not cx.isdisjoint(order.up_set(y))
    )
    if dx_order is None:
        first = None
        for B in sorted(star.D_X, key=str):
            cand = _lift_and_check(star, faces, shelling_of_DX(M, X, B))
            if cand.ok:
                return cand
            if first is None:
                first = cand
        if first is None:
            raise PreconditionError(f"D_X is empty for X = {star.X}")
        return first
    return _lift_and_check(star, faces, list(dx_order))


def _lift_and_check(
    star: Star, faces: Poset, dx_order: list
) -> InducedShelling:
    from .topology import verify_shelling

    if sorted(dx_order, key=str) != sorted(star.D_X, key=str):
        raise PreconditionError(
            "dx_order must be a permutation of D_X"
        )
    problems = []
    order = []
    cset = set(star.C_X)
    for d in dx_order:
        c = star.lift(d)
        order.append(c)
        if c not in cset:
            problems.append(f"h({d}) = {c} is not in C_X")
    report = None
    if not problems:
        try:
            report = verify_shelling(faces, order)
        except PreconditionError as exc:
            problems.append(f"[C_X] face poset: {exc}")
    return InducedShelling(
        X=star.X,
        dx_order=tuple(dx_order),
        order=tuple(order),
        report=report,
        problems=tuple(problems),
    )


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
    everything strictly below X and everything strictly above."""

    X: SignVector
    lower: Poset
    upper: Poset
    case: str  # "upper_empty" | "upper_full" | "proper"


def link_decomposition(M: AffineOM, X: SignVector) -> LinkDecomposition:
    bc = M.bounded_complex()
    if X not in bc:
        raise MembershipError(f"{X} is not in the bounded complex")
    P = bc.as_poset()
    lower = P.strictly_below(X)
    upper = P.strictly_above(X)
    if len(upper) == 0:
        case = "upper_empty"
    else:
        all_above = len(M.om.order().up_set(X)) - 1
        case = "upper_full" if all_above == len(upper) else "proper"
    return LinkDecomposition(X=X, lower=lower, upper=upper, case=case)
