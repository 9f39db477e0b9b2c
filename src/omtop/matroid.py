"""Covector sets as first-class objects.

A CovectorSet is raw data: a finite set of sign vectors over a common
ground set.  The axiom checker reports failures as witness lists rather
than raising, so broken sets (mutation tests, bad input files) are
ordinary values.  Each coordinate's sign columns (the masks, over
:meth:`CovectorSet.sorted_covectors`, of the covectors with +, - and 0
there) are computed once, and the conformal order Y <= X on the set is
built from them as a bitmask poset (:meth:`CovectorSet.order`).  Every
order question is read from it: heights, topes, atoms, and the bounded
complex and upper intervals of the ``bounded`` module.  The axiom check
decides composition and elimination and lists their witnesses in one
pass over the order and the columns, with no scan of all pairs.  It
rests on five lemmas, proved in :func:`verify_covector_axioms`.
Composition is decided by counting: the classes of y -> y|Z, for a zero
set Z, are the nonempty meets of one sign column (plus, minus or zero)
per f in Z, so they are refined from the columns one coordinate at a
time, and the zero sets that share a prefix share its classes.  The
lemma that lists the elimination witnesses is this.  For sign vectors
X, Y and e in their separation set T, elimination for (X, Y, e) asks
for exactly the Z that elimination for (X o Y, Y o X, e) asks for:
X o Y and Y o X are X and Y where both are nonzero and agree elsewhere,
so their separation set is T, and (X o Y) o (Y o X) = X o Y, so both
ask for a Z zero at e and equal to X o Y off T.  A pair whose two
compositions lie in the set is therefore a witness pair iff the pair of
its compositions, which have equal support, is one.  The fourth decides
elimination on the atoms alone, from the cocircuit axioms with modular
elimination, so on an oriented matroid no pair of equal support is
visited; where that decision declines it concludes nothing, and the
pairs of equal support decide L3.  The fifth, the wall lemma, spares
most of those pairs on a set that is not an oriented matroid: a pair
of equal support separated at e meets elimination at e when either
vector with e zeroed lies in the set, so only the pairs opposite at
some e that is a wall of neither are tested, and only there.  Rank is
always poset height within the set itself, never an external matroid
oracle.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass

from .errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    MembershipError,
    OmtopError,
)
from .signvec import GroundSet, SignVector, _bits


class CovectorSet:
    """A set of sign vectors over a shared ground set (set semantics)."""

    __slots__ = (
        "ground", "covectors", "_sorted", "_columns", "_order", "_heights",
        "_topes", "_atoms",
    )

    def __init__(self, ground: GroundSet, covectors):
        self.ground = ground
        self.covectors = frozenset(covectors)
        n = len(ground)
        for x in self.covectors:
            if not isinstance(x, SignVector):
                raise DomainError(f"not a sign vector: {x!r}")
            if x.n != n:
                raise DimensionError(
                    f"covector {x} has length {x.n}, ground set has {n}"
                )
        self._sorted = None
        self._columns = None
        self._order = None
        self._heights = None
        self._topes = None
        self._atoms = None

    def __len__(self) -> int:
        return len(self.covectors)

    def __contains__(self, x) -> bool:
        return x in self.covectors

    def __iter__(self):
        return iter(self.sorted_covectors())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CovectorSet)
            and self.ground == other.ground
            and self.covectors == other.covectors
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.covectors))

    def __repr__(self) -> str:
        return f"CovectorSet({len(self.covectors)} covectors on {list(self.ground.labels)!r})"

    def sorted_covectors(self) -> tuple[SignVector, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.covectors, key=str))
        return self._sorted

    @property
    def zero(self) -> SignVector:
        return SignVector.zero(len(self.ground))

    def loops(self) -> frozenset[int]:
        """Elements that are zero in every covector."""
        seen = 0
        for x in self.covectors:
            seen |= x._pos | x._neg
        return frozenset(
            i for i in range(len(self.ground)) if not (seen >> i) & 1
        )

    # -- order and rank ------------------------------------------------------

    def _sign_columns(self) -> tuple[tuple[int, int, int], ...]:
        """For each coordinate f, the masks (plus, minus, zero) of the
        covectors with +, - and 0 at f; bit i is covector i of
        :meth:`sorted_covectors`."""
        if self._columns is None:
            covs = self.sorted_covectors()
            n = len(self.ground)
            plus = [0] * n
            minus = [0] * n
            for i, x in enumerate(covs):
                bit = 1 << i
                for f in _bits(x._pos):
                    plus[f] |= bit
                for f in _bits(x._neg):
                    minus[f] |= bit
            full = (1 << len(covs)) - 1
            self._columns = tuple(
                (p, m, full & ~(p | m)) for p, m in zip(plus, minus)
            )
        return self._columns

    def order(self):
        """The conformal order Y <= X on :meth:`sorted_covectors`, built
        once as a bitmask :class:`~omtop.topology.Poset` (each covector's
        down-set and up-set are integer masks over that order).

        Y <= X iff Y is 0 or X's sign at every coordinate, so the
        down-set of X is an AND over the coordinates f of f's zero
        column, OR'd with f's plus (minus) column where X is + (-)
        there.  Y >= X iff Y carries X's sign on supp X, so the up-set
        of X is the AND of X's own sign column at each f in supp X.
        Both are n ANDs per covector, with no pairwise comparison and no
        transpose."""
        if self._order is None:
            from .topology import Poset

            covs = self.sorted_covectors()
            columns = [(p, m, z, z | p, z | m)
                       for p, m, z in self._sign_columns()]
            full = (1 << len(covs)) - 1
            down = []
            up = []
            for x in covs:
                d = u = full
                for f, (p, m, z, zp, zm) in enumerate(columns):
                    bit = 1 << f
                    if x._pos & bit:
                        d &= zp
                        u &= p
                    elif x._neg & bit:
                        d &= zm
                        u &= m
                    else:
                        d &= z
                down.append(d)
                up.append(u)
            order = Poset.__new__(Poset)
            order._set(covs, down, up)
            self._order = order
        return self._order

    def heights(self) -> dict[SignVector, int]:
        """Length of a longest chain below each covector in the order
        Y <= X, read from :meth:`order`."""
        if self._heights is None:
            P = self.order()
            self._heights = dict(zip(P.elements, P._height_list()))
        return self._heights

    def rank(self) -> int:
        return max(self.order()._height_list(), default=0)


def covector_rank(L: CovectorSet, X: SignVector) -> int:
    """Length of a longest chain below X within L (0 for the zero vector)."""
    if X not in L:
        raise MembershipError(f"{X} is not a covector of this set")
    return L.heights()[X]


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the covector axiom check, witnesses included.

    l0: zero vector present; l1: closed under negation; l2: closed under
    composition; l3: elimination: for X, Y and e separating them there
    is Z zero at e agreeing with X o Y outside the separation set.
    """

    ground: GroundSet
    l0_ok: bool
    l1_ok: bool
    l2_ok: bool
    l3_ok: bool
    l1_witnesses: tuple[SignVector, ...] = ()
    l2_witnesses: tuple[tuple[SignVector, SignVector], ...] = ()
    l3_witnesses: tuple[tuple[SignVector, SignVector, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.l0_ok and self.l1_ok and self.l2_ok and self.l3_ok

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        labels = self.ground.labels
        names: dict[SignVector, str] = {}

        def name(x: SignVector) -> str:
            # a covector recurs across many witnesses: name it once
            s = names.get(x)
            if s is None:
                s = names[x] = str(x)
            return s

        return {
            "ok": self.ok,
            "l0_ok": self.l0_ok,
            "l1_ok": self.l1_ok,
            "l2_ok": self.l2_ok,
            "l3_ok": self.l3_ok,
            "l1_witnesses": [name(x) for x in self.l1_witnesses],
            "l2_witnesses": [[name(x), name(y)] for x, y in self.l2_witnesses],
            "l3_witnesses": [
                [name(x), name(y), labels[e]]
                for x, y, e in self.l3_witnesses
            ],
        }


def verify_covector_axioms(S: CovectorSet) -> AxiomReport:
    """Check the four covector axioms, with witnesses.

    L0 and L1 are read off the set directly.  Composition (L2) and
    elimination (L3) are decided and their witnesses listed in one pass
    over the order and the sign columns (:func:`_axiom_witnesses`),
    resting on five lemmas, for any finite set L of sign vectors.

    *L2 by counting.*  For x in L let z(x) be its zero set.  Then
    x o y in L for every y in L iff |L>=x| = |{y|z(x) : y in L}|.
    Proof: w >= x means w = x on supp(x), so w -> w|z(x) is injective
    on L>=x, with image inside P = {y|z(x) : y in L}.  The compositions
    x o y are exactly the vectors equal to x on supp(x) with restriction
    to z(x) in P, so there are |P| of them, and they contain L>=x.
    Hence they all lie in L iff they all lie in L>=x iff the two counts
    agree.  Where they differ, x o y lies in L iff y|z(x) = w|z(x) for
    some w in L>=x, so the y with x o y missing are those in the
    classes of y -> y|z(x) that L>=x does not meet.  The classes of
    y -> y|Z are the nonempty meets of one sign column per f in Z: y
    and y' restrict alike iff they lie in the same column (plus, minus
    or zero) at every f in Z.  So the classes for Z u {f} are the
    nonempty meets of the classes for Z with f's three columns, and
    |P| is their number.  The zero vector need not be checked: it lies
    below every covector, so 0 o y = y.

    *Elimination through compositions.*  For sign vectors X, Y and e in
    their separation set T, elimination for (X, Y, e) in L asks for
    exactly the Z that elimination for (X o Y, Y o X, e) asks for.
    Proof: X o Y and Y o X are X and Y on supp(X) n supp(Y) and agree
    elsewhere, so their separation set is T; and (X o Y) o (Y o X) =
    X o Y.  Both ask for Z in L zero at e and equal to X o Y off T.  So
    a pair of L with both compositions in L is a witness pair, at the
    same e, iff the pair of its compositions is, and those two have the
    same support.  Conversely, for x', y' in L of equal support U and
    separation set T, the x, y in L with x o y = x' and y o x = y' are
    exactly those with x <= x', y <= y', T inside supp(x) n supp(y) and
    supp(x) u supp(y) = U.  Proof: x o y = x' forces x <= x', y o x = y'
    forces y <= y', the supports to cover U, and the separation set T
    of the pair to lie in both supports.  Given these, x o y is x' on
    supp(x) and y = y' = x' on supp(y) - supp(x), which misses T, so
    x o y = x'; likewise y o x = y'.

    *L3 on equal supports.*  Hence if L satisfies L2, it satisfies L3
    iff elimination holds for every pair x, y in L with supp(x) =
    supp(y): every pair's compositions are such a pair.

    *L3 from the cocircuits.*  Let L satisfy L0, L1 and L2, and let A
    be its atoms.  Call x, y in A a modular pair when z(x) and z(y)
    both cover z(x) n z(y) among the zero sets of L.  Then L satisfies
    L3 iff (a) the supports of A are incomparable unless opposite,
    (b) every modular pair x, y of A eliminates: for each e in their
    separation set some z in A is zero at e, with z+ inside x+ u y+ and
    z- inside x- u y-, and (c) every x in L is the composition of the
    atoms below it, that is, their supports cover supp(x).  Proof: if
    L is the covector set of an oriented matroid, A is its set of
    cocircuits, which satisfies (a) and elimination, and every
    covector is the composition of the cocircuits below it (Bjorner,
    Las Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*,
    3.7).  Conversely, by L2 every union of supports of A is the
    support of a composition in L, and by (c) every support of L is
    such a union; so the zero sets of L are the complements of the
    lattice of unions of supports of A, and a pair that is modular in
    that lattice is a modular pair here.  A = -A by L1 and 0 is not in
    A, so (a) and (b) are the cocircuit axioms with modular
    elimination, which imply elimination on all pairs (ibid., 3.6):
    A is the cocircuit set of an oriented matroid.  Its covectors are
    the compositions of A (ibid., 3.7), which lie in L by L0 and L2 and
    are all of L by (c).  So L satisfies L3.

    The decision (:func:`_cocircuit_decline`) only shortcuts: when
    (a), (b) and (c) hold, L3 holds and has no witnesses.  When one of
    them fails, nothing is concluded from it; elimination is decided,
    and its witnesses listed, on the pairs of equal support.

    *Walls.*  For x in L and e in supp(x), call e a wall of x when x
    with e zeroed, x \\ e, lies in L.  Let x, y in L have equal support
    U, and let e separate them.  If e is a wall of x or of y, the pair
    meets elimination at e.  Proof: x o y = x, and off the separation
    set T, x and y agree (both are zero outside U, and inside U they
    differ only on T).  x \\ e is zero at e and equals x at every other
    coordinate, so off T it equals x o y; y \\ e is zero at e and equals
    y, so x, off T.  Either is a Z for (x, y, e).  So only the e in T
    that are walls of neither need a test, and only the pairs opposite
    at some such e (:func:`_elimination_witnesses`).
    """
    n = len(S.ground)
    covs = S.sorted_covectors()
    # each covector packed into one int; its negation swaps the halves
    packed = {x._pos | x._neg << n for x in covs}
    l0_ok = 0 in packed
    l1_witnesses = tuple(
        x for x in covs if x._neg | x._pos << n not in packed
    )
    l2_witnesses, l3_witnesses = _axiom_witnesses(
        S, l0_ok and not l1_witnesses
    )
    return AxiomReport(
        ground=S.ground,
        l0_ok=l0_ok,
        l1_ok=not l1_witnesses,
        l2_ok=not l2_witnesses,
        l3_ok=not l3_witnesses,
        l1_witnesses=l1_witnesses,
        l2_witnesses=l2_witnesses,
        l3_witnesses=l3_witnesses,
    )


def _axiom_witnesses(S: CovectorSet, l0_l1_ok: bool):
    """Every L2 and L3 witness, by the lemmas of
    :func:`verify_covector_axioms`: (x, y) with x o y missing, and
    (x, y, e) for each e separating x and y with no covector zero at e
    that agrees with x o y off the separation set.  They are listed as
    a scan of the pairs x before or at y in
    :meth:`~CovectorSet.sorted_covectors` order would list them.

    L2 compares the up-set size of each nonzero x with the number of
    classes of y -> y|z(x).  The distinct zero sets are walked in
    lexicographic order of their coordinates, with a stack holding the
    classes for each prefix: a new coordinate f refines the prefix's
    classes by f's plus, minus and zero columns.  Only where the counts
    differ are the missing compositions listed
    (:func:`_missed_compositions`).  The zero vector lies below every
    covector, so it is never a first factor that fails.  When L0, L1
    (the flag `l0_l1_ok`) and L2 hold and the atoms pass the cocircuit
    decision (:func:`_cocircuit_decline`), L3 holds and there is
    nothing to list.  Otherwise :func:`_elimination_witnesses` decides
    L3 and lists its witnesses.  On an oriented matroid only the counts
    and the cocircuits are examined."""
    covs = S.sorted_covectors()
    up = S.order()._up
    columns = S._sign_columns()
    full = (1 << len(S.ground)) - 1

    by_zero: dict[int, list[int]] = defaultdict(list)
    for i, x in enumerate(covs):
        if x._pos | x._neg:
            by_zero[full & ~(x._pos | x._neg)].append(i)

    # (i, j): covs[i] o covs[j] is missing
    l2 = []
    # stack[k]: the classes of y -> y|prefix[:k], as masks
    prefix: list[int] = []
    stack = [[(1 << len(covs)) - 1]]
    for coords, zero in sorted((tuple(_bits(z)), z) for z in by_zero):
        k = 0
        while k < len(prefix) and k < len(coords) and prefix[k] == coords[k]:
            k += 1
        del prefix[k:], stack[k + 1:]
        for f in coords[k:]:
            p, m, z = columns[f]
            stack.append(
                [c for cls in stack[-1] for c in (cls & p, cls & m, cls & z)
                 if c]
            )
            prefix.append(f)
        classes = stack[-1]
        for i in by_zero[zero]:
            if up[i].bit_count() != len(classes):
                missed = _missed_compositions(classes, up[i])
                l2.extend((i, j) for j in _bits(missed))

    if l0_l1_ok and not l2 and _cocircuit_decline(S) is None:
        return (), ()
    l3 = _elimination_witnesses(S, l2)
    l2.sort(key=lambda ij: (min(ij), max(ij), ij[0] > ij[1]))
    return (
        tuple((covs[i], covs[j]) for i, j in l2),
        tuple((covs[i], covs[j], e) for i, j, e in l3),
    )


def _cocircuit_decline(S: CovectorSet) -> str | None:
    """The first of the three checks of the cocircuit lemma of
    :func:`verify_covector_axioms` that fails on S, or None when all
    three pass and S therefore satisfies L3.  S must satisfy L0, L1 and
    L2.  The checks, on the atoms A of S, in the order they run:

    - ``"incomparable"``: the supports of A are incomparable unless
      opposite.  The atoms zero wherever an atom x is zero (an AND of
      zero columns) must be x and -x alone.
    - ``"modular"``: every modular pair x, y of A eliminates.  The
      supports of S that contain supp(x) are those of the covectors
      above x (for z in S, x o z lies above x, with support supp(x) u
      supp(z)), so y is a modular partner of x when supp(y) lies inside
      a minimal one of them, and x, y are a modular pair when each is a
      partner of the other.  For e separating them, some atom must be
      zero at e and below x o y off the separation set: an AND of the
      sign columns of A.  Of a pair and its negation, which eliminate
      together by L1, only one is checked.
    - ``"composition"``: every nonzero covector is the composition of
      the atoms below it, so its support is the union of theirs.  For
      each coordinate f, the covectors nonzero at f must all lie in the
      up-sets of the atoms nonzero at f."""
    covs = S.sorted_covectors()
    order = S.order()
    up, index = order._up, order._index
    zeros = [z for _, _, z in S._sign_columns()]
    n = len(S.ground)
    full = (1 << n) - 1
    support = [x._pos | x._neg for x in covs]
    atom = [i for i, d in enumerate(order._down) if d.bit_count() == 2]
    atom_mask = 0
    for i in atom:
        atom_mask |= 1 << i

    for i in atom:
        same = atom_mask
        for f in _bits(full & ~support[i]):
            same &= zeros[f]
        if same.bit_count() != 2:
            return "incomparable"

    within: dict[int, int] = {}  # a support -> the atoms inside it
    partners = {}
    for i in atom:
        above = {support[k] for k in _bits(up[i])}
        above.discard(support[i])
        minimal: list[int] = []
        mask = 0
        for u in sorted(above, key=int.bit_count):
            if any(v & u == v for v in minimal):
                continue
            minimal.append(u)
            if u not in within:
                inside = atom_mask
                for f in _bits(full & ~u):
                    inside &= zeros[f]
                within[u] = inside
            mask |= within[u]
        partners[i] = mask & ~(1 << i) & ~(1 << index[-covs[i]])
    # the sign columns of A: bit a stands for the atom covs[atom[a]]
    plus, minus, zero = [0] * n, [0] * n, [0] * n
    for a, i in enumerate(atom):
        x = covs[i]
        for f in range(n):
            if x._pos >> f & 1:
                plus[f] |= 1 << a
            elif x._neg >> f & 1:
                minus[f] |= 1 << a
            else:
                zero[f] |= 1 << a
    below = [(z, z | p, z | m) for p, m, z in zip(plus, minus, zero)]
    for i in atom:
        x = covs[i]
        # a pair x, y (i < j) is checked only when -x and -y come after x
        if index[-x] < i:
            continue
        for j in _bits(partners[i] >> (i + 1) << (i + 1)):
            if not partners[j] >> i & 1 or index[-covs[j]] < i:
                continue
            y = covs[j]
            sep = (x._pos & y._neg) | (x._neg & y._pos)
            if not sep:
                continue
            # x o y
            wp = x._pos | (y._pos & ~support[i])
            wn = x._neg | (y._neg & ~support[i])
            agree = -1
            for f, (z, zp, zm) in enumerate(below):
                if not sep >> f & 1:
                    agree &= zp if wp >> f & 1 else zm if wn >> f & 1 else z
            if not all(agree & zero[e] for e in _bits(sep)):
                return "modular"

    covered = [0] * n
    for i in atom:
        for f in _bits(support[i]):
            covered[f] |= up[i]
    nonzero = ((1 << len(covs)) - 1) & ~(1 << index[S.zero])
    if any(nonzero & ~z & ~c for z, c in zip(zeros, covered)):
        return "composition"
    return None


def _elimination_witnesses(S: CovectorSet, l2) -> list:
    """The L3 witnesses (i, j, e), i < j, as indices into
    :meth:`~CovectorSet.sorted_covectors`, given the L2 witness pairs
    `l2`.

    Pairs of equal support are settled by walls (the wall lemma of
    :func:`verify_covector_axioms`): e is a wall of x when x with e
    zeroed is in S, and a pair meets elimination at every e that is a
    wall of either.  In a support group G of support U, ``walled[e]``,
    the members with wall e, is the union of the up-sets of the
    covectors of support U - {e}, cut to G.  A later y can fail with x
    only at an e where they are opposite and that is a wall of neither,
    so x's candidates are an OR, over the e in U that are no wall of
    x, of the members opposite x at e outside ``walled[e]``.  For each
    candidate the covectors agreeing with x off the separation set are
    an AND of x's sign columns, tested only at the e that are walls of
    neither; each pair that fails is lifted to the pairs whose
    compositions it is (:func:`_pairs_below`).  A pair with a missing
    composition is checked by :func:`_unmet_eliminations`, whose answer
    depends only on x o y off the separation set T and on T, so it is
    asked once per such key; the memo lives for this call only."""
    covs = S.sorted_covectors()
    order = S.order()
    down, up = order._down, order._up
    columns = S._sign_columns()
    zeros = [z for _, _, z in columns]
    full = (1 << len(S.ground)) - 1
    l3 = []
    groups: dict[int, int] = defaultdict(int)  # a support -> its members
    for i, x in enumerate(covs):
        groups[x._pos | x._neg] |= 1 << i
    for support, G in groups.items():
        if not G & (G - 1):
            continue
        # the covectors zero off the support, where every member is zero
        inside = -1
        for f in _bits(full & ~support):
            inside &= zeros[f]
        walls: dict[int, int] = defaultdict(int)  # a member -> its walls
        # the members of G opposite a + (a -) at e with no wall at e
        open_minus, open_plus = {}, {}
        for e in _bits(support):
            walled = 0
            for k in _bits(groups.get(support & ~(1 << e), 0)):
                walled |= up[k]
            walled &= G
            for k in _bits(walled):
                walls[k] |= 1 << e
            p, m, _ = columns[e]
            open_minus[e] = m & G & ~walled
            open_plus[e] = p & G & ~walled
        support_columns = [(1 << f, columns[f]) for f in _bits(support)]
        for i in _bits(G):
            x = covs[i]
            xwalls = walls[i]
            candidates = 0
            for e in _bits(support & ~xwalls):
                candidates |= (open_minus[e] if x._pos >> e & 1
                               else open_plus[e])
            # the later members only: bit k now stands for covs[i + 1 + k]
            candidates >>= i + 1
            if not candidates:
                continue
            # x's own column at each coordinate of the support: the
            # covectors agreeing with x there
            own = [(bit, p if x._pos & bit else m)
                   for bit, (p, m, _) in support_columns]
            for j in _bits(candidates):
                j += i + 1
                y = covs[j]
                sep = (x._pos & y._neg) | (x._neg & y._pos)
                agree = inside
                for bit, col in own:
                    if not sep & bit:
                        agree &= col
                unmet = [e for e in _bits(sep & ~xwalls & ~walls[j])
                         if not agree & zeros[e]]
                if not unmet:
                    continue
                for p, q in _pairs_below(covs, down, zeros, i, j, sep,
                                         support):
                    lo, hi = (p, q) if p < q else (q, p)
                    l3.extend((lo, hi, e) for e in unmet)
    unmet_at: dict[tuple[int, int, int], list[int]] = {}
    for lo, hi in {(i, j) if i < j else (j, i) for i, j in l2}:
        x, y = covs[lo], covs[hi]
        sep = (x._pos & y._neg) | (x._neg & y._pos)
        # x o y off the separation set
        key = ((x._pos | y._pos) & ~sep, (x._neg | y._neg) & ~sep, sep)
        unmet = unmet_at.get(key)
        if unmet is None:
            unmet = unmet_at[key] = _unmet_eliminations(columns, x, y)
        l3.extend((lo, hi, e) for e in unmet)
    l3.sort()
    return l3


def _missed_compositions(classes, up: int) -> int:
    """The mask of the y with x o y missing, for x with up-set mask `up`
    and `classes` the classes of y -> y|z(x): the classes that L>=x does
    not meet."""
    missed = 0
    for c in classes:
        if not c & up:
            missed |= c
    return missed


def _pairs_below(covs, down, zeros, i: int, j: int, sep: int, support: int):
    """The pairs (p, q) of indices with covs[p] o covs[q] = covs[i] and
    covs[q] o covs[p] = covs[j], for covs[i] and covs[j] of equal
    support `support` and separation set `sep`: covs[p] <= covs[i] and
    covs[q] <= covs[j], both nonzero on `sep`, with supports covering
    `support`."""
    on_sep = -1
    for e in _bits(sep):
        on_sep &= ~zeros[e]
    ys = down[j] & on_sep
    for p in _bits(down[i] & on_sep):
        x = covs[p]
        qs = ys
        for f in _bits(support & ~(x._pos | x._neg)):
            qs &= ~zeros[f]
        for q in _bits(qs):
            yield p, q


def _unmet_eliminations(columns, x: SignVector, y: SignVector) -> list[int]:
    """The e separating x and y for which no covector is zero at e and
    agrees with x o y off the separation set: an AND of the sign columns
    of x o y there, then one test against each zero column."""
    sep = (x._pos & y._neg) | (x._neg & y._pos)
    taken = x._pos | x._neg
    wp = x._pos | (y._pos & ~taken)
    wn = x._neg | (y._neg & ~taken)
    agree = -1
    for f, (p, m, z) in enumerate(columns):
        if not sep >> f & 1:
            agree &= p if wp >> f & 1 else m if wn >> f & 1 else z
    return [e for e in _bits(sep) if not agree & columns[e][2]]


# ---------------------------------------------------------------------------
# uniformity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformityReport:
    uniform: bool
    rank: int
    zero_set_witness: frozenset[int] | None = None
    rank_witness: SignVector | None = None

    def __bool__(self) -> bool:
        return self.uniform

    def to_json(self, ground: GroundSet) -> dict:
        return {
            "uniform": self.uniform,
            "rank": self.rank,
            "zero_set_witness": (
                None
                if self.zero_set_witness is None
                else sorted(ground.labels[i] for i in self.zero_set_witness)
            ),
            "rank_witness": (
                None if self.rank_witness is None else str(self.rank_witness)
            ),
        }


def is_uniform(L: CovectorSet) -> UniformityReport:
    """Check both uniformity criteria: every subset of size < rank is a
    zero set, and rank(X) = rank - |z(X)| throughout.  They must agree
    on a covector set satisfying the axioms."""
    r = L.rank()
    n = len(L.ground)
    full = (1 << n) - 1

    # zero sets and the subsets of size < r as masks
    zero_sets = {full & ~(x._pos | x._neg) for x in L.covectors}
    bits = [1 << f for f in range(n)]
    missing = next(
        (F for k in range(r) for F in itertools.combinations(bits, k)
         if sum(F) not in zero_sets),
        None,
    )
    zs_witness = None if missing is None else frozenset(_bits(sum(missing)))

    rk_witness = None
    for x, h in zip(L.sorted_covectors(), L.order()._height_list()):
        support = x._pos | x._neg
        if support and h != r - (n - support.bit_count()):
            rk_witness = x
            break

    if (zs_witness is None) != (rk_witness is None):
        raise OmtopError(
            "uniformity criteria disagree; the input is not a covector set "
            "of an oriented matroid"
        )
    return UniformityReport(
        uniform=zs_witness is None,
        rank=r,
        zero_set_witness=zs_witness,
        rank_witness=rk_witness,
    )


# ---------------------------------------------------------------------------
# topes, atoms, minors
# ---------------------------------------------------------------------------


def topes(L: CovectorSet) -> frozenset[SignVector]:
    """Maximal covectors, read from the order.  Cached: star
    computations ask for the topes of the same set many times over."""
    if L._topes is None:
        L._topes = frozenset(L.order().maximal_elements())
    return L._topes


def atoms(L: CovectorSet) -> frozenset[SignVector]:
    """Minimal nonzero covectors: the covers of the zero vector, or the
    minimal elements when the set lacks it."""
    if L._atoms is None:
        P = L.order()
        out = P.upper_covers(L.zero) if L.zero in L else P.minimal_elements()
        L._atoms = frozenset(out)
    return L._atoms


def delete_minor(L: CovectorSet, labels) -> CovectorSet:
    """Deletion: restrict every covector to the remaining elements."""
    idx = L.ground.indices(labels)
    ground = L.ground.without(L.ground.labels[i] for i in idx)
    return CovectorSet(ground, {x.delete(idx) for x in L.covectors})


def contract(L: CovectorSet, labels) -> CovectorSet:
    """Contraction: keep covectors vanishing on the elements, restricted."""
    idx = L.ground.indices(labels)
    mask = 0
    for i in idx:
        mask |= 1 << i
    ground = L.ground.without(L.ground.labels[i] for i in idx)
    return CovectorSet(
        ground,
        {x.delete(idx) for x in L.covectors if not ((x._pos | x._neg) & mask)},
    )


# ---------------------------------------------------------------------------
# tope posets
# ---------------------------------------------------------------------------


class TopePoset:
    """Topes ordered by containment of separation sets from a base tope."""

    __slots__ = ("ground", "base", "topes", "_sep", "_poset")

    def __init__(self, L: CovectorSet, base: SignVector):
        ts = topes(L)
        if base not in ts:
            raise MembershipError(f"{base} is not a tope")
        self.ground = L.ground
        self.base = base
        self.topes = tuple(sorted(ts, key=str))
        self._sep = {t: _separation(base, t) for t in self.topes}
        self._poset = None

    def __len__(self) -> int:
        return len(self.topes)

    def less_equal(self, t1: SignVector, t2: SignVector) -> bool:
        s1, s2 = self._sep[t1], self._sep[t2]
        return (s1 & ~s2) == 0

    def as_poset(self):
        if self._poset is None:
            from .topology import Poset

            self._poset = Poset(self.topes, self.less_equal)
        return self._poset

    def sort_key(self, t: SignVector):
        """Deterministic extension key: separation-set size, then the
        sorted separation labels."""
        return _separation_key(self.ground, self._sep[t])

    def linear_extension(self) -> list[SignVector]:
        """Deterministic linear extension by sort_key.  Size order alone
        already refines the poset order, so sorting is a valid
        extension."""
        return sorted(self.topes, key=self.sort_key)

    def random_linear_extension(self, rng) -> list[SignVector]:
        return self.as_poset().random_linear_extension(rng)

    def order_ideal(self, members) -> bool:
        """Is the given tope subset downward closed?"""
        ms = set(members)
        return all(
            (a in ms) or (b not in ms)
            for a in self.topes
            for b in self.topes
            if self.less_equal(a, b)
        )


def tope_poset(L: CovectorSet, base: SignVector) -> TopePoset:
    return TopePoset(L, base)


def _separation(base: SignVector, t: SignVector) -> int:
    """The mask of the coordinates where base and t have opposite signs."""
    return (base._pos & t._neg) | (base._neg & t._pos)


def _separation_key(ground: GroundSet, sep: int):
    """:meth:`TopePoset.sort_key` of the tope whose separation mask from
    the base is sep.  Topes have full support, so the base and sep
    determine the tope, and distinct topes get distinct keys."""
    labels = tuple(sorted(ground.labels[i] for i in _bits(sep)))
    return (sep.bit_count(), labels)


# ---------------------------------------------------------------------------
# covector file format
# ---------------------------------------------------------------------------

_SIGN_RE = re.compile(r"^[+\-0]+$")


def parse_covector_file(text: str, source: str = "<string>") -> CovectorSet:
    """Covector file: first content line lists the element labels, an
    optional `g <label>` line follows, then one sign string per line.
    `#` starts a comment; duplicate sign lines are rejected."""
    labels = None
    g = None
    vecs: list[SignVector] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            labels = line.split()
            continue
        tokens = line.split()
        if tokens[0] == "g" and g is None and not vecs:
            if len(tokens) != 2:
                raise InputFormatError(
                    "g line must be `g <label>`", source=source, line=lineno
                )
            g = tokens[1]
            if g not in labels:
                raise InputFormatError(
                    f"g element {g!r} is not among the labels",
                    source=source,
                    line=lineno,
                )
            continue
        if len(tokens) != 1 or not _SIGN_RE.match(tokens[0]):
            raise InputFormatError(
                f"expected a sign string over +-0, got {line!r}",
                source=source,
                line=lineno,
            )
        s = tokens[0]
        if len(s) != len(labels):
            raise InputFormatError(
                f"sign string has length {len(s)}, expected {len(labels)}",
                source=source,
                line=lineno,
            )
        if s in seen:
            raise InputFormatError(
                f"duplicate covector {s!r}", source=source, line=lineno
            )
        seen.add(s)
        vecs.append(SignVector.from_string(s))
    if labels is None:
        raise InputFormatError("no element labels found", source=source)
    try:
        ground = GroundSet(labels, g=g)
    except DomainError as exc:
        raise InputFormatError(str(exc), source=source) from None
    return CovectorSet(ground, vecs)


def format_covector_file(S: CovectorSet) -> str:
    lines = [" ".join(S.ground.labels)]
    if S.ground.g is not None:
        lines.append(f"g {S.ground.g}")
    lines.extend(str(x) for x in S.sorted_covectors())
    return "\n".join(lines) + "\n"
