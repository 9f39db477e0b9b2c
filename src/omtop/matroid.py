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
rests on three lemmas, proved in :func:`verify_covector_axioms`; the
one that lists the elimination witnesses is this.  For sign vectors
X, Y and e in their separation set T, elimination for (X, Y, e) asks
for exactly the Z that elimination for (X o Y, Y o X, e) asks for:
X o Y and Y o X are X and Y where both are nonzero and agree elsewhere,
so their separation set is T, and (X o Y) o (Y o X) = X o Y, so both
ask for a Z zero at e and equal to X o Y off T.  A pair whose two
compositions lie in the set is therefore a witness pair iff the pair of
its compositions, which have equal support, is one.  Rank is always
poset height within the set itself, never an external matroid oracle.
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
        there: n ANDs per covector, and no pairwise comparison."""
        if self._order is None:
            from .topology import Poset

            covs = self.sorted_covectors()
            below = [(z, z | p, z | m) for p, m, z in self._sign_columns()]
            full = (1 << len(covs)) - 1
            down = []
            for x in covs:
                mask = full
                for f, (z, zp, zm) in enumerate(below):
                    bit = 1 << f
                    mask &= zp if x._pos & bit else zm if x._neg & bit else z
                down.append(mask)
            order = Poset.__new__(Poset)
            order._set(covs, down)
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
        return max(self.heights().values(), default=0)


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
        return {
            "ok": self.ok,
            "l0_ok": self.l0_ok,
            "l1_ok": self.l1_ok,
            "l2_ok": self.l2_ok,
            "l3_ok": self.l3_ok,
            "l1_witnesses": [str(x) for x in self.l1_witnesses],
            "l2_witnesses": [[str(x), str(y)] for x, y in self.l2_witnesses],
            "l3_witnesses": [
                [str(x), str(y), labels[e]] for x, y, e in self.l3_witnesses
            ],
        }


def verify_covector_axioms(S: CovectorSet) -> AxiomReport:
    """Check the four covector axioms, with witnesses.

    L0 and L1 are read off the set directly.  Composition (L2) and
    elimination (L3) are decided and their witnesses listed in one pass
    over the order and the sign columns (:func:`_axiom_witnesses`),
    resting on three lemmas, for any finite set L of sign vectors.

    *L2 by counting.*  For x in L let z(x) be its zero set.  Then
    x o y in L for every y in L iff |L>=x| = |{y|z(x) : y in L}|.
    Proof: w >= x means w = x on supp(x), so w -> w|z(x) is injective
    on L>=x, with image inside P = {y|z(x) : y in L}.  The compositions
    x o y are exactly the vectors equal to x on supp(x) with restriction
    to z(x) in P, so there are |P| of them, and they contain L>=x.
    Hence they all lie in L iff they all lie in L>=x iff the two counts
    agree.  Where they differ, x o y lies in L iff y|z(x) = w|z(x) for
    some w in L>=x, so the y with x o y missing are those outside the
    classes of y -> y|z(x) that L>=x meets.

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
    """
    n = len(S.ground)
    cset = S.covectors
    l0_ok = SignVector.zero(n) in cset
    l1_witnesses = tuple(x for x in S.sorted_covectors() if -x not in cset)
    l2_witnesses, l3_witnesses = _axiom_witnesses(S)
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


def _axiom_witnesses(S: CovectorSet):
    """Every L2 and L3 witness, by the lemmas of
    :func:`verify_covector_axioms`: (x, y) with x o y missing, and
    (x, y, e) for each e separating x and y with no covector zero at e
    that agrees with x o y off the separation set.  They are listed as
    a scan of the pairs x before or at y in
    :meth:`~CovectorSet.sorted_covectors` order would list them.

    L2 compares up-set sizes with the number of restrictions to each
    zero set, and only where they differ builds the classes of those
    restrictions (:func:`_restriction_classes`).  L3 checks each pair of
    equal support, an AND of sign columns, and lifts each that fails to
    the pairs whose compositions it is (:func:`_pairs_below`); the pairs
    with a missing composition, the L2 witnesses, are checked one by one
    (:func:`_unmet_eliminations`).  On an oriented matroid only the
    counts and the equal-support pairs are examined."""
    covs = S.sorted_covectors()
    order = S.order()
    up, down = order._up, order._down
    columns = S._sign_columns()
    zeros = [z for _, _, z in columns]
    full = (1 << len(S.ground)) - 1
    every = (1 << len(covs)) - 1

    # (i, j): covs[i] o covs[j] is missing
    l2 = []
    counts: dict[int, int] = {}
    classes_of: dict[int, dict[tuple[int, int], int]] = {}
    for i, x in enumerate(covs):
        zero = full & ~(x._pos | x._neg)
        count = counts.get(zero)
        if count is None:
            count = len({(y._pos & zero, y._neg & zero) for y in covs})
            counts[zero] = count
        if up[i].bit_count() == count:
            continue
        classes = classes_of.get(zero)
        if classes is None:
            classes = classes_of[zero] = _restriction_classes(covs, zero)
        hit = 0
        for k in _bits(up[i]):
            w = covs[k]
            hit |= classes[w._pos & zero, w._neg & zero]
        l2.extend((i, j) for j in _bits(every & ~hit))

    # (i, j, e) with i < j
    l3 = []
    same_support = defaultdict(list)
    for i, x in enumerate(covs):
        # x's own column at each coordinate: the covectors agreeing there
        own = [p if x._pos >> f & 1 else m if x._neg >> f & 1 else z
               for f, (p, m, z) in enumerate(columns)]
        same_support[x._pos | x._neg].append((x, i, own))
    for support, group in same_support.items():
        for a, (x, i, own) in enumerate(group):
            for y, j, _ in group[a + 1:]:
                # equal supports and x != y: S(x, y) is not empty, and
                # x o y = x
                sep = (x._pos & y._neg) | (x._neg & y._pos)
                agree = -1
                for f, col in enumerate(own):
                    if not sep >> f & 1:
                        agree &= col
                if all(agree & zeros[e] for e in _bits(sep)):
                    continue
                unmet = [e for e in _bits(sep) if not agree & zeros[e]]
                for p, q in _pairs_below(covs, down, zeros, i, j, sep,
                                         support):
                    lo, hi = (p, q) if p < q else (q, p)
                    l3.extend((lo, hi, e) for e in unmet)
    for lo, hi in {(i, j) if i < j else (j, i) for i, j in l2}:
        l3.extend(
            (lo, hi, e)
            for e in _unmet_eliminations(columns, covs[lo], covs[hi])
        )

    l2.sort(key=lambda ij: (min(ij), max(ij), ij[0] > ij[1]))
    l3.sort()
    return (
        tuple((covs[i], covs[j]) for i, j in l2),
        tuple((covs[i], covs[j], e) for i, j, e in l3),
    )


def _restriction_classes(covs, zero: int) -> dict[tuple[int, int], int]:
    """The covectors grouped by their restriction to the coordinates in
    `zero`: each restriction's mask over `covs`."""
    classes: dict[tuple[int, int], int] = defaultdict(int)
    for j, y in enumerate(covs):
        classes[y._pos & zero, y._neg & zero] |= 1 << j
    return classes


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

    zero_sets = {x.zero_set() for x in L.covectors}
    zs_witness = None
    for k in range(r):
        for F in itertools.combinations(range(n), k):
            if frozenset(F) not in zero_sets:
                zs_witness = frozenset(F)
                break
        if zs_witness is not None:
            break

    heights = L.heights()
    rk_witness = None
    for x in sorted(L.covectors, key=str):
        if x.is_zero:
            continue
        if heights[x] != r - len(x.zero_set()):
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
        self._sep = {
            t: (base._pos & t._neg) | (base._neg & t._pos) for t in self.topes
        }
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
        sorted separation labels, then the sign string."""
        sep = self._sep[t]
        labels = tuple(
            sorted(self.ground.labels[i] for i in _bits(sep))
        )
        return (bin(sep).count("1"), labels, str(t))

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
