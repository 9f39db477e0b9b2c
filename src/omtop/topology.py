"""Finite posets read as the face posets of regular cell complexes,
with exact integral homology, collapsibility search, and link
certification by induction on a cell poset.

One cell table (`_Cells`: the cover relation as masks, with heights,
built once per poset) serves every computation on a complex: the
collapse search and its replay, the link certificates, and homology,
each on a window of the poset's own cells.  A cell complex is never
subdivided into its order complex: the order complex Delta(P) is the
barycentric subdivision of the complex whose face poset is P, so its
homology is the cellular homology of P (Bjorner, "Posets, regular CW
complexes and Bruhat order", 1984).  Everything is exact: homology is
computed over the integers (Smith normal form after removing collapse
and coreduction pairs), collapse and shelling results are certificates
or witness-carrying reports, never floats or heuristic verdicts.  The
order complex of the empty poset is {emptyset}, the (-1)-sphere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    DomainError,
    MembershipError,
    PreconditionError,
)
from .signvec import _bits


def _vkey(v) -> tuple[str, str]:
    # deterministic total order on mixed-type vertices
    return (type(v).__name__, str(v))


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------


class Poset:
    """A finite poset given by elements (in a fixed, caller-chosen order)
    and a reflexive `less_equal` predicate.

    The full relation is materialized as per-element bitmasks, so
    comparisons, heights and intervals are cheap afterwards.
    """

    __slots__ = ("elements", "_index", "_down", "_up", "_heights", "_cells")

    def __init__(self, elements: Iterable, less_equal: Callable):
        elements = tuple(elements)
        n = len(elements)
        down = [0] * n
        up = [0] * n
        for i, x in enumerate(elements):
            bit = 1 << i
            m = 0
            for j, y in enumerate(elements):
                if less_equal(y, x):
                    m |= 1 << j
                    up[j] |= bit
            down[i] = m
        self._set(elements, down, up)

    def _set(self, elements: tuple, down: list[int], up: list[int]) -> None:
        """Store the elements and the relation given by its down-set
        masks (bit j of down[i] is set iff element j <= element i) and
        its up-set masks (bit j of up[i] is set iff element j >= element
        i), checking that it is a partial order."""
        self.elements = elements
        # one hash per element; the duplicate is looked for only to
        # name it
        self._index = {x: i for i, x in enumerate(elements)}
        if len(self._index) != len(elements):
            seen = set()
            for x in elements:
                if x in seen:
                    raise DomainError(f"duplicate poset element {x!r}")
                seen.add(x)
        n = len(down)
        for i in range(n):
            if not (down[i] >> i) & 1:
                raise DomainError("less_equal is not reflexive")
        for i in range(n):
            both = down[i] & up[i]
            if both != (1 << i):
                raise DomainError("less_equal is not antisymmetric")
        self._down = down
        self._up = up
        self._heights = None
        self._cells = None

    # -- basics ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __iter__(self):
        return iter(self.elements)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise MembershipError(f"{x!r} is not a poset element") from None

    def less_equal(self, x, y) -> bool:
        return bool(self._down[self.index(y)] >> self.index(x) & 1)

    def up_set(self, x) -> tuple:
        """The elements y >= x, in element order."""
        mask = self._up[self.index(x)]
        return tuple(self.elements[j] for j in _bits(mask))

    # -- structure ------------------------------------------------------

    def maximal_elements(self) -> list:
        return [x for i, x in enumerate(self.elements) if self._up[i] == 1 << i]

    def _height_list(self) -> list[int]:
        """The height of each element, by levels.

        *Level lemma.*  The height of x, the length of a longest chain
        ending at x, is the least k such that every element strictly
        below x has height < k.  So the elements of height k are those
        not yet placed whose strict down-set lies inside the levels
        < k, and the levels are assigned one round each: O(height * |P|)
        mask tests, with no pass over the bits of a down-set.  A round
        that places nothing means the relation has a cycle."""
        if self._heights is None:
            down = self._down
            h = [0] * len(down)
            rest = range(len(down))
            placed = 0
            k = 0
            while rest:
                unplaced = ~placed
                level = 0
                left = []
                for i in rest:
                    if down[i] & unplaced == 1 << i:
                        h[i] = k
                        level |= 1 << i
                    else:
                        left.append(i)
                if not level:
                    raise DomainError("less_equal has a cycle")
                placed |= level
                rest = left
                k += 1
            self._heights = h
        return self._heights

    def height(self, x=None) -> int:
        """Length of a longest chain ending at x (or overall if x is None)."""
        hs = self._height_list()
        if x is None:
            return max(hs, default=0)
        return hs[self.index(x)]

    # -- derived posets ---------------------------------------------------

    def _induced(self, mask: int) -> "Poset":
        """The induced order on the elements whose bits mask sets.  An
        induced order of a partial order is one, so nothing is checked:
        both relation masks are re-indexed."""
        keep = list(_bits(mask))
        pos = {i: k for k, i in enumerate(keep)}
        down = []
        up = []
        for i in keep:
            d = u = 0
            for j in _bits(self._down[i] & mask):
                d |= 1 << pos[j]
            for j in _bits(self._up[i] & mask):
                u |= 1 << pos[j]
            down.append(d)
            up.append(u)
        sub = Poset.__new__(Poset)
        sub.elements = tuple(self.elements[i] for i in keep)
        sub._index = {x: k for k, x in enumerate(sub.elements)}
        sub._down = down
        sub._up = up
        sub._heights = None
        sub._cells = None
        return sub

    def strictly_below(self, x) -> "Poset":
        j = self.index(x)
        return self._induced(self._down[j] & ~(1 << j))

    def strictly_above(self, x) -> "Poset":
        i = self.index(x)
        return self._induced(self._up[i] & ~(1 << i))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements)"


def _popcount(mask: int) -> int:
    return mask.bit_count()


def _chain_counts(P: Poset) -> tuple[int, ...]:
    """The f-vector of the order complex Delta(P) without the complex:
    entry k counts the chains of k + 1 elements, read off P's masks."""
    hs = P._height_list()
    f = [0] * (max(hs) + 1 if hs else 0)
    ending: list = [None] * len(P)  # ending[i][k]: chains of k + 1 topped by i
    for i in sorted(range(len(P)), key=hs.__getitem__):
        c = [1] + [0] * hs[i]
        for j in _bits(P._down[i] & ~(1 << i)):
            for k, m in enumerate(ending[j]):
                c[k + 1] += m
        ending[i] = c
        for k, m in enumerate(c):
            f[k] += m
    return tuple(f)


# ---------------------------------------------------------------------------
# integral homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyTable:
    """Integral homology of the order complex of a poset (`homology`),
    or of a link read off its certificate.

    `betti` and `torsion` are unreduced, indexed by dimension 0..dim.
    `reduced_betti` differs only in dimension 0.  `minus_one` is the rank
    of the reduced (-1)-st group (1 exactly for {emptyset}, the order
    complex of no cells).
    """

    dim: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced_betti: tuple[int, ...]
    minus_one: int = 0

    @classmethod
    def point(cls, dim: int) -> "HomologyTable":
        """The table `homology` gives a collapsible complex of dimension
        dim >= 0: the homology of a point."""
        return cls(
            dim=dim,
            betti=(1,) + (0,) * dim,
            torsion=((),) * (dim + 1),
            reduced_betti=(0,) * (dim + 1),
        )

    @classmethod
    def sphere(cls, dim: int) -> "HomologyTable":
        """The table `homology` gives a PL sphere of dimension dim >= -1,
        the (dim + 1)-fold suspension of {emptyset}."""
        empty = cls(dim=-1, betti=(), torsion=(), reduced_betti=(), minus_one=1)
        return empty.suspension(dim + 1)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "reduced_betti": list(self.reduced_betti),
        }

    def is_sphere(self, d: int) -> bool:
        """Reduced homology of the d-sphere, d >= -1."""
        if any(self.torsion[k] for k in range(len(self.torsion))):
            return False
        if d == -1:
            return self.minus_one == 1 and not any(self.reduced_betti)
        if self.minus_one:
            return False
        expected = tuple(
            1 if k == d else 0 for k in range(len(self.reduced_betti))
        )
        return self.reduced_betti == expected and len(self.reduced_betti) > d

    def suspension(self, k: int) -> "HomologyTable":
        """The table of the join of a (k-1)-sphere with a nonvoid complex
        that has this table (its k-fold suspension, k >= 0): every
        reduced group moves up k dimensions."""
        if k == 0:
            return self
        rb = (0,) * (k - 1) + (self.minus_one,) + self.reduced_betti
        return HomologyTable(
            dim=self.dim + k,
            betti=(rb[0] + 1,) + rb[1:],
            torsion=((),) * k + self.torsion,
            reduced_betti=rb,
        )

    def is_ball(self) -> bool:
        """Reduced homology of a point (all reduced groups vanish)."""
        return (
            self.minus_one == 0
            and not any(self.reduced_betti)
            and not any(self.torsion)
        )


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, d1 | d2 | ...

    Dense textbook algorithm; meant for the few cells `homology` leaves
    after removing collapse and coreduction pairs, and for direct use in
    tests.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    out: list[int] = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = m[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for r in m:
            r[top], r[pj] = r[pj], r[top]
        while True:
            p = m[top][top]
            done = True
            for i in range(top + 1, nr):
                if m[i][top]:
                    q = m[i][top] // p
                    if q:
                        for j in range(top, nc):
                            m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, nc):
                if m[top][j]:
                    q = m[top][j] // p
                    if q:
                        for i in range(top, nr):
                            m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(top, nr):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        done = False
                        break
            if done:
                break
        # pivot must divide the rest of the submatrix for the divisibility chain
        p = m[top][top]
        fold = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % p:
                    fold = i
                    break
            if fold is not None:
                break
        if fold is not None:
            for j in range(top, nc):
                m[top][j] += m[fold][j]
            continue
        out.append(abs(p))
        top += 1
        if top >= nr or top >= nc:
            break
    return out


def homology(P: Poset, window: int | None = None) -> HomologyTable:
    """Integral homology of the order complex Delta(Q), exact over the
    integers, on the cells of P with no order complex built.

    Q is the window of P's cells: all of P, or, given as a mask of
    element indices, up(x) minus x for an element x.  Precondition: P is
    the face poset of a regular CW complex (a CW poset: the order complex
    of every principal down-set minus its top is a sphere), which L++ is
    once the covector axioms pass.  Then Delta(Q) subdivides the complex with face poset
    Q, and its homology is the cellular homology of Q with the incidence
    numbers of `_incidences` (Bjorner 1984), which checks every interval
    of length 2 it reads and raises PreconditionError off that premise.

    *Window lemma.*  Every diamond between two cells of an up-set lies
    in that up-set, so P's incidence numbers, restricted to the window,
    still give a boundary with square zero.  Re-signing each bottom cell
    z of up(x) minus x by [z : x] is a chain isomorphism onto the
    window's own cellular complex, so P's numbers compute Q's homology
    with the heights shifted down to start at 0.

    Reduced groups come as relative ones, H(Q, v0) for the first cell
    v0 of least height.  Two kinds of pair (sigma, tau), sigma a facet
    of tau, are removed until none is left: a collapse (tau is the only
    live coface of sigma) and a coreduction (sigma is the only live
    facet of tau).  Each keeps the integral homology, since every
    incidence number is +-1, and the boundary of what is left is the
    original boundary restricted to the live cells (reduction lemma:
    Kaczynski, Mrozek & Slusarek 1998; Mrozek & Batko, "Coreduction
    homology algorithm", 2009).  Smith normal form of the restricted
    boundary matrices finishes the job.
    """
    cells = _cell_table(P)
    W = (1 << len(cells.hs)) - 1 if window is None else window
    # the window's heights are P's, shifted to start at 0
    levels = [m for m in (W & level for level in cells.levels) if m]
    if not levels:
        return HomologyTable.sphere(-1)
    d = len(levels) - 1
    neg = _incidences(cells)
    lc, uc = cells.lc, cells.uc
    alive = W ^ (levels[0] & -levels[0])
    queue = deque(i for level in levels for i in _bits(level & alive))
    while queue:
        f = queue.popleft()
        if not alive >> f & 1:
            continue
        above = uc[f] & alive
        if above and not above & (above - 1):
            sigma, tau = f, above.bit_length() - 1
        else:
            below = lc[f] & alive
            if not below or below & (below - 1):
                continue
            sigma, tau = below.bit_length() - 1, f
        alive ^= (1 << sigma) | (1 << tau)
        queue.extend(_bits(
            (lc[sigma] | uc[sigma] | lc[tau] | uc[tau]) & alive
        ))
    live = [list(_bits(level & alive)) for level in levels]
    ranks = [0] * (d + 2)
    torsion: list[tuple[int, ...]] = [()] * (d + 1)
    for k in range(1, d + 1):
        if not live[k] or not live[k - 1]:
            continue
        ridx = {r: i for i, r in enumerate(live[k - 1])}
        dense = [[0] * len(live[k]) for _ in ridx]
        for j, c in enumerate(live[k]):
            for r in _bits(lc[c] & alive):
                dense[ridx[r]][j] = -1 if neg[c] >> r & 1 else 1
        factors = smith_normal_form(dense)
        ranks[k] = len(factors)
        torsion[k - 1] = tuple(f for f in factors if f > 1)
    rb = tuple(len(live[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))
    return HomologyTable(
        dim=d,
        betti=(rb[0] + 1,) + rb[1:],
        torsion=tuple(torsion),
        reduced_betti=rb,
    )


def _incidences(cells: _Cells) -> list[int]:
    """The incidence numbers of a CW poset's cells, built on the first
    call and kept on the table: bit i of neg[j] is set when
    [j : i] = -1 for the facet i of cell j, and [j : i] = +1 otherwise.

    A cell of height 1 puts +1 and -1 on its two facets.  A cell tau of
    height h >= 2 puts +1 on its first facet and propagates across
    ridges: a facet rho of a signed facet sigma lies in exactly one
    other facet sigma' of tau (the interval [rho, tau] is a diamond),
    and [tau : sigma][sigma : rho] + [tau : sigma'][sigma' : rho] = 0
    fixes [tau : sigma'].  The facets of tau must all be reached (a
    facet below height h - 1 never is), and `_check_diamonds` then
    checks every diamond.  Raises PreconditionError when P is not a CW
    poset that way."""
    if cells.neg is None:
        lc, uc, levels, names = cells.lc, cells.uc, cells.levels, cells.names
        neg = [0] * len(cells.hs)
        for h in range(1, len(levels)):
            for j in _bits(levels[h]):
                F = lc[j]
                first = F & -F
                if h == 1:
                    if F.bit_count() != 2:
                        raise PreconditionError(
                            f"the cells below {names[j]!r} are no 0-sphere"
                        )
                    neg[j] = F ^ first
                    continue
                known, n = first, 0
                stack = [first.bit_length() - 1]
                while stack:
                    s = stack.pop()
                    for r in _bits(lc[s]):
                        both = uc[r] & F
                        if both.bit_count() != 2:
                            raise PreconditionError(
                                f"the interval [{names[r]!r}, {names[j]!r}] "
                                "is not a diamond"
                            )
                        t = (both ^ (1 << s)).bit_length() - 1
                        if not known >> t & 1:
                            # [j : t] = -[j : s][s : r][t : r]
                            odd = (n >> s) + (neg[s] >> r) + (neg[t] >> r) + 1
                            n |= (odd & 1) << t
                            known |= 1 << t
                            stack.append(t)
                if known != F:
                    raise PreconditionError(
                        f"the facets of {names[j]!r} are not connected "
                        "through their ridges"
                    )
                neg[j] = n
        _check_diamonds(cells, neg)
        cells.neg = neg
    return cells.neg


def _check_diamonds(cells: _Cells, neg: list[int]) -> None:
    """Raise PreconditionError unless the two paths through every
    diamond carry opposite signs under the incidence numbers neg, the
    diamonds [bottom, e] of the cells e of height 1 included: the
    boundary then has square zero.  The intervals are those
    `_incidences` found to be diamonds."""
    lc, uc, levels, names = cells.lc, cells.uc, cells.levels, cells.names
    for h in range(1, len(levels)):
        for j in _bits(levels[h]):
            F = lc[j]
            if h == 1:
                if (neg[j] & F).bit_count() != 1:
                    raise PreconditionError(
                        f"the incidence numbers of {names[j]!r} do not cancel"
                    )
                continue
            for s in _bits(F):
                for r in _bits(lc[s]):
                    t = ((uc[r] & F) ^ (1 << s)).bit_length() - 1
                    odd = (neg[j] >> s) + (neg[s] >> r) + (neg[j] >> t) + (neg[t] >> r)
                    if not odd & 1:
                        raise PreconditionError(
                            f"the incidence numbers around the interval "
                            f"[{names[r]!r}, {names[j]!r}] do not cancel"
                        )


# ---------------------------------------------------------------------------
# collapsibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseCertificate:
    """A replayable elementary-collapse sequence.

    Each step (sigma, tau) removes a free cell sigma together with tau,
    its only coface.  A cell is a poset element (on L++, a covector), and
    `terminal` is the one element left.
    """

    steps: tuple[tuple[Hashable, Hashable], ...]
    terminal: Hashable

    def to_json(self) -> dict:
        return {
            "steps": [[str(s), str(t)] for s, t in self.steps],
            "terminal": str(self.terminal),
        }


@dataclass(frozen=True)
class CollapseResult:
    status: str  # "collapsed" or "exhausted"
    certificate: CollapseCertificate | None
    nodes: int
    search_complete: bool

    @property
    def collapsed(self) -> bool:
        return self.status == "collapsed"


class _Cells:
    """The cells of a poset, its element indices, with the cover
    relation as masks: bit i of lc[j] (and bit j of uc[i]) is set when
    cell i is a facet of cell j, a lower cover.  `hs` holds the heights
    and `levels[h]` the mask of the cells of height h.  The collapse
    search and its replay run on this table, restricted to a window: a
    mask of the cells they may use, with a mask `alive` of the cells not
    yet removed.  No cell is hashed and nothing is re-indexed, so one
    table serves every window of a poset.  The search key, the highest
    height first and then the lowest index, is the order `find_collapse`
    documents.  `neg` holds the incidence numbers (`_incidences`), built
    on the first `homology` call.
    """

    __slots__ = ("names", "lc", "uc", "hs", "levels", "pure", "index", "neg")

    def __init__(self, names, lc, uc, hs, levels, pure, index):
        self.names = names
        self.lc = lc
        self.uc = uc
        self.hs = hs
        self.levels = levels
        self.pure = pure  # see `_cell_table`
        self.index = index  # element -> cell
        self.neg = None


def _cell_table(P: Poset) -> _Cells:
    """The cells of P, kept on P, so every collapse, every link and
    every homology of one poset reads the same masks.

    *Graded lemma.*  P is pure (every maximal chain has the same
    length) iff its maximal elements share one height and every cover
    raises the height by one.  The second half is read off the masks:
    the lower covers of x all have height h(x) - 1 exactly when the
    elements of that height below x have x's strict down-set as the
    union of their down-sets (an element below x lies under a lower
    cover of x, and a lower cover lies under no other element below
    x).  Where that holds for every x, the lower covers are those
    elements and the upper covers the up-set one level higher; `pure`
    records the lemma's answer."""
    if P._cells is None:
        hs = P._height_list()
        down, up = P._down, P._up
        n = len(down)
        level = _levels(hs)
        # the graded lemma: the elements one height below j are its
        # lower covers exactly when their down-sets fill j's
        lc = [0] * n
        graded = True
        for j in range(n):
            below = down[j] ^ (1 << j)
            if not below:
                continue
            near = below & level[hs[j] - 1]
            reached = 0
            for i in _bits(near):
                reached |= down[i]
            if reached != below:
                graded = False
                reached = 0
                for i in _bits(below):
                    reached |= down[i] ^ (1 << i)
                near = below & ~reached
            lc[j] = near
        if graded:
            top = len(level) - 1
            uc = [up[i] & level[h + 1] if h < top else 0
                  for i, h in enumerate(hs)]
        else:
            uc = [0] * n
            for j, m in enumerate(lc):
                for i in _bits(m):
                    uc[i] |= 1 << j
        pure = graded and len({hs[i] for i in range(n) if not uc[i]}) <= 1
        P._cells = _Cells(P.elements, lc, uc, hs, level, pure, P._index)
    return P._cells


def _levels(hs: list[int]) -> list[int]:
    """The mask of the cells of each height."""
    out = [0] * (max(hs, default=-1) + 1)
    for i, h in enumerate(hs):
        out[h] |= 1 << i
    return out


def _connected(cells: _Cells, W: int) -> bool:
    """Do the cells in W form one component under the cover relation?"""
    lc, uc = cells.lc, cells.uc
    seen = frontier = W & -W
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            f = low.bit_length() - 1
            grown |= lc[f] | uc[f]
            frontier ^= low
        frontier = grown & W & ~seen
        seen |= frontier
    return seen == W


def _free_cells(cells: _Cells, alive: int, among: int) -> int:
    """The cells of `among` free in `alive`: live, with one live upper
    cover, and that cover maximal among the live cells."""
    uc = cells.uc
    out = 0
    m = among & alive
    while m:
        low = m & -m
        c = uc[low.bit_length() - 1] & alive
        if c and not c & (c - 1) and not uc[c.bit_length() - 1] & alive:
            out |= low
        m ^= low
    return out


def _in_key_order(cells: _Cells, mask: int) -> list[int]:
    out = []
    for level in reversed(cells.levels):
        out.extend(_bits(mask & level))
    return out


def _search(cells: _Cells, W: int, budget: int):
    """The collapse search of `find_collapse` on the cells in W:
    (status, steps, nodes, search_complete, terminal), the steps index
    pairs (None unless collapsed) and terminal the cell left.

    The greedy keeps the free cells as a mask.  Removing (sigma, tau)
    changes the live upper covers only of their live lower covers N,
    and the maximality only of N's cells, so only N and the live lower
    covers of N are tested again."""
    lc, uc = cells.lc, cells.uc
    levels = cells.levels[::-1]
    alive = W
    free = _free_cells(cells, alive, W)
    steps = []
    nodes = 0
    while alive & (alive - 1) and free:
        for level in levels:
            m = free & level
            if m:
                break
        if nodes >= budget:
            return "exhausted", None, nodes, False, None
        s = (m & -m).bit_length() - 1
        c = uc[s] & alive
        t = c.bit_length() - 1
        alive ^= (1 << s) | c
        steps.append((s, t))
        nodes += 1
        m = around = (lc[s] | lc[t]) & alive
        while m:
            low = m & -m
            around |= lc[low.bit_length() - 1]
            m ^= low
        around &= alive
        free = (free & alive & ~around) | _free_cells(cells, alive, around)
    if alive.bit_count() == 1:
        return "collapsed", steps, nodes, True, alive.bit_length() - 1

    # greedy got stuck: undo it, then backtrack over free-cell choices
    alive = W
    steps = []
    stack = [_in_key_order(cells, _free_cells(cells, alive, alive))]
    while stack:
        if alive.bit_count() == 1:
            return "collapsed", steps, nodes, True, alive.bit_length() - 1
        frame = stack[-1]
        advanced = False
        while frame:
            s = frame.pop(0)
            if not _free_cells(cells, alive, 1 << s):
                continue
            if nodes >= budget:
                return "exhausted", None, nodes, False, None
            c = uc[s] & alive
            alive ^= (1 << s) | c
            steps.append((s, c.bit_length() - 1))
            nodes += 1
            stack.append(_in_key_order(cells, _free_cells(cells, alive, alive)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if steps:
                s, t = steps.pop()
                alive |= (1 << s) | (1 << t)
    return "exhausted", None, nodes, True, None


def _replay(cells: _Cells, W: int, steps, terminal, names=None) -> None:
    """Replay steps, index pairs (None for a name that is no cell), on
    the cells in W.  Every step must remove a live sigma that is a
    facet of tau, with tau maximal and sigma's only live coface, and
    one cell must be left: `terminal`, an index, or with `names` (the
    certificate's pairs) the element of that cell.  Raises DomainError
    naming the failing step."""
    lc, uc = cells.lc, cells.uc
    alive = W
    count = 0
    for i, (s, t) in enumerate(steps):
        if s is None or t is None or not (alive >> s & alive >> t & 1):
            fault = "{a!r} or {b!r} is not a live face"
        elif not lc[t] >> s & 1:
            fault = "{a!r} is not a facet of {b!r}"
        elif uc[t] & alive:
            fault = "{b!r} is not maximal"
        elif uc[s] & alive != 1 << t:
            fault = "{a!r} is not free"
        else:
            alive ^= (1 << s) | (1 << t)
            count = i + 1
            continue
        a, b = names[i] if names is not None else (
            cells.names[s], cells.names[t])
        raise DomainError(f"collapse step {i}: " + fault.format(a=a, b=b))
    left = alive.bit_length() - 1
    if alive.bit_count() != 1 or (
        cells.names[left] if names is not None else left
    ) != terminal:
        raise DomainError(
            f"after {count} collapse steps: replay leaves "
            f"{alive.bit_count()} faces, not the terminal vertex"
        )


def find_collapse(P: Poset, budget: int = 10**6) -> CollapseResult:
    """Search for a collapse of P to a single cell.

    P is read as the face poset of a regular cell complex: the cells are
    its elements and the facets of a cell its lower covers.  An
    elementary collapse removes a pair sigma < tau with sigma a facet of
    tau, tau maximal, and tau the only live cell above sigma.  A
    simplicial complex K is collapsed on its face poset, whose elements
    are its faces; listed by size and then by vertex indices, they take
    the steps the search took on K itself.

    Greedy: always take the least free cell in `key` order, the highest
    height first, then the lowest element index.  If the pure greedy
    descent gets stuck, it is undone and a backtracking pass revisits
    the choices, spending at most `budget` collapse steps overall.
    Exhaustion is reported as such and never as "not collapsible".

    The result means something only when P is the face poset of a PL
    regular cell complex.  `verify` relies on this for
    L++, which is one once the covector axioms pass, and
    `classify_links` for each set of cells above a cell of L++, which is
    one by the same premise.  Then each elementary cellular collapse is
    a PL elementary collapse, since the closed cell tau is a PL ball and
    sigma a ball in its boundary.  A PL manifold that collapses to a
    point is a PL ball (Whitehead 1939; Rourke & Sanderson, Introduction
    to PL topology, ch. 3); the manifold property is what the induction
    of `classify_links` certifies.
    """
    cells = _cell_table(P)
    W = (1 << len(cells.hs)) - 1
    if not W:
        raise PreconditionError("collapse search needs a nonempty complex")
    if not _connected(cells, W):
        raise PreconditionError(
            "complex is disconnected; it cannot collapse to one point"
        )
    status, steps, nodes, complete, last = _search(cells, W, budget)
    if steps is None:
        return CollapseResult(status, None, nodes, complete)
    names = cells.names
    cert = CollapseCertificate(
        tuple((names[s], names[t]) for s, t in steps), names[last]
    )
    return CollapseResult(status, cert, nodes, complete)


def verify_collapse(P: Poset, cert: CollapseCertificate) -> bool:
    """Replay a collapse certificate against the cell poset P, as in
    `find_collapse`.  Every step must name a live sigma that is one of
    tau's facets, with tau maximal and sigma's only live coface, and the
    replay must end at the terminal cell.  Raises DomainError naming the
    failing step on any defect."""
    cells = _cell_table(P)
    cell = cells.index.get
    steps = ((cell(s), cell(t)) for s, t in cert.steps)
    _replay(cells, (1 << len(cells.hs)) - 1, steps, cert.terminal, cert.steps)
    return True


# ---------------------------------------------------------------------------
# shellings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellingReport:
    ok: bool
    mode: str  # "simplicial" or "necessary-condition"
    failures: tuple[tuple[int, int], ...]  # index pairs (i, j) with no k

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "failures": [list(p) for p in self.failures],
        }


# ---------------------------------------------------------------------------
# link classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkCertificate:
    """The collapse that certifies an upper factor Q = P>x on P's own
    cells (element indices of P).  For a closed Q, `top` is the maximal
    cell removed first; `steps` then collapse the rest of Q to the cell
    `terminal`.  The certificate of an empty Q has neither."""

    top: int | None
    steps: tuple[tuple[int, int], ...]
    terminal: int | None


_EMPTY_FACTOR = LinkCertificate(None, (), None)


@dataclass(frozen=True)
class LinkVerdict:
    vertex: Hashable
    kind: str  # "sphere-like" | "ball-like" | "other"
    certainty: str  # "certified" | "evidence-only" | "refuted"
    homology: HomologyTable
    notes: tuple[str, ...] = ()
    # the upper factor's replayed certificate; None when it has none
    certificate: LinkCertificate | None = field(
        default=None, compare=False, repr=False
    )

    def to_json(self) -> dict:
        return {
            "vertex": str(self.vertex),
            "kind": self.kind,
            "certainty": self.certainty,
            "homology": self.homology.to_json(),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class LinkClassification:
    verdicts: tuple[LinkVerdict, ...]

    @property
    def is_manifold(self) -> bool:
        return all(v.kind in ("sphere-like", "ball-like") for v in self.verdicts)

    @property
    def all_certified(self) -> bool:
        return self.is_manifold and all(
            v.certainty == "certified" for v in self.verdicts
        )

    def to_json(self) -> dict:
        return {
            "is_manifold": self.is_manifold,
            "all_certified": self.all_certified,
            "vertices": [v.to_json() for v in self.verdicts],
        }


def classify_links(P: Poset, budget: int = 10**6) -> LinkClassification:
    """Classify the link of every vertex x of the order complex of P as
    sphere-like, ball-like, or other, with homology evidence and honest
    certainty labels, by certifying only the link's upper factor.

    The link of x in the order complex is the join
    Delta(P<x) * Delta(P>x).  Precondition, not checked here: P is pure,
    every lower factor Delta(P<y) is a PL sphere of dimension
    height(y) - 1, and so is the order complex of every open interval
    (x, y), of dimension height(y) - height(x) - 2.  It holds for the
    face poset of a simplicial complex, where these are the boundaries
    of simplices.  It
    holds for the bounded complex L++ of an affine oriented matroid once
    the covector axioms pass: every nonzero covector below a bounded X is
    bounded, so each interval is an open interval of L, and L is the
    face poset of a PL regular cell decomposition of a sphere
    (Folkman-Lawrence; Edmonds-Mandel; Bjorner et al., Oriented
    Matroids, 4.3), whose open intervals are PL spheres (Bjorner,
    "Posets, regular CW complexes and Bruhat order", 1984).

    The join of a PL sphere with U is a PL sphere (a PL ball) exactly
    when U is one, so each link gets the kind and certainty of
    U_x = Delta(P>x) at dimension m = height(P) - height(x) - 1.  The
    precondition makes Q = P>x the face poset of a regular cell complex
    whose subdivision is U_x, so Q is certified on its own cells by
    the collapse search of `find_collapse`, with no order complex:

    * Q is closed when every cell of dimension m - 1 has exactly two
      upper covers (for m = 0: Q has two cells).  A closed Q is an
      m-sphere when Q minus one maximal cell collapses: U_x is then two
      PL m-balls glued along their common boundary.
    * Any other Q is an m-ball when Q collapses (Whitehead).

    *Window lemma.*  Q is never re-indexed: the search runs on the
    window W = up(x) minus x of P's own cell table.  On a pure P every
    cover raises the height by one, so the heights in Q are P's heights
    minus (height(x) + 1), the cells of dimension m - 1 in Q are those of
    P-height height(P) - 1 in W, and the maximal cells of Q those of
    P-height height(P).  W is an up-set minus x, so the covers inside W
    are P's covers, and Q lists its elements in P's order, so the
    search key (the highest height first, then the lowest index) orders
    W as it ordered the re-indexed Q: the search takes the same steps.

    Both need U_x to be a PL manifold, and this comes by induction down
    the heights.  The link of a vertex y of U_x is
    Delta((x, y)) * U_y, a sphere joined with a sphere or a ball once U_y
    is certified, so U_x is a PL m-manifold when every U_y above x is
    certified.  A cell's label is therefore `certified` only when its
    certificate (`LinkCertificate`: the removed top for a closed Q and
    the collapse steps) replays on W with the checks of
    `verify_collapse`, and every cell above it is certified; otherwise
    it is `evidence-only`.  The homology reported is the link's, read
    off the certificate's sphere or point by `HomologyTable.suspension`.

    Only when no certificate replays do exact invariants of U_x decide
    between `refuted` (one rules out both a sphere and a ball) and
    `evidence-only`, still on the window W and with no order complex:
    `homology(P, W)`, and the closed pseudomanifold test.  U_x is a
    closed pseudomanifold exactly when Q is closed and, for m >= 1, the
    maximal cells of Q are connected through its cells of dimension
    m - 1: a ridge of U_x that misses its top cell lies in as many
    facets as that chain's top has upper covers, any other ridge lies in
    two (the intervals of Q are spheres), and each closed cell of Q is a
    ball whose subdivision is strongly connected.
    Vertices come in the order of `_vkey` on the elements.
    """
    if len(P) == 0:
        raise PreconditionError("link classification needs vertices")
    cells = _cell_table(P)
    if not cells.pure:
        raise PreconditionError("link classification is defined for pure posets")
    hs = cells.hs
    d = len(cells.levels) - 1
    verdict = [None] * len(P)
    uncertified = 0  # mask of the cells labelled below `certified` so far
    for i in sorted(range(len(P)), key=hs.__getitem__, reverse=True):
        k = hs[i]
        kind, certainty, h, notes, cert = _upper_factor(
            P, cells, i, d - k - 1, budget
        )
        weak = P._up[i] & uncertified
        if weak and certainty == "certified":
            y = P.elements[(weak & -weak).bit_length() - 1]
            certainty = "evidence-only"
            notes += [f"the cell {y} above is not certified"]
        if certainty != "certified":
            uncertified |= 1 << i
        verdict[i] = LinkVerdict(
            P.elements[i], kind, certainty, h.suspension(k), tuple(notes),
            cert,
        )
    order = sorted(range(len(P)), key=lambda i: _vkey(P.elements[i]))
    return LinkClassification(tuple(verdict[i] for i in order))


def _upper_factor(
    P: Poset, cells: _Cells, i: int, m: int, budget: int
) -> tuple[str, str, HomologyTable, list[str], LinkCertificate | None]:
    """(kind, certainty, homology, notes, certificate) of U = Delta(P>x),
    x = P.elements[i], as an m-sphere or m-ball, by the rules of
    `classify_links`, before the cells above are consulted."""
    W = P._up[i] ^ (1 << i)
    if not W:
        return "sphere-like", "certified", HomologyTable.sphere(-1), [], _EMPTY_FACTOR
    if m == 0:
        closed = W.bit_count() == 2
    else:
        uc = cells.uc
        closed = all(
            uc[y].bit_count() == 2 for y in _bits(W & cells.levels[-2])
        )
    cert = _certify_window(cells, W, closed, budget)
    notes = []
    if cert is not None:
        failure = _replay_link(cells, W, closed, cert)
        if failure is None:
            if closed:
                top = P.elements[cert.top]
                note = f"closed; collapsed in {len(cert.steps)} steps without {top}"
                return "sphere-like", "certified", HomologyTable.sphere(m), [note], cert
            note = f"collapsed in {len(cert.steps)} steps"
            return "ball-like", "certified", HomologyTable.point(m), [note], cert
        notes.append(f"link certificate failed to replay: {failure}")
    # no certificate: exact invariants of U may still refute
    h = homology(P, W)
    if closed and (m == 0 or _connected(
        cells, W & (cells.levels[-1] | cells.levels[-2])
    )):
        if h.is_sphere(m):
            missing = notes or ["no collapse found"]
            return "sphere-like", "evidence-only", h, missing, None
        note = f"homology {h.reduced_betti} is not a {m}-sphere"
        return "other", "refuted", h, notes + [note], None
    if h.is_ball():
        return "ball-like", "evidence-only", h, notes or ["no collapse found"], None
    note = f"not a closed pseudomanifold; homology {h.reduced_betti} is not a ball"
    return "other", "refuted", h, notes + [note], None


def _certify_window(
    cells: _Cells, W: int, closed: bool, budget: int
) -> LinkCertificate | None:
    """The collapse of the upper factor on the cells in W (without its
    first maximal cell when it is closed), or None."""
    top = None
    if closed:
        maximal = W & cells.levels[-1]
        top = (maximal & -maximal).bit_length() - 1
        W ^= 1 << top
    if not W or not _connected(cells, W):
        return None
    status, steps, _, _, last = _search(cells, W, budget)
    if steps is None:
        return None
    return LinkCertificate(top, tuple(steps), last)


def _replay_link(
    cells: _Cells, W: int, closed: bool, cert: LinkCertificate
) -> str | None:
    """Why cert does not certify the upper factor on the cells in W, or
    None when it replays: a closed factor must lose one maximal cell
    first, and the steps must collapse the rest."""
    if closed != (cert.top is not None):
        return "a closed factor needs a removed top, an open one none"
    if closed:
        top = cert.top
        if not (0 <= top < len(cells.hs) and W >> top & 1) or cells.uc[top] & W:
            return f"cell {top} is not a maximal cell of the factor"
        W ^= 1 << top
    try:
        _replay(cells, W, cert.steps, cert.terminal)
    except DomainError as exc:
        return str(exc)
    return None
