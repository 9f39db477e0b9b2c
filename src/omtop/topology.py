"""Finite posets and simplicial complexes, with exact integral homology,
collapsibility search, and shelling verification.

Everything is exact: homology is computed over the integers (Smith normal
form after a unit-pivot chain reduction), collapse and shelling results
are certificates or witness-carrying reports, never floats or heuristic
verdicts.  The empty complex {emptyset} (one empty face, no vertices) is
kept distinct from the void complex (no faces at all): the former is the
(-1)-sphere and is the identity for the join.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    DomainError,
    MembershipError,
    PreconditionError,
    ResourceExhausted,
)


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
    comparisons, covers, intervals and meets are cheap afterwards.
    """

    __slots__ = ("elements", "_index", "_down", "_up", "_heights", "_depths")

    def __init__(self, elements: Iterable, less_equal: Callable):
        self.elements = tuple(elements)
        self._index = {}
        for i, x in enumerate(self.elements):
            if x in self._index:
                raise DomainError(f"duplicate poset element {x!r}")
            self._index[x] = i
        n = len(self.elements)
        down = [0] * n
        for i, x in enumerate(self.elements):
            m = 0
            for j, y in enumerate(self.elements):
                if less_equal(y, x):
                    m |= 1 << j
            down[i] = m
        for i in range(n):
            if not (down[i] >> i) & 1:
                raise DomainError("less_equal is not reflexive")
        up = [0] * n
        for j in range(n):
            bitj = 1 << j
            m = 0
            for i in range(n):
                if down[i] & bitj:
                    m |= 1 << i
            up[j] = m
        for i in range(n):
            both = down[i] & up[i]
            if both != (1 << i):
                raise DomainError("less_equal is not antisymmetric")
        self._down = down
        self._up = up
        self._heights = None
        self._depths = None

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

    def less(self, x, y) -> bool:
        return x != y and self.less_equal(x, y)

    # -- structure ------------------------------------------------------

    def minimal_elements(self) -> list:
        return [
            x for i, x in enumerate(self.elements) if self._down[i] == 1 << i
        ]

    def maximal_elements(self) -> list:
        return [x for i, x in enumerate(self.elements) if self._up[i] == 1 << i]

    def _is_cover_idx(self, i: int, j: int) -> bool:
        # does element j cover element i?
        bits = (1 << i) | (1 << j)
        return i != j and (self._down[j] & self._up[i]) == bits

    def lower_covers(self, x) -> list:
        j = self.index(x)
        return [
            self.elements[i]
            for i in _bits(self._down[j] & ~(1 << j))
            if self._is_cover_idx(i, j)
        ]

    def upper_covers(self, x) -> list:
        i = self.index(x)
        return [
            self.elements[j]
            for j in _bits(self._up[i] & ~(1 << i))
            if self._is_cover_idx(i, j)
        ]

    def _height_list(self) -> list[int]:
        if self._heights is None:
            n = len(self.elements)
            order = sorted(range(n), key=lambda i: _popcount(self._down[i]))
            h = [0] * n
            for i in order:
                below = self._down[i] & ~(1 << i)
                h[i] = max((h[j] + 1 for j in _bits(below)), default=0)
            self._heights = h
        return self._heights

    def height(self, x=None) -> int:
        """Length of a longest chain ending at x (or overall if x is None)."""
        hs = self._height_list()
        if x is None:
            return max(hs, default=0)
        return hs[self.index(x)]

    def is_pure(self) -> bool:
        """True iff every maximal chain has the same length."""
        hs = self._height_list()
        n = len(self.elements)
        heights_of_max = {
            hs[i] for i in range(n) if self._up[i] == 1 << i
        }
        if len(heights_of_max) > 1:
            return False
        for j in range(n):
            for i in _bits(self._down[j] & ~(1 << j)):
                if self._is_cover_idx(i, j) and hs[j] != hs[i] + 1:
                    return False
        return True

    # -- derived posets ---------------------------------------------------

    def subposet(self, elements: Iterable) -> "Poset":
        keep = [self.index(x) for x in elements]
        keepset = set(keep)
        if len(keepset) != len(keep):
            raise DomainError("duplicate elements in subposet")
        elems = [self.elements[i] for i in sorted(keepset)]
        down = self._down
        idx = self._index
        return Poset(elems, lambda a, b: bool(down[idx[b]] >> idx[a] & 1))

    def strictly_below(self, x) -> "Poset":
        j = self.index(x)
        return self.subposet(
            self.elements[i] for i in _bits(self._down[j] & ~(1 << j))
        )

    def strictly_above(self, x) -> "Poset":
        i = self.index(x)
        return self.subposet(
            self.elements[j] for j in _bits(self._up[i] & ~(1 << i))
        )

    def open_interval(self, x, y) -> "Poset":
        i, j = self.index(x), self.index(y)
        mask = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
        return self.subposet(self.elements[k] for k in _bits(mask))

    # -- chains -----------------------------------------------------------

    def maximal_chains(self) -> list[tuple]:
        n = len(self.elements)
        ups = [
            [j for j in _bits(self._up[i] & ~(1 << i)) if self._is_cover_idx(i, j)]
            for i in range(n)
        ]
        out: list[tuple] = []

        def extend(path: list[int]) -> None:
            tail = ups[path[-1]]
            if not tail:
                out.append(tuple(self.elements[k] for k in path))
                return
            for j in tail:
                path.append(j)
                extend(path)
                path.pop()

        for i in range(n):
            if self._down[i] == 1 << i:
                extend([i])
        return out

    def linear_extension(self, key: Callable) -> list:
        """Topological sort; among available elements the one with the
        least `key` comes first."""
        n = len(self.elements)
        placed = 0
        out = []
        remaining = set(range(n))
        while remaining:
            ready = [
                i
                for i in remaining
                if (self._down[i] & ~placed & ~(1 << i)) == 0
            ]
            i = min(ready, key=lambda k: key(self.elements[k]))
            out.append(self.elements[i])
            placed |= 1 << i
            remaining.discard(i)
        return out

    def random_linear_extension(self, rng) -> list:
        """A random topological sort driven by `rng.randrange`."""
        n = len(self.elements)
        placed = 0
        out = []
        remaining = set(range(n))
        while remaining:
            ready = sorted(
                i
                for i in remaining
                if (self._down[i] & ~placed & ~(1 << i)) == 0
            )
            i = ready[rng.randrange(len(ready))]
            out.append(self.elements[i])
            placed |= 1 << i
            remaining.discard(i)
        return out

    # -- meets ---------------------------------------------------------

    def meet_or_bottom(self, x, y):
        """Meet of x and y in the poset augmented with a bottom element.

        Returns the meet element, or None when the meet is the added
        bottom.  Raises when the common lower bounds have no unique
        maximum (the augmented poset is not a meet-semilattice there).
        """
        mask = self._down[self.index(x)] & self._down[self.index(y)]
        if not mask:
            return None
        tops = [k for k in _bits(mask) if self._up[k] & mask == 1 << k]
        if len(tops) != 1:
            raise PreconditionError(
                f"no unique meet for {x!r} and {y!r}: "
                f"{[self.elements[k] for k in tops]!r} are all maximal lower bounds"
            )
        return self.elements[tops[0]]

    def is_lower_cover(self, y, x) -> bool:
        """Is y covered by x in the poset augmented with a bottom?  y may
        be None for the bottom element."""
        j = self.index(x)
        if y is None:
            return self._down[j] == 1 << j
        return self._is_cover_idx(self.index(y), j)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements)"


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """An abstract simplicial complex stored by its facets.

    Downward closure is implicit.  `SimplicialComplex([])` is the void
    complex (no faces); `SimplicialComplex([[]])` is {emptyset}, the
    (-1)-sphere.
    """

    __slots__ = ("facets", "vertex_order", "_vindex", "_faces")

    def __init__(self, facets: Iterable[Iterable[Hashable]]):
        fs = {frozenset(f) for f in facets}
        maximal = [f for f in fs if not any(f < g for g in fs)]
        self.vertex_order: tuple = tuple(
            sorted({v for f in maximal for v in f}, key=_vkey)
        )
        self._vindex = {v: i for i, v in enumerate(self.vertex_order)}
        vindex = self._vindex
        self.facets: tuple[frozenset, ...] = tuple(
            sorted(maximal, key=lambda f: (len(f), sorted(vindex[v] for v in f)))
        )
        self._faces = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def void(cls) -> "SimplicialComplex":
        return cls([])

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        """The complex {emptyset}: no vertices, one empty face."""
        return cls([[]])

    @classmethod
    def simplex(cls, vertices: Iterable[Hashable]) -> "SimplicialComplex":
        return cls([list(vertices)])

    @classmethod
    def simplex_boundary(cls, vertices: Iterable[Hashable]) -> "SimplicialComplex":
        vs = list(vertices)
        if not vs:
            raise DomainError("boundary of the empty simplex is void")
        return cls([vs[:i] + vs[i + 1 :] for i in range(len(vs))])

    # -- predicates --------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for {emptyset}.  Void complex has no dimension."""
        if self.is_void:
            raise DomainError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    @property
    def vertices(self) -> tuple:
        return self.vertex_order

    def faces(self) -> dict[int, set[frozenset]]:
        """All nonempty faces, keyed by dimension."""
        if self._faces is None:
            byd: dict[int, set[frozenset]] = {}
            seen: set[frozenset] = set()
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    for sub in itertools.combinations(sorted(f, key=_vkey), k):
                        fsub = frozenset(sub)
                        if fsub not in seen:
                            seen.add(fsub)
                            byd.setdefault(k - 1, set()).add(fsub)
            self._faces = byd
        return self._faces

    def all_faces(self) -> set[frozenset]:
        out: set[frozenset] = set()
        for fs in self.faces().values():
            out |= fs
        return out

    def has_face(self, face: Iterable[Hashable]) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        if self.is_void or self.dim < 0:
            return ()
        byd = self.faces()
        return tuple(len(byd.get(k, ())) for k in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def reduced_euler(self) -> int:
        if self.is_void:
            return 0
        return self.euler_characteristic() - 1

    def is_pure(self) -> bool:
        if self.is_void:
            return True
        d = self.dim
        return all(len(f) - 1 == d for f in self.facets)

    def is_connected(self) -> bool:
        vs = self.vertex_order
        if len(vs) <= 1:
            return True
        parent = {v: v for v in vs}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            it = iter(sorted(f, key=_vkey))
            first = find(next(it))
            for v in it:
                parent[find(v)] = first
        return len({find(v) for v in vs}) == 1

    # -- subcomplex operations ----------------------------------------------

    def link(self, face: Iterable[Hashable] | Hashable) -> "SimplicialComplex":
        f = self._as_face(face)
        if not self.has_face(f):
            raise MembershipError(f"{sorted(f, key=_vkey)!r} is not a face")
        return SimplicialComplex([g - f for g in self.facets if f <= g])

    def star(self, face: Iterable[Hashable] | Hashable) -> "SimplicialComplex":
        f = self._as_face(face)
        if not self.has_face(f):
            raise MembershipError(f"{sorted(f, key=_vkey)!r} is not a face")
        return SimplicialComplex([g for g in self.facets if f <= g])

    def _as_face(self, face) -> frozenset:
        if isinstance(face, (frozenset, set, list, tuple)):
            return frozenset(face)
        return frozenset([face])

    def join(self, other: "SimplicialComplex", relabel: bool = False):
        """Simplicial join.  Vertex sets must be disjoint; with
        relabel=True they are tagged 0/1 instead."""
        if relabel:
            a = SimplicialComplex([[(0, v) for v in f] for f in self.facets])
            b = SimplicialComplex([[(1, v) for v in f] for f in other.facets])
            return a.join(b)
        overlap = set(self.vertex_order) & set(other.vertex_order)
        if overlap:
            raise DomainError(
                f"join of complexes sharing vertices {sorted(overlap, key=_vkey)!r} "
                f"(pass relabel=True to disambiguate)"
            )
        return SimplicialComplex(
            [f | g for f in self.facets for g in other.facets]
        )

    def boundary(self) -> "SimplicialComplex":
        """Subcomplex generated by the ridges lying in exactly one facet.

        Meaningful for pure complexes; void when the complex is closed.
        """
        if self.is_void or self.dim < 0:
            return SimplicialComplex.void()
        if not self.is_pure():
            raise PreconditionError("boundary is defined for pure complexes")
        d = self.dim
        if d == 0:
            return SimplicialComplex.void()
        count: dict[frozenset, int] = {}
        for f in self.facets:
            for r in itertools.combinations(sorted(f, key=_vkey), d):
                fr = frozenset(r)
                count[fr] = count.get(fr, 0) + 1
        rim = [r for r, c in count.items() if c == 1]
        return SimplicialComplex(rim)

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, every ridge in exactly two facets, and strongly connected
        (facet graph through ridges connected)."""
        if self.is_void or self.dim < 0 or not self.is_pure():
            return False
        d = self.dim
        if d == 0:
            return len(self.facets) == 2
        ridge_facets: dict[frozenset, list[int]] = {}
        for i, f in enumerate(self.facets):
            for r in itertools.combinations(sorted(f, key=_vkey), d):
                ridge_facets.setdefault(frozenset(r), []).append(i)
        if any(len(fs) != 2 for fs in ridge_facets.values()):
            return False
        # strong connectivity via ridge adjacency
        t = len(self.facets)
        seen = {0}
        stack = [0]
        adj: dict[int, set[int]] = {i: set() for i in range(t)}
        for fs in ridge_facets.values():
            a, b = fs
            adj[a].add(b)
            adj[b].add(a)
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == t

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex) and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        if self.is_void:
            return "SimplicialComplex(void)"
        if self.dim < 0:
            return "SimplicialComplex({emptyset})"
        return (
            f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"
        )


def face_poset(K: SimplicialComplex) -> Poset:
    """Poset of nonempty faces of K ordered by inclusion."""
    vindex = K._vindex
    elems = sorted(
        K.all_faces(), key=lambda f: (len(f), sorted(vindex[v] for v in f))
    )
    return Poset(elems, lambda a, b: a <= b)


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of P; facets are the maximal chains.

    The order complex of the empty poset is {emptyset}.
    """
    if len(P) == 0:
        return SimplicialComplex.empty()
    return SimplicialComplex(P.maximal_chains())


# ---------------------------------------------------------------------------
# integral homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyTable:
    """Integral homology of a simplicial complex.

    `betti` and `torsion` are unreduced, indexed by dimension 0..dim.
    `reduced_betti` differs only in dimension 0.  `minus_one` is the rank
    of the reduced (-1)-st group (1 exactly for the complex {emptyset}).
    """

    dim: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced_betti: tuple[int, ...]
    minus_one: int = 0

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

    def is_ball(self) -> bool:
        """Reduced homology of a point (all reduced groups vanish)."""
        return (
            self.minus_one == 0
            and not any(self.reduced_betti)
            and not any(self.torsion)
        )


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, d1 | d2 | ...

    Dense textbook algorithm; meant for the small cores left over after
    the unit-pivot reduction, and for direct use in tests.
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


class _ChainComplex:
    """Sparse boundary matrices of a simplicial complex, augmented with
    the empty cell, supporting homology-preserving unit-pivot reduction."""

    def __init__(self, K: SimplicialComplex):
        vindex = K._vindex
        byd = dict(K.faces())
        top = K.dim if not K.is_void else -2
        # cells per dimension; dimension -1 holds the single empty cell
        self.dims = list(range(-1, top + 1)) if top >= -1 else []
        self.cells: dict[int, set] = {-1: {frozenset()}} if self.dims else {}
        for k in range(0, top + 1):
            self.cells[k] = set(byd.get(k, set()))
        # cols[k]: cell of dim k -> {cell of dim k-1: coefficient}
        self.cols: dict[int, dict] = {}
        self.rows: dict[int, dict] = {}
        for k in self.dims:
            if k == -1:
                continue
            cols: dict = {}
            rows: dict = {}
            for cell in self.cells[k]:
                vs = sorted(cell, key=lambda v: vindex[v])
                col: dict = {}
                if k == 0:
                    col[frozenset()] = 1
                else:
                    for i in range(len(vs)):
                        sub = frozenset(vs[:i] + vs[i + 1 :])
                        col[sub] = (-1) ** i
                cols[cell] = col
                for r in col:
                    rows.setdefault(r, set()).add(cell)
            self.cols[k] = cols
            self.rows[k] = rows

    def reduce(self) -> None:
        """Cancel unit entries until none remain.  Each cancellation
        removes one k-cell and one (k-1)-cell without changing homology."""
        stack = []
        for k in self.cols:
            for tau, col in self.cols[k].items():
                for sigma, v in col.items():
                    if v in (1, -1):
                        stack.append((k, sigma, tau))
        while stack:
            k, sigma, tau = stack.pop()
            cols = self.cols.get(k)
            if cols is None or tau not in cols or sigma not in cols[tau]:
                continue
            a = cols[tau][sigma]
            if a not in (1, -1):
                continue
            self._cancel(k, sigma, tau, a, stack)

    def _cancel(self, k: int, sigma, tau, a: int, stack: list) -> None:
        cols = self.cols[k]
        rows = self.rows[k]
        coltau = cols[tau]
        touched: list[tuple] = []
        for beta in list(rows.get(sigma, ())):
            if beta == tau:
                continue
            c = cols[beta][sigma]
            factor = c * a  # c / a with a = +-1
            touched.append((beta, factor))
            colbeta = cols[beta]
            for rho, val in coltau.items():
                new = colbeta.get(rho, 0) - factor * val
                if new:
                    colbeta[rho] = new
                    rows.setdefault(rho, set()).add(beta)
                    if new in (1, -1):
                        stack.append((k, rho, beta))
                else:
                    if rho in colbeta:
                        del colbeta[rho]
                        rows[rho].discard(beta)
        # basis change beta -> beta - factor*tau shifts D_{k+1}'s tau-row
        up = self.cols.get(k + 1)
        uprows = self.rows.get(k + 1)
        if up is not None:
            for beta, factor in touched:
                for gamma in list(uprows.get(beta, ())):
                    col = up[gamma]
                    new = col.get(tau, 0) + factor * col[beta]
                    if new:
                        col[tau] = new
                        uprows.setdefault(tau, set()).add(gamma)
                        if new in (1, -1):
                            stack.append((k + 1, tau, gamma))
                    else:
                        if tau in col:
                            del col[tau]
                            uprows[tau].discard(gamma)
            # d(d(gamma)) = 0 forces the tau-row to vanish now
            for gamma in list(uprows.get(tau, ())):
                if up[gamma].get(tau):
                    raise AssertionError("chain reduction broke d o d = 0")
        # remove row sigma / column tau from D_k
        for rho in coltau:
            self.rows[k][rho].discard(tau)
        del cols[tau]
        rows.pop(sigma, None)
        # remove sigma as a column of D_{k-1}
        down = self.cols.get(k - 1)
        if down is not None and sigma in down:
            for rho in down[sigma]:
                self.rows[k - 1][rho].discard(sigma)
            del down[sigma]
        self.cells[k].discard(tau)
        self.cells[k - 1].discard(sigma)

    def homology(self) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Reduced Betti numbers and torsion after reduction + SNF."""
        self.reduce()
        ranks: dict[int, int] = {}
        torsion: dict[int, list[int]] = {}
        for k in self.cols:
            cols = self.cols[k]
            live_rows = sorted(
                {r for col in cols.values() for r in col}, key=_facekey
            )
            live_cols = sorted(cols, key=_facekey)
            if not live_cols or not live_rows:
                ranks[k] = 0
                torsion[k - 1] = []
                continue
            ridx = {r: i for i, r in enumerate(live_rows)}
            dense = [[0] * len(live_cols) for _ in live_rows]
            for j, c in enumerate(live_cols):
                for r, v in cols[c].items():
                    dense[ridx[r]][j] = v
            factors = smith_normal_form(dense)
            ranks[k] = len(factors)
            torsion[k - 1] = [f for f in factors if f > 1]
        betti: dict[int, int] = {}
        for k in self.dims:
            betti[k] = (
                len(self.cells[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            )
        return betti, torsion


def _facekey(f: frozenset) -> tuple:
    return (len(f), sorted(map(_vkey, f)))


def homology(K: SimplicialComplex) -> HomologyTable:
    """Integral simplicial homology, exact over the integers."""
    if K.is_void:
        return HomologyTable(
            dim=-2, betti=(), torsion=(), reduced_betti=(), minus_one=0
        )
    cc = _ChainComplex(K)
    reduced, torsion = cc.homology()
    d = K.dim
    if d < 0:
        return HomologyTable(
            dim=-1,
            betti=(),
            torsion=(),
            reduced_betti=(),
            minus_one=reduced.get(-1, 0),
        )
    rb = tuple(reduced.get(k, 0) for k in range(d + 1))
    tor = tuple(tuple(torsion.get(k, [])) for k in range(d + 1))
    ub = (rb[0] + 1,) + rb[1:]
    return HomologyTable(
        dim=d,
        betti=ub,
        torsion=tor,
        reduced_betti=rb,
        minus_one=reduced.get(-1, 0),
    )


# ---------------------------------------------------------------------------
# collapsibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseCertificate:
    """A replayable elementary-collapse sequence.

    Each step removes a free face together with its unique coface;
    `terminal` is the single vertex left at the end.
    """

    steps: tuple[tuple[tuple, tuple], ...]
    terminal: Hashable

    def to_json(self) -> dict:
        return {
            "steps": [
                [[str(v) for v in s], [str(v) for v in t]] for s, t in self.steps
            ],
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


class _CollapseState:
    """Current face set with coface bookkeeping and an undo log."""

    def __init__(self, K: SimplicialComplex):
        self.vindex = K._vindex
        faces = K.all_faces()
        self.alive: set[frozenset] = set(faces)
        self.cofaces: dict[frozenset, set[frozenset]] = {f: set() for f in faces}
        for f in faces:
            for sub in self._facets_of(f):
                self.cofaces[sub].add(f)

    def _facets_of(self, f: frozenset):
        if len(f) <= 1:
            return
        vs = sorted(f, key=lambda v: self.vindex[v])
        for i in range(len(vs)):
            yield frozenset(vs[:i] + vs[i + 1 :])

    def key(self, f: frozenset) -> tuple:
        return (-len(f), tuple(sorted(self.vindex[v] for v in f)))

    def is_free(self, sigma: frozenset) -> bool:
        cfs = self.cofaces.get(sigma)
        if cfs is None or len(cfs) != 1 or sigma not in self.alive:
            return False
        (tau,) = cfs
        return not self.cofaces[tau]

    def free_faces(self) -> list[frozenset]:
        return sorted((f for f in self.alive if self.is_free(f)), key=self.key)

    def remove_pair(self, sigma: frozenset, tau: frozenset) -> None:
        for f in (tau, sigma):
            self.alive.discard(f)
            for sub in self._facets_of(f):
                self.cofaces[sub].discard(f)

    def restore_pair(self, sigma: frozenset, tau: frozenset) -> None:
        for f in (sigma, tau):
            self.alive.add(f)
            for sub in self._facets_of(f):
                self.cofaces[sub].add(f)

    def neighbors_to_recheck(self, sigma, tau) -> list[frozenset]:
        out = set()
        for f in (sigma, tau):
            for sub in self._facets_of(f):
                if sub in self.alive:
                    out.add(sub)
                    for sub2 in self._facets_of(sub):
                        if sub2 in self.alive:
                            out.add(sub2)
        return sorted(out, key=self.key)


def _certificate_from(state: _CollapseState, steps) -> CollapseCertificate:
    (last,) = state.alive
    (v,) = last
    cert_steps = tuple(
        (
            tuple(sorted(s, key=lambda x: state.vindex[x])),
            tuple(sorted(t, key=lambda x: state.vindex[x])),
        )
        for s, t in steps
    )
    return CollapseCertificate(cert_steps, v)


def find_collapse(K: SimplicialComplex, budget: int = 10**6) -> CollapseResult:
    """Search for a collapse of K to a single vertex.

    Greedy: always take the lexicographically least free face at the
    highest dimension.  If the pure greedy descent gets stuck, a
    backtracking pass revisits the choices, spending at most `budget`
    collapse steps overall.  Exhaustion is reported as such and never as
    "not collapsible".
    """
    if K.is_void or K.dim < 0:
        raise PreconditionError("collapse search needs a nonempty complex")
    if not K.is_connected():
        raise PreconditionError(
            "complex is disconnected; it cannot collapse to one point"
        )

    # greedy descent with an incrementally maintained free-face heap
    state = _CollapseState(K)
    nodes = 0
    steps: list[tuple[frozenset, frozenset]] = []
    heap = [(state.key(f), f) for f in state.alive if state.is_free(f)]
    heapq.heapify(heap)
    while len(state.alive) > 1:
        while heap and not state.is_free(heap[0][1]):
            heapq.heappop(heap)
        if not heap:
            break
        if nodes >= budget:
            return CollapseResult("exhausted", None, nodes, search_complete=False)
        sigma = heapq.heappop(heap)[1]
        (tau,) = state.cofaces[sigma]
        state.remove_pair(sigma, tau)
        steps.append((sigma, tau))
        nodes += 1
        for f in state.neighbors_to_recheck(sigma, tau):
            if state.is_free(f):
                heapq.heappush(heap, (state.key(f), f))
    if len(state.alive) == 1:
        return CollapseResult(
            "collapsed", _certificate_from(state, steps), nodes, True
        )

    # greedy got stuck: full backtracking over free-face choices
    state = _CollapseState(K)
    steps = []
    stack: list[list[frozenset]] = [state.free_faces()]
    while stack:
        if len(state.alive) == 1:
            return CollapseResult(
                "collapsed", _certificate_from(state, steps), nodes, True
            )
        frame = stack[-1]
        advanced = False
        while frame:
            sigma = frame.pop(0)
            if not state.is_free(sigma):
                continue
            if nodes >= budget:
                return CollapseResult(
                    "exhausted", None, nodes, search_complete=False
                )
            (tau,) = state.cofaces[sigma]
            state.remove_pair(sigma, tau)
            steps.append((sigma, tau))
            nodes += 1
            stack.append(state.free_faces())
            advanced = True
            break
        if not advanced:
            stack.pop()
            if steps:
                sigma, tau = steps.pop()
                state.restore_pair(sigma, tau)
    return CollapseResult("exhausted", None, nodes, search_complete=True)


def verify_collapse(K: SimplicialComplex, cert: CollapseCertificate) -> bool:
    """Replay a collapse certificate against K, checking every freeness
    condition.  Raises DomainError with the failing step on any defect."""
    state = _CollapseState(K)
    for i, (s, t) in enumerate(cert.steps):
        sigma, tau = frozenset(s), frozenset(t)
        if sigma not in state.alive or tau not in state.alive:
            raise DomainError(f"collapse step {i}: face already removed")
        if not (sigma < tau) or len(tau) != len(sigma) + 1:
            raise DomainError(f"collapse step {i}: {s!r} is not a facet of {t!r}")
        if state.cofaces[sigma] != {tau}:
            raise DomainError(f"collapse step {i}: {s!r} is not free")
        if state.cofaces[tau]:
            raise DomainError(f"collapse step {i}: {t!r} is not maximal")
        state.remove_pair(sigma, tau)
    if state.alive != {frozenset([cert.terminal])}:
        raise DomainError(
            f"replay leaves {len(state.alive)} faces, not the terminal vertex"
        )
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


def _poset_is_simplicial(P: Poset) -> bool:
    """Is P the face poset of a simplicial complex (every principal
    down-set a boolean lattice of the atoms below)?"""
    n = len(P.elements)
    minimal_mask = 0
    for i in range(n):
        if P._down[i] == 1 << i:
            minimal_mask |= 1 << i
    seen = set()
    for i in range(n):
        atoms = P._down[i] & minimal_mask
        a = _popcount(atoms)
        if _popcount(P._down[i]) != (1 << a) - 1:
            return False
        if atoms in seen:
            return False
        seen.add(atoms)
    return True


def verify_shelling(P: Poset, order: Sequence) -> ShellingReport:
    """Check the coatom shelling condition on a pure face poset.

    order must list the maximal elements of P exactly once each.  The
    condition: for all i < j there is a k < j with
    c_i meet c_j <= c_k meet c_j, and c_k meet c_j covered by c_j, meets
    taken in P augmented with a bottom element.

    On simplicial face posets this is the definition of a shelling; on
    other posets it is necessary but not sufficient, and the report says
    so via mode="necessary-condition".
    """
    if not P.is_pure():
        raise PreconditionError("shelling verification needs a pure poset")
    coatoms = P.maximal_elements()
    order_idx = [P.index(c) for c in order]
    if len(set(order_idx)) != len(order_idx) or set(order_idx) != {
        P.index(c) for c in coatoms
    }:
        raise DomainError("order is not a permutation of the maximal elements")
    mode = "simplicial" if _poset_is_simplicial(P) else "necessary-condition"
    t = len(order)
    meets = {}

    def meet(i: int, j: int):
        k = (i, j) if i <= j else (j, i)
        if k not in meets:
            meets[k] = P.meet_or_bottom(order[k[0]], order[k[1]])
        return meets[k]

    def leq_aug(a, b) -> bool:
        if a is None:
            return True
        if b is None:
            return False
        return P.less_equal(a, b)

    failures = []
    for j in range(1, t):
        # the valid "horizon" elements c_k m c_j that are covered by c_j
        horizon = [
            meet(k, j) for k in range(j) if P.is_lower_cover(meet(k, j), order[j])
        ]
        for i in range(j):
            m = meet(i, j)
            if not any(leq_aug(m, h) for h in horizon):
                failures.append((i, j))
    return ShellingReport(
        ok=not failures, mode=mode, failures=tuple(failures)
    )


def find_shelling(
    K: SimplicialComplex, budget: int = 10**5
) -> list[frozenset] | None:
    """Search for a shelling order of a pure simplicial complex.

    Depth-first with a deterministic candidate order; returns the facet
    sequence, or None when no order was found within the budget (which
    may also mean the complex is not shellable).
    """
    if K.is_void or K.dim < 0:
        raise PreconditionError("shelling search needs a nonempty complex")
    if not K.is_pure():
        raise PreconditionError("shelling search needs a pure complex")
    facets = list(K.facets)
    d = K.dim
    if len(facets) == 1:
        return facets
    if d == 0:
        return facets

    def ridges(f: frozenset):
        vs = sorted(f, key=_vkey)
        for i in range(len(vs)):
            yield frozenset(vs[:i] + vs[i + 1 :])

    nodes = 0

    def attaches_ok(f: frozenset, used: list[frozenset]) -> bool:
        hit = [r for r in ridges(f) if any(r <= g for g in used)]
        if not hit:
            return False
        for g in used:
            cap = f & g
            if not any(cap <= r for r in hit):
                return False
        return True

    def search(used: list[frozenset], rest: list[frozenset]):
        nonlocal nodes
        if not rest:
            return used
        for idx, f in enumerate(rest):
            if nodes >= budget:
                return None
            nodes += 1
            if attaches_ok(f, used):
                got = search(used + [f], rest[:idx] + rest[idx + 1 :])
                if got is not None:
                    return got
        return None

    for idx, first in enumerate(facets):
        got = search([first], facets[:idx] + facets[idx + 1 :])
        if got is not None:
            return got
        if nodes >= budget:
            return None
    return None


# ---------------------------------------------------------------------------
# link classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkVerdict:
    vertex: Hashable
    kind: str  # "sphere-like" | "ball-like" | "other"
    certainty: str  # "certified" | "evidence-only" | "refuted"
    homology: HomologyTable
    notes: tuple[str, ...] = ()

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

    @property
    def any_refuted(self) -> bool:
        return any(v.certainty == "refuted" for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "is_manifold": self.is_manifold,
            "all_certified": self.all_certified,
            "vertices": [v.to_json() for v in self.verdicts],
        }


def _certify_sphere(
    L: SimplicialComplex, d: int, budget: int, h: HomologyTable | None = None
) -> tuple[bool, str, list[str]]:
    """(matches, certainty, notes) for 'L is a d-sphere'.

    certainty is "certified" when the positive checks fully pin the type
    at this dimension, "refuted" when an exact invariant rules it out,
    "evidence-only" when homology agrees but certification fell short.
    h is L's homology when the caller already has it; otherwise it is
    computed only once the cheaper checks pass.
    """
    notes: list[str] = []
    if d == -1:
        ok = not L.is_void and L.dim == -1
        return (ok, "certified" if ok else "refuted", notes)
    if L.is_void or L.dim != d:
        return (False, "refuted", [f"dimension is not {d}"])
    if d == 0:
        ok = len(L.facets) == 2 and all(len(f) == 1 for f in L.facets)
        return (ok, "certified" if ok else "refuted", notes)
    if not L.is_pure():
        return (False, "refuted", ["not pure"])
    if not L.is_closed_pseudomanifold():
        return (False, "refuted", ["not a closed pseudomanifold"])
    if h is None:
        h = homology(L)
    if not h.is_sphere(d):
        return (False, "refuted", [f"homology {h.reduced_betti} is not a {d}-sphere"])
    if d == 1:
        # connected closed 1-pseudomanifold is a circle
        return (True, "certified", notes)
    shell = find_shelling(L, budget=budget)
    if shell is not None:
        notes.append(f"shelling of {len(shell)} facets found")
        return (True, "certified", notes)
    # recursive link check
    all_cert = True
    for v in L.vertex_order:
        ok, certainty, _ = _certify_sphere(L.link(v), d - 1, budget)
        if certainty == "refuted" or not ok:
            return (False, "refuted", [f"link of {v!r} is not a {d-1}-sphere"])
        if certainty != "certified":
            all_cert = False
    notes.append("recursive vertex-link check passed")
    return (True, "certified" if all_cert else "evidence-only", notes)


def _certify_ball(
    L: SimplicialComplex, d: int, budget: int, h: HomologyTable
) -> tuple[bool, str, list[str]]:
    """(matches, certainty, notes) for 'L is a d-ball'; h is L's
    homology."""
    notes: list[str] = []
    if L.is_void or L.dim != d:
        return (False, "refuted", [f"dimension is not {d}"])
    if d == 0:
        ok = len(L.facets) == 1 and len(L.facets[0]) == 1
        return (ok, "certified" if ok else "refuted", notes)
    if not L.is_pure():
        return (False, "refuted", ["not pure"])
    if not h.is_ball():
        return (False, "refuted", [f"homology {h.reduced_betti} is not a ball"])
    bd = L.boundary()
    if bd.is_void:
        return (False, "refuted", ["no free ridge: boundary is empty"])
    ok, certainty, sub = _certify_sphere(bd, d - 1, budget)
    if not ok:
        return (False, certainty, [f"boundary: {m}" for m in sub])
    res = find_collapse(L, budget=budget)
    if not res.collapsed:
        return (True, "evidence-only", ["collapse search exhausted"])
    notes.append(f"collapsed in {len(res.certificate.steps)} steps")
    if certainty != "certified":
        return (True, "evidence-only", notes + ["boundary sphere evidence-only"])
    return (True, "certified", notes)


def classify_links(K: SimplicialComplex, budget: int = 10**6) -> LinkClassification:
    """Classify the link of every vertex as sphere-like, ball-like, or
    other, with homology evidence and honest certainty labels."""
    if K.is_void or K.dim < 0:
        raise PreconditionError("link classification needs vertices")
    if not K.is_pure():
        raise PreconditionError("link classification is defined for pure complexes")
    d = K.dim
    verdicts = []
    for v in K.vertex_order:
        L = K.link(v)
        h = homology(L)
        ok_s, cert_s, notes_s = _certify_sphere(L, d - 1, budget, h)
        if ok_s:
            verdicts.append(
                LinkVerdict(v, "sphere-like", cert_s, h, tuple(notes_s))
            )
            continue
        ok_b, cert_b, notes_b = _certify_ball(L, d - 1, budget, h)
        if ok_b:
            verdicts.append(
                LinkVerdict(v, "ball-like", cert_b, h, tuple(notes_b))
            )
            continue
        certainty = (
            "refuted" if "refuted" in (cert_s, cert_b) else "evidence-only"
        )
        verdicts.append(
            LinkVerdict(
                v,
                "other",
                certainty,
                h,
                tuple(notes_s) + tuple(notes_b),
            )
        )
    return LinkClassification(tuple(verdicts))


# ---------------------------------------------------------------------------
# text format: one facet per line
# ---------------------------------------------------------------------------


def parse_complex(text: str, source: str = "<string>") -> SimplicialComplex:
    """One facet per line, vertices whitespace-separated, # comments."""
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append(line.split())
    return SimplicialComplex(facets)


def format_complex(K: SimplicialComplex) -> str:
    lines = []
    for f in K.facets:
        lines.append(" ".join(str(v) for v in sorted(f, key=_vkey)))
    return "\n".join(lines) + ("\n" if lines else "")
