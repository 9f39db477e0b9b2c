"""Exact sign-vector algebra over an ordered finite ground set.

Sign vectors are elements of {+, -, 0}^E for an ordered ground set E.
They are immutable and hashable, so they can live in sets and serve as
poset elements.  The three-valued :class:`Sign` enumeration is the only
sign type that crosses the API; internally a vector is packed into two
bitmasks (one for ``+`` positions, one for ``-``), which keeps the
pairwise operations used by the enumeration and axiom-checking loops at
a handful of integer instructions.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import DimensionError, DomainError


class Sign(enum.Enum):
    """One coordinate of a sign vector."""

    PLUS = "+"
    MINUS = "-"
    ZERO = "0"

    @property
    def char(self) -> str:
        return self.value

    @classmethod
    def of_number(cls, x) -> "Sign":
        """Sign of an exact number (int or Fraction)."""
        if x > 0:
            return cls.PLUS
        if x < 0:
            return cls.MINUS
        return cls.ZERO

    def __neg__(self) -> "Sign":
        if self is Sign.PLUS:
            return Sign.MINUS
        if self is Sign.MINUS:
            return Sign.PLUS
        return Sign.ZERO


class GroundSet:
    """An ordered sequence of distinct element labels, with an optional
    distinguished element g.

    The construction order is the single source of truth for coordinate
    positions; all textual I/O lists signs in this order.
    """

    __slots__ = ("labels", "g", "_index")

    def __init__(self, labels: Iterable[str], g: str | None = None):
        self.labels: tuple[str, ...] = tuple(str(x) for x in labels)
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"duplicate ground-set labels in {self.labels}")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if g is not None and g not in self._index:
            raise DomainError(f"distinguished element {g!r} not in ground set")
        self.g = g

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundSet)
            and self.labels == other.labels
            and self.g == other.g
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.g))

    def __repr__(self) -> str:
        gpart = f", g={self.g!r}" if self.g is not None else ""
        return f"GroundSet({list(self.labels)!r}{gpart})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown element {label!r}") from None

    def indices(self, labels: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index(lab) for lab in labels)

    @property
    def g_index(self) -> int | None:
        return None if self.g is None else self._index[self.g]

    def without(self, labels: Iterable[str]) -> "GroundSet":
        """The ground set with the given labels removed, order preserved."""
        drop = set(labels)
        unknown = drop - set(self.labels)
        if unknown:
            raise DomainError(f"unknown elements {sorted(unknown)!r}")
        keep = [lab for lab in self.labels if lab not in drop]
        g = self.g if (self.g is not None and self.g not in drop) else None
        return GroundSet(keep, g=g)


class SignVector:
    """An immutable element of {+, -, 0}^E, E ordered, |E| = ``n``.

    >>> x = SignVector.from_string("+0-0")
    >>> y = SignVector.from_string("-++0")
    >>> str(x.compose(y))
    '++-0'
    >>> sorted(x.separation(y))
    [0, 2]
    """

    __slots__ = ("n", "_pos", "_neg")

    def __init__(self, n: int, pos: int, neg: int):
        # pos/neg are bitmasks of the +/- coordinates; bit i = coordinate i.
        if pos & neg:
            raise ValueError("a coordinate cannot be both + and -")
        if (pos | neg) >> n:
            raise ValueError("mask wider than the declared length")
        self.n = n
        self._pos = pos
        self._neg = neg

    # -- construction ------------------------------------------------

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        pos = neg = 0
        for i, ch in enumerate(s):
            if ch == "+":
                pos |= 1 << i
            elif ch == "-":
                neg |= 1 << i
            elif ch != "0":
                raise ValueError(f"not a sign string: {s!r}")
        return cls(len(s), pos, neg)

    @classmethod
    def from_signs(cls, signs: Iterable[Sign]) -> "SignVector":
        pos = neg = 0
        n = 0
        for i, s in enumerate(signs):
            if s is Sign.PLUS:
                pos |= 1 << i
            elif s is Sign.MINUS:
                neg |= 1 << i
            elif s is not Sign.ZERO:
                raise TypeError(f"not a Sign: {s!r}")
            n = i + 1
        return cls(n, pos, neg)

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    # -- views ---------------------------------------------------------

    @property
    def signs(self) -> tuple[Sign, ...]:
        return tuple(self.sign(i) for i in range(self.n))

    def sign(self, i: int) -> Sign:
        if not 0 <= i < self.n:
            raise DomainError(f"coordinate {i} out of range for length {self.n}")
        bit = 1 << i
        if self._pos & bit:
            return Sign.PLUS
        if self._neg & bit:
            return Sign.MINUS
        return Sign.ZERO

    def support(self) -> frozenset[int]:
        """Indices with a nonzero sign."""
        return _mask_to_set(self._pos | self._neg)

    def zero_set(self) -> frozenset[int]:
        """Indices with sign zero."""
        full = (1 << self.n) - 1
        return _mask_to_set(full & ~(self._pos | self._neg))

    @property
    def is_zero(self) -> bool:
        return not (self._pos | self._neg)

    # -- algebra ---------------------------------------------------------

    def compose(self, other: "SignVector") -> "SignVector":
        """X o Y: takes X's sign where X is nonzero, else Y's."""
        self._check_length(other)
        taken = self._pos | self._neg
        return SignVector(
            self.n,
            self._pos | (other._pos & ~taken),
            self._neg | (other._neg & ~taken),
        )

    def separation(self, other: "SignVector") -> frozenset[int]:
        """Indices where the two vectors carry opposite nonzero signs."""
        self._check_length(other)
        return _mask_to_set(
            (self._pos & other._neg) | (self._neg & other._pos)
        )

    def below(self, other: "SignVector") -> bool:
        """True iff self <= other in the product order (0 < +, 0 < -)."""
        self._check_length(other)
        return (self._pos & ~other._pos) == 0 and (self._neg & ~other._neg) == 0

    def meet(self, other: "SignVector") -> "SignVector":
        """Coordinatewise agreement: the meet in the product order."""
        self._check_length(other)
        return SignVector(self.n, self._pos & other._pos, self._neg & other._neg)

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self._neg, self._pos)

    def opposite(self) -> "SignVector":
        return -self

    def delete(self, indices: Iterable[int]) -> "SignVector":
        """Drop the given coordinates, preserving the order of the rest."""
        drop = frozenset(indices)
        for i in drop:
            if not 0 <= i < self.n:
                raise DomainError(f"coordinate {i} out of range for length {self.n}")
        pos, neg = self._pos, self._neg
        # highest first, so each shift leaves the lower indices in place
        for i in sorted(drop, reverse=True):
            low = (1 << i) - 1
            pos = (pos & low) | (pos >> 1 & ~low)
            neg = (neg & low) | (neg >> 1 & ~low)
        return SignVector(self.n - len(drop), pos, neg)

    def restrict(self, indices: Iterable[int]) -> "SignVector":
        """Keep only the given coordinates (complement of :meth:`delete`)."""
        keep = frozenset(indices)
        return self.delete(i for i in range(self.n) if i not in keep)

    # -- plumbing -------------------------------------------------------

    def _check_length(self, other: "SignVector") -> None:
        if self.n != other.n:
            raise DimensionError(
                f"sign vectors of length {self.n} and {other.n} do not mix"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.n == other.n
            and self._pos == other._pos
            and self._neg == other._neg
        )

    def __hash__(self) -> int:
        return hash((self.n, self._pos, self._neg))

    def __str__(self) -> str:
        out = []
        for i in range(self.n):
            bit = 1 << i
            out.append("+" if self._pos & bit else "-" if self._neg & bit else "0")
        return "".join(out)

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"

    def __len__(self) -> int:
        return self.n


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))
