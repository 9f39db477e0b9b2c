"""Rational hyperplane arrangements and exact sign-pattern feasibility.

An arrangement a_i . x = b_i in R^d is homogenized to the vector
configuration (a_i, -b_i) on d+1 variables with the extra form
t = (0,...,0,1) playing the distinguished element g.  Covectors of the
resulting affine oriented matroid are exactly the feasible sign
patterns, decided over the rationals: zero signs become equations and
are substituted out, strict signs go through Fourier-Motzkin
elimination with strictness tracking.  No floating point anywhere.

The module also hosts the geometric boundedness oracle (a face is
bounded iff its recession cone is the origin), which is the independent
cross-check for every bounded-complex face count downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    PreconditionError,
    ResourceExhausted,
)
from .matroid import CovectorSet
from .signvec import GroundSet, Sign, SignVector

# relation tags for rows "expr REL 0"
_EQ, _GE, _GT = 0, 1, 2


# ---------------------------------------------------------------------------
# exact linear feasibility
# ---------------------------------------------------------------------------


def _to_int_row(coeffs, const, rel):
    """Scale a rational row to a primitive integer row."""
    fracs = [Fraction(c) for c in coeffs] + [Fraction(const)]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(ints[:-1]), ints[-1], rel)


def _const_ok(const: int, rel: int) -> bool:
    if rel == _EQ:
        return const == 0
    if rel == _GE:
        return const >= 0
    return const > 0


def _normalize(coeffs, const, rel):
    g = abs(const)
    for c in coeffs:
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const = const // g
    return (coeffs, const, rel)


def feasible(rows, nvars: int) -> bool:
    """Is there a real point satisfying every row (coeffs, const, rel),
    read as coeffs . x + const REL 0?  Decided exactly."""
    work = []
    for coeffs, const, rel in rows:
        coeffs, const, rel = _to_int_row(coeffs, const, rel)
        if len(coeffs) != nvars:
            raise DimensionError(
                f"row has {len(coeffs)} coefficients, expected {nvars}"
            )
        if not any(coeffs):
            if not _const_ok(const, rel):
                return False
            continue
        work.append((coeffs, const, rel))

    live = list(range(nvars))

    # substitute out equations first
    while True:
        pivot = None
        for row in work:
            if row[2] == _EQ:
                pivot = row
                break
        if pivot is None:
            break
        work.remove(pivot)
        pcoef, pconst, _ = pivot
        v = next(j for j in live if pcoef[j])
        p = pcoef[v]
        nxt = []
        for coeffs, const, rel in work:
            r = coeffs[v]
            if r:
                # R' = |p| R - sign(p) r P keeps the relation direction
                # (P is an equation, so any multiple may be added)
                s = 1 if p > 0 else -1
                coeffs = tuple(
                    abs(p) * c - s * r * pc for c, pc in zip(coeffs, pcoef)
                )
                const = abs(p) * const - s * r * pconst
                if not any(coeffs):
                    if not _const_ok(const, rel):
                        return False
                    continue
                coeffs, const, rel = _normalize(coeffs, const, rel)
            nxt.append((coeffs, const, rel))
        work = nxt
        live.remove(v)

    # Fourier-Motzkin on the strict/weak inequalities
    while work:
        best_v, best_cost = None, None
        for v in live:
            p = sum(1 for c, _, _ in work if c[v] > 0)
            n = sum(1 for c, _, _ in work if c[v] < 0)
            if p == 0 and n == 0:
                continue
            cost = p * n
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        if best_v is None:
            break
        v = best_v
        pos = [r for r in work if r[0][v] > 0]
        neg = [r for r in work if r[0][v] < 0]
        keep = [r for r in work if r[0][v] == 0]
        out = set(keep)
        for pcoef, pconst, prel in pos:
            for ncoef, nconst, nrel in neg:
                a, b = -ncoef[v], pcoef[v]
                coeffs = tuple(
                    a * pc + b * nc for pc, nc in zip(pcoef, ncoef)
                )
                const = a * pconst + b * nconst
                rel = _GT if (prel == _GT or nrel == _GT) else _GE
                if not any(coeffs):
                    if not _const_ok(const, rel):
                        return False
                    continue
                out.add(_normalize(coeffs, const, rel))
        work = sorted(out)
        live.remove(v)
    return True


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrangement:
    """A finite list of affine hyperplanes a . x = b in R^dim."""

    dim: int
    labels: tuple[str, ...]
    normals: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[Fraction, ...]

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

    @property
    def n(self) -> int:
        return len(self.labels)

    def hyperplanes(self):
        return tuple(zip(self.normals, self.offsets))

    def _primitive(self, i: int):
        """Scale (normal, offset) to a primitive integer vector with
        positive leading entry; equal results = equal hyperplanes."""
        row = list(self.normals[i]) + [self.offsets[i]]
        mult = 1
        for f in row:
            mult = mult * f.denominator // gcd(mult, f.denominator)
        ints = [int(f * mult) for f in row]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(ints)

    def repeated_hyperplanes(self) -> list[tuple[str, str]]:
        """Pairs of labels naming the same hyperplane (up to scaling)."""
        seen: dict[tuple, str] = {}
        dups = []
        for i, lab in enumerate(self.labels):
            key = self._primitive(i)
            if key in seen:
                dups.append((seen[key], lab))
            else:
                seen[key] = lab
        return dups


@dataclass(frozen=True)
class VectorConfiguration:
    """Homogenized forms on d+1 variables; the g form (0,...,0,1) last."""

    nvars: int
    forms: tuple[tuple[Fraction, ...], ...]
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
    """Forms (a_i, -b_i) plus the homogenizing form t, labeled g."""
    forms = [a + (-b,) for a, b in zip(A.normals, A.offsets)]
    forms.append((Fraction(0),) * A.dim + (Fraction(1),))
    glab = _g_label(A.labels)
    ground = GroundSet(A.labels + (glab,), g=glab)
    return VectorConfiguration(nvars=A.dim + 1, forms=tuple(forms), ground=ground)


# ---------------------------------------------------------------------------
# sign-pattern feasibility and enumeration
# ---------------------------------------------------------------------------


def _sign_row(coeffs, const, sign: Sign):
    if sign is Sign.ZERO:
        return (coeffs, const, _EQ)
    if sign is Sign.PLUS:
        return (coeffs, const, _GT)
    return (tuple(-c for c in coeffs), -const, _GT)


def pattern_feasible(V: VectorConfiguration, P: SignVector) -> bool:
    """Is there a point y with sign(form_i(y)) = P_i for every i?"""
    if P.n != V.n_forms:
        raise DimensionError(
            f"pattern has length {P.n}, configuration has {V.n_forms} forms"
        )
    rows = [
        _sign_row(f, Fraction(0), P.sign(i)) for i, f in enumerate(V.forms)
    ]
    return feasible(rows, V.nvars)


def _enumerate_patterns(rows_by_sign, n: int, nvars: int, prune: bool):
    """DFS over sign patterns in (0,+,-) branch order per coordinate;
    rows_by_sign[i][s] is the row constraining coordinate i to sign s.
    With prune=True, prefixes whose partial system is already infeasible
    are cut; this cannot change the result (a completion only adds
    constraints)."""
    order = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
    out = []
    prefix: list[Sign] = []
    rows: list = []

    def rec():
        if len(prefix) == n:
            # the full system was checked on the last append
            out.append(SignVector.from_signs(prefix))
            return
        for s in order:
            prefix.append(s)
            rows.append(rows_by_sign[len(prefix) - 1][s])
            # without pruning, only complete patterns are tested
            check = prune or len(prefix) == n
            if not check or feasible(rows, nvars):
                rec()
            prefix.pop()
            rows.pop()

    rec()
    return out


def enumerate_covectors(
    V: VectorConfiguration, cap: int = 12, prune: bool = True
) -> CovectorSet:
    """All feasible sign patterns of the configuration's forms."""
    if V.n_forms > cap:
        raise ResourceExhausted(
            f"{V.n_forms} forms exceed the enumeration cap of {cap}"
        )
    rows_by_sign = [
        {s: _sign_row(f, Fraction(0), s) for s in Sign} for f in V.forms
    ]
    vecs = _enumerate_patterns(rows_by_sign, V.n_forms, V.nvars, prune)
    return CovectorSet(V.ground, vecs)


# ---------------------------------------------------------------------------
# affine faces and the boundedness oracle
# ---------------------------------------------------------------------------


def _affine_rows_by_sign(A: Arrangement):
    return [
        {s: _sign_row(a, -b, s) for s in Sign}
        for a, b in zip(A.normals, A.offsets)
    ]


def affine_pattern_feasible(A: Arrangement, P: SignVector) -> bool:
    """Is the relatively open face {x : sign(a_i . x - b_i) = P_i} nonempty?"""
    if P.n != A.n:
        raise DimensionError(
            f"pattern has length {P.n}, arrangement has {A.n} hyperplanes"
        )
    rows = [
        _sign_row(a, -b, P.sign(i))
        for i, (a, b) in enumerate(zip(A.normals, A.offsets))
    ]
    return feasible(rows, A.dim)


def enumerate_affine_faces(A: Arrangement, prune: bool = True):
    """All affine sign patterns with a nonempty face."""
    return _enumerate_patterns(_affine_rows_by_sign(A), A.n, A.dim, prune)


def face_bounded(A: Arrangement, P: SignVector) -> bool:
    """Is the face with sign pattern P bounded?  Exact criterion: the
    recession cone {u : a_i.u = 0 where P_i = 0, sign(a_i.u) in {0,P_i}
    elsewhere} is the origin alone."""
    if not affine_pattern_feasible(A, P):
        raise PreconditionError(f"face {P} is empty")
    cone = []
    for i, a in enumerate(A.normals):
        s = P.sign(i)
        if s is Sign.ZERO:
            cone.append((a, 0, _EQ))
        elif s is Sign.PLUS:
            cone.append((a, 0, _GE))
        else:
            cone.append((tuple(-c for c in a), 0, _GE))
    zero = (Fraction(0),) * A.dim
    for j in range(A.dim):
        for val in (1, -1):
            unit = zero[:j] + (Fraction(val),) + zero[j + 1 :]
            if feasible(cone + [(unit, -1, _EQ)], A.dim):
                return False
    return True


def _rank(rows_of_fractions) -> int:
    mat = [list(map(Fraction, r)) for r in rows_of_fractions]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / prow[c]
                mat[r] = [x - f * y for x, y in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def affine_face_dim(A: Arrangement, P: SignVector) -> int:
    """Dimension of the nonempty face with pattern P: the ambient
    dimension minus the rank of the normals it lies on."""
    zero_normals = [A.normals[i] for i in sorted(P.zero_set())]
    if not zero_normals:
        return A.dim
    return A.dim - _rank(zero_normals)


def is_essential(A: Arrangement) -> bool:
    """Do the normals span the ambient space?

    Only for essential arrangements does metric boundedness of a face
    match the combinatorial notion (no nonzero covector below it with a
    zero at the extra element): parallel lines in the plane bound strips
    that are combinatorially bounded but metrically unbounded, because
    the whole picture is a cylinder over a lower-dimensional arrangement.
    """
    return _rank(A.normals) == A.dim


def bounded_faces(A: Arrangement) -> dict[SignVector, int]:
    """The sign pattern of every bounded face, mapped to its dimension:
    one pass over the affine faces, one exact boundedness test each.
    Never consults the covector poset, so it is an independent oracle
    for the bounded complex."""
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
    the number of bounded faces of dimension k."""
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
