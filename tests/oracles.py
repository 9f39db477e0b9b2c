"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the library's own reduction machinery: homology
is recomputed from the definition, over the rationals with dense
Gaussian elimination (`rational_betti`) and over the integers with the
Smith normal form of every full boundary matrix (`integral_homology`),
so they cross-check the collapse/coreduction path of `homology`.

`SimplicialComplex`, `face_poset`, `maximal_chains`, `order_complex` and
`simplicial_homology` are the simplicial engine the library ran before
homology moved onto the cells of a poset: `homology(P)` is checked
against `simplicial_homology(order_complex(P))`, window by window, and a
simplicial complex K reaches the library as `face_poset(K)`.
`cw_defect` names an element whose lower interval is no homology
sphere, the reason the cell engine may refuse a poset.  `down_set`,
`open_interval`, `is_lower_cover`, `any_refuted`, `positive_part`,
`all_sign_vectors`, `minimal_elements`, `lower_covers`,
`upper_covers`, `subposet`, `meet_or_bottom`, `linear_extension`,
`random_linear_extension`, `poset_is_simplicial`, `topes`, `contract`
and `contraction` (L/g of an `AffineOM`) are helpers the library
exported and no longer calls.

The covector-order oracles (`scan_heights`, `scan_topes`, `scan_atoms`,
`scan_upper`, `scan_bounded_complex`) answer each order question by
pairwise `SignVector.below` scans over the whole set, with no shared
order index, so they cross-check everything `CovectorSet.order` serves.

`scan_axioms` checks the covector axioms from their definitions, pair
by pair, with no order, sign column or decision step, so it
cross-checks the whole report of `verify_covector_axioms`.
`pairwise_witnesses` is the witness pass as the library ran it before
it listed the witnesses from zero-set classes and equal-support pairs:
one visit to every pair of the set, with a cached projection set per
elimination, so it cross-checks the L2 and L3 witness lists, order
included.  `equal_support_elimination` is the L3 pass as the library
ran it before it settled pairs of equal support by walls: every pair
of equal support tested coordinate by coordinate, and every pair with
a missing composition tested on its own, so it cross-checks the L3
witness list of a set that fails the axioms, order included.
`restriction_l2_witnesses` is the L2 pass as the library ran
it before it refined sign columns: the set of restrictions of every
covector counted per zero set and, where the count differs from the
up-set, the covectors grouped by a dictionary keyed on their
restriction (`restriction_classes`).

`transposed_up_sets` builds a poset's up-sets bit by bit from its
down-sets, and `heights_by_max` takes each height as a maximum over the
down-set, as `Poset` did before it built up-sets beside the down-sets
(off the sign columns, for L's order) and heights off levels; they
cross-check `Poset`, `CovectorSet.order` and `Poset._height_list`.

`link_sweep` cuts every vertex link out of a whole simplicial complex
and certifies all of it, with no join splitting and no induction, so it
cross-checks `classify_links`, which certifies only the upper factor of
each link of an order complex, on its cells.  It certifies a link as the
library did before the induction: a sphere by a shelling found by
`find_shelling` (or, failing that, by sphere vertex links up to
dimension 2), a ball by its collapse plus a sphere `boundary`.

`fm_covectors` is the covector enumeration as it ran before the
cocircuits: a depth-first search over sign patterns with one
Fourier-Motzkin feasibility test per prefix, so it cross-checks the
cocircuit closure of `enumerate_covectors` as a whole set.
`fm_affine_faces` runs the same search on the affine rows of an
arrangement, as `enumerate_affine_faces` did before it read the faces
off the cocircuit closure, so it cross-checks that list, order
included.
`pattern_feasible` decides one sign pattern of a vector configuration
with its own feasibility call, so a brute-force scan over all patterns
cross-checks both.

`feasible` is the exact Fourier-Motzkin feasibility test all of these
run, as the library ran it before boundedness was decided on the
cocircuits of the normals; `affine_pattern_feasible` decides one affine
sign pattern with it.  `face_bounded_by_fm` is the boundedness test as
it ran then: an emptiness test, then one feasibility test on the
recession cone.  `face_bounded_by_directions` is the test as it ran
before that: it reads the arrangement's rational normals, not its
integer rows, and runs one feasibility test per signed coordinate
direction.  Both cross-check `realization.face_bounded`, which solves
no linear program.

`cube_scans`, `restriction_scans` and `bijection_scans` are the pairwise
checks the star checks of `bounded` no longer make, because a lemma
about the conformal order decides them for every set of sign vectors.
`cube_isomorphism_by_scan`, `restriction_ok_by_scan` and
`check_bijection_by_scan` decide the star checks with those scans, as
they ran before, so they cross-check the reports of `cube_isomorphism`,
`restrict_to_support` and `check_bijection`.

`pure_by_covers`, `verify_shelling_by_meets`, `star_topes_by_scan`,
`shelling_of_DX_by_scan` and `induced_shelling_by_scan` are the star
shellings as they ran before they moved onto the masks of L's order:
purity by a height test on every cover, each meet c_i ^ c_j found as an
element by `meet_or_bottom`, C_X and D_X by sign tests on every tope,
[D_X] sorted on a `TopePoset` after a pairwise order-ideal scan, and
the [C_X] face poset cut out of L by `subposet`.  They cross-check the
purity of `topology._cell_table`, `Star`, `shelling_of_DX` and
`induced_shelling_of_CX`, reports and exception texts included.
`verify_shelling_by_meets` checks the coatom condition of any facet
order on any pure poset, so it is also the shelling checker of the
tests that shell a complex.

`close_by_conformal_frontier` is the closure of `enumerate_covectors` as
it ran before it walked covers: each new covector composed with every
cocircuit conformal to it, so it cross-checks the cover walk as a whole
set, cap included.  `sorted_by_sign_string` sorts a covector set by its
sign strings and `sign_columns_by_bits` sets its sign columns one bit
per sign, as `CovectorSet` did before its integer sort key and byte
planes; they cross-check `sorted_covectors` and `_sign_columns`.

`cocircuits_by_dets` lists the cocircuits as `realization._cocircuits`
did before the wedge walk: each (r-1)-subset of the non-loop forms on
its own, its cofactor vector from r separate determinants `det` by
fraction-free elimination.  `general_position_by_ranks` is the
generator's uniformity test as it ran before that walk, one rank per
(d+1)-subset of the homogenized forms (`every_subset_a_basis_by_ranks`).
They cross-check `_cocircuits`, the uniform early exit of
`enumerate_covectors` and `generate._in_general_position`.

`generate_by_randint` is the generator as it drew before it read the
generator's words itself: one `random.randint` per coefficient, every
draw decided by the wedge walk, so it cross-checks
`generate_arrangement` draw for draw.  `sign_string_by_coordinates`,
`from_string_by_coordinates`, `parse_covector_file_by_lines` and
`format_covector_file_by_coordinates` are the sign strings and the
covector file as they ran before the nibble table and the bulk parse:
one coordinate, one character and one line at a time, so they
cross-check `str`, `SignVector.from_string`, `parse_covector_file`
(error messages and line numbers included) and `format_covector_file`.

`verify_on_the_order_complex` runs the pipeline with its collapse found
and replayed, and its homology computed, on the order complex
K = Delta(L++) and K's f-vector read from K, so it cross-checks
`verify`, which does all three on the cells of L++.

`CollapseState`, `find_collapse_by_state` and `verify_collapse_by_state`
are the collapse search and its replay as they ran before the cell
table: live cells, facets and cofaces in dicts and sets, free faces in
a heap.  `classify_links_by_subposets` is the link classification as it
ran then: every upper factor re-indexed by `Poset.strictly_above`, a
second `subposet` without the top of a closed factor, a fresh state per
collapse, and no replay.  They cross-check `find_collapse`,
`verify_collapse` and `classify_links`, which run one mask kernel on
windows of a poset's own cells; `link_certificate_replays` replays a
link's certificate on the re-indexed factor with that state.

`TopePoset` (with `tope_poset` and `TopePoset.order_ideal`) is the tope
poset the library exported before [D_X] was sorted on masks, with the
sort key as a tuple of labels (`separation_key_by_labels`).
`boundary_equivalence_by_deletion`, `check_bijection_by_vectors`,
`shelling_of_DX_by_vectors`, `induced_shelling_by_vectors` and
`star_checks_by_vectors` are the star checks as they ran before the
tope table: per X, on sign vectors, with `delete`, composition and
hashing, so `star_checks_by_vectors` cross-checks `verify._star_checks`
dict for dict.
"""

import heapq
import itertools
import random
import re
from collections import defaultdict, deque
from fractions import Fraction
from math import comb, gcd
from typing import Hashable, Iterable
from unittest import mock

import omtop.verify
from omtop.bounded import (
    BijectionReport,
    BoundaryEquivalenceReport,
    CubeReport,
    InducedShelling,
    cube_isomorphism,
    link_decomposition,
)
from omtop.errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    MembershipError,
    OmtopError,
    PreconditionError,
    ResourceExhausted,
)
from omtop.generate import _every_subset_a_basis
from omtop.matroid import (
    AxiomReport,
    CovectorSet,
    _pairs_below,
    _unmet_eliminations,
)
from omtop.realization import (
    _CAP,
    Arrangement,
    _cocircuits,
    _eliminate,
    _over_cap,
    _rank,
    _uniform_covector_count,
    homogenize,
    is_essential,
)
from omtop.signvec import GroundSet, Sign, SignVector, _bits
from omtop.topology import (
    CollapseCertificate,
    CollapseResult,
    HomologyTable,
    LinkClassification,
    LinkVerdict,
    Poset,
    ShellingReport,
    _vkey,
    smith_normal_form,
)


# relation tags for rows "expr REL 0"
_EQ, _GE, _GT = 0, 1, 2


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
    read as coeffs . x + const REL 0?  Decided exactly.  Every entry
    must be an `int`, as in the rows an `Arrangement` or a
    `VectorConfiguration` keeps; no row is rescaled here.

    Fourier-Motzkin elimination with strictness tracking: zero signs
    become equations and are substituted out first."""
    work = []
    for coeffs, const, rel in rows:
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


def _sign_row(coeffs, const, sign: Sign):
    if sign is Sign.ZERO:
        return (coeffs, const, _EQ)
    if sign is Sign.PLUS:
        return (coeffs, const, _GT)
    return (tuple(-c for c in coeffs), -const, _GT)


def affine_pattern_feasible(A, P: SignVector) -> bool:
    """Is the relatively open face {x : sign(a_i . x - b_i) = P_i} nonempty?"""
    if P.n != A.n:
        raise DimensionError(
            f"pattern has length {P.n}, arrangement has {A.n} hyperplanes"
        )
    rows = [_sign_row(r[:-1], r[-1], P.sign(i)) for i, r in enumerate(A.rows)]
    return feasible(rows, A.dim)


def face_bounded_by_fm(A, P: SignVector) -> bool:
    """Is the nonempty face with sign pattern P bounded, i.e. is its
    recession cone C = {u : a_i.u = 0 where P_i = 0, P_i a_i.u >= 0
    elsewhere} the origin alone?  One feasibility test decides it.  In
    a non-essential arrangement every face contains a line.  Otherwise
    the normals span, so a nonzero u in C has some a_i.u != 0, hence
    P_i a_i.u > 0 for some i outside the zero set of P; then the sum of
    P_i a_i.u over those i is positive and scales to 1, while it is 0
    at u = 0.  So the face is bounded iff no u in C makes that sum 1.
    An emptiness test comes first: an empty pattern raises
    PreconditionError."""
    if not affine_pattern_feasible(A, P):
        raise PreconditionError(f"face {P} is empty")
    if not is_essential(A):
        return False
    cone = []
    for i, r in enumerate(A.rows):
        a, _, rel = _sign_row(r[:-1], 0, P.sign(i))
        cone.append((a, 0, _GE if rel == _GT else _EQ))
    total = tuple(
        sum(a[j] for a, _, rel in cone if rel == _GE) for j in range(A.dim)
    )
    return not feasible(cone + [(total, -1, _EQ)], A.dim)


def _rank_over_q(rows: list[list[int]]) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        pivot = None
        for r in range(rank, nr):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(nr):
            if r != rank and m[r][col]:
                f = m[r][col] / pv
                for c in range(col, nc):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free
    elimination."""
    cols, last = _eliminate(rows)
    return last if len(cols) == len(rows) else 0


def cocircuits_by_dets(forms, cap: int) -> list[int]:
    """The cocircuits of the integer forms, packed plus | minus << n:
    one cofactor vector per (r-1)-subset of the non-loop forms on r
    pivot columns, x_k = (-1)^k det(subset without column k)."""
    n = len(forms)
    cols, _ = _eliminate(forms)
    r = len(cols)
    if r == 0:
        return []
    forms = [tuple(f[c] for c in cols) for f in forms]
    live = [f for f in forms if any(f)]
    found: set[int] = set()
    for sub in itertools.combinations(live, r - 1):
        x = [
            det([row[:k] + row[k + 1:] for row in sub]) * (-1) ** k
            for k in range(r)
        ]
        if not any(x):
            continue
        pos = neg = 0
        for j, f in enumerate(forms):
            v = sum(a * b for a, b in zip(f, x))
            if v > 0:
                pos |= 1 << j
            elif v < 0:
                neg |= 1 << j
        found.add(pos | neg << n)
        found.add(neg | pos << n)
        if len(found) >= cap:
            raise _over_cap(cap)
    return sorted(found)


def close_by_conformal_frontier(V, cap: int = _CAP) -> CovectorSet:
    """`enumerate_covectors(V, cap)` as it ran before it walked covers:
    0 plus the closure of the cocircuits under conformal composition,
    frontier by frontier, each new covector x composed with every
    cocircuit conformal to x, with the same uniform early exit and the
    same cap test, the zero vector counted."""
    if cap < 1:
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
    # conformal[e]: the cocircuits not + at element e - n (for e >= n)
    # or not - at element e (for e < n), one bit per cocircuit
    conformal = [(1 << len(cocircuits)) - 1] * (2 * n)
    for i, c in enumerate(cocircuits):
        for e in _bits(c):
            conformal[(e + n) % (2 * n)] &= ~(1 << i)
    seen = set(cocircuits)
    full = (1 << n) - 1
    frontier = cocircuits
    while frontier:
        nxt = []
        for x in frontier:
            s = (x | x >> n) & full
            if s == full:
                continue
            free = ~(s | s << n)
            ok = -1
            for e in _bits(x):
                ok &= conformal[e]
            for i in _bits(ok):
                y = x | (cocircuits[i] & free)
                if y not in seen:
                    if len(seen) + 1 >= cap:
                        raise _over_cap(cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    vecs = [SignVector(n, k & full, k >> n) for k in seen]
    vecs.append(SignVector.zero(n))
    return CovectorSet(V.ground, vecs)


def sorted_by_sign_string(S) -> tuple:
    """`S.sorted_covectors()` as it ran before its integer key: sorted
    by the sign strings themselves."""
    return tuple(sorted(S.covectors, key=str))


def sign_columns_by_bits(S) -> tuple:
    """`S._sign_columns()` as it ran before the byte planes: one bit set
    per sign of each covector, over `sorted_by_sign_string(S)`."""
    covs = sorted_by_sign_string(S)
    n = len(S.ground)
    plus = [0] * n
    minus = [0] * n
    for i, x in enumerate(covs):
        bit = 1 << i
        for f in _bits(x._pos):
            plus[f] |= bit
        for f in _bits(x._neg):
            minus[f] |= bit
    full = (1 << len(covs)) - 1
    return tuple((p, m, full & ~(p | m)) for p, m in zip(plus, minus))


def every_subset_a_basis_by_ranks(forms, k: int) -> bool:
    """Is every k-subset of the forms (rows of k integers) of rank k?"""
    return all(
        _rank(sub) == k for sub in itertools.combinations(forms, k)
    )


def general_position_by_ranks(A) -> bool:
    """Every d+1 homogenized forms of A independent."""
    return every_subset_a_basis_by_ranks(homogenize(A).forms, A.dim + 1)


def generate_by_randint(
    n: int, d: int, seed: int = 0, max_tries: int = 200
) -> Arrangement:
    """`generate_arrangement(n, d, seed, max_tries)` as it drew before
    it read the generator's words itself: one `random.randint` per
    coefficient, and every draw decided by the wedge walk, with no test
    for parallel normals."""
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    if n < d + 1:
        raise DomainError(f"need at least d+1 = {d + 1} hyperplanes")
    rng = random.Random(seed)
    t = (0,) * d + (1,)
    for _ in range(max_tries):
        normals = []
        for _ in range(n):
            v = tuple(rng.randint(-5, 5) for _ in range(d))
            while not any(v):
                v = tuple(rng.randint(-5, 5) for _ in range(d))
            normals.append(v)
        offsets = [(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        forms = [t] + [
            tuple(den * c for c in a) + (-num,)
            for a, (num, den) in zip(normals, offsets)
        ]
        if _every_subset_a_basis(forms, d + 1):
            return Arrangement(
                dim=d,
                labels=tuple(f"h{i + 1}" for i in range(n)),
                normals=tuple(normals),
                offsets=tuple(Fraction(num, den) for num, den in offsets),
            )
    raise ResourceExhausted(f"no uniform arrangement in {max_tries} draws")


def sign_string_by_coordinates(x: SignVector) -> str:
    """`str(x)` as it ran before its nibble table: one sign per
    coordinate."""
    out = []
    for i in range(x.n):
        bit = 1 << i
        out.append("+" if x._pos & bit else "-" if x._neg & bit else "0")
    return "".join(out)


def from_string_by_coordinates(s: str) -> SignVector:
    """`SignVector.from_string(s)` as it ran before its base-2 parse:
    one bit per character."""
    pos = neg = 0
    for i, ch in enumerate(s):
        if ch == "+":
            pos |= 1 << i
        elif ch == "-":
            neg |= 1 << i
        elif ch != "0":
            raise ValueError(f"not a sign string: {s!r}")
    return SignVector(len(s), pos, neg)


_SIGN_RE = re.compile(r"^[+\-0]+$")


def parse_covector_file_by_lines(
    text: str, source: str = "<string>"
) -> CovectorSet:
    """`parse_covector_file` as it ran before it read the sign lines in
    bulk: each line checked by a regular expression, for its length and
    against the lines before it, then parsed one character at a time,
    raising at the first bad line."""
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
        vecs.append(from_string_by_coordinates(s))
    if labels is None:
        raise InputFormatError("no element labels found", source=source)
    try:
        ground = GroundSet(labels, g=g)
    except DomainError as exc:
        raise InputFormatError(str(exc), source=source) from None
    return CovectorSet(ground, vecs)


def format_covector_file_by_coordinates(S: CovectorSet) -> str:
    """`format_covector_file(S)` with each sign string formed one
    coordinate at a time."""
    lines = [" ".join(S.ground.labels)]
    if S.ground.g is not None:
        lines.append(f"g {S.ground.g}")
    lines.extend(sign_string_by_coordinates(x) for x in S.sorted_covectors())
    return "\n".join(lines) + "\n"


def _enumerate_patterns(rows_by_sign, n: int, nvars: int):
    """DFS over sign patterns in (0,+,-) branch order per coordinate;
    rows_by_sign[i][s] is the row constraining coordinate i to sign s.
    Prefixes whose partial system is already infeasible are cut; this
    cannot change the result (a completion only adds constraints)."""
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
            if feasible(rows, nvars):
                rec()
            prefix.pop()
            rows.pop()

    rec()
    return out


def fm_covectors(V) -> CovectorSet:
    """All feasible sign patterns of the configuration's forms, by the
    pruned Fourier-Motzkin pattern search."""
    rows_by_sign = [{s: _sign_row(f, 0, s) for s in Sign} for f in V.forms]
    return CovectorSet(
        V.ground, _enumerate_patterns(rows_by_sign, V.n_forms, V.nvars)
    )


def fm_affine_faces(A) -> list[SignVector]:
    """All affine sign patterns with a nonempty face, by the pruned
    Fourier-Motzkin pattern search, in its (0,+,-) branch order."""
    rows_by_sign = [
        {s: _sign_row(r[:-1], r[-1], s) for s in Sign} for r in A.rows
    ]
    return _enumerate_patterns(rows_by_sign, A.n, A.dim)


def pattern_feasible(V, P: SignVector) -> bool:
    """Is there a point y with sign(form_i(y)) = P_i for every i?"""
    if P.n != V.n_forms:
        raise DimensionError(
            f"pattern has length {P.n}, configuration has {V.n_forms} forms"
        )
    rows = [_sign_row(f, 0, P.sign(i)) for i, f in enumerate(V.forms)]
    return feasible(rows, V.nvars)


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


def face_bounded_by_directions(A, P) -> bool:
    """Is the nonempty face with sign pattern P bounded?  Its recession
    cone {u : a_i.u = 0 where P_i = 0, sign(a_i.u) in {0, P_i}
    elsewhere}, over the rational normals, meets no hyperplane
    u_j = +1 or u_j = -1: 2d feasibility tests."""
    cone = []
    for i, a in enumerate(A.normals):
        s = P.sign(i)
        if s is Sign.ZERO:
            cone.append((a, Fraction(0), _EQ))
        elif s is Sign.PLUS:
            cone.append((a, Fraction(0), _GE))
        else:
            cone.append((tuple(-c for c in a), Fraction(0), _GE))
    zero = (Fraction(0),) * A.dim
    for j in range(A.dim):
        for val in (1, -1):
            unit = zero[:j] + (Fraction(val),) + zero[j + 1 :]
            rows = cone + [(unit, Fraction(-1), _EQ)]
            if feasible([_to_int_row(*r) for r in rows], A.dim):
                return False
    return True


# ---------------------------------------------------------------------------
# simplicial complexes, order complexes and simplicial homology
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
                vs = sorted(f, key=self._vindex.__getitem__)
                for k in range(1, len(f) + 1):
                    for sub in itertools.combinations(vs, k):
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
            it = iter(f)
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
        # a vertex means that vertex, whatever its type (order complexes
        # of face posets have frozenset vertices, relabelled joins tuples)
        if not isinstance(face, (set, list)) and face in self._vindex:
            return frozenset([face])
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
            for r in itertools.combinations(f, d):
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
    """Poset of nonempty faces of K ordered by inclusion, listed by size
    and then by vertex indices."""
    vindex = K._vindex
    elems = sorted(
        K.all_faces(), key=lambda f: (len(f), sorted(vindex[v] for v in f))
    )
    return Poset(elems, lambda a, b: a <= b)


def maximal_chains(P: Poset) -> list[tuple]:
    """The maximal chains of P, each from a minimal element up."""
    n = len(P.elements)
    ups = [
        [j for j in _bits(P._up[i]) if _covers(P, i, j)]
        for i in range(n)
    ]
    out: list[tuple] = []

    def extend(path: list[int]) -> None:
        tail = ups[path[-1]]
        if not tail:
            out.append(tuple(P.elements[k] for k in path))
            return
        for j in tail:
            path.append(j)
            extend(path)
            path.pop()

    for i in range(n):
        if P._down[i] == 1 << i:
            extend([i])
    return out


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of P; facets are the maximal chains.

    The order complex of the empty poset is {emptyset}.
    """
    if len(P) == 0:
        return SimplicialComplex.empty()
    return SimplicialComplex(maximal_chains(P))


def simplicial_homology(K: SimplicialComplex) -> HomologyTable:
    """Integral simplicial homology as `homology` computed it before it
    ran on cells: the relative groups H(K, v0) for the first vertex v0,
    after removing collapse and coreduction pairs on a `CollapseState`
    of K, then Smith normal form with the simplicial signs."""
    if K.is_void:
        return HomologyTable(
            dim=-2, betti=(), torsion=(), reduced_betti=(), minus_one=0
        )
    d = K.dim
    if d < 0:
        return HomologyTable.sphere(-1)
    state = CollapseState(K)
    state.alive.discard(frozenset([K.vertex_order[0]]))
    # lowest dimension first: on the (7,4,0) order complex this leaves
    # no cell, highest first leaves 18
    queue = deque(sorted(state.alive, key=state.key, reverse=True))
    while queue:
        f = queue.popleft()
        if f not in state.alive:
            continue
        if len(state.cofaces[f]) == 1:
            sigma, (tau,) = f, state.cofaces[f]
        else:
            below = [s for s in state.facets[f] if s in state.alive]
            if len(below) != 1:
                continue
            (sigma,), tau = below, f
        state.remove_pair(sigma, tau)
        for g in (sigma, tau):
            queue.extend(s for s in state.facets[g] if s in state.alive)
            queue.extend(state.cofaces[g])
    cells: dict[int, list[frozenset]] = {k: [] for k in range(d + 1)}
    for f in sorted(state.alive, key=state.key):
        cells[len(f) - 1].append(f)
    ranks = [0] * (d + 2)
    torsion: list[tuple[int, ...]] = [()] * (d + 1)
    for k in range(1, d + 1):
        if not cells[k] or not cells[k - 1]:
            continue
        ridx = {r: i for i, r in enumerate(cells[k - 1])}
        dense = [[0] * len(cells[k]) for _ in ridx]
        for j, c in enumerate(cells[k]):
            for i, sub in enumerate(state.facets[c]):
                if sub in ridx:
                    dense[ridx[sub]][j] = (-1) ** i
        factors = smith_normal_form(dense)
        ranks[k] = len(factors)
        torsion[k - 1] = tuple(f for f in factors if f > 1)
    rb = tuple(len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(d + 1))
    return HomologyTable(
        dim=d,
        betti=(rb[0] + 1,) + rb[1:],
        torsion=tuple(torsion),
        reduced_betti=rb,
    )


def cw_defect(P: Poset):
    """An element y of P whose strict down-set has an order complex
    without the homology of a (height(y) - 1)-sphere, or None: a CW
    poset, the face poset of a regular CW complex, has none."""
    for y in P:
        Q = P.strictly_below(y)
        if not simplicial_homology(order_complex(Q)).is_sphere(P.height(y) - 1):
            return y
    return None


def down_set(P: Poset, x) -> tuple:
    """The elements y <= x, in element order."""
    return tuple(P.elements[i] for i in _bits(P._down[P.index(x)]))


def open_interval(P: Poset, x, y) -> Poset:
    """The induced order on the elements strictly between x and y."""
    i, j = P.index(x), P.index(y)
    return P._induced(P._up[i] & P._down[j] & ~(1 << i) & ~(1 << j))


def is_lower_cover(P: Poset, y, x) -> bool:
    """Is y covered by x in P augmented with a bottom?  y may be None
    for the bottom element."""
    j = P.index(x)
    if y is None:
        return P._down[j] == 1 << j
    return _covers(P, P.index(y), j)


def _covers(P: Poset, i: int, j: int) -> bool:
    """Does element j cover element i?"""
    return i != j and P._down[j] & P._up[i] == (1 << i) | (1 << j)


def minimal_elements(P: Poset) -> list:
    return [x for i, x in enumerate(P.elements) if P._down[i] == 1 << i]


def lower_covers(P: Poset, x) -> list:
    j = P.index(x)
    return [P.elements[i] for i in _bits(P._down[j]) if _covers(P, i, j)]


def upper_covers(P: Poset, x) -> list:
    i = P.index(x)
    return [P.elements[j] for j in _bits(P._up[i]) if _covers(P, i, j)]


def subposet(P: Poset, elements: Iterable) -> Poset:
    """The induced order on the given elements, in P's element order."""
    keep = [P.index(x) for x in elements]
    mask = 0
    for i in keep:
        mask |= 1 << i
    if mask.bit_count() != len(keep):
        raise DomainError("duplicate elements in subposet")
    return P._induced(mask)


def meet_or_bottom(P: Poset, x, y):
    """Meet of x and y in P augmented with a bottom element: the meet
    element, or None when the meet is the added bottom.  Raises when the
    common lower bounds have no unique maximum."""
    mask = P._down[P.index(x)] & P._down[P.index(y)]
    if not mask:
        return None
    tops = [k for k in _bits(mask) if P._up[k] & mask == 1 << k]
    if len(tops) != 1:
        raise PreconditionError(
            f"no unique meet for {x!r} and {y!r}: "
            f"{[P.elements[k] for k in tops]!r} are all maximal lower bounds"
        )
    return P.elements[tops[0]]


def linear_extension(P: Poset, key) -> list:
    """Topological sort; among available elements the one with the
    least `key` comes first."""
    return _extension(P, lambda ready: min(
        ready, key=lambda k: key(P.elements[k])
    ))


def random_linear_extension(P: Poset, rng) -> list:
    """A random topological sort driven by `rng.randrange`."""
    return _extension(
        P, lambda ready: sorted(ready)[rng.randrange(len(ready))]
    )


def _extension(P: Poset, pick) -> list:
    placed = 0
    out = []
    remaining = set(range(len(P)))
    while remaining:
        i = pick([
            i for i in remaining if not P._down[i] & ~placed & ~(1 << i)
        ])
        out.append(P.elements[i])
        placed |= 1 << i
        remaining.discard(i)
    return out


def poset_is_simplicial(P: Poset) -> bool:
    """Is P the face poset of a simplicial complex (every principal
    down-set a boolean lattice of the atoms below)?"""
    minimal = 0
    for i, d in enumerate(P._down):
        if d == 1 << i:
            minimal |= 1 << i
    seen = set()
    for d in P._down:
        atoms = d & minimal
        if d.bit_count() != (1 << atoms.bit_count()) - 1 or atoms in seen:
            return False
        seen.add(atoms)
    return True


def topes(L: CovectorSet) -> frozenset:
    """The maximal covectors, read from the order."""
    return frozenset(L.order().maximal_elements())


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


_LAST_CONTRACTION: list = [None, None]


def contraction(M) -> CovectorSet:
    """L/g, the oriented matroid at infinity of an AffineOM M, kept for
    the last covector set asked about: the star oracles ask at every
    cell of one M."""
    if _LAST_CONTRACTION[0] is not M.om:
        _LAST_CONTRACTION[:] = M.om, contract(M.om, [M.g])
    return _LAST_CONTRACTION[1]


def any_refuted(res: LinkClassification) -> bool:
    return any(v.certainty == "refuted" for v in res.verdicts)


def positive_part(M) -> tuple[SignVector, ...]:
    """L+: the covectors with positive g-coordinate, sorted."""
    gi = M.g_index
    return tuple(x for x in M.om if x.sign(gi) is Sign.PLUS)


def all_sign_vectors(n: int):
    """All 3**n sign vectors of length n, coordinate 0 varying slowest,
    each coordinate running through 0, +, - in that order."""
    def rec(i: int, pos: int, neg: int):
        if i == n:
            yield SignVector(n, pos, neg)
            return
        bit = 1 << i
        yield from rec(i + 1, pos, neg)
        yield from rec(i + 1, pos | bit, neg)
        yield from rec(i + 1, pos, neg | bit)

    return rec(0, 0, 0)


def rational_betti(K: SimplicialComplex) -> tuple[int, ...]:
    """Unreduced Betti numbers over the rationals, built directly from
    the face lists (independent of the reductions in `homology`)."""
    if K.is_void or K.dim < 0:
        return ()
    d = K.dim
    byd = K.faces()
    ordered = {
        k: sorted(byd.get(k, ()), key=lambda f: sorted(map(str, f)))
        for k in range(d + 1)
    }
    index = {k: {f: i for i, f in enumerate(ordered[k])} for k in range(d + 1)}
    ranks = {}
    for k in range(1, d + 1):
        rows = []
        for f in ordered[k]:
            vs = sorted(f, key=str)
            row = [0] * len(ordered[k - 1])
            for i in range(len(vs)):
                sub = frozenset(vs[:i] + vs[i + 1 :])
                row[index[k - 1][sub]] = (-1) ** i
            rows.append(row)
        # rows are columns of the boundary matrix; rank is transpose-safe
        ranks[k] = _rank_over_q(rows) if rows else 0
    betti = []
    for k in range(d + 1):
        nk = len(ordered.get(k, ()))
        betti.append(nk - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return tuple(betti)


def integral_homology(K: SimplicialComplex) -> HomologyTable:
    """Integral homology by the definition: Smith normal form of each
    full boundary matrix of the chain complex augmented with the empty
    face, with no reduction of any kind."""
    if K.is_void:
        return HomologyTable(
            dim=-2, betti=(), torsion=(), reduced_betti=(), minus_one=0
        )
    d = K.dim
    pos = {v: i for i, v in enumerate(K.vertex_order)}
    cells = {-1: [frozenset()]}
    for k in range(d + 1):
        cells[k] = sorted(
            K.faces().get(k, ()), key=lambda f: sorted(pos[v] for v in f)
        )
    factors = {}
    for k in range(d + 1):
        index = {f: i for i, f in enumerate(cells[k - 1])}
        rows = [[0] * len(cells[k]) for _ in cells[k - 1]]
        for j, f in enumerate(cells[k]):
            vs = sorted(f, key=pos.__getitem__)
            for i in range(len(vs)):
                rows[index[frozenset(vs[:i] + vs[i + 1 :])]][j] = (-1) ** i
        factors[k] = smith_normal_form(rows)

    def rank(k: int) -> int:
        return len(factors.get(k, ()))

    reduced = tuple(len(cells[k]) - rank(k) - rank(k + 1) for k in range(d + 1))
    return HomologyTable(
        dim=d,
        betti=(reduced[0] + 1,) + reduced[1:] if reduced else (),
        torsion=tuple(
            tuple(f for f in factors.get(k + 1, ()) if f > 1)
            for k in range(d + 1)
        ),
        reduced_betti=reduced,
        minus_one=1 - rank(0),
    )


def scan_heights(L) -> dict:
    """Longest chain below each covector, by support size: a covector
    strictly below X has a strictly smaller support."""
    by_size = sorted(L.covectors, key=lambda x: (len(x.support()), str(x)))
    h = {}
    for x in by_size:
        best = 0
        for y in by_size:
            if len(y.support()) >= len(x.support()):
                break
            if y.below(x):
                best = max(best, h[y] + 1)
        h[x] = best
    return h


def scan_topes(L) -> frozenset:
    """Maximal covectors, scanning by descending support size against
    the maximal ones found so far."""
    out = []
    for x in sorted(L.covectors, key=lambda v: (-len(v.support()), str(v))):
        if not any(x.below(m) for m in out):
            out.append(x)
    return frozenset(out)


def scan_atoms(L) -> frozenset:
    """Minimal nonzero covectors, scanning by ascending support size."""
    out = []
    for x in sorted(
        (x for x in L.covectors if not x.is_zero),
        key=lambda v: (len(v.support()), str(v)),
    ):
        if not any(m.below(x) for m in out):
            out.append(x)
    return frozenset(out)


def scan_upper(L, X) -> list:
    """L_{>=X} in sorted order, by one scan of all of L."""
    return [y for y in L.sorted_covectors() if X.below(y)]


def scan_bounded_complex(L, gi: int) -> dict:
    """L++ (nonzero x positive at g with no nonzero covector of another
    g-sign below it), with the dim, purity, support and f-vector of its
    maximal cells; raises OmtopError when L++ is empty."""
    heights = scan_heights(L)
    nonzero = [y for y in L.sorted_covectors() if not y.is_zero]
    bad = [y for y in nonzero if y.sign(gi) is not Sign.PLUS]
    covs = tuple(
        x
        for x in nonzero
        if x.sign(gi) is Sign.PLUS and not any(y.below(x) for y in bad)
    )
    if not covs:
        raise OmtopError("the bounded complex is empty")
    maximal = tuple(
        x for x in covs if not any(x is not y and x.below(y) for y in covs)
    )
    max_ranks = {heights[x] for x in maximal}
    dim = max(max_ranks) - 1
    supports = {x.support() for x in maximal}
    f = [0] * (dim + 1)
    for x in covs:
        f[heights[x] - 1] += 1
    return {
        "covectors": covs,
        "maximal": maximal,
        "dim": dim,
        "pure": len(max_ranks) == 1,
        "support": supports.pop() if len(supports) == 1 else None,
        "f_vector": tuple(f),
        "relation": {(a, b) for a in covs for b in covs if a.below(b)},
    }


def scan_axioms(S) -> AxiomReport:
    """The covector axioms from their definitions, over all pairs (x, y)
    of S with x before or at y in sorted order: composition by
    `SignVector.compose`, and elimination for each e in
    `SignVector.separation` by a scan of S for a Z zero at e that agrees
    with x o y off the separation set.  Witnesses come in the order
    `verify_covector_axioms` lists them."""
    covs = S.sorted_covectors()
    cset = S.covectors
    n = len(S.ground)
    signs = [z.signs for z in covs]
    l1 = tuple(x for x in covs if -x not in cset)
    l2 = []
    l3 = []
    for i, x in enumerate(covs):
        for y in covs[i:]:
            if x.compose(y) not in cset:
                l2.append((x, y))
            if y != x and y.compose(x) not in cset:
                l2.append((y, x))
            sep = x.separation(y)
            w = x.compose(y).signs
            outside = [f for f in range(n) if f not in sep]
            for e in sorted(sep):
                if not any(
                    z[e] is Sign.ZERO and all(z[f] is w[f] for f in outside)
                    for z in signs
                ):
                    l3.append((x, y, e))
    return AxiomReport(
        ground=S.ground,
        l0_ok=SignVector.zero(n) in cset,
        l1_ok=not l1,
        l2_ok=not l2,
        l3_ok=not l3,
        l1_witnesses=l1,
        l2_witnesses=tuple(l2),
        l3_witnesses=tuple(l3),
    )


def restriction_classes(covs, zero: int) -> dict[tuple[int, int], int]:
    """The covectors grouped by their restriction to the coordinates in
    `zero`: each restriction's mask over `covs`."""
    classes: dict[tuple[int, int], int] = {}
    for j, y in enumerate(covs):
        key = (y._pos & zero, y._neg & zero)
        classes[key] = classes.get(key, 0) | 1 << j
    return classes


def restriction_l2_witnesses(S: CovectorSet) -> tuple:
    """The L2 witnesses (x, y), x o y missing, in the order
    `verify_covector_axioms` lists them: for each x, |L>=x| against the
    number of restrictions of all covectors to z(x), and where they
    differ, the y outside the restriction classes that L>=x meets."""
    covs = S.sorted_covectors()
    up = transposed_up_sets(S.order()._down)
    full = (1 << len(S.ground)) - 1
    every = (1 << len(covs)) - 1
    l2 = []
    for i, x in enumerate(covs):
        zero = full & ~(x._pos | x._neg)
        count = len({(y._pos & zero, y._neg & zero) for y in covs})
        if bin(up[i]).count("1") == count:
            continue
        classes = restriction_classes(covs, zero)
        hit = 0
        for k, w in enumerate(covs):
            if up[i] >> k & 1:
                hit |= classes[w._pos & zero, w._neg & zero]
        l2.extend((i, j) for j in range(len(covs)) if (every & ~hit) >> j & 1)
    l2.sort(key=lambda ij: (min(ij), max(ij), ij[0] > ij[1]))
    return tuple((covs[i], covs[j]) for i, j in l2)


def transposed_up_sets(down: list[int]) -> list[int]:
    """The up-set masks of a relation given by its down-set masks, one
    bit at a time."""
    up = [0] * len(down)
    for i, d in enumerate(down):
        for j in range(len(down)):
            if d >> j & 1:
                up[j] |= 1 << i
    return up


def heights_by_max(P) -> list[int]:
    """Each element's height as one more than the largest height in its
    strict down-set, elements taken by down-set size."""
    n = len(P.elements)
    down = P._down
    h = [0] * n
    for i in sorted(range(n), key=lambda i: bin(down[i]).count("1")):
        h[i] = max(
            (h[j] + 1 for j in range(n) if j != i and down[i] >> j & 1),
            default=0,
        )
    return h


def pairwise_witnesses(S: CovectorSet):
    """Every L2 and L3 witness, by one pass over all pairs of S in
    :meth:`~CovectorSet.sorted_covectors` order: (x, y) with x o y
    missing, and (x, y, e) for each e separating them with no covector
    zero at e that agrees with x o y off the separation set."""
    n = len(S.ground)
    full = (1 << n) - 1
    covs = S.sorted_covectors()

    keys = {(x._pos, x._neg) for x in covs}

    l2_witnesses = []
    l3_witnesses = []
    # proj_sets[keep]: projections of all covectors to the kept coordinates
    proj_sets: dict[int, set[tuple[int, int]]] = {}

    def projections(keep: int) -> set[tuple[int, int]]:
        got = proj_sets.get(keep)
        if got is None:
            got = {(x._pos & keep, x._neg & keep) for x in covs}
            proj_sets[keep] = got
        return got

    for i, x in enumerate(covs):
        xp, xn = x._pos, x._neg
        taken = xp | xn
        for y in covs[i:]:
            yp, yn = y._pos, y._neg
            # composition X o Y (and Y o X for the symmetric pair)
            if (xp | (yp & ~taken), xn | (yn & ~taken)) not in keys:
                l2_witnesses.append((x, y))
            if x is not y:
                ytaken = yp | yn
                if (yp | (xp & ~ytaken), yn | (xn & ~ytaken)) not in keys:
                    l2_witnesses.append((y, x))
            sep = (xp & yn) | (xn & yp)
            if not sep:
                continue
            # X o Y and Y o X agree off the separation set, so checking
            # (x, y) covers (y, x) as well
            outside = full & ~sep
            wp = (xp | (yp & ~taken)) & outside
            wn = (xn | (yn & ~taken)) & outside
            m = sep
            while m:
                ebit = m & -m
                m ^= ebit
                if (wp, wn) not in projections(outside | ebit):
                    l3_witnesses.append((x, y, ebit.bit_length() - 1))
    return tuple(l2_witnesses), tuple(l3_witnesses)


def equal_support_elimination(S: CovectorSet, l2) -> list:
    """The L3 witnesses (i, j, e), i < j, as indices into
    :meth:`~CovectorSet.sorted_covectors`, given the L2 witness pairs
    `l2`.  Each pair of equal support is checked, an AND of sign
    columns, and each that fails is lifted to the pairs whose
    compositions it is (:func:`_pairs_below`); the pairs with a missing
    composition are checked one by one (:func:`_unmet_eliminations`)."""
    covs = S.sorted_covectors()
    down = S.order()._down
    columns = S._sign_columns()
    zeros = [z for _, _, z in columns]
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
    l3.sort()
    return l3


def boundary(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the ridges lying in exactly one facet.

    Meaningful for pure complexes; void when the complex is closed.
    """
    if K.is_void or K.dim < 0:
        return SimplicialComplex.void()
    if not K.is_pure():
        raise PreconditionError("boundary is defined for pure complexes")
    d = K.dim
    if d == 0:
        return SimplicialComplex.void()
    count: dict[frozenset, int] = {}
    for f in K.facets:
        for r in itertools.combinations(f, d):
            fr = frozenset(r)
            count[fr] = count.get(fr, 0) + 1
    return SimplicialComplex([r for r, c in count.items() if c == 1])


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
    if len(facets) == 1 or K.dim == 0:
        return facets
    nodes = 0

    def attaches_ok(f: frozenset, used: list[frozenset]) -> bool:
        hit = [f - {v} for v in f if any(f - {v} <= g for g in used)]
        if not hit:
            return False
        return all(any(f & g <= r for r in hit) for g in used)

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


def certify_sphere(
    L: SimplicialComplex, d: int, budget: int, h: HomologyTable | None = None
) -> tuple[bool, str, list[str]]:
    """(matches, certainty, notes) for 'L is a d-sphere'.

    certainty is "certified" when the positive checks fully pin the type
    at this dimension, "refuted" when an exact invariant rules it out,
    "evidence-only" when homology agrees but certification fell short.
    h is L's homology when the caller already has it.

    With no shelling found, a closed pseudomanifold with sphere homology
    and certified sphere vertex links is certified only for d <= 2, where
    it is a closed surface and the classification of surfaces makes it
    the 2-sphere.  For d >= 3 the same checks pass on a homology sphere
    that is not a sphere (the Poincare homology 3-sphere), so the result
    is evidence-only.
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
        h = simplicial_homology(L)
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
        ok, certainty, _ = certify_sphere(L.link([v]), d - 1, budget)
        if certainty == "refuted" or not ok:
            return (False, "refuted", [f"link of {v!r} is not a {d-1}-sphere"])
        if certainty != "certified":
            all_cert = False
    notes.append("recursive vertex-link check passed")
    return (True, "certified" if all_cert and d <= 2 else "evidence-only", notes)


def certify_ball(
    L: SimplicialComplex, d: int, budget: int, h: HomologyTable
) -> tuple[bool, str, list[str]]:
    """(matches, certainty, notes) for 'L is a d-ball', h being L's
    homology: ball homology, a certified (d-1)-sphere as `boundary`, and
    a collapse."""
    if L.is_void or L.dim != d:
        return (False, "refuted", [f"dimension is not {d}"])
    if d == 0:
        ok = len(L.facets) == 1 and len(L.facets[0]) == 1
        return (ok, "certified" if ok else "refuted", [])
    if not L.is_pure():
        return (False, "refuted", ["not pure"])
    if not h.is_ball():
        return (False, "refuted", [f"homology {h.reduced_betti} is not a ball"])
    bd = boundary(L)
    if bd.is_void:
        return (False, "refuted", ["no free ridge: boundary is empty"])
    ok, certainty, sub = certify_sphere(bd, d - 1, budget)
    if not ok:
        return (False, certainty, [f"boundary: {m}" for m in sub])
    res = find_collapse_by_state(L, budget=budget)
    if not res.collapsed:
        return (True, "evidence-only", ["collapse search exhausted"])
    notes = [f"collapsed in {len(res.certificate.steps)} steps"]
    if certainty != "certified":
        return (True, "evidence-only", notes + ["boundary sphere evidence-only"])
    return (True, "certified", notes)


def link_sweep(K: SimplicialComplex, budget: int = 10**6) -> LinkClassification:
    """Classify the link of every vertex as sphere-like, ball-like, or
    other, with homology evidence and honest certainty labels."""
    if K.is_void or K.dim < 0:
        raise PreconditionError("link classification needs vertices")
    if not K.is_pure():
        raise PreconditionError("link classification is defined for pure complexes")
    d = K.dim
    verdicts = []
    for v in K.vertex_order:
        L = K.link([v])
        h = simplicial_homology(L)
        ok_s, cert_s, notes_s = certify_sphere(L, d - 1, budget, h)
        if ok_s:
            verdicts.append(
                LinkVerdict(v, "sphere-like", cert_s, h, tuple(notes_s))
            )
            continue
        ok_b, cert_b, notes_b = certify_ball(L, d - 1, budget, h)
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


def link_facts(res: LinkClassification) -> list[tuple]:
    """(vertex, kind, certainty, homology) of every link, in order: all a
    classification reports except its notes."""
    return [(v.vertex, v.kind, v.certainty, v.homology) for v in res.verdicts]


def verify_on_the_order_complex(A, budget: int = 10**6):
    """`verify_arrangement(A)` as it ran before the collapse and
    homology moved to the cells: the collapse is searched and replayed
    and the homology computed on the order complex K of L++, and the
    reported f-vector is K's."""

    def on_K(f):
        return lambda P, *args, **kwargs: f(order_complex(P), *args, **kwargs)

    with mock.patch.object(
        omtop.verify, "find_collapse", on_K(find_collapse_by_state)
    ), mock.patch.object(
        omtop.verify, "verify_collapse", on_K(verify_collapse_by_state)
    ), mock.patch.object(
        omtop.verify, "_chain_counts", lambda P: order_complex(P).f_vector()
    ), mock.patch.object(
        omtop.verify, "homology", lambda P: simplicial_homology(order_complex(P))
    ):
        return omtop.verify.verify_arrangement(A, budget=budget)


def cube_scans(L, X) -> list[str]:
    """Deletion of supp(X) is injective on L_{>=X} and preserves and
    reflects L's order, checked pair by pair on all of L_{>=X}."""
    order = L.order()
    supp = sorted(X.support())
    pairs = [(y, y.delete(supp)) for y in order.up_set(X)]
    out = []
    if len({b for _, b in pairs}) != len(pairs):
        out.append("deletion of supp(X) is not injective on L_>=X")
    for a1, b1 in pairs:
        above = set(order.up_set(a1))
        for a2, b2 in pairs:
            if (a2 in above) != b1.below(b2):
                out.append(f"order mismatch on ({a1}, {a2})")
    return out


def cube_isomorphism_by_scan(L, X) -> CubeReport:
    """`cube_isomorphism(L, X)` with a cube of full size still scanned
    pairwise; the report names the first scan that fails."""
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
    scans = cube_scans(L, X)
    return CubeReport(
        X, zset, expected, len(up), pairs, not scans,
        scans[0] if scans else None,
    )


def restriction_scans(res) -> list[str]:
    """Deletion of the elements outside E1 is injective on L++ and
    preserves and reflects the order, checked pair by pair."""
    image = [b for _, b in res.pairs]
    out = []
    if len(set(image)) != len(image):
        out.append("deletion is not injective on L++")
    for a1, b1 in res.pairs:
        for a2, b2 in res.pairs:
            if a1.below(a2) != b1.below(b2):
                out.append(f"order mismatch on ({a1}, {a2})")
    return out


def restriction_ok_by_scan(res) -> bool:
    """`res.ok` from the image and the pairwise scans together."""
    image = {b for _, b in res.pairs}
    bc2 = res.restricted.bounded_complex()
    return image == set(bc2.covectors) and not restriction_scans(res)


def bijection_scans(M, X) -> list[str]:
    """h(r(t)) = t on all of C_X, r is injective there, and h maps every
    element of D_X with a preimage back into C_X."""
    star = M.star(X)
    images = [star.restrict(t) for t in star.C_X]
    out = [
        f"h(r({t})) = {star.lift(rt)} != {t}"
        for t, rt in zip(star.C_X, images)
        if star.lift(rt) != t
    ]
    if len(set(images)) != len(images):
        out.append("r is not injective on C_X")
    for d in sorted(set(images) & set(star.D_X), key=str):
        if star.lift(d) not in star.C_X:
            out.append(f"h({d}) = {star.lift(d)} is outside C_X")
    return out


def check_bijection_by_scan(M, X) -> BijectionReport:
    """`check_bijection(M, X)` with h(r(t)) = t, the injectivity of r and
    h(D_X) in C_X tested as well, problems in the order it lists them."""
    star = M.star(X)
    problems = []
    dset = set(star.D_X)
    images = []
    pairs = []
    for t in star.C_X:
        rt = star.restrict(t)
        pairs.append((t, rt))
        images.append(rt)
        if rt not in dset:
            problems.append(f"r({t}) = {rt} is not in D_X")
        elif star.lift(rt) != t:
            problems.append(f"h(r({t})) = {star.lift(rt)} != {t}")
    if len(set(images)) != len(images):
        problems.append("r is not injective on C_X")
    missing = dset - set(images)
    for d in sorted(missing, key=str):
        problems.append(f"{d} in D_X has no preimage under r")
        h = star.lift(d)
        if h not in M.om:
            problems.append(f"h({d}) = {h} is not even a covector")
    for d in sorted(dset, key=str):
        h = star.lift(d)
        if h in star.om.om and h not in star.C_X and d not in missing:
            problems.append(f"h({d}) = {h} is outside C_X")
    return BijectionReport(X=star.X, pairs=tuple(pairs), problems=tuple(problems))


def pure_by_covers(P) -> bool:
    """`P.is_pure()` with every cover tested for a height step of one."""
    hs = P._height_list()
    n = len(P.elements)
    if len({hs[i] for i in range(n) if P._up[i] == 1 << i}) > 1:
        return False
    return all(
        hs[j] == hs[i] + 1
        for j in range(n)
        for i in range(n)
        if _covers(P, i, j)
    )


def verify_shelling_by_meets(P, order) -> ShellingReport:
    """The coatom shelling condition on a pure face poset: order lists
    the maximal elements of P once each, and for all i < j some k < j
    has c_i ^ c_j <= c_k ^ c_j, with c_k ^ c_j covered by c_j, meets
    taken in P augmented with a bottom.  On a simplicial face poset this
    is the definition of a shelling; on others it is necessary but not
    sufficient, and the report says so by mode="necessary-condition".
    Each meet is found as an element of P by `meet_or_bottom` and each
    comparison made by `less_equal`."""
    if not pure_by_covers(P):
        raise PreconditionError("shelling verification needs a pure poset")
    coatoms = P.maximal_elements()
    order_idx = [P.index(c) for c in order]
    if len(set(order_idx)) != len(order_idx) or set(order_idx) != {
        P.index(c) for c in coatoms
    }:
        raise DomainError("order is not a permutation of the maximal elements")
    mode = "simplicial" if poset_is_simplicial(P) else "necessary-condition"
    meets = {}

    def meet(i: int, j: int):
        k = (i, j) if i <= j else (j, i)
        if k not in meets:
            meets[k] = meet_or_bottom(P, order[k[0]], order[k[1]])
        return meets[k]

    def leq_aug(a, b) -> bool:
        if a is None:
            return True
        if b is None:
            return False
        return P.less_equal(a, b)

    failures = []
    for j in range(1, len(order)):
        horizon = [
            meet(k, j) for k in range(j) if is_lower_cover(P, meet(k, j), order[j])
        ]
        for i in range(j):
            if not any(leq_aug(meet(i, j), h) for h in horizon):
                failures.append((i, j))
    return ShellingReport(ok=not failures, mode=mode, failures=tuple(failures))


def star_topes_by_scan(M, X) -> tuple[tuple, tuple]:
    """(C_X, D_X) of `M.star(X)` by tests on every tope: the topes above
    X outside L++, and the topes of L/g with X minus g's sign wherever
    X minus g has one, sorted by sign string."""
    star = M.star(X)
    N = star.om
    gi = N.g_index
    bc = N.bounded_complex()
    all_topes = topes(N.om)
    X = star.X
    cx = tuple(
        t for t in N.om.order().up_set(X)
        if t in all_topes and t != X and t not in bc
    )
    xg = X.delete([gi])
    need = sorted(xg.support())
    dx = tuple(sorted(
        (t for t in topes(contraction(N))
         if all(t.sign(e) is xg.sign(e) for e in need)),
        key=str,
    ))
    return cx, dx


def shelling_of_DX_by_scan(M, X, B=None) -> list:
    """`shelling_of_DX(M, X, B)` on a `TopePoset`, D_X checked to be an
    order ideal of it pair by pair over all of its topes."""
    star = M.star(X)
    if not star.D_X:
        raise PreconditionError(f"D_X is empty for X = {star.X}")
    if B is None:
        B = min(star.D_X, key=str)
    if B not in star.D_X:
        raise MembershipError(f"base tope {B} is not in D_X")
    P = tope_poset(contraction(star.om), B)
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


def induced_shelling_by_scan(M, X, dx_order=None) -> InducedShelling:
    """`induced_shelling_of_CX(M, X)` on the oracles above: the [C_X]
    face poset cut out of L by `subposet`, each base's lift checked from
    scratch by `verify_shelling_by_meets`.  An explicit dx_order, a
    permutation of D_X, is lifted and checked as given."""
    star = M.star(X)
    order = star.om.om.order()
    cx = set(star.C_X)
    faces = subposet(order, (
        y
        for y in order.up_set(star.X)
        if y != star.X and not cx.isdisjoint(order.up_set(y))
    ))

    def lift_and_check(dx):
        if sorted(dx, key=str) != sorted(star.D_X, key=str):
            raise PreconditionError("dx_order must be a permutation of D_X")
        problems = []
        lifted = []
        for d in dx:
            c = star.lift(d)
            lifted.append(c)
            if c not in cx:
                problems.append(f"h({d}) = {c} is not in C_X")
        if not problems and len(set(lifted)) != len(cx):
            problems.append(
                f"h(D_X) covers {len(set(lifted))} of the "
                f"{len(cx)} topes of C_X"
            )
        report = None
        if not problems:
            try:
                report = verify_shelling_by_meets(faces, lifted)
            except PreconditionError as exc:
                problems.append(f"[C_X] face poset: {exc}")
        return InducedShelling(
            X=star.X,
            dx_order=tuple(dx),
            order=tuple(lifted),
            report=report,
            problems=tuple(problems),
        )

    if dx_order is not None:
        return lift_and_check(list(dx_order))
    if not star.D_X:
        problems = [f"D_X is empty, and |C_X| = {len(cx)}"]
        size = len(order.up_set(star.X))
        zeros = len(star.X.zero_set())
        if size != 3 ** zeros:
            problems.append(
                f"L_>=X is not the sign cube on z(X): |L_>=X| = {size}, "
                f"expected 3^{zeros} = {3 ** zeros}"
            )
        return InducedShelling(
            X=star.X, dx_order=(), order=(), report=None,
            problems=tuple(problems),
        )
    first = None
    for B in sorted(star.D_X, key=str):
        cand = lift_and_check(shelling_of_DX_by_scan(M, X, B))
        if cand.ok:
            return cand
        if first is None:
            first = cand
    return first


# ---------------------------------------------------------------------------
# tope posets
# ---------------------------------------------------------------------------


def _separation(base: SignVector, t: SignVector) -> int:
    """The mask of the coordinates where base and t have opposite signs."""
    return (base._pos & t._neg) | (base._neg & t._pos)


def separation_key_by_labels(ground, sep: int):
    """`TopePoset.sort_key` of the tope whose separation mask from the
    base is sep: the size, then the sorted labels, as a tuple."""
    labels = tuple(sorted(ground.labels[i] for i in _bits(sep)))
    return (sep.bit_count(), labels)


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
            self._poset = Poset(self.topes, self.less_equal)
        return self._poset

    def sort_key(self, t: SignVector):
        """Deterministic extension key: separation-set size, then the
        sorted separation labels."""
        return separation_key_by_labels(self.ground, self._sep[t])

    def linear_extension(self) -> list[SignVector]:
        """Deterministic linear extension by sort_key.  Size order alone
        already refines the poset order, so sorting is a valid
        extension."""
        return sorted(self.topes, key=self.sort_key)

    def random_linear_extension(self, rng) -> list[SignVector]:
        return random_linear_extension(self.as_poset(), rng)

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
# the collapse search on a state of live cells, and links on sub-posets
# ---------------------------------------------------------------------------


class CollapseState:
    """The live cells of a simplicial complex or of a poset, with their
    facets and live cofaces, in dicts and sets.  On a complex the cells
    are the nonempty faces, and facets[f][i] omits the i-th vertex of f
    in vertex order.  On a poset the cells are element indices and the
    facets of j its lower covers, the i with down[j] & up[i] = {i, j}.
    `key` puts the highest dimension first, then orders by vertex
    indices or by element index."""

    def __init__(self, X):
        self.cellular = isinstance(X, Poset)
        if self.cellular:
            self.poset = X
            hs, down, up = X._height_list(), X._down, X._up
            self.key = lambda j: (-hs[j], j)
            self.facets = {}
            for j, d in enumerate(down):
                self.facets[j] = tuple(
                    i for i in _bits(d & ~(1 << j))
                    if d & up[i] == (1 << i) | (1 << j)
                )
        else:
            vindex = self.vindex = X._vindex
            self.key = lambda f: (-len(f), tuple(sorted(vindex[v] for v in f)))
            faces = {f: f for f in X.all_faces()}
            self.facets = {}
            for f in faces:
                subs = ()
                if len(f) > 1:
                    vs = sorted(f, key=vindex.__getitem__)
                    subs = tuple(
                        faces[frozenset(vs[:i] + vs[i + 1:])]
                        for i in range(len(vs))
                    )
                self.facets[f] = subs
        self.alive = set(self.facets)
        self.cofaces = {f: set() for f in self.facets}
        for f, subs in self.facets.items():
            for sub in subs:
                self.cofaces[sub].add(f)

    def name(self, cell):
        if self.cellular:
            return self.poset.elements[cell]
        return tuple(sorted(cell, key=self.vindex.__getitem__))

    def cell(self, name):
        if self.cellular:
            return self.poset._index.get(name)
        return frozenset(name)

    def vertex(self, cell):
        if self.cellular:
            return self.poset.elements[cell]
        return next(iter(cell))

    def certificate(self, steps) -> CollapseCertificate:
        (last,) = self.alive
        return CollapseCertificate(
            tuple((self.name(s), self.name(t)) for s, t in steps),
            self.vertex(last),
        )

    def is_connected(self) -> bool:
        start = next(iter(self.alive))
        seen, stack = {start}, [start]
        while stack:
            f = stack.pop()
            for g in (*self.facets[f], *self.cofaces[f]):
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == len(self.alive)

    def is_free(self, sigma) -> bool:
        cfs = self.cofaces.get(sigma)
        if cfs is None or len(cfs) != 1 or sigma not in self.alive:
            return False
        (tau,) = cfs
        return not self.cofaces[tau]

    def free_faces(self) -> list:
        return sorted((f for f in self.alive if self.is_free(f)), key=self.key)

    def remove_pair(self, sigma, tau) -> None:
        for f in (tau, sigma):
            self.alive.discard(f)
            for sub in self.facets[f]:
                self.cofaces[sub].discard(f)

    def restore_pair(self, sigma, tau) -> None:
        for f in (sigma, tau):
            self.alive.add(f)
            for sub in self.facets[f]:
                self.cofaces[sub].add(f)

    def neighbors_to_recheck(self, sigma, tau) -> set:
        out = set()
        for f in (sigma, tau):
            for sub in self.facets[f]:
                if sub in self.alive:
                    out.add(sub)
                    for sub2 in self.facets[sub]:
                        if sub2 in self.alive:
                            out.add(sub2)
        return out


def find_collapse_by_state(X, budget: int = 10**6) -> CollapseResult:
    """`find_collapse(X, budget)` on a `CollapseState`, with a heap of
    free faces keyed by `CollapseState.key`."""
    state = CollapseState(X)
    if not state.alive:
        raise PreconditionError("collapse search needs a nonempty complex")
    if not state.is_connected():
        raise PreconditionError(
            "complex is disconnected; it cannot collapse to one point"
        )
    nodes = 0
    steps = []
    heap = [(state.key(f), f) for f in state.alive if state.is_free(f)]
    heapq.heapify(heap)
    while len(state.alive) > 1:
        while heap and not state.is_free(heap[0][1]):
            heapq.heappop(heap)
        if not heap:
            break
        if nodes >= budget:
            return CollapseResult("exhausted", None, nodes, False)
        sigma = heapq.heappop(heap)[1]
        (tau,) = state.cofaces[sigma]
        state.remove_pair(sigma, tau)
        steps.append((sigma, tau))
        nodes += 1
        for f in state.neighbors_to_recheck(sigma, tau):
            if state.is_free(f):
                heapq.heappush(heap, (state.key(f), f))
    if len(state.alive) == 1:
        return CollapseResult("collapsed", state.certificate(steps), nodes, True)
    for sigma, tau in reversed(steps):
        state.restore_pair(sigma, tau)
    steps = []
    stack = [state.free_faces()]
    while stack:
        if len(state.alive) == 1:
            return CollapseResult(
                "collapsed", state.certificate(steps), nodes, True
            )
        frame = stack[-1]
        advanced = False
        while frame:
            sigma = frame.pop(0)
            if not state.is_free(sigma):
                continue
            if nodes >= budget:
                return CollapseResult("exhausted", None, nodes, False)
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
    return CollapseResult("exhausted", None, nodes, True)


def verify_collapse_by_state(X, cert: CollapseCertificate) -> bool:
    """`verify_collapse(X, cert)` on a `CollapseState`."""
    state = CollapseState(X)
    for i, (s, t) in enumerate(cert.steps):
        sigma, tau = state.cell(s), state.cell(t)
        if sigma not in state.alive or tau not in state.alive:
            raise DomainError(
                f"collapse step {i}: {s!r} or {t!r} is not a live face"
            )
        if sigma not in state.facets[tau]:
            raise DomainError(f"collapse step {i}: {s!r} is not a facet of {t!r}")
        if state.cofaces[tau]:
            raise DomainError(f"collapse step {i}: {t!r} is not maximal")
        if state.cofaces[sigma] != {tau}:
            raise DomainError(f"collapse step {i}: {s!r} is not free")
        state.remove_pair(sigma, tau)
    if len(state.alive) != 1 or state.vertex(*state.alive) != cert.terminal:
        raise DomainError(
            f"after {len(cert.steps)} collapse steps: replay leaves "
            f"{len(state.alive)} faces, not the terminal vertex"
        )
    return True


def classify_links_by_subposets(P, budget: int = 10**6) -> LinkClassification:
    """`classify_links(P, budget)` with each upper factor re-indexed as
    the sub-poset `P.strictly_above(x)` (and a second `subposet` without
    the top of a closed factor) and collapsed on a fresh
    `CollapseState`; its collapse is not replayed."""
    if len(P) == 0:
        raise PreconditionError("link classification needs vertices")
    if not pure_by_covers(P):
        raise PreconditionError("link classification is defined for pure posets")
    d = P.height()
    hs = P._height_list()
    verdict = {}
    uncertified = 0
    for i in sorted(range(len(P)), key=hs.__getitem__, reverse=True):
        x, k = P.elements[i], hs[i]
        kind, certainty, h, notes = _upper_factor_by_subposet(
            P.strictly_above(x), d - k - 1, budget
        )
        weak = P._up[i] & uncertified
        if weak and certainty == "certified":
            y = P.elements[min(_bits(weak))]
            certainty = "evidence-only"
            notes += [f"the cell {y} above is not certified"]
        if certainty != "certified":
            uncertified |= 1 << i
        verdict[x] = LinkVerdict(
            x, kind, certainty, h.suspension(k), tuple(notes)
        )
    return LinkClassification(
        tuple(verdict[x] for x in sorted(P.elements, key=_vkey))
    )


def _upper_factor_by_subposet(Q, m: int, budget: int):
    if len(Q) == 0:
        return "sphere-like", "certified", HomologyTable.sphere(-1), []
    hs = Q._height_list()
    if m == 0:
        closed = len(Q) == 2
    else:
        closed = all(
            len(upper_covers(Q, y)) == 2
            for i, y in enumerate(Q.elements)
            if hs[i] == m - 1
        )
    if closed:
        top = Q.maximal_elements()[0]
        res = _collapse_or_none(subposet(Q, (y for y in Q if y != top)), budget)
        if res is not None:
            steps = len(res.certificate.steps)
            note = f"closed; collapsed in {steps} steps without {top}"
            return "sphere-like", "certified", HomologyTable.sphere(m), [note]
    else:
        res = _collapse_or_none(Q, budget)
        if res is not None:
            note = f"collapsed in {len(res.certificate.steps)} steps"
            return "ball-like", "certified", HomologyTable.point(m), [note]
    U = order_complex(Q)
    h = simplicial_homology(U)
    if U.is_closed_pseudomanifold():
        if h.is_sphere(m):
            return "sphere-like", "evidence-only", h, ["no collapse found"]
        note = f"homology {h.reduced_betti} is not a {m}-sphere"
        return "other", "refuted", h, [note]
    if h.is_ball():
        return "ball-like", "evidence-only", h, ["no collapse found"]
    note = f"not a closed pseudomanifold; homology {h.reduced_betti} is not a ball"
    return "other", "refuted", h, [note]


def _collapse_or_none(Q, budget: int):
    try:
        res = find_collapse_by_state(Q, budget=budget)
    except PreconditionError:
        return None
    return res if res.collapsed else None


def link_certificate_replays(P, x, cert) -> bool:
    """A link certificate replayed by the oracle's state on the
    re-indexed factor P>x (minus the removed top)."""
    i = P.index(x)
    W = P._up[i] ^ (1 << i)
    if cert.top is not None:
        if P._up[cert.top] & W != 1 << cert.top:  # not a maximal cell
            return False
        W ^= 1 << cert.top
    if not W:
        return cert.steps == () and cert.terminal is None
    names = P.elements
    return verify_collapse_by_state(P._induced(W), CollapseCertificate(
        tuple((names[s], names[t]) for s, t in cert.steps),
        names[cert.terminal],
    ))


# ---------------------------------------------------------------------------
# the star checks on sign vectors, per X
# ---------------------------------------------------------------------------


def boundary_equivalence_by_deletion(M) -> BoundaryEquivalenceReport:
    """`boundary_equivalence(M)` by deleting g from every covector of
    L+ and looking the result up in L/g."""
    gi = M.g_index
    bc = M.bounded_complex()
    cg = contraction(M)
    checked = 0
    witnesses = []
    for x in M.om:
        if x.sign(gi) is not Sign.PLUS:
            continue
        xg = x.delete([gi])
        if xg.is_zero:
            continue
        checked += 1
        if (xg in cg) == (x in bc):
            witnesses.append(x)
    return BoundaryEquivalenceReport(checked=checked, witnesses=tuple(witnesses))


def check_bijection_by_vectors(M, X) -> BijectionReport:
    """`check_bijection(M, X)` tope by tope on the star's sign vectors."""
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


def shelling_of_DX_by_vectors(M, X, B=None) -> list:
    """`shelling_of_DX(M, X, B)` on sign vectors, sorted by the tuple key
    `separation_key_by_labels`."""
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
        for s in sorted(topes(contraction(star.om)), key=str)
        if (s._pos | s._neg) & S != S
    ]
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
    ground = contraction(star.om).ground
    return sorted(
        star.D_X,
        key=lambda t: separation_key_by_labels(ground, _separation(B, t)),
    )


def induced_shelling_by_vectors(M, X) -> InducedShelling:
    """`induced_shelling_of_CX(M, X)` on sign vectors: each base's
    [D_X] order from `shelling_of_DX_by_vectors`, lifted by h, and the
    flips taken on the lifted topes."""
    star = M.star(X)
    order = star.om.om.order()
    size = len(order.up_set(star.X))
    zeros = len(star.X.zero_set())
    cube = None
    if size != 3 ** zeros:
        cube = (
            f"L_>=X is not the sign cube on z(X): |L_>=X| = {size}, "
            f"expected 3^{zeros} = {3 ** zeros}"
        )
    cx = set(star.C_X)
    if not star.D_X:
        problems = [f"D_X is empty, and |C_X| = {len(cx)}"]
        if cube is not None:
            problems.append(cube)
        return InducedShelling(
            X=star.X, dx_order=(), order=(), report=None,
            problems=tuple(problems),
        )
    first = None
    for B in star.D_X:
        dx = shelling_of_DX_by_vectors(M, X, B)
        problems = []
        lifted = []
        for d in dx:
            c = star.lift(d)
            lifted.append(c)
            if c not in cx:
                problems.append(f"h({d}) = {c} is not in C_X")
        if not problems and len(set(lifted)) != len(cx):
            problems.append(
                f"h(D_X) covers {len(set(lifted))} of the "
                f"{len(cx)} topes of C_X"
            )
        if cube is not None:
            problems.append(cube)
        report = None
        if not problems:
            failures = []
            for j, cj in enumerate(lifted):
                seps = [_separation(c, cj) for c in lifted[:j]]
                flips = 0
                for s in seps:
                    if len(list(_bits(s))) == 1:
                        flips |= s
                failures.extend(
                    (i, j) for i, s in enumerate(seps) if not s & flips
                )
            report = ShellingReport(
                ok=not failures, mode="simplicial", failures=tuple(failures)
            )
        cand = InducedShelling(
            X=star.X, dx_order=tuple(dx), order=tuple(lifted),
            report=report, problems=tuple(problems),
        )
        if cand.ok:
            return cand
        if first is None:
            first = cand
    return first


def star_checks_by_vectors(M, bc) -> dict:
    """`verify._star_checks(M, bc)` with each check made per X on sign
    vectors: boundary equivalence by deletion, the bijection tope by
    tope, [D_X] sorted by label tuples, the lifts by composition."""
    gi = M.g_index
    per_x = []
    failures = []
    notes = []
    be = boundary_equivalence_by_deletion(M)
    if not be.ok:
        failures.append(
            f"boundary equivalence fails at {len(be.witnesses)} covectors"
        )
    for x in bc:
        entry = {"X": str(x)}
        cube = cube_isomorphism(M.om, x)
        entry["cube_ok"] = cube.ok
        entry["cube_size"] = cube.actual_size
        if not cube.ok:
            failures.append(f"cube check fails at {x}")
        if x.delete([gi]).is_zero:
            entry["star"] = "degenerate"
            per_x.append(entry)
            continue
        star = M.star(x)
        bij = check_bijection_by_vectors(M, x)
        entry["c_size"] = len(star.C_X)
        entry["bijection_ok"] = bij.ok
        if not bij.ok:
            failures.append(f"restriction bijection fails at {x}")
        ld = link_decomposition(M, x)
        entry["case"] = ld.case
        if ld.case == "proper" and bij.pairs:
            ind = induced_shelling_by_vectors(M, x)
            entry["dx_order"] = [str(t) for t in ind.dx_order]
            entry["cx_order"] = [str(t) for t in ind.order]
            entry["shelling_ok"] = ind.ok
            entry["shelling_mode"] = (
                ind.report.mode if ind.report is not None else None
            )
            if not ind.ok:
                notes.append(
                    f"no lifted order of a [D_X] shelling shells [C_X] at {x}"
                )
        per_x.append(entry)
    out = {
        "skipped": False,
        "boundary_equivalence": {
            "ok": be.ok,
            "checked": be.checked,
            "witnesses": [str(w) for w in be.witnesses],
        },
        "per_x": per_x,
        "failures": failures,
    }
    if notes:
        out["notes"] = notes
    return out
