"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the library's own reduction machinery: homology
is recomputed from the definition, over the rationals with dense
Gaussian elimination (`rational_betti`) and over the integers with the
Smith normal form of every full boundary matrix (`integral_homology`),
so they cross-check the collapse/coreduction path of `homology`.

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
included.  `restriction_l2_witnesses` is the L2 pass as the library ran
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
element by `Poset.meet_or_bottom`, C_X and D_X by sign tests on every
tope, [D_X] sorted on a `TopePoset` after a pairwise order-ideal scan,
and the [C_X] face poset cut out of L by `Poset.subposet`.  They
cross-check `Poset.is_pure`, `verify_shelling`, `Star`, `shelling_of_DX`
and `induced_shelling_of_CX`, reports and exception texts included.

`cocircuits_by_dets` lists the cocircuits as `realization._cocircuits`
did before the wedge walk: each (r-1)-subset of the non-loop forms on
its own, its cofactor vector from r separate determinants `det` by
fraction-free elimination.  `general_position_by_ranks` is the
generator's uniformity test as it ran before that walk, one rank per
(d+1)-subset of the homogenized forms (`every_subset_a_basis_by_ranks`).
They cross-check `_cocircuits`, the uniform early exit of
`enumerate_covectors` and `generate._general_position`.

`verify_on_the_order_complex` runs the pipeline with its collapse found
and replayed on the order complex K = Delta(L++) and K's f-vector read
from K, so it cross-checks `verify`, which collapses the cells of L++
and counts the chains of L++.
"""

import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import omtop.verify
from omtop.bounded import BijectionReport, CubeReport, InducedShelling
from omtop.errors import (
    DimensionError,
    DomainError,
    MembershipError,
    OmtopError,
    PreconditionError,
)
from omtop.matroid import AxiomReport, CovectorSet, tope_poset, topes
from omtop.realization import (
    _eliminate,
    _over_cap,
    _rank,
    homogenize,
    is_essential,
)
from omtop.signvec import Sign, SignVector
from omtop.topology import (
    HomologyTable,
    LinkClassification,
    LinkVerdict,
    ShellingReport,
    SimplicialComplex,
    _poset_is_simplicial,
    find_collapse,
    homology,
    order_complex,
    smith_normal_form,
    verify_collapse,
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


def every_subset_a_basis_by_ranks(forms, k: int) -> bool:
    """Is every k-subset of the forms (rows of k integers) of rank k?"""
    return all(
        _rank(sub) == k for sub in itertools.combinations(forms, k)
    )


def general_position_by_ranks(A) -> bool:
    """Every d+1 homogenized forms of A independent."""
    return every_subset_a_basis_by_ranks(homogenize(A).forms, A.dim + 1)


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
    res = find_collapse(L, budget=budget)
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
        h = homology(L)
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
    """`verify_arrangement(A)` as it ran before the collapse moved to
    the cells: the collapse is searched and replayed on the order
    complex K of L++, and the reported f-vector is K's."""

    def on_K(f):
        return lambda P, *args, **kwargs: f(order_complex(P), *args, **kwargs)

    with mock.patch.object(
        omtop.verify, "find_collapse", on_K(find_collapse)
    ), mock.patch.object(
        omtop.verify, "verify_collapse", on_K(verify_collapse)
    ), mock.patch.object(
        omtop.verify, "_chain_counts", lambda P: order_complex(P).f_vector()
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
        if P._is_cover_idx(i, j)
    )


def verify_shelling_by_meets(P, order) -> ShellingReport:
    """`verify_shelling(P, order)` with each meet found as an element of
    P by `meet_or_bottom` and each comparison made by `less_equal`."""
    if not pure_by_covers(P):
        raise PreconditionError("shelling verification needs a pure poset")
    coatoms = P.maximal_elements()
    order_idx = [P.index(c) for c in order]
    if len(set(order_idx)) != len(order_idx) or set(order_idx) != {
        P.index(c) for c in coatoms
    }:
        raise DomainError("order is not a permutation of the maximal elements")
    mode = "simplicial" if _poset_is_simplicial(P) else "necessary-condition"
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
    for j in range(1, len(order)):
        horizon = [
            meet(k, j) for k in range(j) if P.is_lower_cover(meet(k, j), order[j])
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
        (t for t in topes(N.contraction())
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


def induced_shelling_by_scan(M, X, dx_order=None) -> InducedShelling:
    """`induced_shelling_of_CX(M, X, dx_order)` on the oracles above: the
    [C_X] face poset cut out of L by `subposet`, each base's lift checked
    from scratch by `verify_shelling_by_meets`."""
    star = M.star(X)
    order = star.om.om.order()
    cx = set(star.C_X)
    faces = order.subposet(
        y
        for y in order.up_set(star.X)
        if y != star.X and not cx.isdisjoint(order.up_set(y))
    )

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
    first = None
    for B in sorted(star.D_X, key=str):
        cand = lift_and_check(shelling_of_DX_by_scan(M, X, B))
        if cand.ok:
            return cand
        if first is None:
            first = cand
    if first is None:
        raise PreconditionError(f"D_X is empty for X = {star.X}")
    return first
