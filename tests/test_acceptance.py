"""Acceptance gate: the seven headline guarantees of the tool.

One test function per criterion, so `pytest -v` prints one pass/fail
line for each; criterion 2 has two more, at d = 4 and at d = 5.  Criteria 2, 3, and
5 share a module-scoped corpus of seeded arrangements; the stated
runtime budgets are asserted on wall clock time.
"""

import random
import time

import pytest

from omtop.bounded import AffineOM, bounded_complex, cube_isomorphism
from omtop.generate import generate_arrangement
from omtop.matroid import (
    CovectorSet,
    verify_covector_axioms,
)
from omtop.realization import (
    bounded_face_census,
    enumerate_covectors,
    homogenize,
)
from omtop.signvec import Sign, SignVector
from omtop.topology import (
    HomologyTable,
    Poset,
    find_collapse,
    homology,
    verify_collapse,
)
from omtop.verify import verify_arrangement
from oracles import (
    SimplicialComplex,
    face_poset,
    scan_atoms,
    tope_poset,
    topes,
    verify_shelling_by_meets,
)

# -- the seeded corpus (criteria 2, 3, 5) -----------------------------------

GRID = (
    [(n, 1, s) for n in range(2, 8) for s in (0, 1, 2)]
    + [(n, 2, s) for n in range(3, 8) for s in range(5)]
    + [(n, 3, s) for n in range(4, 8) for s in (0, 1)]
)


@pytest.fixture(scope="module")
def corpus():
    """Verification reports for every grid instance, with the total
    wall-clock time of the build."""
    t0 = time.perf_counter()
    reports = []
    for n, d, seed in GRID:
        A = generate_arrangement(n, d, seed=seed)
        rep = verify_arrangement(
            A, source=f"generate(n={n}, d={d}, seed={seed})"
        )
        reports.append((n, d, seed, rep))
    return reports, time.perf_counter() - t0


def test_criterion_1_four_line_regression(four_arr):
    """The two triangles joined at a vertex: non-uniform, f-vector
    (5, 6, 2), Euler 1, pure of dimension 2, collapsible, and exactly
    one vertex whose link fails to be a sphere or ball."""
    t0 = time.perf_counter()
    rep = verify_arrangement(four_arr, source="four-line")
    elapsed = time.perf_counter() - t0
    s = rep.stages
    assert s["uniformity"]["uniform"] is False
    assert tuple(s["bounded"]["f_vector"]) == (5, 6, 2)
    assert s["bounded"]["euler"] == 1
    assert s["bounded"]["pure"] is True
    assert s["bounded"]["dim"] == 2
    assert s["collapse"]["status"] == "collapsed"
    assert s["collapse"]["replay_ok"] is True
    others = [v for v in s["links"]["vertices"] if v["kind"] == "other"]
    assert len(others) == 1
    assert others[0]["homology"]["betti"][0] == 2
    assert rep.verdict == "refuted"
    assert elapsed < 5.0


def test_criterion_2_seeded_corpus_is_ball_certified(corpus):
    """Every seeded generic arrangement with d <= 3, n <= 7 runs the
    whole pipeline to the ball-certified verdict."""
    reports, elapsed = corpus
    assert len(reports) >= 50
    bad = [
        (n, d, seed, rep.verdict, rep.reasons)
        for n, d, seed, rep in reports
        if rep.verdict != "ball-certified"
    ]
    assert bad == []
    for n, d, seed, rep in reports:
        b = rep.stages["bounded"]
        assert b["pure"] is True
        assert b["dim"] == d
        assert b["euler"] == 1
        col = rep.stages["collapse"]
        assert col["status"] == "collapsed" and col["replay_ok"] is True
        for v in rep.stages["links"]["vertices"]:
            assert v["kind"] in ("sphere-like", "ball-like")
            assert v["certainty"] == "certified"
    assert elapsed < 600.0


@pytest.mark.parametrize("seed", range(5))
def test_criterion_2_holds_at_d4(seed):
    """The paper's theorem as an invariant one dimension up: each seeded
    uniform (5,4) arrangement is ball-certified, none refuted."""
    rep = verify_arrangement(
        generate_arrangement(5, 4, seed=seed),
        source=f"generate(n=5, d=4, seed={seed})",
    )
    assert rep.verdict == "ball-certified", rep.reasons
    assert rep.stages["uniformity"]["uniform"] is True
    assert rep.stages["bounded"]["dim"] == 4


@pytest.mark.parametrize("seed", range(4))
def test_criterion_2_holds_at_d5(seed):
    """The paper's theorem at d = 5: each seeded uniform (7,5)
    arrangement is ball-certified, and the geometric boundedness oracle
    agrees with the bounded complex face by face."""
    rep = verify_arrangement(
        generate_arrangement(7, 5, seed=seed),
        source=f"generate(n=7, d=5, seed={seed})",
    )
    assert rep.verdict == "ball-certified", rep.reasons
    assert rep.stages["uniformity"]["uniform"] is True
    oracle = rep.stages["boundedness_oracle"]
    assert oracle["applied"] is True
    assert oracle["matches_f_vector"] is True
    assert oracle["mismatched_covectors"] == []


def test_criterion_3_star_constructions_have_zero_failures(corpus):
    """On every corpus instance and every bounded covector X: the cube
    count, the boundary equivalence, the restriction bijection, and the
    inherited shelling of [C_X] all hold."""
    reports, _ = corpus
    for n, d, seed, rep in reports:
        sec = rep.stages["star_checks"]
        assert sec["skipped"] is False
        be = sec["boundary_equivalence"]
        assert be["ok"] is True
        assert be["checked"] > 0
        assert be["witnesses"] == []
        assert sec["failures"] == []
        assert len(sec["per_x"]) == rep.stages["bounded"]["size"]
        for entry in sec["per_x"]:
            assert entry["cube_ok"] is True
            if entry.get("star") == "degenerate":
                continue
            assert entry["bijection_ok"] is True
            if entry["case"] == "proper" and entry["c_size"] > 0:
                assert entry["shelling_ok"] is True


def test_criterion_4_linear_extensions_shell_the_sphere(line_om, tri_om):
    """Rank <= 3 uniform instances: upper intervals are simplicial, and
    ten random linear extensions of the tope poset per instance all
    pass the coatom shelling condition on the covector sphere."""
    rng = random.Random(2026)
    generated = [
        enumerate_covectors(homogenize(generate_arrangement(4, 2, seed=1))),
        enumerate_covectors(homogenize(generate_arrangement(5, 2, seed=3))),
    ]
    for L in (line_om, tri_om, *generated):
        nonzero = sorted((x for x in L if not x.is_zero), key=str)
        for x in nonzero:
            assert cube_isomorphism(L, x).ok
        P = Poset(nonzero, lambda a, b: a.below(b))
        base = min(topes(L), key=str)
        T = tope_poset(L, base)
        for _ in range(10):
            order = T.random_linear_extension(rng)
            assert verify_shelling_by_meets(P, order).ok


def test_criterion_5_oracle_agrees_with_bounded_complex(
    corpus, line_arr, tri_arr, four_arr
):
    """Combinatorial boundedness matches the recession-cone oracle on
    every realizable instance; four generic lines bound three regions."""
    reports, _ = corpus
    for n, d, seed, rep in reports:
        o = rep.stages["boundedness_oracle"]
        assert o["applied"] is True
        assert o["matches_f_vector"] is True
        assert o["mismatched_covectors"] == []
    for A in (line_arr, tri_arr, four_arr):
        o = verify_arrangement(A).stages["boundedness_oracle"]
        assert o["applied"] is True
        assert o["matches_f_vector"] is True
        assert o["mismatched_covectors"] == []
    census = bounded_face_census(generate_arrangement(4, 2, seed=1))
    assert tuple(census) == (6, 8, 3)
    assert census[2] == 3
    assert census[0] - census[1] + census[2] == 1


def test_criterion_6_topology_engine():
    """Simplex homology tables, join identities, and collapse
    certificate replay, on face posets and on L++."""
    for d in range(5):
        verts = list(range(d + 1))
        solid = face_poset(SimplicialComplex.simplex(verts))
        assert homology(solid).is_ball()
        col = find_collapse(solid)
        assert col.collapsed
        assert verify_collapse(solid, col.certificate)
        if d >= 1:
            boundary = face_poset(SimplicialComplex.simplex_boundary(verts))
            assert homology(boundary).is_sphere(d - 1)
    # {emptyset} * K = K
    path = SimplicialComplex([[1, 2], [2, 3]])
    assert SimplicialComplex.empty().join(path).facets == path.facets
    # 0-sphere * 0-sphere = the 4-cycle
    s0 = SimplicialComplex([[0], [1]])
    square = s0.join(s0, relabel=True)
    assert square.f_vector() == (4, 4)
    assert homology(face_poset(square)).is_sphere(1)
    # certificates emitted on a real instance replay as well
    M = AffineOM(
        enumerate_covectors(homogenize(generate_arrangement(4, 2, seed=1)))
    )
    P = bounded_complex(M).as_poset()
    col = find_collapse(P)
    assert col.collapsed
    assert verify_collapse(P, col.certificate)
    assert homology(P) == HomologyTable.point(P.height())


# -- criterion 7: the axiom verifier and its mutation harness ---------------


def _drop(L, victims):
    return CovectorSet(L.ground, frozenset(L.covectors) - set(victims))


def _grow(L, extra):
    return CovectorSet(L.ground, frozenset(L.covectors) | set(extra))


def _flip_first_nonzero(v):
    signs = list(v.signs)
    i = next(k for k, s in enumerate(signs) if s is not Sign.ZERO)
    signs[i] = -signs[i]
    return SignVector.from_signs(signs)


def _witnesses_are_correct(L, rep):
    """Every reported witness must exhibit the failure it claims."""
    cset = L.covectors
    for x in rep.l1_witnesses:
        assert x in cset and -x not in cset
    for x, y in rep.l2_witnesses:
        assert x in cset and y in cset
        assert x.compose(y) not in cset
    for x, y, e in rep.l3_witnesses:
        assert e in x.separation(y)
        w = x.compose(y)
        outside = sorted(set(range(w.n)) - set(x.separation(y)))
        assert not any(
            z.sign(e) is Sign.ZERO
            and all(z.sign(f) is w.sign(f) for f in outside)
            for z in cset
        )


def test_criterion_7_axiom_verifier_and_mutations(line_om, tri_om, four_om):
    """Passes on realized covector sets; catches ten hand mutations
    with witnesses that demonstrably exhibit each failure."""
    gen = enumerate_covectors(homogenize(generate_arrangement(4, 2, seed=1)))
    for L in (line_om, tri_om, four_om, gen):
        assert verify_covector_axioms(L).ok

    def first(it):
        return min(it, key=str)

    zero_t = SignVector.zero(len(tri_om.ground))
    tope_t = first(topes(tri_om))
    atom_t = first(scan_atoms(tri_om))
    edge_t = first(x for x in tri_om if len(x.zero_set()) == 1)
    alien_vertex = _flip_first_nonzero(atom_t)
    alien_ray = SignVector.from_signs(
        [Sign.PLUS] + [Sign.ZERO] * (len(tri_om.ground) - 1)
    )
    assert alien_vertex not in tri_om.covectors
    assert alien_ray not in tri_om.covectors
    zero_l = SignVector.zero(len(line_om.ground))
    tope_l = first(topes(line_om))
    vertex_f = first(scan_atoms(four_om))

    mutations = [
        (_drop(tri_om, [zero_t]), "l0"),
        (_drop(tri_om, [tope_t]), "l1"),
        (_drop(tri_om, [atom_t]), "l1"),
        (_drop(tri_om, [edge_t]), "l1"),
        # removing a full negation pair leaves L0/L1 intact; composition
        # from a surviving edge still reaches the missing tope
        (_drop(tri_om, [tope_t, -tope_t]), "l2"),
        (_grow(tri_om, [alien_vertex]), "l1"),
        (_grow(tri_om, [alien_ray]), "l1"),
        (_drop(line_om, [zero_l]), "l0"),
        (_drop(line_om, [tope_l]), "l1"),
        # removing a vertex pair is invisible to composition (only 0 o v
        # ever produced v) but elimination between its two rays needs it
        (_drop(four_om, [vertex_f, -vertex_f]), "l3"),
    ]
    assert len(mutations) == 10
    for L_mut, expected_axiom in mutations:
        rep = verify_covector_axioms(L_mut)
        assert not rep.ok
        assert getattr(rep, f"{expected_axiom}_ok") is False
        _witnesses_are_correct(L_mut, rep)
