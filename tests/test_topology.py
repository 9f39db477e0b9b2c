"""Unit suite for the poset topology engine, and for the simplicial
complexes of oracles.py that cross-check it.

A simplicial complex K reaches the engine as its face poset, whose
order complex is the barycentric subdivision of K.  Expected homology
tables for standard spaces (spheres, balls, RP2, the torus) are
classical; everything else is cross-checked against the simplicial,
rational-rank and integral-definition oracles in oracles.py or against
hand-countable complexes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtop.errors import DomainError, MembershipError, PreconditionError
from omtop.topology import (
    CollapseCertificate,
    CollapseResult,
    HomologyTable,
    LinkCertificate,
    Poset,
    classify_links,
    find_collapse,
    homology,
    smith_normal_form,
    _cell_table,
    verify_collapse,
)

import oracles
from oracles import (
    SimplicialComplex,
    any_refuted,
    boundary,
    face_poset,
    find_shelling,
    heights_by_max,
    integral_homology,
    is_lower_cover,
    linear_extension,
    link_facts,
    link_sweep,
    lower_covers,
    maximal_chains,
    meet_or_bottom,
    minimal_elements,
    open_interval,
    order_complex,
    pure_by_covers,
    random_linear_extension,
    rational_betti,
    simplicial_homology,
    subposet,
    transposed_up_sets,
    upper_covers,
    verify_shelling_by_meets,
)


def divides_chain(P, elts):
    return Poset(elts, lambda a, b: b % a == 0)


@st.composite
def posets(draw) -> Poset:
    """A poset on range(n) listed in a drawn order: the transitive
    closure of drawn relations, oriented by a drawn linear order, so it
    is often ungraded and has isolated points."""
    n = draw(st.integers(0, 12))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    less = {(a, b) for a, b in pairs if a < n and b < n and rank[a] < rank[b]}
    for k in range(n):
        less |= {(a, b) for a, c in less if c == k for d, b in less if d == k}
    elements = draw(st.permutations(range(n)))
    return Poset(elements, lambda a, b: a == b or (a, b) in less)


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

TORUS_FACETS = [
    tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
] + [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]


class TestHeightsByLevels:
    """`Poset._height_list` assigns heights level by level; the maximum
    over each down-set in oracles.py is the reference.  The up-sets,
    built beside the down-sets, must be their transpose."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(posets())
    def test_random_posets(self, P):
        assert P._up == transposed_up_sets(P._down)
        assert P._height_list() == heights_by_max(P)
        for x in P:
            for Q in (P.strictly_below(x), P.strictly_above(x)):
                assert Q._height_list() == heights_by_max(Q)

    def test_every_poset_built_verifying_640(self, monkeypatch):
        # verify builds two posets: L's order and L++.  The star checks
        # read the topes of L/g off L's order, and the links run on
        # windows of L++'s cell table, so the per-link sub-posets are
        # built only by the oracle that re-indexes every upper factor,
        # which keeps `_induced` covered
        from omtop.bounded import AffineOM
        from omtop.generate import generate_arrangement
        from omtop.realization import enumerate_covectors, homogenize
        from omtop.verify import verify_arrangement

        built = []
        real_set, real_induced = Poset._set, Poset._induced

        def record_set(self, *args):
            real_set(self, *args)
            built.append(self)

        def record_induced(self, mask):
            sub = real_induced(self, mask)
            built.append(sub)
            return sub

        A = generate_arrangement(6, 4, seed=0)
        M = AffineOM(enumerate_covectors(homogenize(A)))
        sizes = [len(M.om), len(M.bounded_complex())]
        monkeypatch.setattr(Poset, "_set", record_set)
        monkeypatch.setattr(Poset, "_induced", record_induced)
        rep = verify_arrangement(A)
        assert rep.verdict == "ball-certified"
        assert sorted(map(len, built)) == sorted(sizes)
        (P,) = [Q for Q in built if len(Q) == sizes[1]]
        assert len(P) == 129
        del built[:]
        assert oracles.classify_links_by_subposets(P) == classify_links(P)
        assert len(built) > 100
        built += [M.om.order(), oracles.contraction(M).order()]
        assert max(map(len, built)) > 1000
        for Q in built:
            assert Q._up == transposed_up_sets(Q._down)
            assert Q._height_list() == heights_by_max(Q)


class TestPoset:
    def test_basic_relations(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert P.less_equal(2, 6) and not P.less_equal(2, 3)
        assert minimal_elements(P) == [1]
        assert P.maximal_elements() == [6]
        assert set(upper_covers(P, 1)) == {2, 3}
        assert set(lower_covers(P, 6)) == {2, 3}
        assert P.height(6) == 2 and P.height() == 2

    def test_duplicate_elements(self):
        with pytest.raises(DomainError):
            Poset([1, 1], lambda a, b: a <= b)

    def test_duplicate_element_named(self):
        with pytest.raises(DomainError, match="duplicate poset element 3"):
            Poset([1, 3, 2, 3], lambda a, b: a <= b)

    def test_not_antisymmetric(self):
        with pytest.raises(DomainError):
            Poset([1, 2], lambda a, b: True)

    def test_not_reflexive(self):
        with pytest.raises(DomainError):
            Poset([1, 2], lambda a, b: a < b)

    def test_purity(self):
        # the cell table decides purity by its graded lemma
        assert _cell_table(divides_chain(None, [1, 2, 3, 6])).pure
        # 1 < 2 < 4 and 1 < 5: maximal chains of lengths 2 and 1
        P = Poset([1, 2, 4, 5], lambda a, b: b % a == 0)
        assert not _cell_table(P).pure

    def test_cycle_has_no_heights(self):
        # reflexive and antisymmetric, but not transitive: a < b < c < a
        cycle = {("a", "b"), ("b", "c"), ("c", "a")}
        P = Poset("abc", lambda x, y: x == y or (x, y) in cycle)
        with pytest.raises(DomainError):
            P.height()

    def test_subposet_and_intervals(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        assert P.strictly_below(6).elements == (1, 2, 3)
        assert P.strictly_above(2).elements == (6, 12)
        assert open_interval(P, 1, 12).elements == (2, 3, 6)

    def test_maximal_chains(self):
        P = divides_chain(None, [1, 2, 3, 6])
        chains = set(maximal_chains(P))
        assert chains == {(1, 2, 6), (1, 3, 6)}

    def test_maximal_chains_disconnected(self):
        P = Poset(["a", "b"], lambda a, b: a == b)
        assert set(maximal_chains(P)) == {("a",), ("b",)}

    def test_linear_extension_respects_order(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        ext = linear_extension(P, key=lambda x: x)
        pos = {x: i for i, x in enumerate(ext)}
        for x in P.elements:
            for y in P.elements:
                if x != y and P.less_equal(x, y):
                    assert pos[x] < pos[y]

    def test_random_linear_extension_seeded(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        a = random_linear_extension(P, random.Random(7))
        b = random_linear_extension(P, random.Random(7))
        assert a == b
        pos = {x: i for i, x in enumerate(a)}
        for x in P.elements:
            for y in P.elements:
                if x != y and P.less_equal(x, y):
                    assert pos[x] < pos[y]

    def test_meet_or_bottom(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert meet_or_bottom(P, 2, 3) == 1
        assert meet_or_bottom(P, 2, 6) == 2
        Q = Poset(["a", "b"], lambda a, b: a == b)
        assert meet_or_bottom(Q, "a", "b") is None

    def test_meet_not_unique(self):
        # two maximal lower bounds a, b under both tops
        elts = ["a", "b", "x", "y"]
        rel = {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
        P = Poset(elts, lambda u, v: u == v or (u, v) in rel)
        with pytest.raises(PreconditionError):
            meet_or_bottom(P, "x", "y")

    def test_is_lower_cover_with_bottom(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert is_lower_cover(P, None, 1)
        assert not is_lower_cover(P, None, 6)
        assert is_lower_cover(P, 2, 6)
        assert not is_lower_cover(P, 1, 6)


class TestSimplicialComplex:
    """The simplicial complexes of oracles.py."""

    def test_void_vs_empty(self):
        void = SimplicialComplex.void()
        empty = SimplicialComplex.empty()
        assert void.is_void and not empty.is_void
        assert empty.dim == -1
        with pytest.raises(DomainError):
            void.dim
        assert void.reduced_euler() == 0
        assert empty.reduced_euler() == -1

    def test_facet_domination(self):
        K = SimplicialComplex([[1, 2], [1], [2, 3], [1, 2]])
        assert K.facets == (frozenset({1, 2}), frozenset({2, 3}))

    def test_f_vector_euler(self):
        solid = SimplicialComplex.simplex([1, 2, 3])
        assert solid.f_vector() == (3, 3, 1)
        assert solid.euler_characteristic() == 1
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        assert ring.f_vector() == (3, 3)
        assert ring.euler_characteristic() == 0

    def test_has_face(self):
        K = SimplicialComplex([[1, 2, 3]])
        assert K.has_face([1, 3]) and K.has_face([])
        assert not K.has_face([1, 4])

    def test_link_interior_vertex_of_path(self):
        path = SimplicialComplex([[1, 2], [2, 3]])
        lk = path.link(2)
        assert lk.facets == (frozenset({1}), frozenset({3}))

    def test_link_apex_of_cone(self):
        hexagon = SimplicialComplex(
            [[i, (i % 6) + 1] for i in range(1, 7)]
        )
        cone = SimplicialComplex([f | {"apex"} for f in hexagon.facets])
        assert cone.link("apex") == hexagon

    def test_link_unknown_vertex(self):
        with pytest.raises(MembershipError):
            SimplicialComplex([[1, 2]]).link(9)

    def test_link_of_isolated_vertex(self):
        K = SimplicialComplex([[1]])
        assert K.link(1) == SimplicialComplex.empty()

    def test_set_vertex_is_a_vertex(self):
        # the order complex of a face poset has frozenset vertices
        K = order_complex(face_poset(SimplicialComplex.simplex([1, 2])))
        a, ab = frozenset({1}), frozenset({1, 2})
        assert K.link(a) == K.link([a]) == SimplicialComplex([[ab]])
        assert K.star(ab) == K.star([ab]) == K

    def test_tuple_vertex_is_a_vertex(self):
        # a relabelled join tags each vertex v as (0, v) or (1, v)
        J = SimplicialComplex([[1, 2]]).join(
            SimplicialComplex([[1]]), relabel=True
        )
        assert J.link((0, 1)) == SimplicialComplex([[(0, 2), (1, 1)]])
        assert J.star((1, 1)) == J

    def test_join_with_empty_complex(self):
        K = SimplicialComplex([[1, 2], [2, 3]])
        assert SimplicialComplex.empty().join(K) == K
        assert K.join(SimplicialComplex.empty()) == K

    def test_join_two_zero_spheres_is_4_cycle(self):
        s0a = SimplicialComplex([["a"], ["b"]])
        s0b = SimplicialComplex([["c"], ["d"]])
        J = s0a.join(s0b)
        assert J.f_vector() == (4, 4)
        assert simplicial_homology(J).is_sphere(1)
        assert homology(face_poset(J)).is_sphere(1)

    def test_join_zero_sphere_with_point(self):
        s0 = SimplicialComplex([["a"], ["b"]])
        pt = SimplicialComplex([["c"]])
        J = s0.join(pt)
        assert J.f_vector() == (3, 2)
        assert simplicial_homology(J).is_ball()
        assert homology(face_poset(J)).is_ball()

    def test_join_collision(self):
        K = SimplicialComplex([[1]])
        with pytest.raises(DomainError):
            K.join(K)
        relabeled = K.join(K, relabel=True)
        assert relabeled.f_vector() == (2, 1)

    def test_join_reduced_euler_identity(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        s0 = SimplicialComplex([["a"], ["b"]])
        t0 = SimplicialComplex([["c"], ["d"]])
        for K1, K2 in [(ring, s0), (s0, t0), (ring, SimplicialComplex([["z"]]))]:
            J = K1.join(K2)
            assert J.reduced_euler() == -K1.reduced_euler() * K2.reduced_euler()

    def test_join_associative_f_vectors(self):
        a = SimplicialComplex([[("a", 1)], [("a", 2)]])
        b = SimplicialComplex([[("b", 1)], [("b", 2)]])
        c = SimplicialComplex([[("c", 1)], [("c", 2)]])
        assert a.join(b).join(c).f_vector() == a.join(b.join(c)).f_vector()

    def test_boundary_of_solid_triangle(self):
        solid = SimplicialComplex.simplex([1, 2, 3])
        assert boundary(solid) == SimplicialComplex.simplex_boundary([1, 2, 3])

    def test_boundary_of_closed_complex_is_void(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        assert boundary(ring).is_void

    def test_closed_pseudomanifold(self):
        assert SimplicialComplex.simplex_boundary([1, 2, 3, 4]).is_closed_pseudomanifold()
        assert SimplicialComplex(RP2_FACETS).is_closed_pseudomanifold()
        assert not SimplicialComplex.simplex([1, 2, 3]).is_closed_pseudomanifold()
        # two triangles glued at a vertex: ridge counts fine but not strongly connected
        wedge = SimplicialComplex([[1, 2, 3], [3, 4, 5]])
        assert not wedge.is_closed_pseudomanifold()

    def test_connectivity(self):
        assert SimplicialComplex([[1, 2], [2, 3]]).is_connected()
        assert not SimplicialComplex([[1, 2], [3, 4]]).is_connected()
        assert SimplicialComplex([[1]]).is_connected()


class TestOrderComplex:
    """The order complexes of oracles.py."""

    def test_chain_gives_one_facet(self):
        P = Poset(["a", "b", "c"], lambda x, y: x <= y)
        K = order_complex(P)
        assert K.facets == (frozenset({"a", "b", "c"}),)

    def test_antichain_gives_isolated_vertices(self):
        P = Poset(["a", "b"], lambda x, y: x == y)
        K = order_complex(P)
        assert K.f_vector() == (2,)

    def test_empty_poset(self):
        P = Poset([], lambda x, y: True)
        assert order_complex(P) == SimplicialComplex.empty()

    def test_triangle_boundary_face_poset_gives_hexagon(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        K = order_complex(face_poset(ring))
        assert K.f_vector() == (6, 6)
        assert simplicial_homology(K).is_sphere(1)
        assert homology(face_poset(ring)).is_sphere(1)

    def test_barycentric_subdivision_of_solid_triangle(self):
        solid = SimplicialComplex.simplex([1, 2, 3])
        sd = order_complex(face_poset(solid))
        assert sd.f_vector() == (7, 12, 6)
        assert simplicial_homology(sd) == simplicial_homology(solid)
        assert rational_betti(sd) == rational_betti(solid)

    def test_link_factorizes_through_poset(self):
        # link(x, order_complex(P)) == order_complex(P_<x) * order_complex(P_>x)
        P = Poset([1, 2, 3, 6, 12], lambda a, b: b % a == 0)
        K = order_complex(P)
        for x in P.elements:
            lower = order_complex(P.strictly_below(x))
            upper = order_complex(P.strictly_above(x))
            J = lower.join(upper)
            assert K.link(x) == J


class TestSmithNormalForm:
    def test_small_known(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([[6]]) == [6]
        assert smith_normal_form([]) == []

    def test_divisibility_chain(self):
        factors = smith_normal_form(
            [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
        )
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_rank_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = [
                [rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)
            ]
            from oracles import _rank_over_q

            assert len(smith_normal_form(rows)) == _rank_over_q(rows)


class TestHomology:
    """`homology` on face posets: the order complex of the face poset
    of K is the barycentric subdivision of K, so it has K's homology."""

    def test_spheres_and_balls_dims_up_to_4(self):
        for d in range(0, 5):
            verts = list(range(d + 2))
            sphere = SimplicialComplex.simplex_boundary(verts)
            ball = SimplicialComplex.simplex(verts)
            hs = homology(face_poset(sphere))
            hb = homology(face_poset(ball))
            assert hs.is_sphere(d), (d, hs)
            assert hb.is_ball(), (d, hb)
            assert hs.betti == tuple(
                (1 if k in (0, d) else 0) + (1 if d == 0 and k == 0 else 0)
                for k in range(d + 1)
            )
            assert hs.betti == rational_betti(sphere)
            assert hb.betti == rational_betti(ball)

    def test_triangle_tables(self):
        ring = face_poset(SimplicialComplex.simplex_boundary([1, 2, 3]))
        assert homology(ring).betti == (1, 1)
        # table runs over dimensions 0..dim, so the solid triangle gets
        # one (vanishing) entry per dimension
        solid = face_poset(SimplicialComplex.simplex([1, 2, 3]))
        assert homology(solid).betti == (1, 0, 0)

    def test_empty_and_void(self):
        # the empty poset's order complex is {emptyset}; the void
        # complex has no face poset and is the oracle's alone
        h = homology(face_poset(SimplicialComplex.empty()))
        assert h.minus_one == 1 and h.betti == ()
        assert h.is_sphere(-1)
        assert h == simplicial_homology(SimplicialComplex.empty())
        hv = simplicial_homology(SimplicialComplex.void())
        assert hv.betti == () and hv.minus_one == 0

    def test_disjoint_union_and_wedge(self):
        two = homology(face_poset(SimplicialComplex([[1, 2], [3, 4]])))
        assert two.betti == (2, 0)
        wedge = homology(face_poset(SimplicialComplex([[1, 2, 3], [3, 4, 5]])))
        assert wedge.betti == (1, 0, 0)
        circles = homology(face_poset(
            SimplicialComplex([[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [3, 5]])
        ))
        assert circles.betti == (1, 2)

    def test_rp2_torsion(self):
        h = homology(face_poset(SimplicialComplex(RP2_FACETS)))
        assert h.betti == (1, 0, 0)
        assert h.torsion == ((), (2,), ())
        assert h.betti == rational_betti(SimplicialComplex(RP2_FACETS))

    def test_torus(self):
        T = SimplicialComplex(TORUS_FACETS)
        assert T.is_closed_pseudomanifold()
        h = homology(face_poset(T))
        assert h.betti == (1, 2, 1)
        assert not any(h.torsion)
        assert h.betti == rational_betti(T)

    def test_euler_equals_alternating_betti(self):
        for K in [
            SimplicialComplex(RP2_FACETS),
            SimplicialComplex(TORUS_FACETS),
            SimplicialComplex([[1, 2, 3], [3, 4, 5], [5, 6], [6, 7]]),
            SimplicialComplex.simplex_boundary([1, 2, 3, 4, 5]),
        ]:
            h = homology(face_poset(K))
            assert K.euler_characteristic() == sum(
                (-1) ** k * b for k, b in enumerate(h.betti)
            )

    def test_random_small_complexes_match_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            facets = []
            for _ in range(rng.randrange(2, 7)):
                size = rng.randrange(1, 5)
                facets.append(rng.sample(range(8), size))
            K = SimplicialComplex(facets)
            assert homology(face_poset(K)).betti == rational_betti(K)


class TestIntegralOracle:
    """Whole tables, torsion included, against the integral definition:
    the cell homology of the face poset and the simplicial oracle."""

    @staticmethod
    def check(K):
        want = integral_homology(K)
        assert simplicial_homology(K) == want
        if not K.is_void:  # the void complex has no face poset
            assert homology(face_poset(K)) == want
        return want

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=7))
    def test_generated_complexes(self, facets):
        self.check(SimplicialComplex(facets))

    def test_rp2_and_torus(self):
        for facets in (RP2_FACETS, TORUS_FACETS):
            self.check(SimplicialComplex(facets))

    def test_subdivided_rp2(self):
        sd = order_complex(face_poset(SimplicialComplex(RP2_FACETS)))
        assert sd.f_vector() == (31, 90, 60)
        h = self.check(sd)
        assert h.torsion == ((), (2,), ())

    def test_rp2_beside_a_circle(self):
        # the coreduction starts at the first vertex, in the circle, and
        # never reaches the RP2 component; collapses find no free face there
        circle = [[("c", 0), ("c", 1)], [("c", 1), ("c", 2)], [("c", 0), ("c", 2)]]
        K = SimplicialComplex(
            circle + [[("p", v) for v in f] for f in RP2_FACETS]
        )
        h = self.check(K)
        assert h.betti == (2, 1, 0) and h.torsion == ((), (2,), ())


class TestCollapse:
    """`find_collapse` on the face posets of simplicial complexes: the
    cells are the faces, named as frozensets."""

    def test_single_simplex(self):
        for d in range(0, 4):
            P = face_poset(SimplicialComplex.simplex(list(range(d + 1))))
            res = find_collapse(P)
            assert res.collapsed
            assert verify_collapse(P, res.certificate)

    def test_wedge_of_two_triangles(self):
        P = face_poset(SimplicialComplex([[1, 2, 3], [3, 4, 5]]))
        res = find_collapse(P)
        assert res.collapsed
        assert verify_collapse(P, res.certificate)
        assert res.certificate.terminal in {frozenset({v}) for v in range(1, 6)}

    def test_hexagon_exhausts_without_free_faces(self):
        hexagon = SimplicialComplex([[i, (i % 6) + 1] for i in range(1, 7)])
        res = find_collapse(face_poset(hexagon))
        assert res.status == "exhausted"
        assert res.search_complete
        assert res.nodes == 0

    def test_sphere_exhausts(self):
        res = find_collapse(
            face_poset(SimplicialComplex.simplex_boundary([1, 2, 3, 4]))
        )
        assert res.status == "exhausted" and res.search_complete

    def test_budget_exhaustion_reported(self):
        # a collapsible complex, but the budget stops the search at once
        P = face_poset(SimplicialComplex([[1, 2, 3], [3, 4, 5]]))
        res = find_collapse(P, budget=1)
        assert res.status == "exhausted" and not res.search_complete

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            find_collapse(face_poset(SimplicialComplex([[1, 2], [3, 4]])))

    def test_void_and_empty_rejected(self):
        # neither has a nonempty face: both face posets are empty
        with pytest.raises(PreconditionError):
            find_collapse(face_poset(SimplicialComplex.void()))
        with pytest.raises(PreconditionError):
            find_collapse(face_poset(SimplicialComplex.empty()))

    def test_deterministic(self):
        K = SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        a = find_collapse(face_poset(K))
        b = find_collapse(face_poset(K))
        assert a.certificate.steps == b.certificate.steps

    def test_replay_catches_corruption(self):
        P = face_poset(SimplicialComplex([[1, 2, 3]]))
        res = find_collapse(P)
        steps = list(res.certificate.steps)
        steps[0], steps[-1] = steps[-1], steps[0]
        bad = CollapseCertificate(tuple(steps), res.certificate.terminal)
        if len(steps) > 1:
            with pytest.raises(DomainError):
                verify_collapse(P, bad)

    def test_replay_catches_wrong_terminal(self):
        P = face_poset(SimplicialComplex([[1, 2]]))
        res = find_collapse(P)
        a, b = frozenset({1}), frozenset({2})
        bad = CollapseCertificate(
            res.certificate.steps,
            a if res.certificate.terminal != a else b,
        )
        with pytest.raises(DomainError):
            verify_collapse(P, bad)

    def test_bigger_collapsible_complex(self):
        # cone over a hexagon: collapses greedily
        hexagon = [[i, (i % 6) + 1] for i in range(1, 7)]
        cone = face_poset(SimplicialComplex([f + [9] for f in hexagon]))
        res = find_collapse(cone)
        assert res.collapsed
        assert verify_collapse(cone, res.certificate)


class TestCellCollapse:
    """`find_collapse` and `verify_collapse` on a poset: the cells are
    its elements, the facets of a cell its lower covers."""

    def test_face_poset_of_a_simplex(self):
        P = face_poset(SimplicialComplex.simplex([1, 2, 3]))
        res = find_collapse(P)
        assert res.collapsed and verify_collapse(P, res.certificate)
        # 7 cells: three pairs and the terminal vertex
        assert len(res.certificate.steps) == 3
        assert res.certificate.steps[0] == (
            frozenset({1, 2}), frozenset({1, 2, 3})
        )
        assert res.certificate.terminal in minimal_elements(P)
        assert res.certificate.to_json()["steps"][0] == [
            "frozenset({1, 2})", "frozenset({1, 2, 3})"
        ]

    def test_matches_the_order_complex(self):
        for K in LINK_COMPLEXES.values():
            P = face_poset(K)
            cell = find_collapse(P)
            simp = oracles.find_collapse_by_state(order_complex(P))
            assert cell.collapsed == simp.collapsed
            if cell.collapsed:
                assert verify_collapse(P, cell.certificate)

    def test_boundary_of_a_simplex_exhausts(self):
        res = find_collapse(face_poset(SimplicialComplex.simplex_boundary(range(4))))
        assert res.status == "exhausted" and res.search_complete

    def test_disconnected_and_empty_rejected(self):
        with pytest.raises(PreconditionError):
            find_collapse(face_poset(SimplicialComplex([[1, 2], [3, 4]])))
        with pytest.raises(PreconditionError):
            find_collapse(Poset([], lambda a, b: a == b))

    def test_replay_names_the_step(self):
        # a chain a < b < c collapses by (b, c); (a, b) leaves c above b
        P = Poset("abc", lambda x, y: x <= y)
        res = find_collapse(P)
        assert res.certificate == CollapseCertificate((("b", "c"),), "a")
        with pytest.raises(DomainError, match="collapse step 0: 'b' is not maximal"):
            verify_collapse(P, CollapseCertificate((("a", "b"),), "c"))

    def test_absent_element_is_not_live(self):
        P = Poset("abc", lambda x, y: x <= y)
        for s, t in (("z", "c"), ("b", "z")):
            text = f"collapse step 0: '{s}' or '{t}' is not a live face"
            with pytest.raises(DomainError, match=text):
                verify_collapse(P, CollapseCertificate(((s, t),), "a"))

    def test_cells_are_indices_on_L_plus_plus(self, monkeypatch):
        # the search runs on element indices: no covector is hashed, and
        # the certificate still names covectors and replays
        from omtop.bounded import AffineOM
        from omtop.generate import generate_arrangement
        from omtop.realization import enumerate_covectors, homogenize
        from omtop.signvec import SignVector

        M = AffineOM(enumerate_covectors(homogenize(
            generate_arrangement(6, 4, seed=0)
        )))
        P = M.bounded_complex().as_poset()
        hashed = []
        real_hash = SignVector.__hash__

        def counting(self):
            hashed.append(self)
            return real_hash(self)

        monkeypatch.setattr(SignVector, "__hash__", counting)
        res = find_collapse(P)
        assert hashed == []
        monkeypatch.undo()
        assert res.collapsed and verify_collapse(P, res.certificate)
        assert all(s in P and t in P for s, t in res.certificate.steps)
        assert res.certificate.terminal in P


class TestCollapseGivesPointHomology:
    """A replayed collapse stands in for `homology` on the order
    complex; check that `homology` gives the point table it assumes."""

    @staticmethod
    def check(K, budget=10**6) -> bool:
        P = face_poset(K)
        res = find_collapse(P, budget=budget)
        if not (res.collapsed and verify_collapse(P, res.certificate)):
            return False
        assert homology(P) == HomologyTable.point(K.dim)
        return True

    def test_collapsible_complexes_of_this_suite(self):
        hexagon = [[i, (i % 6) + 1] for i in range(1, 7)]
        complexes = [SimplicialComplex.simplex(range(d + 1)) for d in range(5)]
        complexes += [
            SimplicialComplex([[1, 2, 3], [3, 4, 5]]),
            SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]]),
            SimplicialComplex([[1, 2], [2, 3]]),
            SimplicialComplex([f + [9] for f in hexagon]),
            order_complex(face_poset(SimplicialComplex.simplex([1, 2, 3]))),
            order_complex(face_poset(SimplicialComplex.simplex([1, 2, 3, 4]))),
        ]
        assert all(self.check(K) for K in complexes)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=7))
    def test_generated_complexes(self, facets):
        K = SimplicialComplex(facets)
        if not K.is_void and K.dim >= 0 and K.is_connected():
            self.check(K, budget=10**4)


class TestShelling:
    """The shelling checker of oracles.py on hand-built complexes."""

    def test_triangle_boundary_cyclic_order(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        P = face_poset(ring)
        order = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
        rep = verify_shelling_by_meets(P, order)
        assert rep.ok and rep.mode == "simplicial"

    def test_two_disjoint_edges_fail(self):
        K = SimplicialComplex([[1, 2], [3, 4]])
        P = face_poset(K)
        rep = verify_shelling_by_meets(P, list(K.facets))
        assert not rep.ok
        assert rep.failures == ((0, 1),)

    def test_zero_sphere_any_order(self):
        K = SimplicialComplex([[1], [2]])
        rep = verify_shelling_by_meets(face_poset(K), list(K.facets))
        assert rep.ok

    def test_bad_facet_order_on_strip(self):
        # three triangles in a row: [123][234][345]; putting the two ends
        # first breaks the condition at j=1
        K = SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        P = face_poset(K)
        good = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]
        bad = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({2, 3, 4})]
        assert verify_shelling_by_meets(P, good).ok
        assert not verify_shelling_by_meets(P, bad).ok

    def test_non_pure_rejected(self):
        K = SimplicialComplex([[1, 2, 3], [3, 4]])
        with pytest.raises(PreconditionError):
            verify_shelling_by_meets(face_poset(K), list(K.facets))

    def test_order_must_be_permutation(self):
        K = SimplicialComplex([[1, 2], [2, 3]])
        P = face_poset(K)
        with pytest.raises(DomainError):
            verify_shelling_by_meets(P, [frozenset({1, 2})])

    def test_necessary_condition_mode_on_square_cell(self):
        # face poset of one square cell (non-simplicial): 4 vertices,
        # 4 edges, one 2-cell
        verts = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        cells = [("a", "b", "c", "d")]
        elems = [(0, v) for v in verts] + [(1, e) for e in edges] + [(2, c) for c in cells]

        def leq(x, y):
            if x == y:
                return True
            if x[0] >= y[0]:
                return False
            if x[0] == 0:
                return x[1] in y[1]
            return set(x[1]) <= set(y[1])

        P = Poset(elems, leq)
        rep = verify_shelling_by_meets(P, [(2, cells[0])])
        assert rep.ok and rep.mode == "necessary-condition"

    def test_shelling_implies_sphere_or_ball_homology(self):
        for K in [
            SimplicialComplex.simplex_boundary([1, 2, 3, 4]),
            SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]]),
            SimplicialComplex([[i, (i % 6) + 1] for i in range(1, 7)]),
        ]:
            order = find_shelling(K)
            assert order is not None
            rep = verify_shelling_by_meets(face_poset(K), order)
            assert rep.ok
            h = homology(face_poset(K))
            assert h.is_ball() or h.is_sphere(K.dim)

    def test_find_shelling_octahedron(self):
        octa = SimplicialComplex(
            [
                [x, y, z]
                for x in ("x+", "x-")
                for y in ("y+", "y-")
                for z in ("z+", "z-")
            ]
        )
        order = find_shelling(octa)
        assert order is not None and len(order) == 8
        assert verify_shelling_by_meets(face_poset(octa), order).ok


@st.composite
def graded_posets(draw):
    """A poset in levels, each element above level 0 covering a nonempty
    set of the level below (so two elements can share several maximal
    lower bounds), or the face poset of a small simplicial complex, most
    often a pure one; with its maximal elements in a drawn order."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        sizes = st.integers(1, 4) if draw(st.booleans()) else st.just(k)
        facets = draw(st.lists(
            sizes.flatmap(lambda m: st.sets(
                st.integers(0, 6), min_size=m, max_size=m)),
            min_size=1, max_size=6,
        ))
        P = face_poset(SimplicialComplex(facets))
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        below = {}
        for lv in range(1, len(sizes)):
            for k in range(sizes[lv]):
                below[lv, k] = draw(st.sets(
                    st.sampled_from([(lv - 1, i) for i in range(sizes[lv - 1])]),
                    min_size=1,
                ))
        elements = [(lv, k) for lv, n in enumerate(sizes) for k in range(n)]

        def leq(a, b):
            return a == b or any(leq(a, c) for c in below.get(b, ()))

        P = Poset(elements, leq)
    order = draw(st.permutations(P.maximal_elements()))
    return P, order


def _outcome(f, *args):
    """f's result, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestShellingCheckOracle:
    """The shelling checker of these tests on random face posets and
    random facet orders: it refuses exactly the posets that the cell
    table of `classify_links` finds impure, and a meet that is not
    unique is named."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(graded_posets())
    def test_random_posets(self, case):
        P, order = case
        pure = pure_by_covers(P)
        assert _cell_table(P).pure == pure
        got = _outcome(verify_shelling_by_meets, P, order)
        if not pure:
            assert got == (
                PreconditionError, "shelling verification needs a pure poset"
            )

    def test_non_unique_meet_text(self):
        # x and y both cover a and b: the meet of x and y is not unique
        below = {"x": {"a", "b"}, "y": {"a", "b"}}
        P = Poset(
            ["a", "b", "x", "y"], lambda u, v: u == v or u in below.get(v, ())
        )
        got = _outcome(verify_shelling_by_meets, P, ["x", "y"])
        assert got[0] is PreconditionError
        assert got[1].startswith("no unique meet for 'x' and 'y'")


def _octahedron() -> SimplicialComplex:
    return SimplicialComplex(
        [
            [x, y, z]
            for x in ("x+", "x-")
            for y in ("y+", "y-")
            for z in ("z+", "z-")
        ]
    )


# the complexes of TestClassifyLinks, for the sweep oracle below
LINK_COMPLEXES = {
    "solid triangle": SimplicialComplex.simplex([1, 2, 3]),
    "wedge": SimplicialComplex([[1, 2, 3], [3, 4, 5]]),
    "octahedron": _octahedron(),
    "path": SimplicialComplex([[1, 2], [2, 3]]),
    "solid tetrahedron": SimplicialComplex.simplex([1, 2, 3, 4]),
}


def _counting(monkeypatch, owner, name) -> list:
    """Record the positional arguments of every call of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _record_homology(monkeypatch) -> dict:
    """Record every `homology` call that `classify_links` makes, and
    every build of the incidence numbers it reads."""
    import omtop.topology as topology

    return {
        name: _counting(monkeypatch, topology, name)
        for name in ("homology", "_incidences")
    }


class TestClassifyLinks:
    """Links in the barycentric subdivision of K, read from its face
    poset: vertex v of K is the element frozenset({v})."""

    def test_solid_triangle(self):
        res = classify_links(face_poset(LINK_COMPLEXES["solid triangle"]))
        assert res.is_manifold and res.all_certified
        kinds = {v.vertex: v.kind for v in res.verdicts}
        assert all(kinds[frozenset({v})] == "ball-like" for v in (1, 2, 3))
        # the barycentre of the triangle is interior
        assert kinds[frozenset({1, 2, 3})] == "sphere-like"

    def test_wedge_vertex_is_other(self):
        res = classify_links(face_poset(LINK_COMPLEXES["wedge"]))
        kinds = {v.vertex: v.kind for v in res.verdicts}
        assert kinds[frozenset({3})] == "other"
        assert all(kinds[frozenset({v})] == "ball-like" for v in (1, 2, 4, 5))
        assert not res.is_manifold
        assert any_refuted(res)
        bad = next(v for v in res.verdicts if v.vertex == frozenset({3}))
        assert bad.homology.betti[0] == 2
        assert bad.certainty == "refuted"

    def test_octahedron_all_sphere_like(self):
        res = classify_links(face_poset(LINK_COMPLEXES["octahedron"]))
        assert res.is_manifold and res.all_certified
        assert all(v.kind == "sphere-like" for v in res.verdicts)

    def test_one_homology_per_octahedron_link(self, monkeypatch):
        # every link certifies, so its homology comes from the
        # certificate: no homology and no incidence number is computed
        P = face_poset(LINK_COMPLEXES["octahedron"])
        calls = _record_homology(monkeypatch)
        res = classify_links(P)
        assert len(P) == 26 and res.all_certified
        assert calls == {"homology": [], "_incidences": []}
        assert P._cells.neg is None

    def test_one_state_per_ball_like_link(self, monkeypatch):
        # each upper factor is collapsed once, on a window of the poset's
        # own cell table: one window collapse per cell with cells above
        # it, and no sub-poset is built for a certified link
        import omtop.topology as topology

        P = face_poset(LINK_COMPLEXES["solid triangle"])
        calls = _counting(monkeypatch, topology, "_certify_window")
        induced = _counting(monkeypatch, Poset, "_induced")
        res = classify_links(P)
        (link,) = [v for v in res.verdicts if v.vertex == frozenset({1})]
        assert (link.kind, link.certainty) == ("ball-like", "certified")
        assert res.all_certified
        assert len(calls) == len(P) - len(P.maximal_elements())
        assert all(cells is P._cells for cells, *_ in calls)
        i = P.index(frozenset({1}))
        assert sum(W == P._up[i] ^ (1 << i) for _, W, *_ in calls) == 1
        assert induced == []

    def test_path_graph(self):
        res = classify_links(face_poset(LINK_COMPLEXES["path"]))
        kinds = {v.vertex: v.kind for v in res.verdicts}
        assert {v: kinds[frozenset({v})] for v in (1, 2, 3)} == {
            1: "ball-like",
            2: "sphere-like",
            3: "ball-like",
        }
        assert res.all_certified

    def test_solid_tetrahedron(self):
        res = classify_links(face_poset(LINK_COMPLEXES["solid tetrahedron"]))
        assert res.is_manifold and res.all_certified

    def test_non_pure_rejected(self):
        with pytest.raises(PreconditionError):
            classify_links(face_poset(SimplicialComplex([[1, 2, 3], [3, 4]])))

    def test_empty_poset_rejected(self):
        with pytest.raises(PreconditionError):
            classify_links(Poset([], lambda a, b: a == b))

    @pytest.mark.parametrize("name", sorted(LINK_COMPLEXES))
    def test_matches_the_vertex_link_sweep(self, name):
        P = face_poset(LINK_COMPLEXES[name])
        assert link_facts(classify_links(P)) == link_facts(
            link_sweep(order_complex(P))
        )


def _windows(P):
    """(mask, sub-poset) of all of P and of up(x) minus x for every x."""
    out = [((1 << len(P)) - 1, P)]
    for i, x in enumerate(P.elements):
        out.append((P._up[i] ^ (1 << i), P.strictly_above(x)))
    return out


class TestCellHomology:
    """`homology` on windows of a cell table against the simplicial
    homology of each window's order complex, whole tables compared."""

    @staticmethod
    def check(P):
        for W, Q in _windows(P):
            assert homology(P, W) == simplicial_homology(order_complex(Q))

    @pytest.mark.parametrize("name", sorted(LINK_COMPLEXES))
    def test_link_complexes(self, name):
        self.check(face_poset(LINK_COMPLEXES[name]))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1, max_size=5,
    ))
    def test_generated_face_posets(self, facets):
        self.check(face_poset(SimplicialComplex(facets)))

    def test_rp2_windows(self):
        P = face_poset(SimplicialComplex(RP2_FACETS))
        assert homology(P).torsion == ((), (2,), ())
        self.check(P)

    def test_incidences_are_built_once(self):
        import omtop.topology as topology

        P = face_poset(_octahedron())
        homology(P)
        neg = P._cells.neg
        assert neg is not None and topology._incidences(P._cells) is neg


class TestDiamondCheck:
    """Every interval of length 2 must be a diamond whose two paths
    carry opposite signs; a poset that is no CW poset is refused."""

    def test_every_flipped_sign_is_caught(self):
        import omtop.topology as topology

        P = face_poset(SimplicialComplex([[1, 2, 3], [2, 3, 4]]))
        cells = topology._cell_table(P)
        neg = topology._incidences(cells)
        topology._check_diamonds(cells, neg)
        flips = 0
        for j, F in enumerate(cells.lc):
            for i in range(len(P)):
                if F >> i & 1:
                    bad = list(neg)
                    bad[j] ^= 1 << i
                    with pytest.raises(PreconditionError, match="do not cancel"):
                        topology._check_diamonds(cells, bad)
                    flips += 1
        assert flips == 5 * 2 + 2 * 3

    def test_an_edge_on_three_vertices(self):
        P = Poset(["a", "b", "c", "e"], lambda x, y: x == y or y == "e")
        with pytest.raises(PreconditionError, match="no 0-sphere"):
            homology(P)

    def test_a_square_with_a_third_edge_at_a_corner(self):
        # the 2-cell covers four edges of a square and one more edge at
        # the vertex a: the interval [a, top] holds three edges
        edges = ["ab", "bc", "cd", "da", "ae"]
        below = {e: set(e) for e in edges}
        below["top"] = set(edges) | set("abcde")

        def leq(x, y):
            return x == y or x in below.get(y, ())

        P = Poset(list("abcde") + list(edges) + ["top"], leq)
        with pytest.raises(PreconditionError, match="not a diamond"):
            homology(P)

    def test_two_squares_under_one_cell(self):
        # every interval of length 2 is a diamond, but the boundary of
        # the 2-cell is two circles
        edges = ["ab", "bc", "cd", "da", "ef", "fg", "gh", "he"]
        below = {e: set(e) for e in edges}
        below["top"] = set(edges) | set("abcdefgh")

        def leq(x, y):
            return x == y or x in below.get(y, ())

        P = Poset(list("abcdefgh") + edges + ["top"], leq)
        with pytest.raises(PreconditionError, match="not connected"):
            homology(P)

    def test_a_cover_across_two_heights(self):
        # the edge b, on a and e, and the vertex d under the cell c: the
        # interval [a, c] holds b alone
        below = {"b": {"a", "e"}, "c": {"a", "b", "d", "e"}}
        P = Poset("abcde", lambda x, y: x == y or x in below.get(y, ()))
        with pytest.raises(PreconditionError, match=r"\['a', 'c'\] is not a diamond"):
            homology(P)


class TestSuspension:
    def test_shifts_the_reduced_groups(self):
        for K in (
            SimplicialComplex.empty(),
            SimplicialComplex.simplex([1, 2]),
            SimplicialComplex.simplex_boundary([1, 2, 3]),
            SimplicialComplex(RP2_FACETS),
        ):
            for k in range(4):
                # the (k-1)-sphere; {emptyset} for k = 0
                S = SimplicialComplex(
                    itertools.combinations(range(k + 1), k)
                )
                assert homology(face_poset(K)).suspension(k) == homology(
                    face_poset(S.join(K, relabel=True))
                )


class TestSphereFallback:
    """The sweep oracle's sphere test: with no shelling, sphere homology
    plus sphere vertex links certifies a sphere only up to dimension 2."""

    def test_dimension_3_is_evidence_only(self, monkeypatch):
        monkeypatch.setattr(oracles, "find_shelling", lambda K, budget: None)
        ok, certainty, notes = oracles.certify_sphere(
            SimplicialComplex.simplex_boundary(range(5)), 3, 10**5
        )
        assert (ok, certainty) == (True, "evidence-only")
        assert notes == ["recursive vertex-link check passed"]

    def test_vertices_that_are_sets(self, monkeypatch):
        # the order complex of a face poset has frozenset vertices; each
        # is one vertex, not a face made of its elements
        monkeypatch.setattr(oracles, "find_shelling", lambda K, budget: None)
        K = order_complex(face_poset(SimplicialComplex.simplex_boundary(range(4))))
        ok, certainty, _ = oracles.certify_sphere(K, 2, 10**5)
        assert (ok, certainty) == (True, "certified")

    def test_dimension_2_is_certified(self, monkeypatch):
        monkeypatch.setattr(oracles, "find_shelling", lambda K, budget: None)
        ok, certainty, _ = oracles.certify_sphere(
            SimplicialComplex.simplex_boundary(range(4)), 2, 10**5
        )
        assert (ok, certainty) == (True, "certified")


class TestSphereTable:
    @pytest.mark.parametrize("m", range(5))
    def test_is_the_homology_of_a_simplex_boundary(self, m):
        K = SimplicialComplex.simplex_boundary(range(m + 2))
        assert HomologyTable.sphere(m) == homology(face_poset(K))
        assert HomologyTable.sphere(m).is_sphere(m)

    def test_minus_one_is_the_empty_complex(self):
        assert HomologyTable.sphere(-1) == homology(Poset([], lambda a, b: True))


class TestLinkInduction:
    """A cell is certified only when every cell above it is: a cell
    whose upper factor is not a manifold leaves every cell below it
    uncertified, whatever their own collapses say."""

    def test_three_triangles_on_one_edge(self):
        # the link of the edge {1, 2} is three points: refuted.  The
        # upper factors of {1} and {2} are three arcs at {1, 2} and
        # collapse, but the cell above them is not a manifold.  The
        # sweep refuted {1} and {2} by their boundary (three points,
        # not a 0-sphere); with no boundary pass, they are the only
        # cells whose facts change
        P = face_poset(SimplicialComplex([[1, 2, 3], [1, 2, 4], [1, 2, 5]]))
        res = classify_links(P)
        assert any_refuted(res) and not res.all_certified
        old = {f[0]: f for f in link_facts(link_sweep(order_complex(P)))}
        new = {f[0]: f for f in link_facts(res)}
        assert new[frozenset({1, 2})][1:3] == ("other", "refuted")
        changed = {x for x in new if new[x] != old[x]}
        assert changed == {frozenset({1}), frozenset({2})}
        for x in changed:
            assert old[x][1:3] == ("other", "refuted")
            assert new[x][1:3] == ("ball-like", "evidence-only")
            assert new[x][3] == old[x][3]

    def test_cone_over_two_disjoint_edges(self):
        K = SimplicialComplex([["a", 1, 2], ["a", 3, 4]])
        res = classify_links(face_poset(K))
        got = {v.vertex: (v.kind, v.certainty) for v in res.verdicts}
        assert got[frozenset({"a"})] == ("other", "refuted")
        assert any_refuted(res) and not res.all_certified
        assert link_facts(res) == link_facts(
            link_sweep(order_complex(face_poset(K)))
        )

    def test_below_a_cone_over_two_disjoint_edges(self):
        # one more cone point b: the link of b is the cone over two
        # disjoint edges, which collapses, but the edge {a, b} above b
        # has two disjoint edges as its link
        K = SimplicialComplex([["b", "a", 1, 2], ["b", "a", 3, 4]])
        res = classify_links(face_poset(K))
        got = {v.vertex: (v.kind, v.certainty) for v in res.verdicts}
        assert got[frozenset({"a", "b"})] == ("other", "refuted")
        for v in ("a", "b"):
            assert got[frozenset({v})] == ("ball-like", "evidence-only")
        assert not any(
            c == "certified" for x, (_, c) in got.items() if x < {"a", "b"}
        )
        assert any_refuted(res)

    @pytest.mark.parametrize("n", [5, 6])
    def test_simplex_boundaries_certify_without_homology(self, n, monkeypatch):
        # the boundary of the (n-1)-simplex; for n = 6 the upper factor
        # of a vertex is the boundary of the 4-simplex, a 3-sphere
        P = face_poset(SimplicialComplex.simplex_boundary(range(n)))
        calls = _record_homology(monkeypatch)
        res = classify_links(P)
        assert calls == {"homology": [], "_incidences": []}
        assert res.all_certified
        assert all(v.kind == "sphere-like" for v in res.verdicts)
        assert all(v.homology == HomologyTable.sphere(n - 3) for v in res.verdicts)
        (x,) = [x for x in minimal_elements(P) if 0 in x]
        i = P.index(x)
        assert homology(P, P._up[i] ^ (1 << i)).is_sphere(n - 3)
        U = order_complex(P.strictly_above(x))
        assert simplicial_homology(U).is_sphere(n - 3)

    def test_no_collapse_found_computes_window_homology(self, monkeypatch):
        # with no collapse step allowed, only the refutation path is
        # left: the exact invariants of each upper factor decide, on
        # windows of the cells, each reading the incidence numbers
        # built on the first
        P = face_poset(LINK_COMPLEXES["wedge"])
        calls = _record_homology(monkeypatch)
        res = classify_links(P, budget=0)
        assert calls["homology"] and len(calls["_incidences"]) == len(
            calls["homology"]
        )
        assert P._cells.neg is not None
        sweep = link_sweep(order_complex(P))
        for new, old in zip(res.verdicts, sweep.verdicts):
            assert (new.vertex, new.kind, new.homology) == (
                old.vertex, old.kind, old.homology
            )
            # a collapse of one cell takes no step
            one_cell = len(P.strictly_above(new.vertex)) <= 1
            assert (new.certainty == "certified") == one_cell
            if old.certainty == "refuted":
                assert new.certainty == "refuted"

    def test_corrupted_certificate_without_a_cell_fails_its_replay(self):
        # the certificate that makes a closed factor a sphere is a
        # collapse of the factor minus one maximal cell
        Q = face_poset(SimplicialComplex.simplex_boundary(range(4)))
        top = Q.maximal_elements()[0]
        rest = subposet(Q, (y for y in Q if y != top))
        cert = find_collapse(rest).certificate
        assert verify_collapse(rest, cert)
        with pytest.raises(DomainError):
            verify_collapse(Q, cert)
        steps = cert.steps[1:] + cert.steps[:1]
        with pytest.raises(DomainError):
            verify_collapse(rest, CollapseCertificate(steps, cert.terminal))


_BUDGETS = st.sampled_from([0, 1, 3, 1000])


def _as_faces(result):
    """A collapse result of the state oracle on a simplicial complex,
    with its cells named as the face poset names them: each simplex as
    the frozenset of its vertices, the terminal vertex v as {v}."""
    if not isinstance(result, CollapseResult) or result.certificate is None:
        return result
    cert = result.certificate
    return CollapseResult(
        result.status,
        CollapseCertificate(
            tuple((frozenset(s), frozenset(t)) for s, t in cert.steps),
            frozenset({cert.terminal}),
        ),
        result.nodes,
        result.search_complete,
    )


class TestCollapseAgainstState:
    """The collapse search on masks of a cell table against the search
    on a dict-and-set state that it replaced
    (`oracles.find_collapse_by_state`): whole results, certificates and
    node counts included, or the same exception with the same text.  On
    a simplicial complex K the state searched K itself: the face poset
    of K, listed by size and then by vertex indices, takes its steps."""

    @staticmethod
    def check(K, budget):
        P = face_poset(K)
        got = _outcome(find_collapse, P, budget)
        assert got == _outcome(oracles.find_collapse_by_state, P, budget)
        assert got == _as_faces(_outcome(oracles.find_collapse_by_state, K, budget))

    @pytest.mark.parametrize("budget", [0, 1, 10**6])
    @pytest.mark.parametrize("name", sorted(LINK_COMPLEXES))
    def test_link_complexes(self, name, budget):
        K = LINK_COMPLEXES[name]
        for X in (K, order_complex(face_poset(K))):
            self.check(X, budget)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(posets(), _BUDGETS)
    def test_random_posets(self, P, budget):
        got = _outcome(find_collapse, P, budget)
        assert got == _outcome(oracles.find_collapse_by_state, P, budget)
        if isinstance(got, CollapseResult) and got.collapsed:
            assert verify_collapse(P, got.certificate)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=7), _BUDGETS)
    def test_random_complexes(self, facets, budget):
        self.check(SimplicialComplex(facets), budget)

    def test_corrupted_certificates_fail_with_the_same_text(self):
        P = face_poset(SimplicialComplex([[1, 2, 3], [2, 3, 4]]))
        for X in (P,):
            cert = find_collapse(X).certificate
            steps = list(cert.steps)
            bad = [
                steps[1:] + steps[:1],
                [(t, s) for s, t in steps[:1]] + steps[1:],
                steps + steps[:1],
                steps[:-1],
                [(steps[0][0], "nope")] + steps[1:],
            ]
            for b in bad:
                c = CollapseCertificate(tuple(b), cert.terminal)
                got = _outcome(verify_collapse, X, c)
                assert got == _outcome(oracles.verify_collapse_by_state, X, c)
                assert got[0] is DomainError
            other = CollapseCertificate(cert.steps, "elsewhere")
            assert _outcome(verify_collapse, X, other) == _outcome(
                oracles.verify_collapse_by_state, X, other
            )


class TestLinksAgainstSubposets:
    """`classify_links` on windows of P's own cell table against the
    classification that re-indexes every upper factor as a sub-poset
    and collapses it on a fresh state
    (`oracles.classify_links_by_subposets`): equal `to_json()`, or the
    same exception with the same text."""

    @staticmethod
    def both(P, budget):
        def new():
            return classify_links(P, budget).to_json()

        def old():
            return oracles.classify_links_by_subposets(P, budget).to_json()

        return _outcome(new), _outcome(old)

    @pytest.mark.parametrize("budget", [0, 1, 10**6])
    @pytest.mark.parametrize("name", sorted(LINK_COMPLEXES))
    def test_link_complexes(self, name, budget):
        got, want = self.both(face_poset(LINK_COMPLEXES[name]), budget)
        assert got == want

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(graded_posets(), _BUDGETS)
    def test_random_face_posets(self, case, budget):
        # a drawn poset need not be a CW poset, which `classify_links`
        # presumes; where no collapse is found, the incidence numbers of
        # `homology` refuse such a poset, while the oracle's homology of
        # the order complex reads it anyway
        P, _ = case
        got, want = self.both(P, budget)
        if got != want:
            assert got[0] is PreconditionError
            assert oracles.cw_defect(P) is not None

    def test_every_certified_link_carries_its_certificate(self):
        for K in LINK_COMPLEXES.values():
            P = face_poset(K)
            for v in classify_links(P).verdicts:
                assert (v.certificate is None) == (
                    v.certainty != "certified"
                    and not v.notes[-1].startswith("the cell ")
                )
                if v.certificate is not None:
                    assert oracles.link_certificate_replays(
                        P, v.vertex, v.certificate
                    )


class TestLinkCertificateReplay:
    """A link is `certified` only when its certificate replays on the
    window: a swapped pair, a step out of order or a wrong removed top
    leaves the link `evidence-only`, with the failed replay named, and
    every cell below it `evidence-only` too."""

    @staticmethod
    def check(monkeypatch, P, how):
        import omtop.topology as topology

        honest = classify_links(P)
        assert honest.all_certified
        real = topology._certify_window
        changed = set()

        def corrupted(cells, W, closed, budget):
            cert = real(cells, W, closed, budget)
            bad = how(cells, W, cert) if cert is not None and cert.steps else None
            if bad is None:
                return cert
            changed.add(W)
            return bad

        monkeypatch.setattr(topology, "_certify_window", corrupted)
        got = classify_links(P)
        assert changed and not got.all_certified and not any_refuted(got)
        for old, new in zip(honest.verdicts, got.verdicts):
            assert (new.kind, new.homology) == (old.kind, old.homology)
            i = P.index(new.vertex)
            if P._up[i] ^ (1 << i) in changed:
                assert new.certainty == "evidence-only"
                assert new.certificate is None
                assert new.notes[0].startswith(
                    "link certificate failed to replay: "
                )
            elif new.certainty != "certified":
                assert new.notes[-1].startswith("the cell ")
                assert new.certificate == old.certificate

    def test_swapped_pair(self, monkeypatch):
        def swap(cells, W, cert):
            (s, t), *rest = cert.steps
            return LinkCertificate(cert.top, ((t, s), *rest), cert.terminal)

        P = face_poset(LINK_COMPLEXES["solid tetrahedron"])
        self.check(monkeypatch, P, swap)

    def test_step_out_of_order(self, monkeypatch):
        # the last step moves before the step that removes a cell above
        # its tau: tau is not maximal yet
        def early(cells, W, cert):
            *steps, (s, t) = cert.steps
            for k, (a, b) in enumerate(steps):
                if cells.uc[t] & ((1 << a) | (1 << b)):
                    steps.insert(k, (s, t))
                    return LinkCertificate(cert.top, tuple(steps), cert.terminal)
            return None

        P = face_poset(SimplicialComplex.simplex_boundary(range(5)))
        self.check(monkeypatch, P, early)

    def test_wrong_removed_top(self, monkeypatch):
        def other_top(cells, W, cert):
            maximal = W & cells.levels[-1] & ~(1 << cert.top)
            top = (maximal & -maximal).bit_length() - 1
            return LinkCertificate(top, cert.steps, cert.terminal)

        P = face_poset(LINK_COMPLEXES["octahedron"])
        self.check(monkeypatch, P, other_top)

    def test_a_top_that_is_not_maximal(self):
        import omtop.topology as topology

        P = face_poset(LINK_COMPLEXES["octahedron"])
        cells = topology._cell_table(P)
        i = P.index(frozenset({"x+"}))
        W = P._up[i] ^ (1 << i)
        cert = topology._certify_window(cells, W, True, 10**6)
        assert topology._replay_link(cells, W, True, cert) is None
        edge = (W & cells.levels[1] & -(W & cells.levels[1])).bit_length() - 1
        bad = LinkCertificate(edge, cert.steps, cert.terminal)
        assert topology._replay_link(cells, W, True, bad) == (
            f"cell {edge} is not a maximal cell of the factor"
        )
        assert topology._replay_link(cells, W, False, cert) is not None
