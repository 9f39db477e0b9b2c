"""Unit suite for the poset/complex topology engine.

Expected homology tables for standard spaces (spheres, balls, RP2, the
torus) are classical; everything else is cross-checked against the
rational-rank oracle in oracles.py or against hand-countable complexes.
"""

import random

import pytest

from omtop.errors import DomainError, MembershipError, PreconditionError
from omtop.topology import (
    CollapseCertificate,
    Poset,
    SimplicialComplex,
    classify_links,
    face_poset,
    find_collapse,
    find_shelling,
    format_complex,
    homology,
    order_complex,
    parse_complex,
    smith_normal_form,
    verify_collapse,
    verify_shelling,
)

from oracles import rational_betti


def divides_chain(P, elts):
    return Poset(elts, lambda a, b: b % a == 0)


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

TORUS_FACETS = [
    tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
] + [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]


class TestPoset:
    def test_basic_relations(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert P.less_equal(2, 6) and not P.less_equal(2, 3)
        assert P.minimal_elements() == [1]
        assert P.maximal_elements() == [6]
        assert set(P.upper_covers(1)) == {2, 3}
        assert set(P.lower_covers(6)) == {2, 3}
        assert P.height(6) == 2 and P.height() == 2

    def test_duplicate_elements(self):
        with pytest.raises(DomainError):
            Poset([1, 1], lambda a, b: a <= b)

    def test_not_antisymmetric(self):
        with pytest.raises(DomainError):
            Poset([1, 2], lambda a, b: True)

    def test_not_reflexive(self):
        with pytest.raises(DomainError):
            Poset([1, 2], lambda a, b: a < b)

    def test_purity(self):
        assert divides_chain(None, [1, 2, 3, 6]).is_pure()
        # 1 < 2 < 4 and 1 < 5: maximal chains of lengths 2 and 1
        P = Poset([1, 2, 4, 5], lambda a, b: b % a == 0)
        assert not P.is_pure()

    def test_subposet_and_intervals(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        assert P.strictly_below(6).elements == (1, 2, 3)
        assert P.strictly_above(2).elements == (6, 12)
        assert P.open_interval(1, 12).elements == (2, 3, 6)

    def test_maximal_chains(self):
        P = divides_chain(None, [1, 2, 3, 6])
        chains = set(P.maximal_chains())
        assert chains == {(1, 2, 6), (1, 3, 6)}

    def test_maximal_chains_disconnected(self):
        P = Poset(["a", "b"], lambda a, b: a == b)
        assert set(P.maximal_chains()) == {("a",), ("b",)}

    def test_linear_extension_respects_order(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        ext = P.linear_extension(key=lambda x: x)
        pos = {x: i for i, x in enumerate(ext)}
        for x in P.elements:
            for y in P.elements:
                if P.less(x, y):
                    assert pos[x] < pos[y]

    def test_random_linear_extension_seeded(self):
        P = divides_chain(None, [1, 2, 3, 6, 12])
        a = P.random_linear_extension(random.Random(7))
        b = P.random_linear_extension(random.Random(7))
        assert a == b
        pos = {x: i for i, x in enumerate(a)}
        for x in P.elements:
            for y in P.elements:
                if P.less(x, y):
                    assert pos[x] < pos[y]

    def test_meet_or_bottom(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert P.meet_or_bottom(2, 3) == 1
        assert P.meet_or_bottom(2, 6) == 2
        Q = Poset(["a", "b"], lambda a, b: a == b)
        assert Q.meet_or_bottom("a", "b") is None

    def test_meet_not_unique(self):
        # two maximal lower bounds a, b under both tops
        elts = ["a", "b", "x", "y"]
        rel = {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
        P = Poset(elts, lambda u, v: u == v or (u, v) in rel)
        with pytest.raises(PreconditionError):
            P.meet_or_bottom("x", "y")

    def test_is_lower_cover_with_bottom(self):
        P = divides_chain(None, [1, 2, 3, 6])
        assert P.is_lower_cover(None, 1)
        assert not P.is_lower_cover(None, 6)
        assert P.is_lower_cover(2, 6)
        assert not P.is_lower_cover(1, 6)


class TestSimplicialComplex:
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

    def test_join_with_empty_complex(self):
        K = SimplicialComplex([[1, 2], [2, 3]])
        assert SimplicialComplex.empty().join(K) == K
        assert K.join(SimplicialComplex.empty()) == K

    def test_join_two_zero_spheres_is_4_cycle(self):
        s0a = SimplicialComplex([["a"], ["b"]])
        s0b = SimplicialComplex([["c"], ["d"]])
        J = s0a.join(s0b)
        assert J.f_vector() == (4, 4)
        assert homology(J).is_sphere(1)

    def test_join_zero_sphere_with_point(self):
        s0 = SimplicialComplex([["a"], ["b"]])
        pt = SimplicialComplex([["c"]])
        J = s0.join(pt)
        assert J.f_vector() == (3, 2)
        assert homology(J).is_ball()

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
        assert solid.boundary() == SimplicialComplex.simplex_boundary([1, 2, 3])

    def test_boundary_of_closed_complex_is_void(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        assert ring.boundary().is_void

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

    def test_text_roundtrip(self):
        K = SimplicialComplex([["a", "b"], ["b", "c"], ["d"]])
        assert parse_complex(format_complex(K)) == K

    def test_parse_comments_and_blanks(self):
        K = parse_complex("# a complex\n a b \n\nb c  # trailing\n")
        assert K == SimplicialComplex([["a", "b"], ["b", "c"]])


class TestOrderComplex:
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
        assert homology(K).is_sphere(1)

    def test_barycentric_subdivision_of_solid_triangle(self):
        solid = SimplicialComplex.simplex([1, 2, 3])
        sd = order_complex(face_poset(solid))
        assert sd.f_vector() == (7, 12, 6)
        assert homology(sd).betti == homology(solid).betti
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
    def test_spheres_and_balls_dims_up_to_4(self):
        for d in range(0, 5):
            verts = list(range(d + 2))
            sphere = SimplicialComplex.simplex_boundary(verts)
            ball = SimplicialComplex.simplex(verts)
            hs = homology(sphere)
            hb = homology(ball)
            assert hs.is_sphere(d), (d, hs)
            assert hb.is_ball(), (d, hb)
            assert hs.betti == tuple(
                (1 if k in (0, d) else 0) + (1 if d == 0 and k == 0 else 0)
                for k in range(d + 1)
            )
            assert hs.betti == rational_betti(sphere)
            assert hb.betti == rational_betti(ball)

    def test_triangle_tables(self):
        assert homology(SimplicialComplex.simplex_boundary([1, 2, 3])).betti == (1, 1)
        # table runs over dimensions 0..dim, so the solid triangle gets
        # one (vanishing) entry per dimension
        assert homology(SimplicialComplex.simplex([1, 2, 3])).betti == (1, 0, 0)

    def test_empty_and_void(self):
        h = homology(SimplicialComplex.empty())
        assert h.minus_one == 1 and h.betti == ()
        assert h.is_sphere(-1)
        hv = homology(SimplicialComplex.void())
        assert hv.betti == () and hv.minus_one == 0

    def test_disjoint_union_and_wedge(self):
        two = homology(SimplicialComplex([[1, 2], [3, 4]]))
        assert two.betti == (2, 0)
        wedge = homology(SimplicialComplex([[1, 2, 3], [3, 4, 5]]))
        assert wedge.betti == (1, 0, 0)
        circles = homology(
            SimplicialComplex([[1, 2], [2, 3], [1, 3], [3, 4], [4, 5], [3, 5]])
        )
        assert circles.betti == (1, 2)

    def test_rp2_torsion(self):
        h = homology(SimplicialComplex(RP2_FACETS))
        assert h.betti == (1, 0, 0)
        assert h.torsion == ((), (2,), ())
        assert h.betti == rational_betti(SimplicialComplex(RP2_FACETS))

    def test_torus(self):
        T = SimplicialComplex(TORUS_FACETS)
        assert T.is_closed_pseudomanifold()
        h = homology(T)
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
            h = homology(K)
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
            assert homology(K).betti == rational_betti(K)


class TestCollapse:
    def test_single_simplex(self):
        for d in range(0, 4):
            K = SimplicialComplex.simplex(list(range(d + 1)))
            res = find_collapse(K)
            assert res.collapsed
            assert verify_collapse(K, res.certificate)

    def test_wedge_of_two_triangles(self):
        K = SimplicialComplex([[1, 2, 3], [3, 4, 5]])
        res = find_collapse(K)
        assert res.collapsed
        assert verify_collapse(K, res.certificate)
        assert res.certificate.terminal in {1, 2, 3, 4, 5}

    def test_hexagon_exhausts_without_free_faces(self):
        hexagon = SimplicialComplex([[i, (i % 6) + 1] for i in range(1, 7)])
        res = find_collapse(hexagon)
        assert res.status == "exhausted"
        assert res.search_complete
        assert res.nodes == 0

    def test_sphere_exhausts(self):
        res = find_collapse(SimplicialComplex.simplex_boundary([1, 2, 3, 4]))
        assert res.status == "exhausted" and res.search_complete

    def test_budget_exhaustion_reported(self):
        # a collapsible complex, but the budget stops the search at once
        K = SimplicialComplex([[1, 2, 3], [3, 4, 5]])
        res = find_collapse(K, budget=1)
        assert res.status == "exhausted" and not res.search_complete

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            find_collapse(SimplicialComplex([[1, 2], [3, 4]]))

    def test_void_and_empty_rejected(self):
        with pytest.raises(PreconditionError):
            find_collapse(SimplicialComplex.void())
        with pytest.raises(PreconditionError):
            find_collapse(SimplicialComplex.empty())

    def test_deterministic(self):
        K = SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        a = find_collapse(K)
        b = find_collapse(K)
        assert a.certificate.steps == b.certificate.steps

    def test_replay_catches_corruption(self):
        K = SimplicialComplex([[1, 2, 3]])
        res = find_collapse(K)
        steps = list(res.certificate.steps)
        steps[0], steps[-1] = steps[-1], steps[0]
        bad = CollapseCertificate(tuple(steps), res.certificate.terminal)
        if len(steps) > 1:
            with pytest.raises(DomainError):
                verify_collapse(K, bad)

    def test_replay_catches_wrong_terminal(self):
        K = SimplicialComplex([[1, 2]])
        res = find_collapse(K)
        bad = CollapseCertificate(
            res.certificate.steps,
            1 if res.certificate.terminal != 1 else 2,
        )
        with pytest.raises(DomainError):
            verify_collapse(K, bad)

    def test_bigger_collapsible_complex(self):
        # cone over a hexagon: collapses greedily
        hexagon = [[i, (i % 6) + 1] for i in range(1, 7)]
        cone = SimplicialComplex([f + [9] for f in hexagon])
        res = find_collapse(cone)
        assert res.collapsed
        assert verify_collapse(cone, res.certificate)


class TestShelling:
    def test_triangle_boundary_cyclic_order(self):
        ring = SimplicialComplex.simplex_boundary([1, 2, 3])
        P = face_poset(ring)
        order = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
        rep = verify_shelling(P, order)
        assert rep.ok and rep.mode == "simplicial"

    def test_two_disjoint_edges_fail(self):
        K = SimplicialComplex([[1, 2], [3, 4]])
        P = face_poset(K)
        rep = verify_shelling(P, list(K.facets))
        assert not rep.ok
        assert rep.failures == ((0, 1),)

    def test_zero_sphere_any_order(self):
        K = SimplicialComplex([[1], [2]])
        rep = verify_shelling(face_poset(K), list(K.facets))
        assert rep.ok

    def test_bad_facet_order_on_strip(self):
        # three triangles in a row: [123][234][345]; putting the two ends
        # first breaks the condition at j=1
        K = SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        P = face_poset(K)
        good = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]
        bad = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({2, 3, 4})]
        assert verify_shelling(P, good).ok
        assert not verify_shelling(P, bad).ok

    def test_non_pure_rejected(self):
        K = SimplicialComplex([[1, 2, 3], [3, 4]])
        with pytest.raises(PreconditionError):
            verify_shelling(face_poset(K), list(K.facets))

    def test_order_must_be_permutation(self):
        K = SimplicialComplex([[1, 2], [2, 3]])
        P = face_poset(K)
        with pytest.raises(DomainError):
            verify_shelling(P, [frozenset({1, 2})])

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
        rep = verify_shelling(P, [(2, cells[0])])
        assert rep.ok and rep.mode == "necessary-condition"

    def test_shelling_implies_sphere_or_ball_homology(self):
        for K in [
            SimplicialComplex.simplex_boundary([1, 2, 3, 4]),
            SimplicialComplex([[1, 2, 3], [2, 3, 4], [3, 4, 5]]),
            SimplicialComplex([[i, (i % 6) + 1] for i in range(1, 7)]),
        ]:
            order = find_shelling(K)
            assert order is not None
            rep = verify_shelling(face_poset(K), order)
            assert rep.ok
            h = homology(K)
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
        assert verify_shelling(face_poset(octa), order).ok


class TestClassifyLinks:
    def test_solid_triangle(self):
        res = classify_links(SimplicialComplex.simplex([1, 2, 3]))
        assert res.is_manifold and res.all_certified
        assert all(v.kind == "ball-like" for v in res.verdicts)

    def test_wedge_vertex_is_other(self):
        res = classify_links(SimplicialComplex([[1, 2, 3], [3, 4, 5]]))
        kinds = {v.vertex: v.kind for v in res.verdicts}
        assert kinds[3] == "other"
        assert all(kinds[v] == "ball-like" for v in (1, 2, 4, 5))
        assert not res.is_manifold
        assert res.any_refuted
        bad = next(v for v in res.verdicts if v.vertex == 3)
        assert bad.homology.betti[0] == 2
        assert bad.certainty == "refuted"

    def test_octahedron_all_sphere_like(self):
        octa = SimplicialComplex(
            [
                [x, y, z]
                for x in ("x+", "x-")
                for y in ("y+", "y-")
                for z in ("z+", "z-")
            ]
        )
        res = classify_links(octa)
        assert res.is_manifold and res.all_certified
        assert all(v.kind == "sphere-like" for v in res.verdicts)

    def test_one_homology_per_octahedron_link(self, monkeypatch):
        import omtop.topology as topology

        octa = SimplicialComplex(
            [
                [x, y, z]
                for x in ("x+", "x-")
                for y in ("y+", "y-")
                for z in ("z+", "z-")
            ]
        )
        calls = []
        real = topology.homology

        def counting(K):
            calls.append(K)
            return real(K)

        monkeypatch.setattr(topology, "homology", counting)
        classify_links(octa)
        assert len(calls) == 6

    def test_path_graph(self):
        res = classify_links(SimplicialComplex([[1, 2], [2, 3]]))
        kinds = {v.vertex: v.kind for v in res.verdicts}
        assert kinds == {1: "ball-like", 2: "sphere-like", 3: "ball-like"}
        assert res.all_certified

    def test_solid_tetrahedron(self):
        res = classify_links(SimplicialComplex.simplex([1, 2, 3, 4]))
        assert res.is_manifold and res.all_certified

    def test_non_pure_rejected(self):
        with pytest.raises(PreconditionError):
            classify_links(SimplicialComplex([[1, 2, 3], [3, 4]]))
