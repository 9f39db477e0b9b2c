"""Bounded complexes and the star-level machinery: L+, L++, the cube
above a covector, C_X / D_X, the restriction/lifting bijection, the
inherited shellings, and link decompositions.

Face counts are cross-checked against the geometric boundedness oracle
(recession cones) in test_realization and the acceptance suite; here
they are pinned as frozen values.  The four-line instance doubles as
the negative control: the star lemmas are uniform-only statements and
must fail on it with witnesses, not crash.
"""

import gc

import pytest

from conftest import corrupt_cell, mk_arrangement
from oracles import (
    bijection_scans,
    check_bijection_by_scan,
    contraction,
    cube_isomorphism_by_scan,
    cube_scans,
    SimplicialComplex,
    face_poset,
    find_shelling,
    induced_shelling_by_scan,
    meet_or_bottom,
    minimal_elements,
    restriction_ok_by_scan,
    positive_part,
    restriction_scans,
    shelling_of_DX_by_scan,
    star_topes_by_scan,
    subposet,
    tope_poset,
    verify_shelling_by_meets,
)
from omtop.bounded import (
    AffineOM,
    BijectionReport,
    InducedShelling,
    Star,
    _dx_order,
    _indexed_shelling,
    _lift_indices,
    bounded_complex,
    check_bijection,
    boundary_equivalence,
    cube_isomorphism,
    induced_shelling_of_CX,
    link_decomposition,
    restrict_to_support,
    shelling_of_DX,
)
from omtop.errors import (
    MembershipError,
    OmtopError,
    PreconditionError,
)
from omtop.generate import generate_arrangement
from omtop.matroid import CovectorSet
from omtop.realization import enumerate_covectors, homogenize
from omtop.signvec import GroundSet, Sign, SignVector, _bits

S = SignVector.from_string


def lift_indices(M: AffineOM, X: SignVector, dx: list[int]) -> InducedShelling:
    """The report of the lift of dx, tope indices of L/g at X's star, as
    `induced_shelling_of_CX` lifts the order of each base."""
    cell = M._cell(X)
    return _indexed_shelling(cell, M, dx, *_lift_indices(cell, M, dx))


def every_base(M: AffineOM, X: SignVector):
    """(order, report) for the [D_X] order of every base tope of X's
    star, in sign-string order: order the order's topes and report the
    lift of the order (`lift_indices`)."""
    cell = M._cell(X)
    table = M._tope_table()
    for b in _bits(cell.dx):
        dx = _dx_order(cell, table, b)
        yield [table.topes[j] for j in dx], lift_indices(M, X, dx)


def om_of(dim, rows) -> AffineOM:
    return AffineOM(enumerate_covectors(homogenize(mk_arrangement(dim, rows))))


@pytest.fixture(scope="module")
def line(line_om):
    return AffineOM(line_om)


@pytest.fixture(scope="module")
def tri(tri_om):
    return AffineOM(tri_om)


@pytest.fixture(scope="module")
def four(four_om):
    return AffineOM(four_om)


@pytest.fixture(scope="module")
def three():
    # bounded part is a segment inside the line x = 0: E1 excludes a
    return om_of(2, [("a", (1, 0), 0), ("b", (0, 1), 0), ("c", (0, 1), 1)])


@pytest.fixture(scope="module")
def three_e1(three):
    """three restricted to E1 = (b, c, g), where its stars live."""
    return restrict_to_support(three).restricted


@pytest.fixture(scope="module")
def five():
    # two extra lines crossing at (1/4, 1/4), strictly inside the
    # triangle: that vertex has an all-bounded star
    return om_of(
        2,
        [
            ("a", (1, 0), 0),
            ("b", (0, 1), 0),
            ("c", (1, 1), 1),
            ("d", (-1, 1), 0),
            ("e", (1, 1), "1/2"),
        ],
    )


@pytest.fixture(scope="module")
def single():
    return om_of(1, [("a", (1,), 0)])


class TestAffineOM:
    def test_needs_g(self):
        L = CovectorSet(GroundSet(["a", "b"]), [S("00")])
        with pytest.raises(PreconditionError):
            AffineOM(L)

    def test_trivial_ground_set_rejected(self):
        L = CovectorSet(
            GroundSet(["g"], g="g"), [S("0"), S("+"), S("-")]
        )
        with pytest.raises(PreconditionError):
            AffineOM(L)

    def test_loop_g_rejected(self):
        L = CovectorSet(
            GroundSet(["a", "g"], g="g"), [S("00"), S("+0"), S("-0")]
        )
        with pytest.raises(PreconditionError):
            AffineOM(L)


class TestPositivePart:
    def test_line(self, line):
        assert len(positive_part(line)) == 5

    def test_triangle(self, tri):
        assert len(positive_part(tri)) == 19

    def test_four_line(self, four):
        assert len(positive_part(four)) == 29

    def test_all_positive_at_g(self, tri):
        gi = tri.g_index
        assert all(x.sign(gi) is Sign.PLUS for x in positive_part(tri))


class TestBoundedComplex:
    def test_line(self, line):
        bc = bounded_complex(line)
        assert bc.f_vector == (2, 1)
        assert bc.dim == 1
        assert bc.pure
        assert set(bc.covectors) == {S("0-+"), S("+0+"), S("+-+")}
        assert bc.support_labels() == ("h1", "h2", "g")
        assert bc.euler == 1

    def test_triangle(self, tri):
        bc = bounded_complex(tri)
        assert bc.f_vector == (3, 3, 1)
        assert bc.dim == 2 and bc.pure
        assert S("++-+") in bc
        assert bc.maximal() == (S("++-+"),)

    def test_four_line(self, four):
        bc = bounded_complex(four)
        assert bc.f_vector == (5, 6, 2)
        assert bc.euler == 1
        assert bc.pure and bc.dim == 2
        cells = bc.maximal()
        assert len(cells) == 2
        # the two triangles share exactly the origin vertex
        shared = [
            y
            for y in bc
            if all(y.below(c) for c in cells) and y not in cells
        ]
        assert shared == [S("00-++")]

    def test_order_ideal_sandwich(self, tri):
        bc = bounded_complex(tri)
        L = tri.om
        plus = set(positive_part(tri))
        assert set(bc.covectors) <= plus
        assert all(not x.is_zero for x in plus)
        # order ideal: any nonzero covector below a bounded one is bounded
        for x in bc:
            for y in L:
                if not y.is_zero and y.below(x):
                    assert y in bc

    def test_face_dim(self, line):
        bc = bounded_complex(line)
        assert bc.face_dim(S("0-+")) == 0
        assert bc.face_dim(S("+-+")) == 1
        with pytest.raises(MembershipError):
            bc.face_dim(S("--+"))

    def test_empty_bounded_complex_refutes_input(self):
        # not an oriented matroid: the composition axiom would demand
        # the missing elimination targets; L++ computes empty
        L = CovectorSet(
            GroundSet(["a", "g"], g="g"),
            [S("00"), S("+0"), S("-0"), S("++"), S("--")],
        )
        M = AffineOM(L)
        with pytest.raises(OmtopError):
            bounded_complex(M)

    def test_matches_boundedness_oracle(self, tri, tri_arr):
        # the covector-side complex vs the recession-cone oracle,
        # face by face
        from omtop.realization import face_bounded

        bc = bounded_complex(tri)
        gi = tri.g_index
        for x in positive_part(tri):
            affine = x.delete([gi])
            assert face_bounded(tri_arr, affine) == (x in bc)


class TestSupportRestriction:
    def test_full_support_is_identity(self, line):
        res = restrict_to_support(line)
        assert res.dropped == ()
        assert res.restricted is line

    def test_three_line_restriction(self, three):
        bc = bounded_complex(three)
        assert bc.f_vector == (2, 1)
        assert bc.support_labels() == ("b", "c", "g")
        res = restrict_to_support(three)
        assert res.ok
        assert res.dropped == ("a",)
        bc2 = bounded_complex(res.restricted)
        assert bc2.f_vector == (2, 1)
        assert dict(res.pairs)[S("0+-+")] == S("+-+")

    def test_star_on_the_restricted_set(self, three_e1):
        X = S("0-+")
        star = Star(three_e1, X)
        assert star.om is three_e1 and star.X == X
        assert [str(t) for t in star.C_X] == ["--+"]
        assert [str(t) for t in star.D_X] == ["--"]
        assert check_bijection(three_e1, X).ok
        assert induced_shelling_of_CX(three_e1, X).ok

    def test_stars_need_a_spanning_L(self, three):
        # L++ of three misses a: every star request is refused and names
        # the restricted set, while the link case and the cube, which
        # need no star, are still read in three itself
        X = S("00-+")
        named = r"restrict_to_support\(M\)\.restricted"
        for ask in (Star, AffineOM.star, check_bijection,
                    induced_shelling_of_CX, shelling_of_DX):
            with pytest.raises(PreconditionError, match=named):
                ask(three, X)
        ld = link_decomposition(three, X)
        assert (ld.case, ld.lower.elements, ld.upper.elements) == (
            "proper", (), (S("0+-+"),)
        )
        cube = cube_isomorphism(three.om, X)
        assert (cube.ok, cube.expected_size, cube.actual_size) == (True, 9, 9)
        assert cube.zero_set == (0, 1)
        assert [(str(a), str(b)) for a, b in cube.pairs] == [
            ("++-+", "++"), ("+--+", "+-"), ("+0-+", "+0"),
            ("-+-+", "-+"), ("---+", "--"), ("-0-+", "-0"),
            ("0+-+", "0+"), ("0--+", "0-"), ("00-+", "00"),
        ]
        cases = [
            link_decomposition(three, x).case for x in bounded_complex(three)
        ]
        assert cases == ["upper_empty", "proper", "proper"]

    def test_bijection_reads_the_restricted_star(self, three_e1, monkeypatch):
        # -- lifts to --+, a covector of the restricted set on (b, c, g)
        # but of no set on the original ground set; with --+ dropped
        # from the record's C_X, -- has no preimage, and h(--) is still
        # a covector
        X = S("0-+")
        star = three_e1.star(X)
        assert three_e1.om.order().index(S("--+")) is not None
        corrupt_cell(three_e1, X, cx=0, put=monkeypatch.setattr)
        assert star.C_X == () and star.D_X == (S("--"),)
        rep = check_bijection(three_e1, X)
        assert rep.problems == ("-- in D_X has no preimage under r",)


class TestCubeIsomorphism:
    def test_tope_is_trivial_cube(self, tri):
        rep = cube_isomorphism(tri.om, S("++-+"))
        assert rep.ok
        assert rep.expected_size == 1
        assert rep.pairs[0][0] == S("++-+")

    def test_vertex_has_nine(self, tri):
        rep = cube_isomorphism(tri.om, S("00-+"))
        assert rep.ok
        assert rep.actual_size == 9 == rep.expected_size

    def test_edge_has_three(self, tri):
        rep = cube_isomorphism(tri.om, S("0+-+"))
        assert rep.ok and rep.actual_size == 3

    def test_four_line_fails_with_counterexample(self, four):
        rep = cube_isomorphism(four.om, S("+-000"))
        assert not rep.ok
        assert rep.actual_size == 13
        assert rep.expected_size == 27
        assert rep.counterexample is not None

    def test_zero_rejected(self, tri):
        with pytest.raises(PreconditionError):
            cube_isomorphism(tri.om, S("0000"))

    def test_membership(self, tri):
        with pytest.raises(MembershipError):
            cube_isomorphism(tri.om, S("00++"))

    def test_all_uniform_covectors_pass(self, line, tri):
        for M in (line, tri):
            for x in M.om:
                if not x.is_zero:
                    assert cube_isomorphism(M.om, x).ok


class TestStars:
    def test_triangle_origin(self, tri):
        star = Star(tri, S("00-+"))
        assert [str(t) for t in star.C_X] == ["+--+", "-+-+", "---+"]
        assert [str(t) for t in star.D_X] == ["+--", "-+-", "---"]

    def test_interior_tope_has_empty_star(self, tri):
        star = Star(tri, S("++-+"))
        assert star.C_X == ()
        assert star.D_X == ()

    def test_line_vertex(self, line):
        star = Star(line, S("0-+"))
        assert [str(t) for t in star.C_X] == ["--+"]
        assert [str(t) for t in star.D_X] == ["--"]

    def test_unbounded_covector_rejected(self, tri):
        with pytest.raises(MembershipError):
            Star(tri, S("--++"))

    def test_degenerate_rejected(self, single):
        with pytest.raises(PreconditionError):
            Star(single, S("0+"))

    def test_dx_members_dominate_x_minus_g(self, tri):
        X = S("00-+")
        xg = X.delete([tri.g_index])
        for t in Star(tri, X).D_X:
            assert xg.below(t)

    def test_no_reference_cycle(self, tri_om):
        # a star and the bounded complex refer to the AffineOM that
        # caches them; the caches must not close a cycle, or every
        # verify leaves its covector set to the garbage collector
        gc.collect()
        gc.disable()
        try:
            M = AffineOM(tri_om)
            star = M.star(S("00-+"))
            check_bijection(M, S("00-+"))
            del M, star
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBijection:
    def test_triangle_origin_pairs(self, tri):
        rep = check_bijection(tri, S("00-+"))
        assert rep.ok
        assert len(rep.pairs) == 3
        for t, rt in rep.pairs:
            assert rt == t.delete([tri.g_index])

    def test_empty_star_is_vacuous(self, tri):
        rep = check_bijection(tri, S("++-+"))
        assert rep.ok and rep.pairs == ()

    def test_all_bounded_covectors_uniform(self, line, tri):
        for M in (line, tri):
            gi = M.g_index
            for x in bounded_complex(M):
                if x.delete([gi]).is_zero:
                    continue
                assert check_bijection(M, x).ok

    def test_four_line_fails_somewhere(self, four):
        # the restriction lemma is uniform-only; on the four-line
        # instance some stars must break it
        results = []
        gi = four.g_index
        for x in bounded_complex(four):
            if x.delete([gi]).is_zero:
                continue
            results.append(check_bijection(four, x).ok)
        assert not all(results)
        assert any(results)  # but plenty of stars still work


class TestStarLemmas:
    """The pairwise scans the star checks no longer make never fire, on
    oriented matroids and off them, and deciding the checks with the
    scans gives the same reports."""

    @staticmethod
    def cube_fails(L: CovectorSet) -> int:
        """Cube at every nonzero covector; the number that fail."""
        fails = 0
        for x in L:
            if x.is_zero:
                continue
            assert cube_scans(L, x) == []
            rep = cube_isomorphism(L, x)
            assert cube_isomorphism_by_scan(L, x) == rep
            fails += not rep.ok
        return fails

    def scan(self, M: AffineOM) -> tuple[int, int]:
        """Cube at every nonzero covector, bijection at every bounded
        cell with a star; the numbers of failing cubes and bijections."""
        cube_fails = self.cube_fails(M.om)
        bij_fails = 0
        for x in bounded_complex(M):
            if x.delete([M.g_index]).is_zero:
                continue
            assert bijection_scans(M, x) == []
            rep = check_bijection(M, x)
            assert check_bijection_by_scan(M, x) == rep
            bij_fails += not rep.ok
        return cube_fails, bij_fails

    def test_fixtures(self, line, tri, three, three_e1, four):
        # three and four are not uniform: two parallel lines each; the
        # stars of three are read in three_e1, where a, the line that
        # crosses them, is deleted
        fails = [self.scan(M) for M in (line, tri, three_e1, four)]
        assert fails == [(0, 0), (0, 0), (0, 0), (2, 9)]
        assert self.cube_fails(three.om) == 2

    @pytest.mark.parametrize(
        "n,d,seed", [(4, 2, 0), (5, 2, 1), (4, 3, 0), (5, 3, 0)]
    )
    def test_generated(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        M = AffineOM(enumerate_covectors(homogenize(A)))
        assert self.scan(M) == (0, 0)

    def test_three_restriction(self, three):
        res = restrict_to_support(three)
        assert res.dropped == ("a",)
        assert restriction_scans(res) == []
        assert restriction_ok_by_scan(res) == res.ok


class TestShellingOfDX:
    def test_triangle_origin_order(self, tri):
        order = shelling_of_DX(tri, S("00-+"))
        assert [str(t) for t in order] == ["+--", "---", "-+-"]
        # deterministic
        assert order == shelling_of_DX(tri, S("00-+"))

    def test_prefixes_are_order_ideals(self, tri):
        X = S("00-+")
        order = shelling_of_DX(tri, X)
        B = order[0]
        P = tope_poset(contraction(AffineOM(tri.om)), B)
        dset = set(order)
        for k in range(1, len(order) + 1):
            prefix = set(order[:k])
            for t in prefix:
                for s in dset:
                    if P.less_equal(s, t):
                        assert s in prefix

    def test_explicit_base(self, tri):
        X = S("00-+")
        order = shelling_of_DX(tri, X, B=S("-+-"))
        assert order[0] == S("-+-")
        assert len(order) == 3

    def test_base_membership(self, tri):
        with pytest.raises(MembershipError):
            shelling_of_DX(tri, S("00-+"), B=S("+++"))

    def test_empty_dx_rejected(self, tri):
        with pytest.raises(PreconditionError):
            shelling_of_DX(tri, S("++-+"))

    def test_singleton(self, line):
        assert shelling_of_DX(line, S("0-+")) == [S("--")]


class TestInducedShellingOfCX:
    def test_triangle_origin(self, tri):
        ind = induced_shelling_of_CX(tri, S("00-+"))
        assert ind.ok
        assert ind.report.mode == "simplicial"
        assert [str(c) for c in ind.order] == ["+--+", "---+", "-+-+"]
        # lifted facet per contraction tope, in order
        assert [str(d) for d in ind.dx_order] == ["+--", "---", "-+-"]

    def test_lift_matches_bijection(self, tri):
        X = S("00-+")
        ind = induced_shelling_of_CX(tri, X)
        star = Star(tri, X)
        for d, c in zip(ind.dx_order, ind.order):
            assert star.lift(d) == c
            assert star.restrict(c) == d

    def test_singleton_vacuous(self, line):
        ind = induced_shelling_of_CX(line, S("0-+"))
        assert ind.ok
        assert len(ind.order) == 1

    def test_a_failed_lift_is_no_evidence(self, om751):
        # at one vertex of the uniform (7,5,1) no lifted [D_X] order
        # shells [C_X], yet [C_X] is a shellable 4-ball: the failure is
        # the construction's, which is why verify does not refute on it
        M = om751
        X = S("0000+0-+")
        assert not induced_shelling_of_CX(M, X).ok
        star = M.star(X)
        order = star.om.om.order()
        cx = set(star.C_X)
        faces = subposet(order, (
            y for y in order.up_set(X)
            if y != X and not cx.isdisjoint(order.up_set(y))
        ))
        atoms = minimal_elements(faces)
        K = SimplicialComplex(
            [a for a in atoms if faces.less_equal(a, t)] for t in star.C_X
        )
        assert (K.dim, len(K.facets)) == (4, 26)
        assert sum(K.f_vector()) == len(faces)
        shelling = find_shelling(K)
        assert shelling is not None
        assert verify_shelling_by_meets(face_poset(K), shelling).ok

    def test_explicit_dx_order(self, tri):
        # the [D_X] order from each base lifts as the base loop lifts it
        X = S("00-+")
        lifts = {order[0]: ind for order, ind in every_base(tri, X)}
        assert sorted(map(str, lifts)) == ["+--", "-+-", "---"]
        ind = lifts[S("-+-")]
        assert list(ind.dx_order) == shelling_of_DX(tri, X, B=S("-+-"))
        assert ind.ok
        assert ind.order[0] == S("-+-+")
        assert lifts[S("+--")] == induced_shelling_of_CX(tri, X)

    def test_all_uniform_stars_shell(self, line, tri):
        for M in (line, tri):
            gi = M.g_index
            for x in bounded_complex(M):
                if x.delete([gi]).is_zero:
                    continue
                if not Star(M, x).D_X:
                    continue
                assert induced_shelling_of_CX(M, x).ok

    def test_poset_meets_agree_with_sign_meets(self, tri):
        # in the cube above X, lattice meets and coordinatewise sign
        # agreement are the same operation
        X = S("00-+")
        star = Star(tri, X)
        from omtop.topology import Poset

        faces = [
            y
            for y in tri.om.sorted_covectors()
            if X.below(y) and y != X and any(y.below(c) for c in star.C_X)
        ]
        P = Poset(faces, lambda a, b: a.below(b))
        for a in star.C_X:
            for b in star.C_X:
                m = meet_or_bottom(P, a, b)
                sm = a.meet(b)
                if m is None:
                    assert sm == X or sm not in P
                else:
                    assert m == sm


@pytest.fixture(scope="module")
def om751():
    return AffineOM(enumerate_covectors(homogenize(
        generate_arrangement(7, 5, seed=1)
    )))


def _proper_cells(M: AffineOM):
    """The cells whose inherited shelling `verify` checks."""
    for x in bounded_complex(M):
        if x.delete([M.g_index]).is_zero:
            continue
        if link_decomposition(M, x).case == "proper" and M.star(x).C_X:
            yield x


class TestShellingOracles:
    """The star shellings on L's masks against the algorithms they
    replaced: tope sets, [D_X] orders for every base, and whole
    InducedShelling reports, ShellingReports included."""

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (5, 4, 0), (8, 3, 0)])
    def test_every_proper_cell(self, n, d, seed):
        M = AffineOM(enumerate_covectors(homogenize(
            generate_arrangement(n, d, seed=seed)
        )))
        cells = 0
        for x in _proper_cells(M):
            star = M.star(x)
            assert (star.C_X, star.D_X) == star_topes_by_scan(M, x)
            for B in star.D_X:
                order = shelling_of_DX(M, x, B)
                assert order == shelling_of_DX_by_scan(M, x, B)
            assert induced_shelling_of_CX(M, x) == induced_shelling_by_scan(M, x)
            cells += 1
        assert cells > 0

    def test_off_uniform_fixtures(self, three_e1, four):
        # on four, C_X outnumbers D_X at some cells: the lifted order is
        # no permutation of the facets, and both report it as a problem
        def outcome(f, M, x):
            try:
                return f(M, x)
            except OmtopError as exc:
                return type(exc), str(exc)

        short = []
        for M in (three_e1, four):
            for x in bounded_complex(M):
                if x.delete([M.g_index]).is_zero or not M.star(x).D_X:
                    continue
                got = outcome(induced_shelling_of_CX, M, x)
                assert got == outcome(induced_shelling_by_scan, M, x)
                assert isinstance(got, InducedShelling)
                if got.problems:
                    assert not got.ok and got.report is None
                    short.append((str(x), got.problems))
        assert short == [
            (x, ("h(D_X) covers 2 of the 3 topes of C_X",))
            for x in ("+00++", "-0-0+", "0+0++", "0--0+")
        ]

    def test_lift_outside_CX(self, three_e1, monkeypatch):
        # -- lifts to --+, a covector of the restricted set; with --+
        # dropped from the record's C_X, the lift is refused before any
        # shelling check
        X = S("0-+")
        corrupt_cell(three_e1, X, cx=0, put=monkeypatch.setattr)
        ind = induced_shelling_of_CX(three_e1, X)
        assert ind == induced_shelling_by_scan(three_e1, X)
        assert ind.report is None
        assert ind.problems == ("h(--) = --+ is not in C_X",)

    def test_every_base_at_a_failing_cell(self, om751):
        X = S("0000+0-+")
        bases = 0
        for order, ind in every_base(om751, X):
            assert order == shelling_of_DX_by_scan(om751, X, order[0])
            assert not ind.ok and ind.report.failures
            assert ind == induced_shelling_by_scan(om751, X, order)
            bases += 1
        assert bases == len(om751.star(X).D_X) > 1
        ind = induced_shelling_of_CX(om751, X)
        assert not ind.ok
        assert ind == induced_shelling_by_scan(om751, X)


class TestShellingMutations:
    """A corrupted lift fails its check with the oracle's failure
    pairs."""

    @pytest.fixture(scope="class")
    def cell(self):
        M = AffineOM(enumerate_covectors(homogenize(
            generate_arrangement(5, 4, seed=0)
        )))
        X = max(_proper_cells(M), key=lambda x: len(M.star(x).D_X))
        return M, X

    def test_reordered_lift_fails(self, cell):
        M, X = cell
        ind = induced_shelling_of_CX(M, X)
        assert ind.ok
        star = M.star(X)
        table = star.om._tope_table()
        # two facets of [C_X] whose meet is the bottom X, put first: the
        # bottom is covered by no facet, so pair (0, 1) has no k
        dx = [table.index(d) for d in ind.dx_order]
        a, b = next(
            (a, b) for a in dx for b in dx
            if star.lift(table.topes[a]).meet(star.lift(table.topes[b]))
            == star.X
        )
        bad = [a, b] + [d for d in dx if d not in (a, b)]
        broken = lift_indices(M, X, bad)
        assert not broken.ok
        assert (0, 1) in broken.report.failures
        oracle = induced_shelling_by_scan(M, X, [table.topes[j] for j in bad])
        assert broken.report.failures == oracle.report.failures
        assert broken == oracle


class TestFlipDecision:
    """The lifted shelling decided by single flips in the sign cube
    above X: whole reports, failure lists included, equal the poset
    check on every base (the failing cell of (7,5,1) is in
    TestShellingOracles), and an X whose L_>=X is not the cube is
    reported."""

    @pytest.mark.parametrize("n,d,seed", [(5, 3, 0), (6, 4, 0)])
    def test_every_base_of_every_proper_cell(self, n, d, seed):
        M = AffineOM(enumerate_covectors(homogenize(
            generate_arrangement(n, d, seed=seed)
        )))
        pairs = failing = 0
        for x in _proper_cells(M):
            for order, ind in every_base(M, x):
                assert ind == induced_shelling_by_scan(M, x, order)
                pairs += 1
                failing += not ind.ok
        assert 0 < failing < pairs

    def test_three_lines_through_a_vertex(self, five):
        # a = 0, b = 0 and d = 0 meet at the origin: |L_>=X| = 13, not 27,
        # and no flip decision is made there
        X = S("00-0-+")
        assert not cube_isomorphism(five.om, X).ok
        ind = induced_shelling_of_CX(five, X)
        assert not ind.ok and ind.report is None
        assert ind.problems == (
            "L_>=X is not the sign cube on z(X): |L_>=X| = 13, "
            "expected 3^3 = 27",
        )
        # the face poset check alone would pass this lift; at every
        # other cell the two agree
        assert induced_shelling_by_scan(five, X).ok
        for x in bounded_complex(five):
            if x == X or x.delete([five.g_index]).is_zero:
                continue
            if five.star(x).D_X:
                got = induced_shelling_of_CX(five, x)
                assert got == induced_shelling_by_scan(five, x)


class TestOrderIdealCheck:
    """shelling_of_DX refuses a D_X that is not an order ideal of the
    tope poset; only a tope of L/g that is zero on supp(X minus g) can
    make it so."""

    def test_fires_on_a_tope_zero_on_the_support(self):
        # L/g has the topes ++0, +-+, -++; X minus g = 00+, so
        # D_X = {+-+, -++} and ++0 <= -++ from the base +-+
        L = CovectorSet(
            GroundSet(["a", "b", "c", "g"], g="g"),
            [S(v) for v in (
                "0000", "00++", "--++", "++00", "-++0", "+-+0",
            )],
        )
        M = AffineOM(L)
        X = S("00++")
        assert [str(t) for t in M.star(X).D_X] == ["+-+", "-++"]
        text = (
            "D_X is not an order ideal of T(L/g, +-+): ++0 <= -++ but "
            "++0 is missing; the input is not an affine oriented matroid"
        )
        for f in (shelling_of_DX, shelling_of_DX_by_scan):
            with pytest.raises(OmtopError) as exc:
                f(M, X)
            assert str(exc.value) == text


class TestBoundaryEquivalence:
    def test_uniform_instances(self, line, tri):
        for M in (line, tri):
            rep = boundary_equivalence(M)
            assert rep.ok
            assert rep.checked > 0

    def test_four_line_fails_with_witnesses(self, four):
        # uniform-only statement: the parallel pair breaks it
        rep = boundary_equivalence(four)
        assert not rep.ok
        assert rep.checked == 29
        w = rep.witnesses[0]
        # every witness is unbounded yet has no contraction image
        bc = bounded_complex(four)
        cg = contraction(four)
        for w in rep.witnesses:
            assert w not in bc
            assert w.delete([four.g_index]) not in cg


class TestLinkDecomposition:
    def test_rank_one_lower_empty(self, tri):
        ld = link_decomposition(tri, S("00-+"))
        assert len(ld.lower) == 0
        assert ld.case == "proper"
        assert len(ld.upper) == 3

    def test_interior_tope_upper_empty(self, tri):
        ld = link_decomposition(tri, S("++-+"))
        assert ld.case == "upper_empty"
        assert len(ld.upper) == 0
        assert len(ld.lower) == 6  # 3 vertices + 3 edges below the cell

    def test_upper_full_at_interior_vertex(self, five):
        ld = link_decomposition(five, S("++-00+"))
        assert ld.case == "upper_full"
        assert len(ld.upper) == 8

    def test_membership(self, tri):
        with pytest.raises(MembershipError):
            link_decomposition(tri, S("--++"))

    def test_edge_case_is_proper(self, tri):
        ld = link_decomposition(tri, S("0+-+"))
        assert ld.case == "proper"
        assert len(ld.lower) == 2  # the two endpoint vertices
        assert len(ld.upper) == 1  # the interior cell
