"""Arrangements, exact feasibility, covector enumeration, and the
geometric boundedness oracle.

On every canonical instance the pruned enumerator is checked against
a brute-force 3^n scan of fresh per-pattern feasibility calls, which
shares no search code with it.
"""

from fractions import Fraction

import pytest

from conftest import FOURLINE_ROWS, LINE_ROWS, TRIANGLE_ROWS, mk_arrangement
from omtop.errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    PreconditionError,
    ResourceExhausted,
)
from omtop.matroid import verify_covector_axioms
from omtop.realization import (
    _EQ,
    _GE,
    _GT,
    Arrangement,
    VectorConfiguration,
    affine_face_dim,
    affine_pattern_feasible,
    bounded_face_census,
    enumerate_affine_faces,
    enumerate_covectors,
    face_bounded,
    feasible,
    format_arrangement,
    homogenize,
    parse_arrangement_file,
    pattern_feasible,
)
from omtop.signvec import SignVector

S = SignVector.from_string
F = Fraction


class TestFeasibleEngine:
    def test_empty_system(self):
        assert feasible([], 2)

    def test_strict_contradiction(self):
        # x > 0 and -x > 0 eliminate to 0 > 0
        assert not feasible([((1,), 0, _GT), ((-1,), 0, _GT)], 1)

    def test_weak_pair_is_feasible(self):
        assert feasible([((1,), 0, _GE), ((-1,), 0, _GE)], 1)

    def test_strict_against_weak(self):
        assert not feasible([((1,), 0, _GT), ((-1,), 0, _GE)], 1)

    def test_equality_substitution(self):
        # x = 1 forces the rest
        assert feasible([((1,), -1, _EQ), ((1,), 0, _GT)], 1)
        assert not feasible([((1,), -1, _EQ), ((1,), -2, _GT)], 1)

    def test_two_equations(self):
        # x + y = 1, x - y = 1 force y = 0
        rows = [((1, 1), -1, _EQ), ((1, -1), -1, _EQ)]
        assert feasible(rows + [((0, 1), 0, _GE)], 2)
        assert not feasible(rows + [((0, 1), 0, _GT)], 2)

    def test_rational_bounds(self):
        # 1/3 < x < 2/5 is nonempty; 2/5 < x < 1/3 is not
        assert feasible([((1,), F(-1, 3), _GT), ((-1,), F(2, 5), _GT)], 1)
        assert not feasible([((1,), F(-2, 5), _GT), ((-1,), F(1, 3), _GT)], 1)

    def test_chained_strict(self):
        # 0 < x < y < 1
        rows = [
            ((1, 0), 0, _GT),
            ((-1, 1), 0, _GT),
            ((0, -1), 1, _GT),
        ]
        assert feasible(rows, 2)

    def test_trivial_rows(self):
        assert feasible([((0, 0), 1, _GT)], 2)
        assert not feasible([((0, 0), 0, _GT)], 2)
        assert not feasible([((0, 0), 1, _EQ)], 2)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            feasible([((1,), 0, _GT)], 2)


class TestArrangement:
    def test_zero_normal_rejected(self):
        with pytest.raises(DomainError):
            mk_arrangement(2, [("h", (0, 0), 1)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            mk_arrangement(1, [("h", (1,), 0), ("h", (1,), 1)])

    def test_normal_length_mismatch(self):
        with pytest.raises(DimensionError):
            mk_arrangement(2, [("h", (1,), 0)])

    def test_repeated_hyperplanes_detected(self):
        A = mk_arrangement(
            2,
            [("a", (1, 0), 1), ("b", (-2, 0), -2), ("c", (0, 1), 0)],
        )
        assert A.repeated_hyperplanes() == [("a", "b")]

    def test_hyperplanes_view(self, line_arr):
        assert line_arr.hyperplanes() == (
            ((F(1),), F(0)),
            ((F(1),), F(1)),
        )


class TestHomogenize:
    def test_line(self, line_arr):
        V = homogenize(line_arr)
        assert V.nvars == 2
        assert V.forms == ((F(1), F(0)), (F(1), F(-1)), (F(0), F(1)))
        assert V.ground.labels == ("h1", "h2", "g")
        assert V.ground.g == "g"

    def test_triangle(self, tri_arr):
        V = homogenize(tri_arr)
        assert V.forms == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(1), F(1), F(-1)),
            (F(0), F(0), F(1)),
        )

    def test_four_line(self, four_arr):
        V = homogenize(four_arr)
        assert V.forms == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(1), F(1), F(-1)),
            (F(1), F(1), F(1)),
            (F(0), F(0), F(1)),
        )

    def test_g_label_collision(self):
        A = mk_arrangement(1, [("g", (1,), 0)])
        V = homogenize(A)
        assert V.ground.labels == ("g", "g2")
        assert V.ground.g == "g2"


class TestPatternFeasible:
    def test_all_zero(self, line_arr):
        V = homogenize(line_arr)
        assert pattern_feasible(V, S("000"))

    def test_two_points_cannot_coincide(self, line_arr):
        V = homogenize(line_arr)
        assert not pattern_feasible(V, S("00+"))

    def test_open_segment(self, line_arr):
        V = homogenize(line_arr)
        assert pattern_feasible(V, S("+-+"))

    def test_length_check(self, line_arr):
        with pytest.raises(DimensionError):
            pattern_feasible(homogenize(line_arr), S("00"))


class TestEnumerate:
    def test_line_census(self, line_om):
        assert len(line_om) == 13

    def test_triangle_census(self, tri_om):
        assert len(tri_om) == 51

    def test_four_line_census(self, four_om):
        assert len(four_om) == 71

    def test_pruning_does_not_change_results(
        self, line_arr, tri_arr, four_arr
    ):
        from omtop.signvec import all_sign_vectors

        for A in (line_arr, tri_arr, four_arr):
            V = homogenize(A)
            assert enumerate_covectors(V).covectors == {
                P
                for P in all_sign_vectors(V.n_forms)
                if pattern_feasible(V, P)
            }

    def test_membership_matches_fresh_feasibility(self, line_arr):
        from omtop.signvec import all_sign_vectors

        V = homogenize(line_arr)
        L = enumerate_covectors(V)
        for P in all_sign_vectors(3):
            assert (P in L) == pattern_feasible(V, P)

    def test_axioms_hold(self, line_om, tri_om, four_om):
        for L in (line_om, tri_om, four_om):
            assert verify_covector_axioms(L).ok

    def test_central_symmetry(self, tri_om):
        assert all(-x in tri_om for x in tri_om)

    def test_composition_closure(self, four_om):
        covs = four_om.sorted_covectors()
        assert all(x.compose(y) in four_om for x in covs for y in covs)

    def test_cap(self):
        rows = [(f"h{i}", (1,), i) for i in range(13)]
        V = homogenize(mk_arrangement(1, rows))
        with pytest.raises(ResourceExhausted):
            enumerate_covectors(V)
        # a higher cap lifts the limit
        assert len(enumerate_covectors(V, cap=14)) > 0

    def test_zeroing_one_coordinate_is_consistent(self, tri_om, tri_arr):
        # dropping a single sign to zero is feasible exactly when the
        # resulting pattern is itself a covector
        V = homogenize(tri_arr)
        for P in tri_om:
            for i in sorted(P.support()):
                signs = list(P.signs)
                from omtop.signvec import Sign

                signs[i] = Sign.ZERO
                Q = SignVector.from_signs(signs)
                assert (Q in tri_om) == pattern_feasible(V, Q)


class TestBoundednessOracle:
    def test_line_faces(self, line_arr):
        assert face_bounded(line_arr, S("0-"))  # the vertex x = 0
        assert face_bounded(line_arr, S("+-"))  # the open segment
        assert not face_bounded(line_arr, S("--"))  # the ray x < 0
        assert not face_bounded(line_arr, S("++"))  # the ray x > 1

    def test_empty_face_rejected(self, line_arr):
        with pytest.raises(PreconditionError):
            face_bounded(line_arr, S("00"))

    def test_affine_feasibility(self, line_arr):
        assert affine_pattern_feasible(line_arr, S("0-"))
        assert not affine_pattern_feasible(line_arr, S("00"))
        assert not affine_pattern_feasible(line_arr, S("-+"))

    def test_face_dims(self, tri_arr):
        assert affine_face_dim(tri_arr, S("00-")) == 0  # the origin
        assert affine_face_dim(tri_arr, S("+0-")) == 1  # an open edge
        assert affine_face_dim(tri_arr, S("++-")) == 2  # the interior

    def test_census_line(self, line_arr):
        assert bounded_face_census(line_arr) == (2, 1)

    def test_census_triangle(self, tri_arr):
        assert bounded_face_census(tri_arr) == (3, 3, 1)

    def test_census_four_line(self, four_arr):
        assert bounded_face_census(four_arr) == (5, 6, 2)

    def test_affine_face_counts_line(self, line_arr):
        faces = enumerate_affine_faces(line_arr)
        assert len(faces) == 5  # 2 vertices + 3 intervals

    def test_affine_face_counts_triangle(self, tri_arr):
        assert len(enumerate_affine_faces(tri_arr)) == 19

    def test_affine_face_counts_four_line(self, four_arr):
        assert len(enumerate_affine_faces(four_arr)) == 29


class TestArrangementFile:
    GOOD = "\n".join(
        [
            "# the four-line instance",
            "dim 2",
            "x 1 0 0",
            "y 0 1 0",
            "s 1 1 1",
            "t 1 1 -1  # x + y = -1",
        ]
    )

    def test_parse(self):
        A = parse_arrangement_file(self.GOOD, source="four.arr")
        assert A.dim == 2
        assert A.labels == ("x", "y", "s", "t")
        assert A.offsets == (F(0), F(0), F(1), F(-1))

    def test_round_trip(self, four_arr):
        text = format_arrangement(four_arr)
        again = parse_arrangement_file(text)
        assert again == four_arr

    def test_rationals(self):
        A = parse_arrangement_file("dim 1\nh 2/3 -1/2\n")
        assert A.normals == ((F(2, 3),),)
        assert A.offsets == (F(-1, 2),)

    def test_missing_header(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("x 1 0 0\n")

    def test_decimal_rejected(self):
        with pytest.raises(InputFormatError) as ei:
            parse_arrangement_file("dim 1\nh 0.5 1\n", source="bad.arr")
        assert "decimal" in str(ei.value)
        assert "bad.arr" in str(ei.value)

    def test_zero_normal_rejected(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("dim 2\nh 0 0 1\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("dim 1\nh 1 0\nh 1 1\n")

    def test_coinciding_hyperplanes_rejected(self):
        with pytest.raises(InputFormatError) as ei:
            parse_arrangement_file("dim 2\na 1 0 1\nb -3 0 -3\n")
        assert "coincide" in str(ei.value)

    def test_wrong_field_count(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("dim 2\nh 1 0\n")

    def test_no_hyperplanes(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("dim 2\n")

    def test_bad_dimension(self):
        with pytest.raises(InputFormatError):
            parse_arrangement_file("dim 0\nh 1 0\n")


class TestVectorConfiguration:
    def test_needs_g(self):
        from omtop.signvec import GroundSet

        with pytest.raises(DomainError):
            VectorConfiguration(
                nvars=1, forms=((F(1),),), ground=GroundSet(["a"])
            )

    def test_form_count_must_match(self, line_arr):
        V = homogenize(line_arr)
        with pytest.raises(DimensionError):
            VectorConfiguration(
                nvars=2, forms=V.forms[:2], ground=V.ground
            )
