"""Arrangements, covector enumeration, the geometric boundedness
oracle, and the exact feasibility test of the oracles that check them.

On every canonical instance the cocircuit closure is checked against
a brute-force 3^n scan of fresh per-pattern feasibility calls, and on
random configurations against the Fourier-Motzkin pattern search it
replaced; neither shares code with it.  Boundedness, decided on the
cocircuits of the normals, is checked against the Fourier-Motzkin test
it replaced, face by face, on a corpus and on degenerate arrangements,
and a mutation drops one cocircuit at a time.
"""

import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FOURLINE_ROWS,
    LINE_ROWS,
    TRIANGLE_ROWS,
    integer_forms,
    mk_arrangement,
)
from oracles import (
    _EQ,
    _GE,
    _GT,
    _rank_over_q,
    affine_pattern_feasible,
    cocircuits_by_dets,
    det,
    face_bounded_by_directions,
    face_bounded_by_fm,
    feasible,
    fm_affine_faces,
    fm_covectors,
    pattern_feasible,
)
from omtop.errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    PreconditionError,
    ResourceExhausted,
)
from omtop.matroid import verify_covector_axioms
from omtop.generate import generate_arrangement
from omtop.realization import (
    Arrangement,
    VectorConfiguration,
    _cocircuits,
    _rank,
    _uniform_covector_count,
    affine_face_dim,
    bounded_face_census,
    bounded_faces,
    enumerate_affine_faces,
    enumerate_covectors,
    face_bounded,
    format_arrangement,
    homogenize,
    parse_arrangement_file,
)
from omtop.signvec import GroundSet, SignVector
from omtop.verify import verify_arrangement, verify_covectors

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
        # 1/3 < x < 2/5, as 3x - 1 > 0 and -5x + 2 > 0, is nonempty;
        # 2/5 < x < 1/3, as 5x - 2 > 0 and -3x + 1 > 0, is not
        assert feasible([((3,), -1, _GT), ((-5,), 2, _GT)], 1)
        assert not feasible([((5,), -2, _GT), ((-3,), 1, _GT)], 1)

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
        from oracles import all_sign_vectors

        for A in (line_arr, tri_arr, four_arr):
            V = homogenize(A)
            assert enumerate_covectors(V).covectors == {
                P
                for P in all_sign_vectors(V.n_forms)
                if pattern_feasible(V, P)
            }

    def test_membership_matches_fresh_feasibility(self, line_arr):
        from oracles import all_sign_vectors

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
        # 13 points on a line: 14 forms, past the old 12-form cap, and
        # 57 covectors (2 x 27 faces, 2 points at infinity and 0); the
        # cap counts covectors
        rows = [(f"h{i}", (1,), i) for i in range(13)]
        V = homogenize(mk_arrangement(1, rows))
        assert len(enumerate_covectors(V)) == 57
        assert len(enumerate_covectors(V, cap=57)) == 57
        for cap in (56, 20, 1):
            with pytest.raises(ResourceExhausted, match="cap"):
                enumerate_covectors(V, cap=cap)

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


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_arrangements():
    """The pinches and grids of the benchmark's `refute` workload at
    seed 1, drawn in the order its `build` draws them."""
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(_PERFBENCH))
    rng = random.Random(1)
    out = [workloads._pinch(d, rng) for d in workloads.PINCH_DIMS]
    return out + [workloads._grid(k, rng) for k in workloads.GRIDS]


def _ints(k):
    return st.lists(st.integers(-3, 3), min_size=k, max_size=k).map(tuple)


@st.composite
def _configurations(draw):
    """Raw configurations of up to 6 forms on 1-4 variables: any rank,
    repeated and parallel forms, and sometimes a zero form (a loop)."""
    nvars = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    forms = draw(st.lists(_ints(nvars), min_size=n, max_size=n))
    if draw(st.booleans()):
        forms[draw(st.integers(0, n - 1))] = (0,) * nvars
    ground = GroundSet([f"e{i}" for i in range(n)], g=f"e{n - 1}")
    return VectorConfiguration(nvars=nvars, forms=tuple(forms), ground=ground)


@st.composite
def _special_arrangements(draw):
    """Up to 6 hyperplanes in dimension 1-3, in one of three special
    positions: a few parallel families, all through one point, or all
    normals parallel (non-essential in dimension 2 and 3)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("parallel", "concurrent", "one-normal")))
    normal = _ints(dim).filter(any)
    scale = st.integers(-3, 3).filter(bool)
    if kind == "one-normal":
        a = draw(normal)
        normals = [tuple(k * c for c in a) for k in draw(
            st.lists(scale, min_size=n, max_size=n))]
    elif kind == "parallel":
        base = draw(st.lists(normal, min_size=1, max_size=3))
        normals = [draw(st.sampled_from(base)) for _ in range(n)]
    else:
        normals = draw(st.lists(normal, min_size=n, max_size=n))
    if kind == "concurrent":
        p = draw(_ints(dim))
        offsets = [sum(a * x for a, x in zip(v, p)) for v in normals]
    else:
        offsets = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    rows = [(f"h{i}", v, b) for i, (v, b) in enumerate(zip(normals, offsets))]
    return mk_arrangement(dim, rows)


class TestCocircuitClosure:
    """Whole covector sets, and the affine faces read off them, against
    the Fourier-Motzkin pattern search."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_configurations())
    def test_raw_configurations(self, V):
        assert enumerate_covectors(V).covectors == fm_covectors(V).covectors

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_special_arrangements())
    def test_special_arrangements(self, A):
        V = homogenize(A)
        assert enumerate_covectors(V).covectors == fm_covectors(V).covectors
        assert enumerate_affine_faces(A) == fm_affine_faces(A)

    def test_non_essential_rank(self):
        # every normal parallel to (1, 2, 0): the forms have rank 2 of 4
        A = mk_arrangement(
            3, [("a", (1, 2, 0), 0), ("b", (-2, -4, 0), 3), ("c", (1, 2, 0), 5)]
        )
        V = homogenize(A)
        assert _rank(V.forms) == 2 < V.nvars
        L = enumerate_covectors(V)
        assert len(L) == 17  # as for three points on a line
        assert L.covectors == fm_covectors(V).covectors
        assert enumerate_affine_faces(A) == fm_affine_faces(A)

    def test_loops_only(self):
        ground = GroundSet(["a", "g"], g="g")
        V = VectorConfiguration(nvars=2, forms=((0, 0), (0, 0)), ground=ground)
        assert enumerate_covectors(V).covectors == {S("00")}
        assert fm_covectors(V).covectors == {S("00")}

    @pytest.mark.parametrize(
        "A",
        _workload_arrangements(),
        ids=["pinch2", "pinch3", "pinch4", "grid3x3", "grid2x1x1"],
    )
    def test_refute_workload_arrangements(self, A):
        V = homogenize(A)
        assert enumerate_covectors(V).covectors == fm_covectors(V).covectors
        assert enumerate_affine_faces(A) == fm_affine_faces(A)

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (6, 2, 1), (5, 3, 0)])
    def test_generated(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        V = homogenize(A)
        assert enumerate_covectors(V).covectors == fm_covectors(V).covectors
        assert enumerate_affine_faces(A) == fm_affine_faces(A)


# every uniform instance the tests and CI generate, among them the
# acceptance grid, the benchmark's and the d = 5 instances
_UNIFORM = sorted(
    {(n, 1, s) for n in range(2, 8) for s in (0, 1, 2, 3)}
    | {(n, 2, s) for n in range(3, 8) for s in range(5)}
    | {(n, 3, s) for n in range(4, 8) for s in (0, 1, 2, 3)}
    | {(5, 4, s) for s in range(5)}
    | {(7, 5, s) for s in range(4)}
    | {(3, 2, 7), (5, 2, 9), (6, 2, 1), (8, 2, 1000), (11, 2, 0),
       (12, 2, 0), (13, 2, 0), (5, 3, 1001), (8, 3, 0), (5, 4, 1002),
       (6, 4, 0), (7, 4, 0), (9, 4, 0), (8, 5, 0)}
)


class TestCocircuitWalk:
    """The wedge walk of `_cocircuits` against one determinant per
    cofactor entry, and the uniform early exit of `enumerate_covectors`
    against the closure it skips."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(integer_forms())
    def test_agrees_with_determinants(self, forms):
        found = _cocircuits(forms, 10**6)
        assert found == cocircuits_by_dets(forms, 10**6)
        # both raise at the same cap
        if found:
            for f in (_cocircuits, cocircuits_by_dets):
                with pytest.raises(ResourceExhausted, match="cap"):
                    f(forms, len(found))
            assert _cocircuits(forms, len(found) + 1) == found

    @pytest.mark.parametrize("n,d,seed", [(11, 2, 0), (6, 4, 0), (7, 5, 1)])
    def test_agrees_on_generated_forms(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        for forms in (homogenize(A).forms, tuple(r[:-1] for r in A.rows)):
            assert _cocircuits(forms, 10**6) == cocircuits_by_dets(
                forms, 10**6
            )

    @pytest.mark.parametrize("n,d,seed", _UNIFORM)
    def test_closed_form_counts_the_covectors(self, n, d, seed):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed)))
        assert len(L) == _uniform_covector_count(n + 1, d + 1)

    def test_closed_form_values(self):
        # (6,4,0), (12,3,0), (8,5,0), (9,5,0) and the 80 lines of the
        # CLI cap test
        assert _uniform_covector_count(7, 5) == 1291
        assert _uniform_covector_count(13, 4) == 4629
        assert _uniform_covector_count(9, 6) == 9445
        assert _uniform_covector_count(10, 6) == 18089
        assert _uniform_covector_count(81, 3) == 25923

    @pytest.mark.parametrize(
        "A",
        [generate_arrangement(n, d, seed=s)
         for n, d, s in ((4, 2, 0), (8, 3, 0), (6, 4, 0), (7, 5, 1))]
        + [mk_arrangement(1, [(f"h{i}", (1,), i) for i in range(13)])],
        ids=["(4,2,0)", "(8,3,0)", "(6,4,0)", "(7,5,1)", "13-points"],
    )
    def test_cap_decision_on_uniform_input(self, A, monkeypatch):
        import omtop.realization as realization

        V = homogenize(A)
        size = len(enumerate_covectors(V))
        assert size == _uniform_covector_count(V.n_forms, A.dim + 1)
        assert len(enumerate_covectors(V, cap=size)) == size
        assert len(enumerate_covectors(V, cap=size + 1)) == size
        # one past the cap raises before the closure reads a cocircuit
        monkeypatch.setattr(realization, "_bits", None)
        with pytest.raises(ResourceExhausted, match="cap"):
            enumerate_covectors(V, cap=size - 1)

    @pytest.mark.parametrize(
        "A", _workload_arrangements(),
        ids=["pinch2", "pinch3", "pinch4", "grid3x3", "grid2x1x1"],
    )
    def test_cap_decision_on_special_input(self, A):
        # no closed form applies: the closure meets the cap
        V = homogenize(A)
        size = len(enumerate_covectors(V))
        assert size != _uniform_covector_count(V.n_forms, A.dim + 1)
        assert len(enumerate_covectors(V, cap=size)) == size
        with pytest.raises(ResourceExhausted, match="cap"):
            enumerate_covectors(V, cap=size - 1)


class TestBoundednessOracle:
    def test_line_faces(self, line_arr):
        assert face_bounded(line_arr, S("0-"))  # the vertex x = 0
        assert face_bounded(line_arr, S("+-"))  # the open segment
        assert not face_bounded(line_arr, S("--"))  # the ray x < 0
        assert not face_bounded(line_arr, S("++"))  # the ray x > 1

    def test_empty_face_rejected(self, line_arr):
        # the Fourier-Motzkin oracle tests emptiness first; the library
        # test takes its faces from the covectors and makes no such test
        with pytest.raises(PreconditionError):
            face_bounded_by_fm(line_arr, S("00"))

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


# x = 1/3, y = -2/5 and x/2 + 3y/4 = 7/6 bound a triangle
RATIONAL_ROWS = [
    ("x", (1, 0), F(1, 3)),
    ("y", (0, 1), F(-2, 5)),
    ("s", (F(1, 2), F(3, 4)), F(7, 6)),
]


def _scaled(rows, factors):
    """Each row (label, normal, offset) times its own positive factor."""
    return [
        (lab, tuple(k * c for c in a), k * b)
        for (lab, a, b), k in zip(rows, factors)
    ]


def _grid_rows(k):
    """Lines x = 0..k and y = 0..k: a k x k grid of squares."""
    return [(f"x{i}", (1, 0), i) for i in range(k + 1)] + [
        (f"y{i}", (0, 1), i) for i in range(k + 1)
    ]


class TestOneTestBoundedness:
    @pytest.mark.parametrize(
        "dim,rows",
        [
            (1, LINE_ROWS),
            (2, TRIANGLE_ROWS),
            (2, FOURLINE_ROWS),
            (2, _grid_rows(3)),
            (2, RATIONAL_ROWS),
        ],
        ids=["line", "triangle", "four-line", "grid3x3", "rational"],
    )
    def test_agrees_with_direction_test(self, dim, rows):
        A = mk_arrangement(dim, rows)
        faces = enumerate_affine_faces(A)
        got = [face_bounded(A, P) for P in faces]
        assert got == [face_bounded_by_directions(A, P) for P in faces]
        assert any(got)

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (5, 3, 0), (4, 3, 0)])
    def test_agrees_on_generated(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        for P in enumerate_affine_faces(A):
            assert face_bounded(A, P) == face_bounded_by_directions(A, P)

    def test_non_essential_has_no_bounded_face(self):
        A = mk_arrangement(2, [("a", (1, 0), 0), ("b", (1, 0), 1)])
        faces = enumerate_affine_faces(A)
        assert len(faces) == 5
        for P in faces:
            assert not face_bounded(A, P)
            assert not face_bounded_by_directions(A, P)


def _corpus():
    """The realization corpus: the fixtures, a grid, the rational
    triangle, a strip, the `refute` pinches and grids, and generated
    uniform arrangements in dimensions 2 to 4."""
    named = [
        ("line", mk_arrangement(1, LINE_ROWS)),
        ("triangle", mk_arrangement(2, TRIANGLE_ROWS)),
        ("four-line", mk_arrangement(2, FOURLINE_ROWS)),
        ("grid3x3", mk_arrangement(2, _grid_rows(3))),
        ("rational", mk_arrangement(2, RATIONAL_ROWS)),
        ("strip", mk_arrangement(2, [("a", (1, 0), 0), ("b", (1, 0), 1)])),
    ]
    refute = ["pinch2", "pinch3", "pinch4", "refute-grid3x3", "grid2x1x1"]
    named += zip(refute, _workload_arrangements())
    named += [
        (f"({n},{d},{seed})", generate_arrangement(n, d, seed=seed))
        for n, d, seed in [(4, 2, 0), (6, 2, 1), (5, 3, 0), (4, 3, 0),
                           (5, 4, 0)]
    ]
    return [pytest.param(A, id=name) for name, A in named]


@st.composite
def _grid_arrangements(draw):
    """Lines, planes or points at 1-3 offsets along each axis of R^1 to
    R^3: boxes, and strips where an axis gets a single offset."""
    dim = draw(st.integers(1, 3))
    rows = []
    for j in range(dim):
        axis = tuple(int(i == j) for i in range(dim))
        offsets = draw(st.lists(st.integers(-3, 3), min_size=1,
                                max_size=3, unique=True))
        rows += [(f"x{j}_{k}", axis, b) for k, b in enumerate(offsets)]
    return mk_arrangement(dim, rows)


class TestCocircuitBoundedness:
    """`face_bounded`, the cocircuits of the normals below a face,
    against the Fourier-Motzkin emptiness and recession-cone tests."""

    @pytest.mark.parametrize("A", _corpus())
    def test_agrees_with_fm_on_the_corpus(self, A):
        faces = enumerate_affine_faces(A)
        got = [face_bounded(A, P) for P in faces]
        assert got == [face_bounded_by_fm(A, P) for P in faces]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.one_of(_special_arrangements(), _grid_arrangements()))
    def test_agrees_with_fm_on_degenerate_arrangements(self, A):
        for P in enumerate_affine_faces(A):
            assert face_bounded(A, P) == face_bounded_by_fm(A, P)

    def test_wrong_length_rejected(self, line_arr):
        with pytest.raises(DimensionError):
            face_bounded(line_arr, S("0-0"))

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 3)])
    def test_every_normal_cocircuit_is_needed(self, n, d, monkeypatch):
        import omtop.realization as realization

        A = generate_arrangement(n, d, seed=0)
        faces = enumerate_affine_faces(A)
        truth = [face_bounded(A, P) for P in faces]
        cocircuits = A._normal_cocircuits
        # uniform: one line through the origin per (d-1)-subset of normals
        assert len(cocircuits) == 2 * comb(n, d - 1)
        full = (1 << n) - 1
        for k, c in enumerate(cocircuits):
            dropped = cocircuits[:k] + cocircuits[k + 1:]
            monkeypatch.setattr(
                realization, "_cocircuits", lambda forms, cap: dropped
            )
            B = Arrangement(A.dim, A.labels, A.normals, A.offsets)
            wrong = [
                P for P, t in zip(faces, truth) if face_bounded(B, P) != t
            ]
            monkeypatch.undo()
            # only unbounded faces can flip, and the ray along the
            # dropped direction is among them
            assert wrong and not any(face_bounded_by_fm(A, P) for P in wrong)
            C = SignVector(n, c & full, c >> n)
            assert any(
                affine_face_dim(A, P) == 1 and C.below(P) for P in wrong
            )


def _matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-9, 9), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


@st.composite
def _deficient_matrices(draw):
    """Integer combinations of k base rows, more rows than k."""
    base = draw(_matrices(rows=st.integers(1, 3), cols=st.integers(2, 6)))
    m = draw(st.integers(len(base) + 1, len(base) + 4))
    coeffs = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=len(base),
                     max_size=len(base)),
            min_size=m,
            max_size=m,
        )
    )
    return [
        [sum(c * b[j] for c, b in zip(row, base)) for j in range(len(base[0]))]
        for row in coeffs
    ]


class TestIntegerRank:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_matrices())
    def test_matches_rank_over_q(self, M):
        assert _rank(M) == _rank_over_q(M)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_deficient_matrices())
    def test_rank_deficient_matches_rank_over_q(self, M):
        r = _rank(M)
        assert r == _rank_over_q(M)
        assert r < len(M)

    def test_does_not_modify_its_input(self):
        M = [[2, 4], [1, 3]]
        assert _rank(M) == 2
        assert M == [[2, 4], [1, 3]]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 4).flatmap(
        lambda k: _matrices(rows=st.just(k), cols=st.just(k))
        if k else st.just([])))
    def test_det_matches_laplace(self, M):
        def laplace(m):
            if not m:
                return 1
            return sum(
                (-1) ** k * m[0][k] * laplace([r[:k] + r[k + 1:] for r in m[1:]])
                for k in range(len(m))
            )

        assert det(M) == laplace(M)


class TestRationalsAtTheBoundary:
    FACTORS = (F(2, 3), F(5), F(7, 4))

    def test_rows_are_primitive_integer_multiples(self):
        A = mk_arrangement(2, RATIONAL_ROWS)
        assert A.rows == ((3, 0, -1), (0, 5, 2), (6, 9, -14))
        assert A.normals[2] == (F(1, 2), F(3, 4))
        assert A.offsets == (F(1, 3), F(-2, 5), F(7, 6))

    def test_scaled_arrangement_gives_the_same_answers(self):
        A = mk_arrangement(2, RATIONAL_ROWS)
        B = mk_arrangement(2, _scaled(RATIONAL_ROWS, self.FACTORS))
        assert A != B and A.rows == B.rows
        assert (
            enumerate_covectors(homogenize(A)).covectors
            == enumerate_covectors(homogenize(B)).covectors
        )
        faces = bounded_faces(A)
        assert faces == bounded_faces(B)
        assert sorted(faces.values()) == [0, 0, 0, 1, 1, 1, 2]
        rep_a = verify_arrangement(A)
        assert rep_a.verdict == "ball-certified"
        assert rep_a.to_json() == verify_arrangement(B).to_json()

    def test_scaled_configuration_gives_the_same_answers(self):
        ground = GroundSet(["x", "y", "s", "g"], g="g")
        forms = [a + (-b,) for _, a, b in RATIONAL_ROWS] + [(0, 0, 1)]
        factors = self.FACTORS + (F(3, 2),)
        V = VectorConfiguration(nvars=3, forms=tuple(forms), ground=ground)
        W = VectorConfiguration(
            nvars=3,
            forms=tuple(
                tuple(k * c for c in f) for f, k in zip(forms, factors)
            ),
            ground=ground,
        )
        assert V.forms == W.forms
        assert all(type(c) is int for f in V.forms for c in f)
        L, M = enumerate_covectors(V), enumerate_covectors(W)
        assert L.covectors == M.covectors
        rep = verify_covectors(L)
        assert rep.verdict == "ball-certified"
        assert rep.to_json() == verify_covectors(M).to_json()

