"""Seeded arrangement generation: determinism, uniformity, pinned shapes.

The uniformity test walks the d-subsets of the forms with shared
exterior products; it is checked against one rank per subset, the test
it replaced, and every pinned (n, d, seed) must still name the
arrangement it named under that test, down to the last byte."""

import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import integer_forms, mk_arrangement
from oracles import every_subset_a_basis_by_ranks, general_position_by_ranks
from omtop.errors import DomainError, ResourceExhausted
from omtop.generate import (
    _every_subset_a_basis,
    _general_position,
    generate_arrangement,
)
from omtop.matroid import is_uniform
from omtop.realization import (
    bounded_face_census,
    enumerate_covectors,
    format_arrangement,
    homogenize,
    is_essential,
)


class TestDeterminism:
    def test_same_seed_same_arrangement(self):
        a = generate_arrangement(5, 2, seed=9)
        b = generate_arrangement(5, 2, seed=9)
        assert format_arrangement(a) == format_arrangement(b)

    def test_labels(self):
        a = generate_arrangement(4, 2, seed=0)
        assert a.labels == ("h1", "h2", "h3", "h4")


class TestGeneratedAreUniform:
    @pytest.mark.parametrize(
        "n,d,seed", [(3, 1, 0), (4, 2, 1), (5, 2, 3), (4, 3, 0), (6, 3, 1)]
    )
    def test_uniform_and_essential(self, n, d, seed):
        a = generate_arrangement(n, d, seed=seed)
        assert a.dim == d and a.n == n
        assert is_essential(a)
        assert _general_position(a)
        assert is_uniform(enumerate_covectors(homogenize(a))).uniform


class TestPinnedCensuses:
    def test_four_generic_lines_have_three_bounded_cells(self):
        # n generic lines bound C(n-1, 2) regions; 4 lines give 3
        census = bounded_face_census(generate_arrangement(4, 2, seed=1))
        assert census == (6, 8, 3)

    def test_three_generic_lines_are_a_triangle(self):
        census = bounded_face_census(generate_arrangement(3, 2, seed=7))
        assert census == (3, 3, 1)

    @pytest.mark.parametrize(
        "d,expected",
        [(1, (2, 1)), (2, (3, 3, 1)), (3, (4, 6, 4, 1))],
    )
    def test_d_plus_one_hyperplanes_bound_a_simplex(self, d, expected):
        census = bounded_face_census(generate_arrangement(d + 1, d, seed=3))
        assert census == expected


class TestBeyondTheEnumerationCap:
    def test_generation_never_enumerates_covectors(self, tmp_path, capsys):
        # 12 hyperplanes plus the element at infinity were past the old
        # 12-form enumeration cap, which bound verification but never
        # generation; the covector cap lets them verify
        from omtop.cli import main

        a = generate_arrangement(12, 2, seed=0)
        assert a.n == 12 and _general_position(a)
        p = tmp_path / "twelve.arr"
        p.write_text(format_arrangement(a))
        assert main(["verify", str(p)]) == 0
        assert "verdict: ball-certified" in capsys.readouterr().out


class TestErrors:
    def test_dimension_must_be_positive(self):
        with pytest.raises(DomainError):
            generate_arrangement(3, 0, seed=0)

    def test_too_few_hyperplanes(self):
        with pytest.raises(DomainError, match="d\\+1"):
            generate_arrangement(2, 2, seed=0)

    def test_try_cap_exhausts(self):
        with pytest.raises(ResourceExhausted):
            generate_arrangement(4, 2, seed=0, max_tries=0)


# sha256 of format_arrangement(generate_arrangement(n, d, seed)) as drawn
# by the rank-per-subset test; the benchmark's instances are among them
PINNED = {
    (2, 1, 0): "20a042781a47bc7930a72a7cf10e07b3c2b0138b08ae1ab2580edc2696fcd744",
    (5, 1, 1): "1d6952678e0cc3ef513cd382966aff3afd66b3f42b43c27544f6da30d6f2ab04",
    (7, 1, 2): "9f2d5cab030b2ba08a4c924f105f238c2c44f0337d02a2c7795389ddfc8cf26c",
    (3, 2, 7): "67a3d9bed618609372442572c5c6efbc16034454b23212a3f2b96aaa6ed8b119",
    (4, 2, 1): "16399f947355cf85678bbed23292fa5cb3b767a26a4e394561621936ada4c99e",
    (5, 2, 3): "e28327a6950d62b5d44f05ffcb88675e55cf1b2e6244f3e5c2997d554708c136",
    (5, 2, 9): "ade78fa531127157ba955006638e130aaa343a82569e97a6eeb814fcdc15d5fd",
    (8, 2, 0): "f918841cbe4410d776d0a161c77d764613238a41d7ba67cd6d64836b645e447f",
    (8, 2, 1000): "64333e864f62127af95236781937b273ef520cc81eaace78747afe6ad8e22cf1",
    (8, 2, 2000): "2d98fa46c6dad550573e097520605be796cedb3e5111dcf2f1a34e225cfa9163",
    (11, 2, 0): "1defa8fca729085fb4f983851faa4395df11ac8bb32d45ac5ab0501bad5dfdbe",
    (12, 2, 0): "ad5c265435df69635bfbe336c538c6ac642f6c9646fcc8dad8323790291a0627",
    (13, 2, 0): "6039a15198e1738382dae8d4c4b51bde289937087347eb43b8d7bcab27ef4421",
    (4, 3, 0): "6f9ee3a1f2036f5294699028c4ac2595608a6d1f469c5bd4324d4e0965ad6389",
    (5, 3, 1): "717a08a21b76e4eb381d17846dc18f77feaed846d1a9985c38f7f5e561bc01d1",
    (5, 3, 1001): "7342278f12aa9d80fa32511b589c94245641151685a75344b509e7d5f57917d3",
    (5, 3, 2001): "dfb6be48e4fa9f6215de292f7e5d6e84e12d680dc6d80398c9cc3b35bdf6cbca",
    (6, 3, 1): "f3cf3e934e1c9e42d5af4f0c5c774c9d907855248b2122eb991e5ff63bcd39d7",
    (8, 3, 0): "edb8a98776a6952225eb239c18b1bf5d9cbfc8b64828d196e39ddd5132777cd6",
    (12, 3, 0): "6890991a7320304839f456afd43fb9e7a4596edabf13a2d2c47b3578e8b14b32",
    (5, 4, 0): "eeb4191d0db46f50f2afda01258f62d4df675fe50a090bcaff121b34f41b2461",
    (5, 4, 2): "13e43c772bec4d110eca15dd116303a09476ab06b78e84a3bd65b7d744300cc3",
    (5, 4, 1002): "2be3191fe327fe9a89fd74a959ad30587f91db13c335790ceee74d21a52527cd",
    (5, 4, 2002): "371274aa7f253c0459db182ed4128c93c3a716111f4a4e8575603272de57f6f6",
    (6, 4, 0): "b53432826734603c5f65832c970e0f223a29f90a598df4e84004d94470fc189f",
    (7, 4, 0): "42e020bbdb8dbd008649f8c556cc88082aceb795ab7217d75b716b1e4735d386",
    (9, 4, 0): "2bcda9a00fa6053eb27a88371dfb36695d5d2ac13fe4cc7ea7b216cb82a1210c",
    (6, 5, 0): "614e22cf41e4d16500391b00604bb0f33432a140d2d55470d0e8fd79ba1053ac",
    (7, 5, 1): "f54c1440ea47f1b5ae998dd39c84dcacfcbae10a84114ada2b3923c2c2ba5f48",
    (8, 5, 0): "a660d5e0851d7eb612147ef9dbbde4fce91bb8b3f2128a3153ee2529f36b735c",
    (9, 5, 0): "ecc8361711cbd10c3d8c1366dbec31266e36807bd7de019287192734224cd7a5",
    (7, 6, 0): "19684e1acedbdddfe50a2eeb4f03d3376dc4816bb6f75e53d6412a46a531fce7",
    (8, 6, 0): "1cdae7ac756c53f3d2e3eef5c0e4ea3f590a38600b5c9bba71f1fb37b9de2f47",
}


class TestSameDrawsAsTheRankTest:
    @pytest.mark.parametrize("n,d,seed", sorted(PINNED))
    def test_pinned_arrangement(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        text = format_arrangement(A)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED[n, d, seed]
        assert _general_position(A) and general_position_by_ranks(A)

    @pytest.mark.parametrize("n,d", [(14, 3), (15, 2)])
    def test_no_uniform_draw_in_the_box(self, n, d):
        # 200 draws from {-5..5}^d, none in general position
        with pytest.raises(ResourceExhausted, match="200 draws"):
            generate_arrangement(n, d, seed=0)


@st.composite
def _arrangements(draw):
    """Up to 7 hyperplanes in dimension 1-4 with small integer entries:
    random, or with a parallel or repeated hyperplane, or all through
    one point."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(dim + 1, 7))
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(
        any
    )
    normals = draw(st.lists(normal, min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "parallel", "repeated", "point")))
    if kind in ("parallel", "repeated"):
        normals[-1] = normals[0]
        if kind == "repeated":
            offsets[-1] = offsets[0]
    elif kind == "point":
        p = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        offsets = [sum(a * x for a, x in zip(v, p)) for v in normals]
    rows = [(f"h{i}", tuple(v), b) for i, (v, b) in
            enumerate(zip(normals, offsets))]
    return mk_arrangement(dim, rows)


class TestWedgeWalkAgainstRanks:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_arrangements())
    def test_general_position(self, A):
        assert _general_position(A) == general_position_by_ranks(A)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(integer_forms())
    def test_every_subset_a_basis(self, forms):
        k = len(forms[0])
        assume(len(forms) >= k)
        assert _every_subset_a_basis(forms, k) == (
            every_subset_a_basis_by_ranks(forms, k)
        )
