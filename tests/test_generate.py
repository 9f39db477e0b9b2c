"""Seeded arrangement generation: determinism, uniformity, pinned shapes."""

import pytest

from omtop.errors import DomainError, ResourceExhausted
from omtop.generate import _general_position, generate_arrangement
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
        # 12 hyperplanes plus the element at infinity exceed the 12-form
        # enumeration cap: generation still succeeds, verification does not
        from omtop.cli import main

        a = generate_arrangement(12, 2, seed=0)
        assert a.n == 12 and _general_position(a)
        p = tmp_path / "twelve.arr"
        p.write_text(format_arrangement(a))
        assert main(["verify", str(p)]) == 3
        assert "cap" in capsys.readouterr().err


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
