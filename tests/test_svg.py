"""SVG rendering: element counts mirror the bounded complex exactly."""

import pytest

from omtop.errors import DomainError
from omtop.realization import Arrangement
from omtop.svgfig import default_bounds, render_arrangement_svg


@pytest.fixture(scope="module")
def svg(four_arr):
    return render_arrangement_svg(four_arr)


class TestFourLinePicture:

    def test_counts_match_bounded_complex(self, svg):
        # f-vector (5, 6, 2): 5 dots, 6 heavy edges, 2 shaded cells
        assert svg.count("<polygon") == 2
        assert svg.count('stroke="#b03a2e"') == 6
        assert svg.count("<circle") == 5
        assert svg.count('stroke="#888"') == 4

    def test_labels_present(self, svg):
        for lab in ("x", "y", "s", "t"):
            assert f">{lab}</text>" in svg

    def test_deterministic(self, svg, four_arr):
        assert render_arrangement_svg(four_arr) == svg

    def test_wellformed(self, svg):
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


class TestBounds:
    def test_default_bounds_pad_vertex_bbox(self, four_arr):
        # vertices span [-1, 1] in each coordinate; 20% margin
        x0, y0, x1, y1 = default_bounds(four_arr)
        assert (x0, y0, x1, y1) == (-1.4, -1.4, 1.4, 1.4)

    def test_no_vertices_unit_box(self):
        A = Arrangement(
            dim=2, labels=("a",), normals=((1, 0),), offsets=(0,)
        )
        assert default_bounds(A) == (-1.0, -1.0, 1.0, 1.0)
        svg = render_arrangement_svg(A)
        assert svg.count("<polygon") == 0 and svg.count("<circle") == 0

    def test_explicit_bounds_clip(self, tri_arr):
        svg = render_arrangement_svg(tri_arr, bounds=(-1, -1, 2, 2))
        assert svg.count("<polygon") == 1

    def test_empty_bounds_rejected(self, tri_arr):
        with pytest.raises(DomainError, match="bounds"):
            render_arrangement_svg(tri_arr, bounds=(1, 1, 1, 1))


class TestErrors:
    def test_only_dim2(self, line_arr):
        with pytest.raises(DomainError, match="dim"):
            render_arrangement_svg(line_arr)


class TestVertexMapOnce:
    @pytest.mark.parametrize("bounds", [None, (-2, -2, 2, 2)])
    def test_one_vertex_map_per_render(self, four_arr, bounds, monkeypatch):
        import omtop.svgfig as svgfig

        real = svgfig._vertex_map
        calls = []

        def counted(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(svgfig, "_vertex_map", counted)
        svg = render_arrangement_svg(four_arr, bounds=bounds)
        assert len(calls) == 1
        monkeypatch.undo()
        assert svg == render_arrangement_svg(four_arr, bounds=bounds)
