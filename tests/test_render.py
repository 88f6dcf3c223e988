"""Library-level tests of the SVG renderer."""

from fractions import Fraction

import pytest

from lonelyrunner import billiards, render
from lonelyrunner.arith import QuadExt

F = Fraction


class TestRenderSvg:
    @pytest.mark.parametrize("extent", [0, -3])
    def test_extent_below_one_refused(self, extent):
        message = f"^extent must be an integer from 1 to 100, got {extent}$"
        with pytest.raises(ValueError, match=message):
            render.render_svg("triangle_tiling", alpha=F(1, 4), rays=[QuadExt(0, F(1, 5))], extent=extent)
        with pytest.raises(ValueError, match=message):
            render.render_svg("obstruction2d", alpha=F(1, 3), rays=[F(1, 2)], extent=extent)

    @pytest.mark.parametrize(
        "scene, params, message",
        [
            ("obstruction2d", {"extent": 2.5}, "extent must be an integer from 1 to 100, got 2.5"),
            ("triangle_tiling", {"extent": 2.5}, "extent must be an integer from 1 to 100, got 2.5"),
            ("square_billiard", {"slope": F(1, 2), "segments": True}, "segments must be an integer from 1 to 16384, got True"),
            ("triangle_billiard", {"slope": QuadExt(1), "strikes": True}, "strikes must be an integer from 1 to 16384, got True"),
        ],
        ids=["obstruction2d-params0", "triangle_tiling-params1", "square_billiard-params2", "triangle_billiard-params3"],
    )
    def test_count_that_is_not_an_int_refused(self, scene, params, message):
        # Neither is a count, although int() would take both.
        with pytest.raises(ValueError) as info:
            render.render_svg(scene, **params)
        assert str(info.value) == message

    def test_parameter_unknown_or_missing_refused(self):
        with pytest.raises(ValueError, match="scene triangle_billiard: .*'segments'"):
            render.render_svg("triangle_billiard", slope=QuadExt(1), segments=3)
        with pytest.raises(ValueError, match="scene square_billiard: .*'slope'"):
            render.render_svg("square_billiard")

    def test_cells_drawn_without_triangle_cell(self, monkeypatch):
        # The tiling and the billiard's obstacle are drawn from integer cell
        # units; no Q(sqrt 3) cell is built.
        def refuse(*args):
            raise AssertionError("triangle_cell called")

        monkeypatch.setattr(billiards, "triangle_cell", refuse)
        monkeypatch.setattr(render, "triangle_cell", refuse, raising=False)
        tiling = render.render_svg("triangle_tiling", alpha=F(1, 4), rays=[QuadExt(0, F(1, 5))], extent=3)
        assert tiling.count("<polygon") == 2 * 12  # each cell's outline and obstacle
        table = render.render_svg("triangle_billiard", slope=QuadExt(1), alpha=F(1, 3), strikes=4)
        assert table.count("<polygon") == 2
