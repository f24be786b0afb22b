"""Tests for the SVG visualisation module and the command-line interface."""


import pytest

from repro.cli import build_parser, main
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.viz.svg import SvgCanvas, render_uv_diagram


DOMAIN = Rect(0.0, 0.0, 1000.0, 500.0)


class TestSvgCanvas:
    def test_dimensions_follow_domain_aspect(self):
        canvas = SvgCanvas(DOMAIN, width=800)
        assert canvas.width == 800
        assert canvas.height == 400
        with pytest.raises(ValueError):
            SvgCanvas(DOMAIN, width=0)

    def test_coordinate_mapping_flips_y(self):
        canvas = SvgCanvas(DOMAIN, width=1000)
        assert canvas.to_pixels(Point(0.0, 0.0)) == (0.0, 500.0)
        assert canvas.to_pixels(Point(1000.0, 500.0)) == (1000.0, 0.0)

    def test_elements_serialised(self):
        canvas = SvgCanvas(DOMAIN, width=400)
        canvas.add_circle(Circle(Point(500.0, 250.0), 50.0))
        canvas.add_polygon(Polygon([Point(0, 0), Point(100, 0), Point(0, 100)]))
        canvas.add_rect(Rect(10, 10, 20, 20))
        canvas.add_marker(Point(5, 5), label="q <1>")
        canvas.add_title("demo & title")
        svg = canvas.to_svg()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 2  # region circle + marker
        assert "<polygon" in svg
        assert "<rect" in svg.replace('rect width="100%"', "", 1)
        # Labels are escaped.
        assert "q &lt;1&gt;" in svg
        assert "demo &amp; title" in svg

    def test_degenerate_polygon_skipped(self):
        canvas = SvgCanvas(DOMAIN, width=400)
        canvas.add_polygon(Polygon([Point(0, 0), Point(1, 1)]))
        assert "<polygon" not in canvas.to_svg()

    def test_save(self, tmp_path):
        canvas = SvgCanvas(DOMAIN, width=200)
        path = tmp_path / "out.svg"
        canvas.save(str(path))
        assert path.exists()
        assert path.read_text().startswith("<svg")


class TestRenderDiagram:
    def test_render_full_diagram(self, small_diagram, tmp_path):
        canvas = render_uv_diagram(
            small_diagram,
            width=400,
            highlight_cells=[small_diagram.objects[0].oid],
            query_points=[Point(500.0, 500.0)],
            title="test render",
        )
        svg = canvas.to_svg()
        # One circle per object plus the query marker.
        assert svg.count("<circle") == len(small_diagram.objects) + 1
        assert "test render" in svg
        path = tmp_path / "diagram.svg"
        canvas.save(str(path))
        assert path.stat().st_size > 500


class TestCli:
    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["info"])
        assert args.command == "info"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "UV-diagram" in out

    def test_info_lists_the_four_backends(self, capsys):
        assert main(["info"]) == 0
        assert "backends: basic, ic, icr, rtree\n" in capsys.readouterr().out

    def test_build_command(self, capsys):
        code = main([
            "build", "--objects", "30", "--diameter", "300", "--seed", "2",
            "--page-capacity", "8", "--seed-knn", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "construction time" in out
        assert "leaf_nodes" in out

    def test_query_command_with_point(self, capsys):
        code = main([
            "query", "--objects", "30", "--diameter", "300", "--seed", "3",
            "--page-capacity", "8", "--seed-knn", "10", "--at", "5000,5000",
        ])
        assert code == 0
        assert "PNN(5000.0, 5000.0)" in capsys.readouterr().out

    def test_query_command_invalid_point(self, capsys):
        code = main([
            "query", "--objects", "10", "--seed-knn", "5", "--at", "1,2,3",
        ])
        assert code == 2

    def test_render_command(self, tmp_path, capsys):
        output = tmp_path / "picture.svg"
        code = main([
            "render", "--objects", "25", "--diameter", "300", "--seed", "4",
            "--page-capacity", "8", "--seed-knn", "10",
            "--output", str(output), "--highlight", "0,1",
        ])
        assert code == 0
        assert output.exists()

    @pytest.mark.parametrize(
        "flag",
        [["--prob-kernel", "scalar"], ["--method", "ic"], ["--grid-resolution", "16"]],
        ids=["prob-kernel", "method", "grid-resolution"],
    )
    def test_retired_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["query", "--objects", "10", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retired_grid_backend_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--objects", "10", "--backend", "grid"])
        assert exit_info.value.code == 2
        assert "argument --backend: invalid choice: 'grid'" in capsys.readouterr().err
        assert main(["compare", "--objects", "10", "--backends", "ic,grid"]) != 0
        assert ("unknown backend(s): grid (available: basic, ic, icr, rtree)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["build", "explain", "shard-build", "render"])
    def test_every_backend_option_refuses_the_retired_grid(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--backend", "grid"])
        assert exit_info.value.code == 2
        assert "argument --backend: invalid choice: 'grid'" in capsys.readouterr().err


class TestServeCli:
    def test_parser_accepts_serve(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--load", "uv.snap", "--workers", "4", "--port", "0",
            "--rate-limit", "10",
        ])
        assert args.command == "serve"
        assert args.workers == 4
        assert args.load == "uv.snap"
        assert args.load_store == "mmap"
        assert args.rate_limit == 10.0

    def test_retired_read_latency_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--load", "uv.snap", "--read-latency", "0.01"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_requires_load(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_rejects_bad_config(self, capsys):
        code = main(["serve", "--load", "uv.snap", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err
