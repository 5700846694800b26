"""The hand-emitted SVG line plot: well-formed output that holds its data."""

import xml.etree.ElementTree as ET

import pytest

from fraclab.svgplot import Series, line_plot

SVG = "{http://www.w3.org/2000/svg}"


def parse(text):
    return ET.fromstring(text.encode("utf-8"))


def two_series():
    return [
        Series("numeric", (1, 2, 3, 4), (0.5, 1.5, 0.25, 2.0), markers=True),
        Series("asymptotic", (1, 2, 3), (0.4, 1.4, 2.4)),
    ]


class TestStructure:
    def test_output_parses_as_svg(self):
        root = parse(line_plot(two_series(), title="t", xlabel="x", ylabel="y"))
        assert root.tag == SVG + "svg"
        assert root.get("width") == "640" and root.get("height") == "420"

    def test_one_polyline_per_series_with_its_points(self):
        series = two_series()
        lines = parse(line_plot(series)).findall(SVG + "polyline")
        assert len(lines) == len(series)
        for line, s in zip(lines, series):
            points = line.get("points").split()
            assert len(points) == len(s.x)
            assert all(len(p.split(",")) == 2 for p in points)

    def test_markers_give_one_circle_per_point(self):
        circles = parse(line_plot(two_series())).findall(SVG + "circle")
        assert len(circles) == 4  # only the first series has markers
        plain = [Series("a", (0, 1), (0, 1))]
        assert parse(line_plot(plain)).findall(SVG + "circle") == []

    def test_constant_series_still_renders(self):
        # a zero data range is padded instead of dividing by zero
        root = parse(line_plot([Series("flat", (0.0, 1.0), (3.0, 3.0))]))
        assert len(root.findall(SVG + "polyline")) == 1


class TestText:
    def test_timestamp_comment_only_when_given(self):
        stamped = line_plot(two_series(), timestamp="2026-01-02T03:04:05Z")
        assert "<!-- generated 2026-01-02T03:04:05Z -->" in stamped
        plain = line_plot(two_series())
        assert "generated" not in plain
        assert plain == line_plot(two_series())

    def test_markup_characters_round_trip(self):
        title, xlabel, ylabel, label = "a & b < c", "x > 0", "<y>", "k & <k>"
        text = line_plot(
            [Series(label, (0.0, 1.0), (1.0, 2.0))], title=title, xlabel=xlabel, ylabel=ylabel
        )
        texts = [node.text for node in parse(text).iter(SVG + "text")]
        for want in (title, xlabel, ylabel, label):
            assert want in texts


class TestValidation:
    def test_no_series_rejected(self):
        with pytest.raises(ValueError):
            line_plot([])

    @pytest.mark.parametrize(
        "series",
        [Series("bad", (0.0, 1.0, 2.0), (1.0, 2.0)), Series("empty", (), ())],
        ids=["unequal", "empty"],
    )
    def test_unequal_or_empty_series_rejected(self, series):
        with pytest.raises(ValueError):
            line_plot([series])
