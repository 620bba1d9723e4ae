"""Tests for ASCII tables and charts."""

import pytest

from repro.reporting import AsciiChart, Series, Table


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"], title="demo")
        table.add_row(["alpha", 1.25])
        table.add_row(["b", 10])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha | 1.25" in text
        assert "name" in lines[1] and "value" in lines[1]

    def test_row_width_mismatch(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_float_formatting(self):
        table = Table(["x"])
        table.add_row([1.23456789])
        assert "1.235" in table.render()

    def test_str_matches_render(self):
        table = Table(["x"])
        table.add_row([1])
        assert str(table) == table.render()


class TestChart:
    def test_series_length_check(self):
        with pytest.raises(ValueError):
            Series("bad", [1, 2], [1])

    def test_listing_contains_points(self):
        chart = AsciiChart("fig", x_label="chips", y_label="speedup")
        chart.add(Series("a", [1, 2, 4], [1.0, 1.9, 3.5]))
        text = chart.render_listing()
        assert "chips=1" in text and "speedup=3.5" in text

    def test_plot_is_bounded(self):
        chart = AsciiChart("fig", width=30, height=8)
        chart.add(Series("a", [1, 10, 100], [1, 10, 100]))
        plot = chart.render_plot()
        rows = [line for line in plot.splitlines() if line.startswith("|")]
        assert len(rows) == 8
        assert all(len(row) <= 31 for row in rows)

    def test_log_axis_requires_positive(self):
        chart = AsciiChart("fig", log_x=True)
        chart.add(Series("a", [0.0, 1.0], [1, 2]))
        with pytest.raises(ValueError):
            chart.render_plot()

    def test_log_log_plot_renders(self):
        chart = AsciiChart("fig", log_x=True, log_y=True)
        chart.add(Series("a", [64, 256, 1024, 4096], [1, 4, 14, 50]))
        text = chart.render()
        assert "fig" in text
        assert "x:" in text

    def test_empty_chart(self):
        chart = AsciiChart("empty")
        assert "(empty)" in chart.render_plot()
