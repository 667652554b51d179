"""Tests for the text rendering utilities."""

from __future__ import annotations

import pytest

from repro.analysis.report import render_grouped_bars, render_table
from repro.errors import ConfigurationError


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["name", "value"], [["a", 1.5], ["long-name", 2.0]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in text
        assert "long-name" in text

    def test_title(self):
        text = render_table(["x"], [["y"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_body_renders_headers(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestRenderGroupedBars:
    def test_groups_and_series(self):
        text = render_grouped_bars(
            ["bench1", "bench2"],
            {"default": [1.0, 1.0], "srrs": [1.2, 2.0]},
        )
        assert "bench1" in text
        assert "srrs" in text
        assert text.count("|") == 4

    def test_series_length_checked(self):
        with pytest.raises(ConfigurationError):
            render_grouped_bars(["a"], {"s": [1.0, 2.0]})

    @pytest.mark.parametrize("labels, values", [
        (["a"], [-1.0]),
        (["a", "b"], [2.0, -1.0]),
    ], ids=["only-negative", "beside-a-positive-peak"])
    def test_negative_values_rejected(self, labels, values):
        with pytest.raises(ConfigurationError, match="negative"):
            render_grouped_bars(labels, {"s": values})

    def test_peak_bar_spans_the_width(self):
        text = render_grouped_bars(["a"], {"small": [1.0], "big": [2.0]},
                                   width=10)
        _label, small_line, big_line = text.splitlines()
        assert big_line.count("#") == 10
        assert small_line.count("#") == 5

    def test_all_zero_series_render_without_bars(self):
        text = render_grouped_bars(["a", "b"], {"s": [0.0, 0.0]})
        assert text.count("0.000") == 2
        assert "#" not in text

    def test_title_is_the_first_line(self):
        text = render_grouped_bars(["a"], {"s": [1.0]}, title="Fig. 4")
        assert text.splitlines()[0] == "Fig. 4"
