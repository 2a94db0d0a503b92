"""Tests for parameter grids and canonical parameter encoding."""

import pytest

from repro.errors import RunnerError
from repro.runner import ParameterGrid, canonical_params


class TestConstruction:
    def test_len_is_product_of_axes(self):
        grid = ParameterGrid({"a": (1, 2, 3), "b": (10, 20)})
        assert len(grid) == 6

    def test_expansion_order_last_axis_fastest(self):
        grid = ParameterGrid({"a": (1, 2), "b": ("x", "y")})
        assert list(grid) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_expansion_is_repeatable(self):
        grid = ParameterGrid({"a": (3, 1, 2)})
        assert list(grid) == list(grid)

    def test_rejects_empty_grid(self):
        with pytest.raises(RunnerError):
            ParameterGrid({})

    def test_rejects_empty_axis(self):
        with pytest.raises(RunnerError):
            ParameterGrid({"a": ()})

    def test_rejects_repeated_value(self):
        with pytest.raises(RunnerError):
            ParameterGrid({"a": (1, 1)})


class TestFromSpec:
    def test_parses_ints_floats_strings(self):
        grid = ParameterGrid.from_spec("a=1,2.5,x")
        assert grid.axes["a"] == (1, 2.5, "x")

    def test_semicolon_and_whitespace_separators(self):
        for spec in ("a=1,2;b=3", "a=1,2 b=3", "a=1,2 ; b=3"):
            grid = ParameterGrid.from_spec(spec)
            assert list(grid.axes) == ["a", "b"], spec
            assert len(grid) == 2

    @pytest.mark.parametrize(
        "spec",
        ["", "   ", "noequals", "=1,2", "a=", "a=1;a=2", "a=nan", "a=1,-inf"],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(RunnerError):
            ParameterGrid.from_spec(spec)


class TestCanonicalParams:
    def test_key_order_does_not_matter(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )

    def test_integral_float_collapses_to_int(self):
        assert canonical_params({"s": 2.0}) == canonical_params({"s": 2})

    def test_distinct_values_stay_distinct(self):
        assert canonical_params({"s": 2.5}) != canonical_params({"s": 2})

    def test_unencodable_params_raise(self):
        with pytest.raises(RunnerError):
            canonical_params({"x": object()})
