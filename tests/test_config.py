import pytest

from memtrack.config import get, get_float_pairs, get_int_list, parse_config
from memtrack.errors import ConfigError


class TestParse:
    def test_sections_and_keys(self):
        text = """
# comment
[scenario]
steps = 140
sigma_w = 0.4

[train]
epochs = 30
"""
        values = parse_config(text)
        assert values == {"scenario.steps": "140", "scenario.sigma_w": "0.4",
                          "train.epochs": "30"}

    def test_sectionless_keys(self):
        assert parse_config("alpha = 1") == {"alpha": "1"}

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config("a = 1\n\nnot a pair\n", source="f.cfg")

    def test_malformed_section(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config("[scenario", source="f.cfg")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[a]\nx = 1\nx = 2")


class TestTypedGetters:
    def test_conversions(self):
        values = {"a.i": "3", "a.f": "0.5", "a.s": "hello"}
        assert get(values, "a.i", int) == 3
        assert get(values, "a.f", float) == 0.5
        assert get(values, "a.s") == "hello"
        assert get(values, "missing", int, 7) == 7
        assert get(values, "missing") is None

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="option 'k': cannot parse 'abc'"):
            get({"k": "abc"}, "k", int)

    def test_float_pairs(self):
        values = {"levels": "0.4:0.6, 0.8:1"}
        assert get_float_pairs(values, "levels") == [(0.4, 0.6), (0.8, 1.0)]
        with pytest.raises(ConfigError):
            get_float_pairs({"levels": "0.4"}, "levels")

    def test_int_list(self):
        assert get_int_list({"sizes": "100, 200,1000"}, "sizes") == [100, 200, 1000]
