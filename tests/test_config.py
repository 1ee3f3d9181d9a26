import pytest

from memtrack.config import ConfigView, parse_config
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
        view = ConfigView({"a.i": "3", "a.f": "0.5", "a.s": "hello"})
        assert view.get_int("a.i") == 3
        assert view.get_float("a.f") == 0.5
        assert view.get_str("a.s") == "hello"
        assert view.get_int("missing", 7) == 7

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            ConfigView({"k": "abc"}).get_int("k")

    def test_float_pairs(self):
        view = ConfigView({"levels": "0.4:0.6, 0.8:1"})
        assert view.get_float_pairs("levels") == [(0.4, 0.6), (0.8, 1.0)]
        with pytest.raises(ConfigError):
            ConfigView({"levels": "0.4"}).get_float_pairs("levels")

    def test_int_list(self):
        assert ConfigView({"sizes": "100, 200,1000"}).get_int_list("sizes") == [100, 200, 1000]
