"""docs/config.md documents exactly the config keys the CLI reads, with the
dataclass defaults and the flags that override them."""

import re
from pathlib import Path

import pytest

from cli_flags import key_flags
from memtrack import cli

CONFIG_DOC = Path(__file__).resolve().parent.parent / "docs" / "config.md"


def documented_rows() -> dict[str, tuple[str, str]]:
    """``section.key`` -> (default, meaning) cells of every key table in docs/config.md."""
    rows, section = {}, None
    for line in CONFIG_DOC.read_text(encoding="utf-8").splitlines():
        header = re.match(r"### `\[(\w+)\]`", line)
        if header:
            section = header.group(1)
            continue
        row = re.match(r"\| `(\w+)` \| ([^|]*) \| ([^|]*) \|", line)
        if row and section is not None:
            rows[f"{section}.{row.group(1)}"] = (row.group(2).strip(), row.group(3).strip())
    return rows


def test_every_documented_key_is_read_and_every_read_key_documented():
    documented = set(documented_rows())
    assert documented - cli.CONFIG_KEYS == set()
    assert cli.CONFIG_KEYS - documented == set()


@pytest.mark.parametrize("section", sorted(cli.DATACLASS_SECTIONS))
def test_dataclass_defaults_match_the_docs(section):
    rows = documented_rows()
    for f in cli._section_fields(section):
        cell = rows[f"{section}.{f.name}"][0].strip("`")
        assert type(f.default)(cell) == f.default, f"{section}.{f.name}: docs say {cell!r}"


@pytest.mark.parametrize("command, flag, key", key_flags())
def test_every_key_flag_is_named_in_its_keys_row(command, flag, key):
    assert f"`{command} {flag}`" in documented_rows()[key][1]
