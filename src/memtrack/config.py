"""Flat key=value configuration files with [section] headers.

Grammar (documented in docs/config.md): blank lines and #-comments are
ignored; a section header is ``[name]``; every other line is ``key = value``.
Keys are reported as ``section.key``.  A config is the ``dict[str, str]``
it parses to; :func:`get`, :func:`get_float_pairs` and :func:`get_int_list`
convert one key's value, reporting a value they cannot parse as a
ConfigError that names the key.  Parse failures carry the 1-based line
number.
"""

from __future__ import annotations

from .errors import ConfigError

__all__ = ["parse_config", "load_config", "get", "get_float_pairs", "get_int_list"]


def parse_config(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"{source}:{lineno}: malformed section header {line!r}")
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        full = f"{section}.{key}" if section else key
        if full in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {full!r}")
        values[full] = value.strip()
    return values


def load_config(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def get(values: dict[str, str], key: str, conv=str, default=None):
    """``conv`` of ``key``'s value, or ``default`` when the key is unset."""
    if key not in values:
        return default
    raw = values[key]
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: cannot parse {raw!r}") from exc


def get_float_pairs(values: dict[str, str], key: str, default=None):
    """Parse e.g. ``0.4:0.6, 0.6:0.8`` into [(0.4, 0.6), (0.6, 0.8)]."""
    if key not in values:
        return default
    pairs = []
    for chunk in values[key].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"option {key!r}: expected a:b pairs, got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"option {key!r}: cannot parse {chunk!r}") from exc
    if not pairs:
        raise ConfigError(f"option {key!r}: no pairs given")
    return pairs


def get_int_list(values: dict[str, str], key: str, default=None):
    if key not in values:
        return default
    try:
        return [int(x) for x in values[key].split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: expected integers") from exc
