"""The key=value text codec of the config dataclasses.

A key is a dataclass field name; a nested dataclass field flattens to
`<field>_<subfield>` keys. A value's type comes from the field's default:
int, float, str, a tuple of ints or floats (comma separated), or None for
an optional string (`none` or an empty value reads as None); a float must
be finite. Written text is one `key=value` line per key, keys sorted,
floats in repr. Read text may hold blank lines and `#` comment lines;
omitted keys keep their defaults.

A sectioned text (the experiment config) has one `[name]` section per
field of the outer dataclass, each holding the keys of that field.

This module imports only the errors, so every module that owns a config
dataclass can use it.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

from .errors import ConfigError, FormatError


def decode_utf8(raw: bytes, what: str, error=FormatError) -> str:
    """raw as text; invalid UTF-8 raises error (a CastError class)."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{what} is not valid UTF-8: {e}") from None


def _flat(obj, prefix: str = "") -> dict:
    """{key: value} over the fields of a dataclass instance."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_flat(value, f"{prefix}{f.name}_"))
        else:
            out[prefix + f.name] = value
    return out


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def encode(obj) -> str:
    """The sorted key=value lines of a config dataclass instance."""
    return "".join(f"{k}={_format(v)}\n" for k, v in sorted(_flat(obj).items()))


def _parse(default, text: str):
    if "\0" in text:
        raise ValueError("NUL byte")  # no path or name may hold one
    if default is None:
        return None if text.lower() in ("", "none") else text
    many = isinstance(default, tuple)
    kind = type(default[0] if many else default)
    values = [kind(v) for v in (text.split(",") if many else [text])]
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError("non-finite number")  # float() reads nan, inf, 1e999
    return tuple(values) if many else values[0]


def _entries(text: str, origin: str, sections=()):
    """(where, section, key, value) per key=value line. Given section
    names, `[name]` lines open a section and every key needs one."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{origin}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if sections and line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        if sections and section is None:
            raise ConfigError(f"{where}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        yield where, section, key, value


def _build(default, values: dict, prefix: str = ""):
    """default with the flat-keyed values set, nested dataclasses rebuilt."""
    changes = {}
    for f in fields(default):
        value, key = getattr(default, f.name), prefix + f.name
        if is_dataclass(value):
            changes[f.name] = _build(value, values, key + "_")
        elif key in values:
            changes[f.name] = values[key]
    return replace(default, **changes)


def _typed(defaults: dict, where: str, key: str, value: str, section=None):
    if key not in defaults:
        in_section = f" in section [{section}]" if section else ""
        raise ConfigError(f"{where}: unknown key '{key}'{in_section}")
    try:
        return _parse(defaults[key], value)
    except ValueError:
        raise ConfigError(f"{where}: bad value for key '{key}': {value!r}") from None


def decode(cls, text: str, origin: str):
    """A cls instance from flat key=value text."""
    default = cls()
    defaults = _flat(default)
    return _build(default, {key: _typed(defaults, where, key, value)
                            for where, _, key, value in _entries(text, origin)})


def decode_sections(cls, text: str, origin: str):
    """A cls instance from sectioned text: section `[name]` holds the keys
    of field `name`, itself a config dataclass. Errors come in line order."""
    default = cls()
    parts = {f.name: getattr(default, f.name) for f in fields(default)}
    defaults = {name: _flat(part) for name, part in parts.items()}
    values: dict[str, dict] = {name: {} for name in parts}
    for where, section, key, value in _entries(text, origin, parts):
        values[section][key] = _typed(defaults[section], where, key, value, section)
    return replace(default, **{name: _build(part, values[name])
                               for name, part in parts.items()})
