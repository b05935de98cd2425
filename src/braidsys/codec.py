"""
JSON encoding of the frozen dataclass values, derived from their fields.

A value encodes as an object with one key per field, in field order; the
key is the field name unless the field's metadata names another
(`field(metadata={"json": key})`).  Tuples become lists, None stays null
and nested values use their own `to_json`.  Decoding follows the field
type hints.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import fields


class JsonCodec:
    """Mixin giving a dataclass `to_json` and `from_json`."""

    def to_json(self) -> dict:
        return {key: _encode(getattr(self, name)) for name, key in _keys(type(self))}

    @classmethod
    def from_json(cls, data: dict):
        hints = typing.get_type_hints(cls)
        return cls(**{name: _decode(hints[name], data[key]) for name, key in _keys(cls)})


@functools.cache
def _keys(cls) -> tuple[tuple[str, str], ...]:
    """(field name, JSON key) of every field, in field order."""
    return tuple((f.name, f.metadata.get("json", f.name)) for f in fields(cls))


def _encode(value):
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value.to_json()


def _decode(tp, value):
    if value is None:
        return None
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        tp = next(a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value, strict=True))
    return tp.from_json(value) if hasattr(tp, "from_json") else tp(value)
