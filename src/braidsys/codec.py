"""
JSON encoding of the frozen dataclass values, derived from their fields.

A value encodes as an object with one key per field, in field order; the
key is the field name unless the field's metadata names another
(`field(metadata={"json": key})`).  Tuples become lists, None stays null
and nested values use their own `to_json`.  Decoding follows the field
type hints and coerces nothing: a value of the wrong JSON type raises
TypeError, and a missing or unknown key ValueError, each naming the
key.  A union takes null only if it names None, and otherwise tries its
other arms in order: the first that accepts the value decodes it, and if
none does, the TypeError of the last arm is raised.
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
        require_keys(cls.__name__, data, (key for _, key in _keys(cls)))
        hints = typing.get_type_hints(cls)
        return cls(**{name: decode(hints[name], data[key], key) for name, key in _keys(cls)})


def require_keys(name: str, data, keys, optional=()) -> None:
    """Raise TypeError naming `name` unless `data` is a JSON object,
    ValueError naming the first of `keys` that it lacks, and ValueError
    naming its first key that is in neither `keys` nor `optional`."""
    if not isinstance(data, dict):
        raise TypeError(f"{name}: expected an object, got {type(data).__name__}")
    keys = tuple(keys)
    for key in keys:
        if key not in data:
            raise ValueError(f"{key}: missing from {name}")
    for key in data:
        if key not in keys and key not in optional:
            raise ValueError(f"{key}: unknown key in {name}")


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


_SCALARS = {int: "an integer", bool: "a boolean", str: "a string"}


def decode(tp, value, key: str):
    """Decode `value` as type `tp`.  An int, bool or str must arrive as
    exactly that JSON type (a bool is no int here) and null only where
    the type allows None; anything else raises TypeError naming `key`."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        *arms, tp = (a for a in args if a is not type(None))
        for arm in arms:
            try:
                return decode(arm, value, key)
            except TypeError:
                pass
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{key}: expected a list, got {type(value).__name__}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(decode(args[0], v, key) for v in value)
        return tuple(decode(a, v, key) for a, v in zip(args, value, strict=True))
    if tp in _SCALARS:
        if type(value) is not tp:
            raise TypeError(f"{key}: expected {_SCALARS[tp]}, got {type(value).__name__}")
        return value
    if issubclass(tp, JsonCodec) and not isinstance(value, dict):
        raise TypeError(f"{key}: expected an object, got {type(value).__name__}")
    return tp.from_json(value)
