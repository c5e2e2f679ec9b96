"""Config fields: one type and range check, one decoder from JSON.

A config dataclass states each field's type in its annotation and its
range with :func:`bound` next to the default, ``eta: float = bound(0.3,
ge=0, le=1)``, and calls :func:`check_fields` first in ``__post_init__``;
only rules that tie fields together stay there.  A ``bool`` is not a
number here, every number must be finite (NaN and ±inf fail the range
test), and a tuple's range applies to each entry.  :func:`decode` builds
a config from parsed JSON by the same annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from numbers import Integral, Real
from typing import Literal, Union, get_args, get_origin

__all__ = ["FieldError", "bound", "check_fields", "decode"]

_NAMES = {
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    type(None): ("null", "nulls"),
}


class FieldError(ValueError):
    """A config field that does not fit its annotation or its range."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


def bound(default=dataclasses.MISSING, *, ge=None, gt=None, le=None):
    """A dataclass field whose numbers must be ``>= ge``, ``> gt`` and ``<= le``."""
    return dataclasses.field(default=default, metadata={"range": (ge, gt, le)})


class _Field(typing.NamedTuple):
    hint: object
    fits: typing.Callable[[object], bool]
    rng: tuple


@functools.cache
def _fields(cls) -> dict[str, _Field]:
    """The fields of ``cls``, their types resolved and compiled once per class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _Field(
            hints[f.name], _predicate(hints[f.name]), f.metadata.get("range", (None, None, None))
        )
        for f in dataclasses.fields(cls)
    }


def _arms(hint) -> tuple:
    return get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)


def _predicate(hint) -> typing.Callable[[object], bool]:
    """A test of whether a value has the type ``hint`` describes (ranges aside)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        arms = [_predicate(arm) for arm in args]
        return lambda v: any(fits(v) for fits in arms)
    if origin is Literal:
        return lambda v: any(type(v) is type(a) and v == a for a in args)
    if origin is tuple and args[-1] is Ellipsis:
        entry = _predicate(args[0])
        return lambda v: type(v) is tuple and all(map(entry, v))
    if origin is tuple:
        entries = [_predicate(arm) for arm in args]
        return lambda v: (
            type(v) is tuple and len(v) == len(entries) and all(f(x) for f, x in zip(entries, v))
        )
    if hint in (int, float):
        number = Integral if hint is int else Real
        return lambda v: isinstance(v, number) and not isinstance(v, bool)
    return lambda v: isinstance(v, hint)


def _describe(hint, plural: bool = False) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return " or ".join(_describe(arm, plural) for arm in args)
    if origin is Literal:
        return f"{'values from' if plural else 'one of'} {', '.join(map(repr, args))}"
    if origin is tuple and args[-1] is Ellipsis:
        return f"a list of {_describe(args[0], plural=True)}"
    if origin is tuple:
        return f"a list [{', '.join(map(_describe, args))}]"
    if dataclasses.is_dataclass(hint):
        return f"a {hint.__name__}"
    return _NAMES[hint][plural]


def _in_range(value, rng) -> bool:
    if type(value) is tuple:
        return all(_in_range(v, rng) for v in value)
    if isinstance(value, bool) or not isinstance(value, Real):
        return True
    ge, gt, le = rng
    return (
        math.isfinite(value)
        and (ge is None or value >= ge)
        and (gt is None or value > gt)
        and (le is None or value <= le)
    )


def _range_text(rng) -> str:
    ge, gt, le = rng
    if ge is not None and le is not None:
        return f"in [{ge}, {le}]"
    if ge is not None:
        return f">= {ge}"
    return "finite" if gt is None else f"> {gt}"


def check_fields(cfg) -> None:
    """Check every field of the config ``cfg`` against its type and range."""
    for name, field in _fields(type(cfg)).items():
        value = getattr(cfg, name)
        if field.fits(value) and _in_range(value, field.rng):
            continue
        # a tuple came from a JSON list, so show it as one
        shown = repr(list(value) if type(value) is tuple else value)
        if not field.fits(value):
            raise FieldError(name, f"must be {_describe(field.hint)}, got {shown}")
        text = _range_text(field.rng)
        if type(value) is tuple:
            kind = _describe(next(a for a in _arms(field.hint) if a is not type(None)))
            raise FieldError(name, f"must be {kind}, each {text}, got {shown}")
        verb = "lie" if text.startswith("in") else "be"
        raise FieldError(name, f"must {verb} {text}, got {shown}")


def decode(cls, d, section: str = ""):
    """Build the config class ``cls`` from the parsed JSON object ``d``.

    Lists become tuples and objects nested configs, by annotation.  A key
    that names no field is refused.  ``section`` is the path of ``d`` in
    the enclosing config ("" at the top); errors name fields under it.
    """
    if not isinstance(d, dict):
        raise FieldError(section or cls.__name__, f"must be an object, got {d!r}")
    fields = _fields(cls)
    path = section + "." if section else ""
    kwargs = {}
    for key, value in d.items():
        if key not in fields:
            raise FieldError(path + key, f"is not a field of {cls.__name__}")
        kwargs[key] = _decoded(value, fields[key].hint, path + key)
    try:
        return cls(**kwargs)
    except FieldError as err:
        if not section:
            raise
        raise FieldError(path + err.field, err.problem) from None


def _decoded(value, hint, path: str):
    for arm in _arms(hint):
        if dataclasses.is_dataclass(arm):
            return decode(arm, value, path)
        if get_origin(arm) is tuple and isinstance(value, list):
            return tuple(value)
    return value
