"""A JSON Schema (draft 2020-12) interpreter of the keywords the scenario
schema uses, ``KEYWORDS``, which reports the error ``jsonschema.validate``
would raise: it walks keywords in dict order with jsonschema 4.26's type
rules, messages and ``json_path``, and picks among them by its
``best_match`` key; jsonschema is the tests' oracle.  Any other keyword
(``oneOf`` too) raises ``ValueError``, so a schema edit is never silently
ignored.  Instances are what ``json.load`` returns.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset({
    "$schema", "type", "required", "properties", "items", "enum", "const",
    "exclusiveMinimum", "minimum", "minItems", "maxItems", "allOf", "if",
    "then", "dependentRequired",
})

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # draft 6 on: a float with an integral value is an integer
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}

_PLAIN_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


class Violation(NamedTuple):
    path: tuple  # absolute: keys and indices from the document root
    keyword: str
    message: str
    schema: dict  # the subschema that holds `keyword`
    value: object  # the instance it judged


def _is_type(value, types) -> bool:
    return any(_TYPES[t](value) for t in ([types] if isinstance(types, str) else types))


def _equal(a, b) -> bool:
    """jsonschema's equality: True is not 1, and containers compare by item."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _messages(kw, arg, value):
    """The message of each violation of one keyword that holds no subschema."""
    if kw == "type":
        if not _is_type(value, arg):
            types = [arg] if isinstance(arg, str) else arg
            yield f"{value!r} is not of type {', '.join(map(repr, types))}"
    elif kw == "enum":
        if not any(_equal(value, each) for each in arg):
            yield f"{value!r} is not one of {arg!r}"
    elif kw == "const":
        if not _equal(value, arg):
            yield f"{arg!r} was expected"
    elif kw == "required":
        if isinstance(value, dict):
            yield from (f"{k!r} is a required property" for k in arg if k not in value)
    elif kw == "dependentRequired":
        if isinstance(value, dict):
            for key, needs in arg.items():
                if key in value:
                    yield from (f"{k!r} is a dependency of {key!r}"
                                for k in needs if k not in value)
    elif kw == "exclusiveMinimum":
        if _is_type(value, "number") and value <= arg:
            yield f"{value!r} is less than or equal to the minimum of {arg!r}"
    elif kw == "minimum":
        if _is_type(value, "number") and value < arg:
            yield f"{value!r} is less than the minimum of {arg!r}"
    elif kw == "minItems":
        if isinstance(value, list) and len(value) < arg:
            yield f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
    elif kw == "maxItems":
        if isinstance(value, list) and len(value) > arg:
            yield f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"


def _errors(schema: dict, value, path: tuple = ()):
    """Every violation of `schema` by `value`, in the order of jsonschema's
    `iter_errors`."""
    for kw, arg in schema.items():
        if kw in ("$schema", "then"):
            continue
        if kw == "properties":
            if isinstance(value, dict):
                for key, sub in arg.items():
                    if key in value:
                        yield from _errors(sub, value[key], path + (key,))
        elif kw == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _errors(arg, item, path + (i,))
        elif kw == "allOf":
            for sub in arg:
                yield from _errors(sub, value, path)
        elif kw == "if":
            if "then" in schema and _valid(arg, value):
                yield from _errors(schema["then"], value, path)
        else:
            for message in _messages(kw, arg, value):
                yield Violation(path, kw, message, schema, value)


def _valid(schema: dict, value) -> bool:
    return next(_errors(schema, value), None) is None


def _check_keywords(schema: dict) -> None:
    """Raise ValueError if `schema` holds a keyword `_errors` does not know."""
    for kw, arg in schema.items():
        if kw not in KEYWORDS:
            raise ValueError(f"unsupported schema keyword {kw!r}")
        subs = (arg.values() if kw == "properties" else arg if kw == "allOf"
                else [arg] if kw in ("items", "if", "then") else ())
        for sub in subs:
            _check_keywords(sub)


def _relevance(e: Violation):
    """jsonschema's `relevance` key, less its weak- and strong-keyword
    terms, which are constant over the keywords supported here.  Paths are
    absolute here, which orders sibling violations as its relative paths do."""
    matches_type = "type" in e.schema and _is_type(e.value, e.schema["type"])
    return (-len(e.path), e.path, not matches_type)


def _json_path(path: tuple) -> str:
    out = "$"
    for elem in path:
        if isinstance(elem, int):
            out += f"[{elem}]"
        elif _PLAIN_NAME.match(elem):
            out += "." + elem
        else:
            out += "['" + elem.replace("\\", "\\\\").replace("'", r"\'") + "']"
    return out


def best_match(schema: dict, value):
    """`(json_path, message)` of the violation jsonschema.validate would
    raise, or None when `value` is valid."""
    _check_keywords(schema)
    best = max(_errors(schema, value), key=_relevance, default=None)
    return None if best is None else (_json_path(best.path), best.message)
