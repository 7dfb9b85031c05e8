"""The in-package schema interpreter against jsonschema, its oracle."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdho._schema import best_match
from tdho.cli import SCENARIO_SCHEMA
from tdho.scenarios import BUNDLED, scenario_path

_ORACLE = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)
_DOCS = [json.loads(Path(scenario_path(name)).read_text(encoding="utf-8")) for name in BUNDLED]


def _oracle(validator, doc):
    """(json_path, message) of jsonschema's best match, or None."""
    e = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    return None if e is None else (e.json_path, e.message)


_NAMES = ["UnitMassSHO", "CaldirolaKanai", "LoDampedPulsating", "GeneralParametric",
          "analytic_sho", "analytic_ck", "numeric", "constant", "cosine", "expcosine",
          "polynomial", "sho", "ck", "lo", "residual", "x_min", "x-max", "it's"]
_NUMBERS = st.one_of(st.integers(-3, 20), st.sampled_from([0.0, 1.0, 16.0, -0.0, 1e-300]),
                     st.floats(-2.0, 5.0, allow_nan=False), st.booleans())
_SCALARS = st.one_of(_NUMBERS, st.none(), st.sampled_from(_NAMES), st.text(max_size=2))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(_NAMES), inner, max_size=3)),
    max_leaves=6)
_FORCE = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["constant", "cosine", "expcosine", "polynomial"]),
                       _SCALARS)},
    optional={k: st.one_of(st.floats(-2.0, 2.0), _VALUES, st.lists(st.floats(-1.0, 1.0),
                                                                   max_size=3))
              for k in ("F0", "amplitude", "rate", "omega", "coeffs")})
_DRIVING = st.one_of(
    st.fixed_dictionaries({}, optional={"force": st.one_of(_FORCE, _VALUES),
                                        "xp0": _SCALARS, "tol": _SCALARS}),
    _VALUES)
_GRID = st.fixed_dictionaries({}, optional={k: _SCALARS for k in (
    "policy", "points", "pad", "x_min", "x_max")})
_CHECK = st.one_of(st.sampled_from(["residual", "stationarity"]),
                   st.fixed_dictionaries({}, optional={"name": _SCALARS, "tolerance": _SCALARS}),
                   _VALUES)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _slots(node):
    """Every (container, key) slot of a document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["drop", "retype", "number", "append", "empty", "driving",
                                   "checks", "grid"]))
        if op in ("driving", "grid"):
            doc[op] = draw(_DRIVING if op == "driving" else _GRID)
            continue
        if op == "checks":
            if not isinstance(doc.get("checks"), list):
                doc["checks"] = []
            doc["checks"] += draw(st.lists(_CHECK, min_size=1, max_size=3))
            continue
        slots = [(parent, key) for parent, key in _slots(doc)
                 if op != "number" or _is_number(parent[key])
                 if op != "append" or isinstance(parent[key], list)]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        if op == "number":
            parent[key] = draw(_NUMBERS)
        elif op == "append":
            parent[key].append(draw(_NUMBERS))
        elif op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(_VALUES)
        elif isinstance(parent[key], (list, dict)):
            parent[key] = type(parent[key])()
        else:
            parent[key] = []
    return doc


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(doc=_mutated())
def test_best_match_equals_jsonschema_on_mutated_bundled_documents(doc):
    """Valid or not, and the reported (json_path, message), as jsonschema."""
    assert best_match(SCENARIO_SCHEMA, doc) == _oracle(_ORACLE, doc)


def test_bundled_documents_are_valid():
    for doc in _DOCS:
        assert best_match(SCENARIO_SCHEMA, doc) is None


@pytest.mark.parametrize("schema,doc", [
    ({"type": "number"}, True),  # a bool is not a number
    ({"type": "integer"}, 3.0),  # an integral float is an integer
    ({"type": "integer"}, 3.5),
    ({"type": ["integer", "string"]}, 2.5),
    ({"enum": [1, "a"]}, True),  # True is not 1
    ({"enum": [True]}, 1),
    ({"const": 0}, False),
    ({"const": [1, {"a": 1}]}, [1, {"a": 1.0}]),
    ({"const": [1]}, [True]),
    ({"minItems": 1}, []),
    ({"minItems": 2}, [1]),
    ({"maxItems": 0}, [1]),
    ({"maxItems": 1}, [1, 2]),
    ({"minimum": 0}, -1),
    ({"exclusiveMinimum": 0}, 0.0),
    ({"properties": {"a b": {"type": "string"}, "it's": {"type": "string"}}},
     {"a b": 1, "it's": 2}),
    ({"if": {"const": 1}, "then": {"type": "string"}}, 1),
    ({"dependentRequired": {"a": ["b", "c"]}}, {"a": 1}),
    ({"$schema": "https://json-schema.org/draft/2020-12/schema", "required": ["a"]}, {}),
])
def test_keywords_match_jsonschema(schema, doc):
    validator = jsonschema.validators.validator_for(schema)(schema)
    assert best_match(schema, doc) == _oracle(validator, doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"absent": {"maximum": 3}}},
    {"if": {"type": "string"}, "then": {"type": "string"}, "else": {"type": "number"}},
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"oneOf": [{"minimum": 0}, {"type": "string"}]},
    {"items": {"oneOf": [{"type": "string"}, {"required": ["a", "b"]}]}},
])
def test_unsupported_keyword_raises(schema):
    """A keyword the interpreter does not implement is refused, even where
    the document never reaches it."""
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        best_match(schema, "a")
