"""schemas.validate against jsonschema.validate, which stays the oracle."""

import math
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicover import schemas
from levicover.schemas import FAMILY_SCHEMA, SchemaError

SCHEMAS = {name: schema for name, schema in vars(schemas).items()
           if name.endswith("_SCHEMA")}
HASH = "0123456789abcdef" * 4
FAMILY = {"graph_hash": HASH, "k": 2, "delta": 0.1, "seed": 0, "t": 1,
          "d": 3, "p": "1/4", "sets": [[0, 1]]}

# Strings near the schemas' patterns: a trailing newline matches "$".
STRINGS = [HASH, HASH + "\n", HASH + "\n\n", HASH.upper(), HASH[1:],
           "1/4", "12/345\n", "1/4\n\n", "a/b", "1/", "pass", "fail", ""]
# Values of every JSON type, with the edge cases of Draft 2020-12 types.
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(), st.sampled_from([0.0, 1.0, 4.0, -1.0, 0.5, math.nan,
                                  math.inf, -math.inf]),
    st.sampled_from(STRINGS), st.text(max_size=4))
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=5)


def _typed(name: str, schema: dict):
    """Values of one type that fit ``schema``'s bounds and pattern."""
    low = schema.get("minimum")
    if name == "integer":
        return st.integers(min_value=low) | st.sampled_from(
            [x for x in (4.0, 1e20) if low is None or x >= low])
    if name == "number":
        if "exclusiveMaximum" in schema:
            return st.floats(low, schema["exclusiveMaximum"],
                             exclude_max=True) | st.just(math.nan)
        return st.floats() | st.integers()
    if name == "string" and "pattern" in schema:
        return st.sampled_from([x for x in STRINGS
                                if re.search(schema["pattern"], x)])
    return {"string": st.text(max_size=4), "boolean": st.booleans(),
            "null": st.none(), "object": st.dictionaries(
                st.text(max_size=3), scalars, max_size=2)}[name]


def fits(schema: dict):
    """Documents that ``schema`` accepts."""
    if "properties" in schema:
        props = {key: fits(sub) for key, sub in schema["properties"].items()}
        required = schema.get("required", ())
        return st.fixed_dictionaries(
            {key: props[key] for key in required},
            optional={k: v for k, v in props.items() if k not in required})
    if "items" in schema:
        return st.lists(fits(schema["items"]), max_size=3)
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"]
    types = [types] if isinstance(types, str) else types
    return st.one_of(*(_typed(t, schema) for t in types))


def _mutate(draw, doc):
    """doc with one change: a key dropped or added, or a value replaced."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        at = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                  else range(len(doc))))
        doc = doc.copy()
        doc[at] = _mutate(draw, doc[at])
        return doc
    if isinstance(doc, dict) and doc and draw(st.booleans()):
        drop = draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != drop}
    if isinstance(doc, dict) and draw(st.booleans()):
        return {**doc, draw(st.sampled_from(["extra", "k", ""])):
                draw(values)}
    return draw(values)


@st.composite
def near(draw, schema: dict):
    """Documents that fit ``schema``, or fit it but for one change."""
    doc = draw(fits(schema))
    return _mutate(draw, doc) if draw(st.booleans()) else doc


def oracle_accepts(doc, schema) -> bool:
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError:
        return False
    return True


def accepts(doc, schema) -> bool:
    try:
        schemas.validate(doc, schema)
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_same_verdict_as_jsonschema(name, data):
    schema = SCHEMAS[name]
    doc = data.draw(near(schema), label="document")
    assert accepts(doc, schema) == oracle_accepts(doc, schema)


@pytest.mark.parametrize("fields,ok", [
    ({}, True),
    ({"delta": math.nan}, True),       # NaN fails neither bound
    ({"delta": math.inf}, False),
    ({"delta": -math.inf}, False),
    ({"delta": 1.0}, False),
    ({"delta": 0}, True),
    ({"seed": math.nan}, False),       # NaN is not an integer
    ({"seed": math.inf}, False),
    ({"seed": -1}, False),
    ({"k": 4.0}, True),                # an integral float is an integer
    ({"k": True}, False),              # a bool is not an integer
    ({"delta": False}, False),         # nor a number
    ({"k": 0}, False),
    ({"graph_hash": HASH + "\n"}, True),  # $ matches before a final \n
    ({"graph_hash": HASH + "\n\n"}, False),
    ({"graph_hash": HASH.upper()}, False),
    ({"p": "1/4\n"}, True),
    ({"extra": 1}, False),
    ({"sets": [[0, True]]}, False),
    ({"sets": [[0, 1.0]]}, True),
    ({"sets": {"0": [1]}}, False),
], ids=repr)
def test_family_edge_cases(fields, ok):
    doc = {**FAMILY, **fields}
    assert accepts(doc, FAMILY_SCHEMA) == oracle_accepts(doc, FAMILY_SCHEMA)
    assert accepts(doc, FAMILY_SCHEMA) == ok


@pytest.mark.parametrize("key", sorted(FAMILY))
def test_missing_family_key(key):
    doc = {k: v for k, v in FAMILY.items() if k != key}
    assert not oracle_accepts(doc, FAMILY_SCHEMA)
    with pytest.raises(SchemaError, match=f"{key} is required"):
        schemas.validate(doc, FAMILY_SCHEMA)


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schemas_use_only_supported_keywords(name):
    for sub in _subschemas(SCHEMAS[name]):
        assert set(sub) <= schemas.KEYWORDS
        assert all(isinstance(v, str) for v in sub.get("enum", []))
        assert sub.get("additionalProperties", False) in (True, False)


def test_unsupported_keyword_raises():
    with pytest.raises(ValueError, match="unsupported schema keywords"):
        schemas.validate(1, {"type": "integer", "maximum": 3})
