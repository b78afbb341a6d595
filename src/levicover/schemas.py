"""JSON Schemas for the machine-readable CLI outputs, and ``validate``,
which checks a document against one of them.

``validate(doc, SCHEMA)`` accepts exactly the documents that
``jsonschema.validate(doc, SCHEMA)`` accepts under Draft 2020-12, for the
keywords these schemas use; the tests hold it to jsonschema. It reads the
schema itself and raises ValueError on any other keyword, so a schema
that grows one fails loudly instead of being half checked.
"""

import re

_SCALAR = {"type": ["number", "string", "boolean", "integer", "null"]}

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "outcome", "checks"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "outcome": {"enum": ["pass", "fail"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "expected", "observed", "margin",
                             "pass"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "expected": _SCALAR,
                    "observed": _SCALAR,
                    "margin": {"type": ["number", "null"]},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "duration_s": {"type": "number"},
        "timestamp": {"type": "string"},
    },
}

BOUNDS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["q", "k", "n", "balanced_count_lower_bound",
                 "balanced_count_lower_bound_float",
                 "per_set_capacity_bound", "family_size_lower_bound"],
    "additionalProperties": False,
    "properties": {
        "q": {"type": "integer"},
        "k": {"type": "integer"},
        "n": {"type": "integer"},
        "balanced_count_lower_bound": {
            "type": "string", "pattern": "^[0-9]+/[0-9]+$"},
        "balanced_count_lower_bound_float": {"type": "number"},
        "per_set_capacity_bound": {"type": "number"},
        "family_size_lower_bound": {"type": "number"},
        "measured_balanced_count": {"type": ["integer", "null"]},
        "measured_max_capacity": {"type": ["integer", "null"]},
        "exact_cover_lower_bound": {"type": ["integer", "null"]},
    },
}

FAMILY_SCHEMA = {
    "type": "object",
    "required": ["graph_hash", "k", "delta", "seed", "t", "d", "p", "sets"],
    "additionalProperties": False,
    "properties": {
        "graph_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "k": {"type": "integer", "minimum": 1},
        # delta 0 marks families with no statistical guarantee (greedy)
        "delta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "t": {"type": "integer", "minimum": 0},
        "d": {"type": "integer", "minimum": 0},
        "p": {"type": "string", "pattern": "^[0-9]+/[0-9]+$"},
        "sets": {
            "type": "array",
            "items": {"type": "array",
                      "items": {"type": "integer", "minimum": 0}},
        },
    },
}


class SchemaError(ValueError):
    """A document that does not match its schema."""


# Draft 2020-12 types: an integral float is an integer, a bool is neither
# an integer nor a number.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and type(x) is not bool,
    "integer": lambda x: (type(x) is int
                          or isinstance(x, float) and x.is_integer()),
}

KEYWORDS = frozenset({"type", "enum", "required", "properties",
                      "additionalProperties", "items", "minimum",
                      "exclusiveMaximum", "pattern"})


def validate(doc, schema: dict, path: str = "$") -> None:
    """Raise SchemaError naming the first place where doc breaks schema.

    A bound fails only on x < minimum or x >= exclusiveMaximum, so NaN
    passes both, and ``pattern`` is found with re.search, as jsonschema
    does. ``enum`` lists strings and ``additionalProperties`` is a bool
    in every schema here.
    """
    unknown = set(schema) - KEYWORDS
    if unknown:
        raise ValueError(f"unsupported schema keywords: {sorted(unknown)}")
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](doc) for t in types):
        raise SchemaError(f"{path} is not of type {' or '.join(types)}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(f"{path} is not one of {schema['enum']}")
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(f"{path}.{key} is required")
        props = schema.get("properties", {})
        for key, value in doc.items():
            if key in props:
                validate(value, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{path}.{key!s:.80} is not allowed")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            validate(item, schema["items"], f"{path}[{i}]")
    if _TYPES["number"](doc):
        if "minimum" in schema and doc < schema["minimum"]:
            raise SchemaError(f"{path} is less than {schema['minimum']}")
        if "exclusiveMaximum" in schema and doc >= schema["exclusiveMaximum"]:
            raise SchemaError(f"{path} is not less than "
                              f"{schema['exclusiveMaximum']}")
    if isinstance(doc, str) and "pattern" in schema:
        if not re.search(schema["pattern"], doc):
            raise SchemaError(f"{path} does not match {schema['pattern']!r}")
