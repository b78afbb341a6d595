"""JSON Schemas for the machine-readable CLI outputs; callers check a
document with jsonschema.validate(doc, SCHEMA)."""

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
        "seed": {"type": "integer"},
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

