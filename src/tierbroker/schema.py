"""The scenario format: its JSON Schema and a small interpreter for it.

scenario.schema.json, shipped in this package, is the one definition of
the scenario file. `problems` checks a value against it or against any
of its subschemas, and `normalized` fills in the defaults it declares.
The interpreter knows the keywords in KEYWORDS, which are the ones the
schema uses. It reads three of them more strictly than a generic JSON
Schema validator does: a "number" must be finite (NaN, ±Infinity and
integers too large for a float are refused), an "integer" must be
written without a fraction (1.0 is refused), and a pattern must match
the whole string (so "$" does not also match before a final newline).
"""

from __future__ import annotations

import json
import math
import operator
import re
from functools import cache
from importlib.resources import files


@cache
def scenario_schema() -> dict:
    """The scenario format, read once from the package data; not to be modified."""
    text = files(__package__).joinpath("scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def standard() -> dict:
    """The rules a service description meets to be registered, by field."""
    return scenario_schema()["$defs"]["registration_standard"]["properties"]


def _finite_number(value) -> bool:
    """True for a JSON number that is a finite float: not a bool, NaN, ±Infinity or a huge int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (_finite_number, "a finite number"),
}
_BOUNDS = {
    "minimum": (">=", operator.ge),
    "exclusiveMinimum": (">", operator.gt),
    "maximum": ("<=", operator.le),
}


def _expected(schema: dict) -> str:
    """What a numeric schema asks for; its title, if any, names the value."""
    kind = schema.get("type", "number")
    noun = f"a finite {schema.get('title', 'number')}" if kind == "number" else "an integer"
    bounds = [f"{sign} {schema[key]}" for key, (sign, _) in _BOUNDS.items() if key in schema]
    return " ".join([f"expected {noun}", " and ".join(bounds)]).rstrip()


# Each check takes (value, keyword argument, schema, root, path) and
# yields (path, message) for every breach. A keyword applies only to
# values of the JSON type it constrains, as in JSON Schema.

def _type(value, kind, schema, root, path):
    test, noun = _TYPES[kind]
    if not test(value):
        yield path, _expected(schema) if kind in ("number", "integer") else f"expected {noun}"


def _bound(key):
    _, holds = _BOUNDS[key]

    def check(value, limit, schema, root, path):
        if _TYPES[schema.get("type", "number")][0](value) and not holds(value, limit):
            yield path, _expected(schema)

    return check


def _enum(value, options, schema, root, path):
    if value not in options:
        yield path, f"{value!r} is not one of [{', '.join(map(str, options))}]"


def _const(value, const, schema, root, path):
    if value != const:
        yield path, f"must be {json.dumps(const)}"


def _min_length(value, n, schema, root, path):
    if isinstance(value, str) and len(value) < n:
        yield path, "must be non-empty" if n == 1 else f"must have {n} or more characters"


def _max_length(value, n, schema, root, path):
    if isinstance(value, str) and len(value) > n:
        yield path, f"must have {n} or fewer characters"


def _pattern(value, pattern, schema, root, path):
    # ASCII, so \d is [0-9] as in ECMA-262, the dialect JSON Schema names.
    if isinstance(value, str) and not re.fullmatch(pattern, value, re.ASCII):
        yield path, f"must match {pattern}"


def _min_items(value, n, schema, root, path):
    if isinstance(value, list) and len(value) < n:
        yield path, f"must have {n} or more items"


def _max_items(value, n, schema, root, path):
    if isinstance(value, list) and len(value) > n:
        yield path, f"must have {n} or fewer items"


def _unique_items(value, unique, schema, root, path):
    if unique and isinstance(value, list):
        texts = [json.dumps(item, sort_keys=True) for item in value]
        if len(set(texts)) < len(texts):
            yield path, "items must not repeat"


def _required(value, keys, schema, root, path):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield path + (key,), "required field missing"


def _properties(value, props, schema, root, path):
    if isinstance(value, dict):
        for key, sub in props.items():
            if key in value:
                yield from problems(value[key], sub, root, path + (key,))


def _additional_properties(value, extra, schema, root, path):
    if isinstance(value, dict):
        named = schema.get("properties", {})
        for key in sorted(k for k in value if k not in named):
            if extra is False:
                yield path + (key,), "unknown field"
            elif isinstance(extra, dict):
                yield from problems(value[key], extra, root, path + (key,))


def _items(value, sub, schema, root, path):
    if isinstance(value, list):
        for i in range(len(schema.get("prefixItems", ())), len(value)):
            yield from problems(value[i], sub, root, path + (i,))


def _prefix_items(value, subs, schema, root, path):
    if isinstance(value, list):
        for i, (item, sub) in enumerate(zip(value, subs)):
            yield from problems(item, sub, root, path + (i,))


def _any_of(value, subs, schema, root, path):
    if not any(conforms(value, sub, root) for sub in subs):
        keys = [key for sub in subs for key in sub.get("required", ())]
        yield path, f"{schema.get('title', 'a match')} required ({', '.join(keys)})"


def _all_of(value, subs, schema, root, path):
    for sub in subs:
        yield from problems(value, sub, root, path)


def _if(value, condition, schema, root, path):
    if conforms(value, condition, root):
        yield from problems(value, schema.get("then", {}), root, path)


def _then(value, sub, schema, root, path):
    return ()  # applied by "if"


def _ref(value, ref, schema, root, path):
    target = root
    for part in ref.removeprefix("#/").split("/"):
        target = target[part]
    yield from problems(value, target, root, path)


_CHECKS = {
    "type": _type,
    **{key: _bound(key) for key in _BOUNDS},
    "enum": _enum,
    "const": _const,
    "minLength": _min_length,
    "maxLength": _max_length,
    "pattern": _pattern,
    "minItems": _min_items,
    "maxItems": _max_items,
    "uniqueItems": _unique_items,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "prefixItems": _prefix_items,
    "anyOf": _any_of,
    "allOf": _all_of,
    "if": _if,
    "then": _then,
    "$ref": _ref,
}
KEYWORDS = frozenset(_CHECKS)


def problems(value, schema: dict, root: dict | None = None, path: tuple = ()):
    """Yield (path, message) for every rule of schema that value breaks.

    path is a tuple of object keys and array indexes below value; $ref
    resolves against root, by default the scenario schema.
    """
    if root is None:
        root = scenario_schema()
    for keyword, arg in schema.items():
        check = _CHECKS.get(keyword)
        if check is not None:
            yield from check(value, arg, schema, root, path)


def conforms(value, schema: dict, root: dict | None = None) -> bool:
    """True when value breaks no rule of schema."""
    return next(problems(value, schema, root), None) is None


def field_path(prefix: str, path: tuple) -> str:
    """'scenario', ('nodes', 0, 'id') -> 'scenario.nodes[0].id'."""
    return prefix + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def normalized(value, schema: dict):
    """value with every number a float and every absent property that has
    a default filled in, following properties, additionalProperties,
    items and prefixItems; anything else is returned as it is."""
    if schema.get("type") == "number" and _finite_number(value):
        return float(value)
    if isinstance(value, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties")
        extra = extra if isinstance(extra, dict) else {}
        out = {key: normalized(item, props.get(key, extra)) for key, item in value.items()}
        for key, sub in props.items():
            if key not in out and "default" in sub:
                out[key] = normalized(sub["default"], sub)
        return out
    if isinstance(value, list):
        head, rest = schema.get("prefixItems", []), schema.get("items")
        rest = rest if isinstance(rest, dict) else {}
        return [normalized(item, head[i] if i < len(head) else rest) for i, item in enumerate(value)]
    return value
