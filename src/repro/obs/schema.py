"""Zero-dependency validation of exported Chrome traces.

The schema itself is data, checked in at
``docs/schemas/chrome_trace_schema.json`` so external consumers (CI,
other tools) can validate artifacts without importing this package.
:func:`validate` implements the subset of JSON Schema that file uses
-- ``type``, ``properties``, ``required``, ``additionalProperties``,
``items``, ``enum``, ``minimum`` -- in the same hand-rolled style as
``repro.bench.harness.validate_report``.

Beyond the structural schema, :func:`validate_chrome_trace` checks the
semantic invariants Perfetto relies on: every ``"X"`` event has
``ts``/``dur``, every ``"i"`` event has ``ts`` and a scope, and every
(pid, tid) seen on a timed event was introduced by metadata.
"""

from __future__ import annotations

import json
from pathlib import Path

_SCHEMA_PATH = (
    Path(__file__).resolve().parents[3] / "docs" / "schemas"
    / "chrome_trace_schema.json"
)

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def load_schema() -> dict:
    """The checked-in Chrome-trace schema document."""
    with open(_SCHEMA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def validate(value, schema: dict, path: str = "$") -> list[str]:
    """Errors from checking ``value`` against a schema subset.

    Returns a flat list of ``"<json-path>: <problem>"`` strings; empty
    means valid.  Only the keywords the checked-in schema uses are
    interpreted (unknown keywords are ignored, like JSON Schema).
    """
    errors: list[str] = []
    expected_type = schema.get("type")
    if expected_type is not None:
        check = _TYPE_CHECKS.get(expected_type)
        if check is None:
            errors.append(f"{path}: schema uses unsupported type "
                          f"{expected_type!r}")
            return errors
        if not check(value):
            errors.append(
                f"{path}: expected {expected_type}, "
                f"got {type(value).__name__}"
            )
            return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']!r}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value!r} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                errors.extend(validate(item, properties[key], f"{path}.{key}"))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{index}]"))
    return errors


def validate_chrome_trace(document: dict) -> list[str]:
    """Structural plus semantic errors for one exported trace document."""
    errors = validate(document, load_schema())
    if errors:
        return errors
    named: set[tuple[int, int]] = set()
    for index, event in enumerate(document["traceEvents"]):
        where = f"$.traceEvents[{index}]"
        phase = event["ph"]
        if phase == "M":
            named.add((event["pid"], event["tid"]))
            continue
        if "ts" not in event:
            errors.append(f"{where}: {phase!r} event missing 'ts'")
        if phase == "X" and "dur" not in event:
            errors.append(f"{where}: complete event missing 'dur'")
        if phase == "i" and "s" not in event:
            errors.append(f"{where}: instant event missing scope 's'")
        if (event["pid"], event["tid"]) not in named:
            errors.append(
                f"{where}: pid/tid ({event['pid']}, {event['tid']}) "
                "has no metadata name"
            )
    return errors
