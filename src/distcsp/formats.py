"""JSON document formats with path-accurate diagnostics.

Template documents:
    {"name": "dist13", "relations": [
        {"name": "R", "arity": 2, "tuples": [[1], [3], [-1], [-3]]}]}
A relation carries either "tuples" (lists of arity-1 integers) or
"body": "full" | "empty".

Instance documents:
    {"variables": 3, "constraints": [{"relation": "R", "args": [0, 1]}]}

Assignment documents:
    {"values": [0, 1, 2]}

Serialization is canonical: fixed key order, two-space indent, sorted offset
tuples, trailing newline.  Parsing a serialized document gives back an equal
object.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InputError
from .model import Constraint, Instance, RelationDef, Template


class ParseError(InputError):
    """Invalid document content, pointing at the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _load(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(what, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # an integer past the interpreter's digit limit, or nesting past its stack
        raise ParseError(what, f"unreadable JSON: {e}") from None


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(path, f"expected an object, got {type(value).__name__}")
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected an array, got {type(value).__name__}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(path, "expected a non-empty string")
    return value


def _integer(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


def _field(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ParseError(path, f"missing required field {key!r}")
    return obj[key]


def parse_template(text: str) -> Template:
    """Parse and validate a template document."""
    doc = _object(_load(text, "template"), "template")
    name = _string(_field(doc, "name", "template"), "template.name")
    relations = []
    seen = set()
    for idx, raw in enumerate(_array(_field(doc, "relations", "template"), "template.relations")):
        path = f"template.relations[{idx}]"
        obj = _object(raw, path)
        rel_name = _string(_field(obj, "name", path), f"{path}.name")
        if rel_name in seen:
            raise ParseError(f"{path}.name", f"duplicate relation name {rel_name!r}")
        seen.add(rel_name)
        arity = _integer(_field(obj, "arity", path), f"{path}.arity")
        if arity < 1:
            raise ParseError(f"{path}.arity", "arity must be >= 1")
        if ("tuples" in obj) == ("body" in obj):
            raise ParseError(path, "exactly one of 'tuples' or 'body' is required")
        if "body" in obj:
            body = _string(obj["body"], f"{path}.body")
            if body not in ("full", "empty"):
                raise ParseError(f"{path}.body", f"must be 'full' or 'empty', got {body!r}")
            relations.append(RelationDef(rel_name, arity, body))
            continue
        tuples = []
        for tidx, row in enumerate(_array(obj["tuples"], f"{path}.tuples")):
            row_path = f"{path}.tuples[{tidx}]"
            items = _array(row, row_path)
            if len(items) != arity - 1:
                raise ParseError(row_path, f"expected {arity - 1} integers, got {len(items)}")
            tuples.append(
                tuple(_integer(v, f"{row_path}[{i}]") for i, v in enumerate(items))
            )
        try:
            relations.append(RelationDef(rel_name, arity, tuple(tuples)))
        except InputError as e:
            raise ParseError(path, str(e)) from None
    try:
        return Template(name, tuple(relations))
    except InputError as e:
        raise ParseError("template", str(e)) from None


def parse_instance(text: str, template: Template | None = None) -> Instance:
    """Parse and validate an instance document, optionally against a template."""
    doc = _object(_load(text, "instance"), "instance")
    num_vars = _integer(_field(doc, "variables", "instance"), "instance.variables")
    if num_vars < 1:
        raise ParseError("instance.variables", "at least one variable is required")
    constraints = []
    for idx, raw in enumerate(
        _array(_field(doc, "constraints", "instance"), "instance.constraints")
    ):
        path = f"instance.constraints[{idx}]"
        obj = _object(raw, path)
        rel_name = _string(_field(obj, "relation", path), f"{path}.relation")
        args = tuple(
            _integer(v, f"{path}.args[{i}]")
            for i, v in enumerate(_array(_field(obj, "args", path), f"{path}.args"))
        )
        if not args:
            raise ParseError(f"{path}.args", "at least one argument is required")
        for i, a in enumerate(args):
            if not 0 <= a < num_vars:
                raise ParseError(
                    f"{path}.args[{i}]", f"variable {a} out of range [0, {num_vars})"
                )
        if template is not None:
            try:
                rel = template.relation(rel_name)
            except InputError:
                raise ParseError(
                    f"{path}.relation", f"unknown relation {rel_name!r}"
                ) from None
            if rel.arity != len(args):
                raise ParseError(
                    f"{path}.args",
                    f"relation {rel_name!r} has arity {rel.arity}, got {len(args)} arguments",
                )
        constraints.append(Constraint(rel_name, args))
    return Instance(num_vars, tuple(constraints))


def parse_assignment(text: str) -> tuple[int, ...]:
    """Parse an assignment document into a value tuple."""
    doc = _object(_load(text, "assignment"), "assignment")
    values = _array(_field(doc, "values", "assignment"), "assignment.values")
    return tuple(
        _integer(v, f"assignment.values[{i}]") for i, v in enumerate(values)
    )


def template_to_dict(t: Template) -> dict:
    relations = []
    for rel in t.relations:
        entry: dict[str, Any] = {"name": rel.name, "arity": rel.arity}
        if rel.has_tuples:
            entry["tuples"] = [list(v) for v in rel.offset_tuples]
        else:
            entry["body"] = rel.body
        relations.append(entry)
    return {"name": t.name, "relations": relations}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "variables": inst.num_vars,
        "constraints": [
            {"relation": c.relation, "args": list(c.args)} for c in inst.constraints
        ],
    }


def assignment_to_dict(values: tuple[int, ...]) -> dict:
    return {"values": list(values)}


def to_json(doc: dict) -> str:
    """Canonical serialization: two-space indent, insertion key order, newline."""
    return json.dumps(doc, indent=2) + "\n"
