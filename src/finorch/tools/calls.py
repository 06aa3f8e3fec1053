"""Typed tool calls: parse model text into validated, schema-checked calls.

Model output carries at most one fenced block tagged ``tool`` holding a JSON
object ``{"tool": <name>, "args": {...}}``. Parsing resolves the tool by
name, coerces each argument to its declared semantic type, enforces required
parameters, and rejects unknown arguments.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Mapping, Sequence

from finorch.errors import EngineError
from finorch.record import Record

__all__ = [
    "SEMANTIC_TYPES",
    "ToolCall",
    "ToolParam",
    "ToolSchema",
    "text2params",
]

SEMANTIC_TYPES = ("string", "number")

_CALL_BLOCK = re.compile(r"```tool\s+(.*?)```", re.DOTALL)


class ToolParam(Record):
    """One declared parameter of a tool."""

    __slots__ = ("name", "type", "required")

    def __init__(self, name: str, type: str, required: bool = True) -> None:
        if type not in SEMANTIC_TYPES:
            raise ValueError(
                f"parameter {name!r}: unknown semantic type {type!r}"
            )
        super().__init__(name, type, required)


class ToolSchema(Record):
    """Declared shape of one callable tool."""

    __slots__ = ("tool_name", "description", "parameters")

    def __init__(
        self, tool_name: str, description: str,
        parameters: tuple[ToolParam, ...] = ()
    ) -> None:
        names = [p.name for p in parameters]
        if len(names) != len(set(names)):
            raise ValueError(
                f"schema {tool_name!r}: duplicate parameter names"
            )
        super().__init__(tool_name, description, parameters)


class ToolCall(Record):
    """A validated call; ``origin_text`` preserves the model text for audit
    and is left out of equality."""

    __slots__ = ("tool_name", "arguments", "origin_text")
    _uncompared = ("origin_text",)

    def __init__(
        self, tool_name: str, arguments: Mapping[str, Any], origin_text: str = ""
    ) -> None:
        super().__init__(tool_name, arguments, origin_text)


def _coerce(param: ToolParam, value: Any) -> Any:
    """Coerce a JSON-decoded value to the parameter's semantic type."""
    if param.type == "string":
        if isinstance(value, str):
            return value
    # A number: a finite JSON number (bools are not numbers) or a string
    # holding one; NaN and infinities are not JSON, so they are refused.
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise EngineError(f"parameter '{param.name}' does not coerce to {param.type}")


def _validate_arguments(
    raw: Mapping[str, Any], schema: ToolSchema
) -> dict[str, Any]:
    params = {p.name: p for p in schema.parameters}
    out: dict[str, Any] = {}
    for name, value in raw.items():
        if name not in params:
            raise EngineError(f"unknown parameter '{name}'")
        out[name] = _coerce(params[name], value)
    for p in schema.parameters:
        if p.required and p.name not in raw:
            raise EngineError(f"missing required parameter '{p.name}'")
    return out


def text2params(model_text: str, schemas: Sequence[ToolSchema]) -> ToolCall:
    """Extract the fenced tool block from model text and validate it.

    If several blocks are present the first one wins (parallel calls in one
    turn are out of scope).
    """
    match = _CALL_BLOCK.search(model_text)
    if match is None:
        raise EngineError("no fenced tool block found in model text")
    try:
        payload = json.loads(match.group(1))
    except json.JSONDecodeError as exc:
        raise EngineError(f"tool block is not valid JSON: {exc}") from exc
    tool_name = payload.get("tool") if isinstance(payload, dict) else None
    if not isinstance(tool_name, str):
        raise EngineError("tool block must be an object with a string 'tool'")
    args = payload.get("args", {})
    if not isinstance(args, dict):
        raise EngineError("'args' must be an object")
    by_name = {s.tool_name: s for s in schemas}
    if tool_name not in by_name:
        raise EngineError(f"unknown tool {tool_name!r}")
    schema = by_name[tool_name]
    arguments = _validate_arguments(args, schema)
    return ToolCall(
        tool_name=tool_name, arguments=arguments, origin_text=model_text
    )
