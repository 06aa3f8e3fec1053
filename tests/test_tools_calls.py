"""Tests for typed tool-call parsing and validation."""

from __future__ import annotations

import pytest

from finorch.errors import EngineError
from finorch.tools.calls import ToolParam, ToolSchema, text2params

PRICE_SCHEMA = ToolSchema(
    tool_name="get_price_window",
    description="Fetch a close-price window for one symbol.",
    parameters=(
        ToolParam(name="symbol", type="string"),
        ToolParam(name="days", type="number"),
        ToolParam(name="end", type="string", required=False),
    ),
)


#: What a tool block without a string tool name reads.
NOT_A_TOOL_OBJECT = "^tool block must be an object with a string 'tool'$"


def block(body: str) -> str:
    return f"Sure, fetching now.\n```tool\n{body}\n```\nDone."


def test_text2params_happy_path():
    text = block('{"tool": "get_price_window", "args": {"symbol": "NVDA", "days": 30}}')
    call = text2params(text, [PRICE_SCHEMA])
    assert call.tool_name == "get_price_window"
    assert call.arguments == {"symbol": "NVDA", "days": 30}
    assert call.origin_text == text


def test_text2params_requires_block():
    with pytest.raises(
        EngineError, match="^no fenced tool block found in model text$"
    ):
        text2params("no call here, just prose", [PRICE_SCHEMA])


def test_text2params_rejects_bad_json():
    with pytest.raises(EngineError, match="^tool block is not valid JSON: "):
        text2params(block('{"tool": "get_price_window", args: nope}'), [PRICE_SCHEMA])


def test_text2params_requires_tool_key():
    with pytest.raises(EngineError, match=NOT_A_TOOL_OBJECT):
        text2params(block('{"args": {}}'), [PRICE_SCHEMA])


def test_text2params_unknown_tool():
    with pytest.raises(EngineError, match="^unknown tool 'nope'$"):
        text2params(block('{"tool": "nope", "args": {}}'), [PRICE_SCHEMA])


@pytest.mark.parametrize("name", ['["get_price_window"]', '{"n": 1}', "3", "null"])
def test_text2params_rejects_non_string_tool_name(name):
    # An unhashable name must not escape as a raw TypeError.
    with pytest.raises(EngineError, match=NOT_A_TOOL_OBJECT):
        text2params(block('{"tool": ' + name + ', "args": {}}'), [PRICE_SCHEMA])


def test_text2params_first_block_wins():
    text = (
        block('{"tool": "get_price_window", "args": {"symbol": "A", "days": 1}}')
        + "\n"
        + block('{"tool": "get_price_window", "args": {"symbol": "B", "days": 2}}')
    )
    call = text2params(text, [PRICE_SCHEMA])
    assert call.arguments["symbol"] == "A"


def test_number_coercions():
    for days in ('"30"', "30.0", "30"):
        text = block(
            '{"tool": "get_price_window", "args": '
            f'{{"symbol": "NVDA", "days": {days}}}}}'
        )
        call = text2params(text, [PRICE_SCHEMA])
        assert call.arguments["days"] == 30.0
        assert isinstance(call.arguments["days"], float)


def test_number_mismatch_reports_name_and_type():
    text = block('{"tool": "get_price_window", "args": {"symbol": "NVDA", "days": "thirty"}}')
    with pytest.raises(
        EngineError, match="^parameter 'days' does not coerce to number$"
    ):
        text2params(text, [PRICE_SCHEMA])


@pytest.mark.parametrize("bad", ["true", "null", "[30]", '{"n": 30}'])
def test_number_rejects_non_numbers(bad):
    text = block(
        '{"tool": "get_price_window", "args": {"symbol": "NVDA", "days": '
        + bad
        + "}}"
    )
    with pytest.raises(
        EngineError, match="^parameter 'days' does not coerce to number$"
    ):
        text2params(text, [PRICE_SCHEMA])


@pytest.mark.parametrize(
    "bad",
    [
        '"NaN"', '"nan"', '"Infinity"', '"-inf"', '"1e400"',  # numeric strings
        "NaN", "Infinity", "-Infinity", "1e400",  # JSON literals
        pytest.param("1" + "0" * 400, id="int-beyond-float"),
    ],
)
def test_number_rejects_non_finite(bad):
    # A NaN or an infinity would reach analysis.json as a non-JSON token.
    text = block(
        '{"tool": "get_price_window", "args": {"symbol": "NVDA", "days": '
        + bad
        + "}}"
    )
    with pytest.raises(
        EngineError, match="^parameter 'days' does not coerce to number$"
    ):
        text2params(text, [PRICE_SCHEMA])


@pytest.mark.parametrize("bad", ["30", "null", '["NVDA"]'])
def test_string_rejects_non_strings(bad):
    text = block(
        '{"tool": "get_price_window", "args": {"symbol": '
        + bad
        + ', "days": 30}}'
    )
    with pytest.raises(
        EngineError, match="^parameter 'symbol' does not coerce to string$"
    ):
        text2params(text, [PRICE_SCHEMA])


def test_missing_required_param():
    text = block('{"tool": "get_price_window", "args": {"symbol": "NVDA"}}')
    with pytest.raises(EngineError, match="^missing required parameter 'days'$"):
        text2params(text, [PRICE_SCHEMA])


def test_optional_param_may_be_absent():
    text = block('{"tool": "get_price_window", "args": {"symbol": "NVDA", "days": 1}}')
    call = text2params(text, [PRICE_SCHEMA])
    assert "end" not in call.arguments


def test_strict_mode_rejects_unknown_argument():
    text = block(
        '{"tool": "get_price_window", "args": '
        '{"symbol": "NVDA", "days": 3, "verbose": true}}'
    )
    with pytest.raises(EngineError, match="^unknown parameter 'verbose'$"):
        text2params(text, [PRICE_SCHEMA])


def test_schema_rejects_duplicate_params():
    with pytest.raises(ValueError):
        ToolSchema(
            tool_name="t",
            description="",
            parameters=(
                ToolParam(name="a", type="string"),
                ToolParam(name="a", type="number"),
            ),
        )


def test_param_rejects_empty_enum_and_bad_type():
    with pytest.raises(ValueError):
        ToolParam(name="a", type="enum")
    with pytest.raises(ValueError):
        ToolParam(name="a", type="float")
