"""Prompt template store tests: lookup, placeholder extraction, rendering,
bilingual coverage, and byte-stability of rendered output.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from finorch.errors import MissingBinding, UnknownTemplate
from finorch.prompts import LANGUAGES, PromptStore, placeholder_names


@pytest.fixture()
def store() -> PromptStore:
    return PromptStore()


def test_placeholder_names_extraction() -> None:
    text = "Hello {name}, the {answer} is {answer}. Not {Upper} or {1bad}."
    assert placeholder_names(text) == ["name", "answer"]


def test_placeholder_names_ignores_json_braces() -> None:
    text = '```tool\n{"tool": "record_indicator", "args": {"name": "{topic}"}}\n```'
    assert placeholder_names(text) == ["topic"]


def test_template_text_and_unknown(store: PromptStore) -> None:
    text = store.template_text("forecaster_user", "en")
    assert "a. Company Introduction" in text
    with pytest.raises(UnknownTemplate):
        store.template_text("no_such_template", "en")
    with pytest.raises(UnknownTemplate):
        store.template_text("forecaster_user", "fr")


def test_render_substitutes_all_placeholders(store: PromptStore) -> None:
    bindings = {
        "company_introduction": "[Company Introduction]: Apple Inc...",
        "stock_price_changes": "From 2024-04-08 to 2024-04-12, AAPL...",
        "recent_news": "[Headline]: ...",
        "basic_financials": "pe_ratio: 26.4",
        "symbol": "AAPL",
        "cutoff": "2024-04-19",
        "horizon_start": "2024-04-22",
        "horizon_end": "2024-04-26",
    }
    rendered = store.render("forecaster_user", bindings, "en")
    assert "{" not in rendered.replace("{}", "")
    for value in bindings.values():
        assert value in rendered


def test_render_missing_binding_names_the_placeholder(store: PromptStore) -> None:
    with pytest.raises(MissingBinding) as err:
        store.render("adaptor_default", {}, "en")
    assert err.value.placeholder == "input_text"
    assert err.value.template_id == "adaptor_default"


def test_render_ignores_extra_bindings(store: PromptStore) -> None:
    out = store.render(
        "adaptor_default", {"input_text": "hi", "unused": "x"}, "en"
    )
    assert "hi" in out


def test_render_is_byte_stable(store: PromptStore) -> None:
    bindings = {"input_text": "same input"}
    first = store.render("adaptor_default", bindings, "en")
    second = store.render("adaptor_default", bindings, "en")
    assert first == second


def test_every_template_exists_in_both_languages(store: PromptStore) -> None:
    pairs = store.available()
    ids = {tid for tid, _lang in pairs}
    assert ids  # the packaged store is not empty
    for tid in ids:
        for lang in LANGUAGES:
            assert (tid, lang) in pairs, f"{tid} missing {lang} variant"


def test_every_template_is_named_in_the_code(store: PromptStore) -> None:
    """A template whose id no string literal in the package names is dead."""
    package = store.root.parent
    literals = {
        node.value
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    orphans = sorted({tid for tid, _ in store.available()} - literals)
    assert not orphans, f"templates no code names: {orphans}"


def test_placeholders_agree_across_languages(store: PromptStore) -> None:
    for tid, _ in store.available():
        en = set(store.placeholders(tid, "en"))
        zh = set(store.placeholders(tid, "zh"))
        assert en == zh, f"{tid}: en/zh placeholder mismatch"


def test_custom_root_overrides_packaged_templates(tmp_path: Path) -> None:
    (tmp_path / "greeting.en.txt").write_text("Hi {name}!", encoding="utf-8")
    (tmp_path / "greeting.zh.txt").write_text("你好 {name}！", encoding="utf-8")
    local = PromptStore(tmp_path)
    assert local.render("greeting", {"name": "Ada"}, "zh") == "你好 Ada！"
    with pytest.raises(UnknownTemplate):
        local.template_text("forecaster_user", "en")


def test_forecaster_user_has_the_four_information_blocks(store: PromptStore) -> None:
    text = store.template_text("forecaster_user", "en")
    for block in (
        "a. Company Introduction",
        "b. Stock Price Changes",
        "c. Recent News Information",
        "d. Recent Basic Financials",
    ):
        assert block in text
