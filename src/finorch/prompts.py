"""Prompt template store.

Templates live as plain-text files named ``<template_id>.<language>.txt``
(languages: en, zh) with ``{placeholder}`` slots. Rendering is a pure
textual substitution — identical inputs yield byte-identical output — and
deliberately avoids ``str.format`` so that braces in surrounding text
(JSON examples, set notation) never need escaping: only tokens shaped like
``{lower_snake_case}`` are treated as placeholders.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping

from finorch.errors import ConfigError

__all__ = ["LANGUAGES", "PromptStore", "placeholder_names"]

LANGUAGES = ("en", "zh")

_PLACEHOLDER = re.compile(r"\{([a-z][a-z0-9_]*)\}")

_DEFAULT_ROOT = Path(__file__).parent / "prompts"


def placeholder_names(text: str) -> list[str]:
    """Distinct placeholder names in first-appearance order."""
    seen: list[str] = []
    for match in _PLACEHOLDER.finditer(text):
        name = match.group(1)
        if name not in seen:
            seen.append(name)
    return seen


class PromptStore:
    """Read-only view over a directory of prompt template files. Each
    template is read once per store, on its first use."""

    def __init__(self, root: Path | str | None = None):
        self._root = Path(root) if root is not None else _DEFAULT_ROOT
        self._texts: dict[tuple[str, str], str] = {}

    @property
    def root(self) -> Path:
        return self._root

    def _path(self, template_id: str, language: str) -> Path:
        if language not in LANGUAGES:
            raise ConfigError(
                f"unsupported language {language!r}; expected one of {LANGUAGES}"
            )
        return self._root / f"{template_id}.{language}.txt"

    def template_text(self, template_id: str, language: str = "en") -> str:
        text = self._texts.get((template_id, language))
        if text is not None:
            return text
        path = self._path(template_id, language)
        if not path.exists():
            raise ConfigError(
                f"no template {template_id!r} for language {language!r} "
                f"under {self._root}"
            )
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read template {path}: {exc}") from None
        self._texts[template_id, language] = text
        return text

    def placeholders(self, template_id: str, language: str = "en") -> list[str]:
        return placeholder_names(self.template_text(template_id, language))

    def render(
        self,
        template_id: str,
        bindings: Mapping[str, object],
        language: str = "en",
    ) -> str:
        """Substitute every placeholder; unused bindings are ignored."""
        text = self.template_text(template_id, language)

        def _substitute(match: re.Match[str]) -> str:
            name = match.group(1)
            if name not in bindings:
                raise ConfigError(
                    f"missing binding '{name}' in template '{template_id}'"
                )
            return str(bindings[name])

        return _PLACEHOLDER.sub(_substitute, text)

    def available(self) -> list[tuple[str, str]]:
        """All (template_id, language) pairs on disk, sorted."""
        out = []
        for path in self._root.glob("*.txt"):
            stem = path.name[: -len(".txt")]
            template_id, dot, language = stem.rpartition(".")
            if dot and language in LANGUAGES:
                out.append((template_id, language))
        return sorted(out)
