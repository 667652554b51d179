"""Tests of the docs link check (``tools/check_markdown_links.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_TOOL = _ROOT / "tools" / "check_markdown_links.py"
_spec = importlib.util.spec_from_file_location("check_markdown_links", _TOOL)
check_markdown_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_markdown_links)


def _errors(tmp_path: Path, text: str):
    page = tmp_path / "page.md"
    page.write_text(text, encoding="utf-8")
    return check_markdown_links.check_file(page)


def test_brackets_inside_a_code_span_are_not_a_link(tmp_path):
    text = (
        "| `by_kind[kind][FaultOutcome.SDC]` | `by_kind[kind][\"sdc\"]` |\n"
        "Double ``x[a][b]`` and `[t](missing.md)` spans are code too.\n"
    )
    assert _errors(tmp_path, text) == []


def test_an_undefined_reference_outside_code_is_reported(tmp_path):
    errors = _errors(tmp_path, "See `code` and [the text][nowhere].\n")
    assert len(errors) == 1
    assert "undefined reference link label 'nowhere'" in errors[0]
    # a code span in the link text does not hide the link
    errors = _errors(tmp_path, "[`Codec`](missing.md)\n")
    assert len(errors) == 1 and "no such file 'missing.md'" in errors[0]


def test_the_repository_docs_pass(monkeypatch):
    monkeypatch.chdir(_ROOT)
    assert check_markdown_links.main(["README.md", "docs"]) == 0
