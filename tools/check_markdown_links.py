#!/usr/bin/env python3
"""Markdown link checker for the docs CI job (dependency-free).

Scans the given markdown files (or directories, recursively) for inline
links and images — plus reference-style links (``[text][label]`` with a
``[label]: target`` definition; an undefined label is reported) — and
verifies that every *relative* target resolves to an existing file,
including ``#anchor`` fragments, which are checked against the target
file's headings using GitHub's slug rules (explicit HTML anchors,
``<a id="...">`` / ``<a name="...">``, count as valid slugs too).
Code fences and inline code spans are never links, so brackets inside
them are not checked.  External (``http``/``https``/``mailto``) links
are not fetched; CI must stay deterministic and offline.

Usage::

    python tools/check_markdown_links.py README.md docs

Exits non-zero listing every broken link.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

# inline links/images: [text](target) — stops at the first unbalanced ')'
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# reference-style use: [text][label]; empty label means the text is the label
_REF_LINK_RE = re.compile(r"!?\[([^\]]+)\]\[([^\]]*)\]")
# reference definition: [label]: target (optionally followed by a title)
_REF_DEF_RE = re.compile(r"^\s*\[([^\]]+)\]:\s*(\S+)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# explicit HTML anchors are addressable like heading slugs
_HTML_ANCHOR_RE = re.compile(r"<a\s+(?:id|name)\s*=\s*[\"']([^\"']+)[\"']")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")
# inline code span: a run of backticks up to the next run of equal length
_CODE_SPAN_RE = re.compile(r"(`+)(?!`).*?(?<!`)\1(?!`)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading.

    Lowercase, spaces to dashes, punctuation (everything that is not a
    word character, dash or space) stripped.  Inline code/emphasis markers
    and link syntax are removed first.
    """
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [t](u) -> t
    text = text.replace("`", "").replace("*", "").replace("_", " ")
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(paths: Iterable[str]) -> List[Path]:
    """Expand file/directory arguments into a sorted list of .md files."""
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.md"))
        else:
            files.add(path)
    return sorted(files)


def heading_slugs(path: Path) -> Set[str]:
    """All anchor slugs a markdown file exposes (code fences excluded)."""
    slugs: Set[str] = set()
    seen: dict = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for anchor in _HTML_ANCHOR_RE.finditer(line):
            slugs.add(anchor.group(1).lower())
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def outside_code_spans(line: str,
                       matches: Iterable[re.Match]) -> List[re.Match]:
    """The matches that do not start inside an inline code span."""
    spans = [span.span() for span in _CODE_SPAN_RE.finditer(line)]
    return [match for match in matches
            if not any(lo <= match.start() < hi for lo, hi in spans)]


def extract_links(path: Path) -> List[Tuple[int, str]]:
    """All inline link targets in a file, with line numbers."""
    links: List[Tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in outside_code_spans(line, _LINK_RE.finditer(line)):
            links.append((lineno, match.group(1)))
    return links


def reference_links(path: Path) -> Tuple[dict, List[Tuple[int, str]]]:
    """Reference-style definitions and uses in a file.

    Returns ``(definitions, uses)``: definitions map a lowercased label
    to ``(line, target)``; uses are ``(line, label)`` pairs for every
    ``[text][label]`` occurrence (``[text][]`` uses the text as label).
    """
    definitions: dict = {}
    uses: List[Tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        definition = _REF_DEF_RE.match(line)
        if definition:
            definitions.setdefault(
                definition.group(1).lower(), (lineno, definition.group(2))
            )
            continue
        for match in outside_code_spans(line,
                                        _REF_LINK_RE.finditer(line)):
            label = match.group(2) or match.group(1)
            uses.append((lineno, label.lower()))
    return definitions, uses


def check_target(path: Path, lineno: int, target: str) -> List[str]:
    """Errors for one link target (file existence plus anchor slugs)."""
    if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("<"):
        return []
    base, _, fragment = target.partition("#")
    if not base:  # same-file anchor
        resolved = path
    else:
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            return [
                f"{path}:{lineno}: broken link {target!r} "
                f"(no such file {base!r})"
            ]
    if fragment and resolved.suffix == ".md":
        if fragment.lower() not in heading_slugs(resolved):
            return [
                f"{path}:{lineno}: broken anchor {target!r} "
                f"(no heading slug {fragment!r} in {resolved.name})"
            ]
    return []


def check_file(path: Path) -> List[str]:
    """Broken-link descriptions for one markdown file."""
    errors: List[str] = []
    for lineno, target in extract_links(path):
        errors.extend(check_target(path, lineno, target))
    definitions, uses = reference_links(path)
    for label in sorted(definitions):
        def_line, target = definitions[label]
        errors.extend(check_target(path, def_line, target))
    for lineno, label in uses:
        if label not in definitions:
            errors.append(
                f"{path}:{lineno}: undefined reference link label "
                f"{label!r} (no '[{label}]: target' definition)"
            )
    return errors


def main(argv: List[str]) -> int:
    """Check every argument (file or directory); return an exit code."""
    paths = argv or ["README.md", "docs"]
    files = markdown_files(paths)
    if not files:
        print("check_markdown_links: no markdown files found", file=sys.stderr)
        return 1
    errors: List[str] = []
    for path in files:
        if not path.exists():
            errors.append(f"{path}: file does not exist")
            continue
        errors.extend(check_file(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): "
          f"{'OK' if not errors else f'{len(errors)} broken link(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
