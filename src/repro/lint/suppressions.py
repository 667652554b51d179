"""Inline suppression comments for :mod:`repro.lint`.

A violation is silenced by an inline comment on the offending line::

    value = time.time()  # repro-lint: allow[RL002] wall clock feeds a log, not a digest

A comment on a line of its own applies to the next code line instead —
for offending statements too long to share a line with their reason::

    # repro-lint: allow[RL002] wall clock feeds a log, not a digest
    value = time.time()

The bracket names one or more rule IDs (comma-separated); the free text
after the bracket is the *reason* and is mandatory — an allow without a
reason is itself reported (``RL000``), because an unexplained exemption
is exactly the reviewer-vigilance failure the linter exists to prevent.
Unknown rule IDs and suppressions that silence nothing are reported the
same way, keeping the suppression inventory honest as rules evolve.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lint.reporting import Violation

__all__ = ["Suppression", "FileSuppressions", "collect_suppressions"]

_MARKER_RE = re.compile(r"#\s*repro-lint:\s*(.*)$")
_ALLOW_RE = re.compile(r"^allow\[([^\]]*)\]\s*(.*)$", re.DOTALL)
_RULE_ID_RE = re.compile(r"^RL\d{3}$")


@dataclass(frozen=True)
class Suppression:
    """One parsed ``allow[...]`` comment.

    Attributes:
        line: 1-based line the comment sits on (violations on this line
            matching one of ``rules`` are silenced).
        rules: the rule IDs the comment exempts.
    """

    line: int
    rules: Tuple[str, ...]


@dataclass
class FileSuppressions:
    """All suppressions of one file, plus use-tracking for hygiene checks.

    Attributes:
        path: the file the suppressions belong to.
        suppressions: parsed, well-formed ``allow`` comments.
        problems: malformed-comment violations found during parsing.
    """

    path: str
    suppressions: List[Suppression] = field(default_factory=list)
    problems: List[Violation] = field(default_factory=list)
    _used: Set[Tuple[int, str]] = field(default_factory=set)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True (and mark the suppression used) when ``rule_id`` at ``line`` is exempt."""
        for supp in self.suppressions:
            if supp.line == line and rule_id in supp.rules:
                self._used.add((supp.line, rule_id))
                return True
        return False

    def unused(self, active_rules: FrozenSet[str]) -> List[Violation]:
        """RL000 violations for suppressions that silenced nothing.

        Args:
            active_rules: rule IDs that actually ran on this file — a
                suppression for a rule outside this set is not judged
                (it may be exercised by a full run or another scope).
        """
        out: List[Violation] = []
        for supp in self.suppressions:
            idle = sorted(
                rule for rule in supp.rules
                if rule in active_rules
                and (supp.line, rule) not in self._used
            )
            for rule in idle:
                out.append(Violation(
                    file=self.path, line=supp.line, col=0, rule="RL000",
                    message=(
                        f"unused suppression: allow[{rule}] matches no "
                        "violation on this line — delete it or fix the scope"
                    ),
                ))
        return out


def _parse_marker(path: str, line: int, body: str,
                  known_rules: FrozenSet[str]) -> FileSuppressions:
    """Parse one ``repro-lint:`` marker body into the accumulator shape."""
    result = FileSuppressions(path=path)
    match = _ALLOW_RE.match(body.strip())
    if not match:
        result.problems.append(Violation(
            file=path, line=line, col=0, rule="RL000",
            message=(
                f"malformed repro-lint comment {body.strip()!r} (expected "
                "'allow[RLnnn] reason')"
            ),
        ))
        return result
    raw_ids, reason = match.group(1), match.group(2).strip()
    rules: List[str] = []
    for raw in raw_ids.split(","):
        rule = raw.strip()
        if not _RULE_ID_RE.match(rule):
            result.problems.append(Violation(
                file=path, line=line, col=0, rule="RL000",
                message=f"suppression names a malformed rule ID {rule!r}",
            ))
        elif rule not in known_rules:
            result.problems.append(Violation(
                file=path, line=line, col=0, rule="RL000",
                message=f"suppression names an unknown rule {rule}",
            ))
        else:
            rules.append(rule)
    if not reason:
        result.problems.append(Violation(
            file=path, line=line, col=0, rule="RL000",
            message=(
                "suppression without a reason — every allow[...] must "
                "say why the exemption is sound"
            ),
        ))
        return result
    if rules:
        result.suppressions.append(
            Suppression(line=line, rules=tuple(rules))
        )
    return result


def _effective_line(lines: List[str], comment_line: int) -> int:
    """The code line a suppression at ``comment_line`` applies to.

    A comment sharing its line with code covers that line; a standalone
    comment covers the next line that holds code (skipping blanks and
    further comment-only lines).
    """
    before = lines[comment_line - 1].split("#", 1)[0]
    if before.strip():
        return comment_line
    for lineno in range(comment_line + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if stripped and not stripped.startswith("#"):
            return lineno
    return comment_line


def collect_suppressions(path: str, source: str,
                         known_rules: FrozenSet[str]) -> FileSuppressions:
    """Extract every ``repro-lint:`` comment of ``source``.

    Uses :mod:`tokenize` so markers inside string literals are ignored —
    only real comments can suppress.

    Args:
        path: file label used in produced violations.
        source: the file's text.
        known_rules: valid rule IDs (unknown IDs become RL000 problems).
    """
    result = FileSuppressions(path=path)
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments: Dict[int, str] = {}
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # the engine reports the parse failure itself; no comments here
        return result
    lines = source.splitlines()
    for line in sorted(comments):
        marker = _MARKER_RE.search(comments[line])
        if not marker:
            continue
        target = _effective_line(lines, line)
        parsed = _parse_marker(path, target, marker.group(1), known_rules)
        result.suppressions.extend(parsed.suppressions)
        result.problems.extend(parsed.problems)
    return result
