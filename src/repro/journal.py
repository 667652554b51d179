"""The crash-safe append-only JSONL journal behind every on-disk log.

Campaign ``shards.jsonl``, ``--telemetry`` files and their worker
sidecars share one format and one set of crash rules, kept only here (docs/ARCHITECTURE.md, "Journal").  Every
``OSError`` or corruption raises the :class:`~repro.errors.ReproError`
subclass the caller passes as ``error``; ``what`` names the log in
messages.  The module also owns the two sorted-key JSON encodings:
:func:`canonical` for log lines and :func:`payload_digest` for spec
hashes and report digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Tuple, Type, Union)

if TYPE_CHECKING:
    from repro.errors import ReproError

__all__ = ["Appender", "append", "canonical", "payload_digest",
           "replace_atomic", "scan"]

PathLike = Union[str, Path]
Record = Dict[str, Any]


def canonical(payload: Mapping[str, Any]) -> str:
    """Canonical JSON text: compact separators, sorted keys."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Mapping[str, Any]) -> str:
    """16-hex SHA-256 of ``payload`` as sorted-key JSON.

    The spec ``config_hash`` and report ``digest`` key.  It keeps
    ``json.dumps``'s default separators, not :func:`canonical`'s compact
    ones: every pinned hash and digest depends on those bytes.
    """
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Appender:
    """An open journal: one unbuffered ``write`` (plus fsync) per line.

    Opening repairs a torn tail: an unparseable last fragment is
    truncated, a complete line that lost only its newline gets one.
    ``durable=False`` skips the fsync: a killed process loses nothing, a
    power cut may lose the last lines.
    """

    def __init__(self, path: PathLike, *, error: Type[ReproError],
                 what: str, durable: bool = True) -> None:
        self.path = Path(path)
        self.error, self.what, self.durable = error, what, durable
        self._handle = None
        try:
            self._handle = open(self.path, "ab+", buffering=0)
            self._repair_tail()
        except OSError as exc:
            self.close()
            raise error(
                f"cannot open {what} file {str(self.path)!r}: {exc}"
            ) from exc

    def _repair_tail(self) -> None:
        handle = self._handle
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        start = handle.read().rfind(b"\n") + 1  # rare path: whole-file read
        handle.seek(start)
        try:
            json.loads(handle.read())
        except ValueError:
            handle.truncate(start)
        else:
            handle.write(b"\n")

    def write(self, line: str) -> None:
        """Append ``line`` and a newline; a partial line is repaired later."""
        data = memoryview((line + "\n").encode("utf-8"))
        try:
            while data:
                data = data[self._handle.write(data):]
            if self.durable:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self.error(
                f"cannot write {self.what} file {str(self.path)!r}: {exc}"
            ) from exc

    def close(self) -> None:
        """Release the file; idempotent."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


def append(path: PathLike, line: str, *, error: Type[ReproError],
           what: str, durable: bool = True) -> None:
    """Open ``path`` as an :class:`Appender`, write ``line``, close."""
    log = Appender(path, error=error, what=what, durable=durable)
    try:
        log.write(line)
    finally:
        log.close()


def scan(path: PathLike, *, error: Type[ReproError], what: str,
         boundary: Optional[Callable[[Record], bool]] = None
         ) -> Tuple[List[Record], List[Record]]:
    """``(records, tears)`` of a journal; a missing file is empty.

    ``tears`` holds one ``{"line": lineno, "tear": "file" | "session"}``
    per skipped unparseable line: the last content line (``"file"``), or
    one right before a record ``boundary`` accepts (``"session"``).
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], []
    except OSError as exc:
        raise error(f"cannot read {what} file {str(path)!r}: {exc}") from exc
    content = [(lineno, line.strip())
               for lineno, line in enumerate(raw.split(b"\n"), start=1)
               if line.strip()]
    records: List[Record] = []
    tears: List[Record] = []
    for position, (lineno, line) in enumerate(content):
        try:
            record = json.loads(line)
        except ValueError:
            last = position == len(content) - 1
            if last or (boundary is not None
                        and _accepts(boundary, content[position + 1][1])):
                tears.append({"line": lineno,
                              "tear": "file" if last else "session"})
                continue
            raise error(f"{path}: corrupt {what} line {lineno} (not valid "
                        "JSON) in the middle of the log") from None
        if not isinstance(record, dict):
            raise error(f"{path}:{lineno}: {what} line is not a JSON object")
        records.append(record)
    return records, tears


def _accepts(boundary: Callable[[Record], bool], line: bytes) -> bool:
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and boundary(record)


def replace_atomic(path: PathLike, text: str, *,
                   error: Type[ReproError]) -> None:
    """Replace ``path`` by ``text`` via a fsynced temp file and a rename,
    creating the parent directory first.  A failed write leaves ``path``
    as it was and removes the temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # best effort: the write's own error is the one raised
        raise error(f"cannot write {str(path)!r}: {exc}") from exc
