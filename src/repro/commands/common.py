"""CLI plumbing shared by every command group.

The ``--json``, ``--out`` and ``--telemetry/--progress/--heartbeat``
flags, reading spec and report files, and opening the telemetry session
the flags ask for are defined here once; each group module under
:mod:`repro.commands` adds only its own arguments and handler.  This
module imports no subsystem: the telemetry session is imported when a
command asks for one.
"""

from __future__ import annotations

import argparse
import json
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.session import Telemetry

__all__ = [
    "add_frames_flag",
    "add_json_flag",
    "add_out_flag",
    "add_telemetry_flags",
    "frames_override",
    "read_json",
    "read_text",
    "telemetry_session",
    "write_out",
]


def add_json_flag(parser: argparse.ArgumentParser,
                  help: str = "emit JSON instead of a table") -> None:
    """``--json``: machine-readable output instead of a table."""
    parser.add_argument("--json", action="store_true", help=help)


def add_out_flag(parser: argparse.ArgumentParser) -> None:
    """``--out FILE``: also write the report JSON to a file."""
    parser.add_argument("--out", default=None,
                        help="also write the report JSON to this file")


def add_frames_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """``--frames N``: override the spec's frame count(s)."""
    parser.add_argument("--frames", type=int, default=None, help=help)


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--telemetry/--progress/--heartbeat`` of every run command."""
    parser.add_argument("--telemetry", default=None, metavar="OUT.jsonl",
                        help="append a repro-telemetry/v1 event log to this "
                             "file (inspect with `repro obs report`)")
    parser.add_argument("--progress", action="store_true",
                        help="paint a live progress line on stderr")
    # the default below is DEFAULT_HEARTBEAT_S, spelled out so building
    # the parser imports no subsystem
    parser.add_argument("--heartbeat", type=float, default=None, metavar="S",
                        help="seconds between heartbeat events (default 1.0)")


@contextmanager
def telemetry_session(args: argparse.Namespace
                      ) -> Iterator[Optional[Telemetry]]:
    """The Telemetry session the run flags ask for (``None`` for none),
    closed when the command's run ends."""
    if not (args.telemetry or args.progress):
        yield None
        return
    from repro.obs.session import DEFAULT_HEARTBEAT_S, Telemetry

    heartbeat_s = (DEFAULT_HEARTBEAT_S if args.heartbeat is None
                   else args.heartbeat)
    telemetry = Telemetry.create(path=args.telemetry, progress=args.progress,
                                 heartbeat_s=heartbeat_s)
    try:
        yield telemetry
    finally:
        telemetry.close()


def frames_override(args: argparse.Namespace) -> Optional[int]:
    """The validated ``--frames`` value (``None`` when not given)."""
    if args.frames is not None and args.frames < 1:
        raise ConfigurationError("--frames must be >= 1")
    return args.frames


def read_text(path: str, what: str) -> str:
    """A file's text; ``what`` names it in the error (``"spec file"``)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path!r}: {exc}")


def read_json(path: str, what: str) -> Any:
    """A JSON file's parsed content."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path!r} is not valid JSON: {exc}")


def write_out(path: Optional[str], text: str) -> None:
    """Replace the ``--out`` file by a report, when one was given; a
    failed write leaves the previous report whole."""
    if path:
        from repro.journal import replace_atomic

        replace_atomic(path, text + "\n", error=ConfigurationError)
