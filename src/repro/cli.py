"""Command-line interface: regenerate any paper artifact from a shell.

``python -m repro COMMAND ...`` dispatches over :data:`COMMANDS`, which
maps each command to the module under :mod:`repro.commands` that defines
its arguments and handler.  Only the chosen command's module is imported
and only its subparser is built, so a command pays for its own layers
alone (``docs/PERFORMANCE.md``, "CLI start-up"); ``python -m repro
--help`` lists the table and ``python -m repro COMMAND --help`` one
command.  Each group module documents its commands:

* :mod:`repro.commands.figures` — ``fig1``/``fig3``/``fig4``/``fig5``,
  ``coverage``, ``policyfit``, ``sweeps``, ``all``, and the declarative
  front door ``run``/``batch``/``scenarios``;
* :mod:`repro.commands.campaign` — sharded resumable fault campaigns;
* :mod:`repro.commands.stream` — continuous frame streams;
* :mod:`repro.commands.platform` — multi-device vehicle platforms;
* :mod:`repro.commands.obs` — telemetry logs: validate, report, export, diff;
* :mod:`repro.commands.lint` — the determinism-contract linter;
* :mod:`repro.commands.compare` — statistical significance diff.

A failing command prints one ``error:`` line to stderr and exits 1 (2
for a misconfigured linter, 130 after Ctrl-C); ``obs``, ``lint`` and
``compare`` return their own exit codes, and argparse misuse exits 2.
A command whose reader closes stdout early (``repro ... | head``) stops
quietly, printing nothing more, with 141 (128 + SIGPIPE, as a shell
reports a process killed by a broken pipe).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, NamedTuple, Optional, Sequence

from repro.errors import LintError, ReproError

__all__ = ["main"]


class Command(NamedTuple):
    """One CLI command: the module defining it and its one-line help."""

    module: str
    help: str


_FIGURES = "repro.commands.figures"

#: Every command, in ``--help`` order.
COMMANDS: Dict[str, Command] = {
    **{name: Command(_FIGURES, f"regenerate the {name} artifact(s)")
       for name in ("coverage", "fig1", "fig3", "fig4", "fig5", "policyfit",
                    "sweeps", "all")},
    "run": Command(_FIGURES,
                   "execute a RunSpec file or a registered scenario"),
    "batch": Command(_FIGURES,
                     "execute many RunSpec files on a process pool"),
    "scenarios": Command(_FIGURES, "list the registered scenarios"),
    "compare": Command("repro.commands.compare",
                       "statistical significance diff of two artifact JSON "
                       "files"),
    "lint": Command("repro.commands.lint",
                    "statically check the determinism contract (repro.lint)"),
    "campaign": Command("repro.commands.campaign",
                        "sharded resumable fault-injection campaigns"),
    "stream": Command("repro.commands.stream",
                      "continuous frame streams with online deadline "
                      "analytics"),
    "platform": Command("repro.commands.platform",
                        "multi-device vehicle platforms with task placement"),
    "obs": Command("repro.commands.obs",
                   "inspect repro-telemetry/v1 event logs (repro.obs)"),
}


def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The CLI parser, with only ``command``'s subparser filled in."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and extension "
                    "experiments (Alcaide et al., DATE 2019).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, entry in COMMANDS.items():
        command_parser = sub.add_parser(name, help=entry.help)
        if name == command:
            # an import statement, not importlib, so that
            # ``python -X importtime`` lists the command module too
            module = __import__(entry.module, fromlist=["configure"])
            module.configure(command_parser, name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # the root parser has only flags, so the first other word names the
    # command (argparse rejects it below when it is not in the table)
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = _parser(command).parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        import os

        # the reader left (``| head``): flush the rest into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # work already journaled stays; ``campaign resume`` continues it
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
