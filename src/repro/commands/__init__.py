"""Command groups of the ``python -m repro`` CLI.

Each module defines one group's arguments and handlers through
``configure(parser, command)``; :data:`repro.cli.COMMANDS` maps every
command to its module, and :func:`repro.cli.main` imports only the module
of the command it runs.  :mod:`repro.commands.common` holds the
plumbing the groups share.
"""

__all__ = []
