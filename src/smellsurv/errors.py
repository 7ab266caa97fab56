"""Exception types shared across the toolkit, and the one reader of its inputs.

Every input is checked where it is read, and every failure is raised as a
``SmellSurvError`` subclass: the CLI reports only these.
"""

import os
import stat
from collections.abc import Callable


class SmellSurvError(Exception):
    """Base class for all toolkit errors.

    ``row`` is the 1-based manifest row the error came from, and
    ``byte_offset`` its position in a report, when known.
    """

    def __init__(self, message: str, row: int | None = None, byte_offset: int | None = None):
        super().__init__(message)
        self.row = row
        self.byte_offset = byte_offset


class ConfigError(SmellSurvError):
    """Bad configuration: an unreadable rules file or ``--code-model``, a
    malformed rules file or code model (a lone surrogate in an entity's
    strings included), an unknown rule id, a non-positive threshold, an
    unknown output format, a negative gap tolerance, thresholds out of order,
    a ``--version-id`` UTF-8 cannot encode, a usage error argparse reports."""


class ReportParseError(SmellSurvError):
    """A violation report could not be parsed."""


class ManifestError(SmellSurvError):
    """A manifest or one of its rows is invalid, or a report a row names cannot be read."""


class OutputError(SmellSurvError):
    """A file or directory under ``--out`` could not be created, written,
    moved, replaced or removed."""


def read_input(path, what: str, error: Callable[[str], SmellSurvError], read: bool = True) -> bytes | None:
    """The bytes of the regular file at path, or with ``read=False`` None once it
    is known to be one; else raise ``error(f"{what} {path} unreadable: {reason}")``.
    It is opened without blocking, so a FIFO is refused, not waited on."""
    try:
        if read:
            with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    return fh.read()
        elif stat.S_ISREG(os.stat(path).st_mode):
            return None
        reason = "not a regular file"
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
    raise error(f"{what} {path} unreadable: {reason}")
