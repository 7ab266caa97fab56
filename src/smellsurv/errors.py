"""Exception types shared across the toolkit.

Every input is checked where it is read, and every failure is raised as a
``SmellSurvError`` subclass: the CLI reports only these.
"""


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
    """Bad configuration: an unreadable or malformed rules file or code
    model (a lone surrogate in an entity's strings included), an unknown rule
    id, a non-positive threshold, an unknown output format, a negative gap
    tolerance, thresholds out of order, a ``--version-id`` UTF-8 cannot
    encode."""


class ReportParseError(SmellSurvError):
    """A violation report could not be parsed."""


class ManifestError(SmellSurvError):
    """A manifest row is invalid."""


class OutputError(SmellSurvError):
    """A file or directory under ``--out`` could not be created, written,
    moved, replaced or removed."""
