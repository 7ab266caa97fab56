"""Exception types shared across the toolkit, and the base of the value
types that check their fields."""


class SmellSurvError(Exception):
    """Base class for all toolkit errors.

    ``row`` is the 1-based manifest row the error came from, when known.
    """

    row: int | None = None


class ConfigError(SmellSurvError):
    """Bad configuration: an unknown rule id, a non-positive threshold, an
    unknown output format, a negative gap tolerance, thresholds out of order."""


class ReportParseError(SmellSurvError):
    """A violation report could not be parsed.

    Carries ``byte_offset`` when the position in the document is known.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class ManifestError(SmellSurvError):
    """A manifest row is invalid."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class Checked:
    """Base of a NamedTuple subclass whose ``__new__`` checks its fields.

    NamedTuple's ``_make`` builds with ``tuple.__new__``, and ``_replace``
    builds through ``_make``, so both would skip the check; here they go
    through the constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
