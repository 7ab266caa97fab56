"""Exception types shared across the toolkit."""


class SmellSurvError(Exception):
    """Base class for all toolkit errors.

    ``row`` is the 1-based manifest row the error came from, when known.
    """

    row: int | None = None


class ConfigError(SmellSurvError):
    """Bad rule configuration (unknown rule id, non-positive threshold, ...)."""


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
