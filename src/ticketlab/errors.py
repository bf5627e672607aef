"""Exception types shared across the package.

The CLI maps these onto process exit codes: UsageError -> 1,
DataFormatError -> 2, NumericalError -> 3. The library raises no error
of its own for a file it cannot read or write: the OSError goes through
as the OS reports it, and the CLI maps it to exit 2 as well.
"""


class TicketLabError(Exception):
    """Base class for all package errors."""


class UsageError(TicketLabError):
    """Caller violated a precondition (bad argument, empty input, bad config)."""


class ShapeError(UsageError):
    """Array shapes do not chain or do not match their partner structure."""


class DataFormatError(TicketLabError):
    """A file's content is malformed: bad magic, truncation, version mismatch."""


class NumericalError(TicketLabError):
    """Training produced non-finite weights; the experiment cannot continue."""
