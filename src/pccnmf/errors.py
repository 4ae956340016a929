"""Exception types shared across the package.

Every failure the library raises on purpose derives from :class:`Error`,
so callers (notably the CLI) can separate computational failures from
programming errors.
"""


class Error(Exception):
    """Base class for all pccnmf errors."""


class FormatError(Error):
    """An input file violates its documented format."""


class ParameterError(Error):
    """An argument is outside its documented domain."""


class DegenerateInputError(Error):
    """The input is structurally valid but carries no usable signal (e.g. all-zero matrix)."""


class UndefinedCorrelationError(Error):
    """A correlation was requested for a zero-variance sequence."""
