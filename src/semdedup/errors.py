"""Exception hierarchy and the process exit codes the CLI maps it to."""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_DATA = 4
EXIT_NOT_CONVERGED = 5


class SemDedupError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SemDedupError):
    """A caller-supplied argument violates a documented precondition."""


class BracketError(InvalidArgumentError):
    """Threshold tuning endpoints do not bracket the target fraction."""


class FormatError(SemDedupError):
    """A file is structurally invalid: bad magic, version, or truncation."""


class DataError(SemDedupError):
    """File contents are well-formed but semantically bad (NaN, dup ids...)."""


class DegenerateRowError(DataError):
    """A row has (near-)zero norm, so its direction is undefined."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code for its error class."""
    if isinstance(exc, FormatError):
        return EXIT_FORMAT
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, InvalidArgumentError):
        return EXIT_VALIDATION
    return 1
