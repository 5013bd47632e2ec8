"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: UsageError -> 1, DataError -> 2,
NumericError -> 3, and Python's MemoryError -> 4.
"""


class PointVbError(Exception):
    """Base class for all package errors."""


class UsageError(PointVbError):
    """Bad command line or configuration usage."""


class DataError(PointVbError):
    """Malformed or inconsistent input data."""


class PlyParseError(DataError):
    """PLY file cannot be parsed; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class LabelError(DataError):
    """Label file or label/cloud consistency problem."""


class ConfigError(UsageError):
    """Config file problem; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(DataError):
    """Checkpoint file is corrupt or has an unsupported version."""


class NumericError(PointVbError):
    """Non-finite values or a numerically invalid operation."""
