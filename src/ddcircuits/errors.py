"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(ToolkitError):
    """Malformed input file; carries the 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotPointedError(ToolkitError):
    """The constraint system admits a line, so vertex semantics break down."""


class SizeGuardExceeded(ToolkitError):
    """An exponential-time oracle was asked to exceed its work budget."""


class LpUnboundedError(ToolkitError):
    """An operation that needs a bounded LP was handed an unbounded one."""


class IterationCapExceeded(ToolkitError):
    """Augmentation hit its iteration cap; the partial trace is attached."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace
