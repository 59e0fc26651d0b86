"""Shared exception types."""


class PncValenceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PncValenceError):
    """Invalid inputs, options, or domain invariant violations."""


class ParseError(ValidationError):
    """A file could not be parsed. Carries the reason, path and 1-based line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.reason = message
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class RankDeficiencyError(ValidationError):
    """Design matrix is rank deficient. Carries the offending column names."""

    def __init__(self, columns: list[str]):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; collinear columns: {', '.join(self.columns)}")


class ConvergenceError(PncValenceError):
    """An iterative solver failed to converge. Carries an iteration trace."""

    def __init__(self, message: str, trace: list[float] | None = None):
        self.trace = list(trace) if trace else []
        super().__init__(message)


class ClassificationError(PncValenceError):
    """A classification batch failed. Carries the offending context ids."""

    def __init__(self, message: str, context_ids: list[str] | None = None):
        self.context_ids = list(context_ids) if context_ids else []
        super().__init__(message)
