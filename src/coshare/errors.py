"""Exception hierarchy shared by all coshare modules."""


class CoshareError(Exception):
    """Base class for all library errors."""


class ValidationError(CoshareError):
    """Malformed domain object (bad probabilities, shape mismatch, ...)."""


class DomainError(CoshareError):
    """Argument outside an operation's documented domain."""


class ContractError(CoshareError):
    """A caller violated an operation's precondition contract."""


class InfeasibleError(CoshareError):
    """No feasible point exists for the requested problem."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class NonterminationError(CoshareError):
    """Iterative procedure exceeded its iteration cap.

    Carries the last state so callers can inspect how far the run got.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConvergenceError(CoshareError):
    """Fixed-point iteration failed to reach tolerance.

    Carries the last iterate and its residual.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class SchemaError(CoshareError):
    """Problem file failed schema validation.

    ``failures`` lists every violation found, not just the first.
    """

    def __init__(self, failures):
        if isinstance(failures, str):
            failures = [failures]
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
