"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input text. Carries the 1-based line number of the offending line."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class InputError(ValueError):
    """Input that is well-formed text but unusable: an unreadable file, or a
    supplied vertex set that is not the vertex cover a solver needs."""


class ResourceLimitError(RuntimeError):
    """An instance exceeds a configured size cap (vertex count, cover size, ...)."""


class InvalidDecompositionError(ValueError):
    """A decomposition violates one of the defining axioms.

    `violations` is a list of human-readable diagnostics, one per violation.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InternalError(AssertionError):
    """A solver invariant failed; indicates a bug, not bad input."""
