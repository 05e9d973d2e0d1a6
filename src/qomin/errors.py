"""Exception hierarchy shared by all qomin modules."""


class QominError(Exception):
    """Base class for all library errors."""


class ParseError(QominError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SignatureError(QominError):
    """A symbol was used outside the signature of the active theory."""


class EvalError(QominError):
    """Evaluation failure: unbound variable, tag mismatch, stray quantifier."""


class ResourceCapError(QominError):
    """A computation would exceed a resource cap; the CLI exits 4."""


class WindowCapError(ResourceCapError):
    """A window enumeration would exceed the configured element cap."""


class UnsupportedTheoryError(QominError):
    """The requested operation has no engine for this theory."""


class NonSentenceError(QominError):
    """decide() was called on a formula with free variables."""


class DecompositionError(QominError):
    """decompose() cannot handle the given input shape."""
