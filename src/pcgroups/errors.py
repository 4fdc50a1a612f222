"""Exception types shared across the package, and the one type guard that
public entry points put on their arguments."""

__all__ = ["InputError", "ParseError"]


class InputError(ValueError):
    """A caller handed an operation a value outside its stated domain."""


class ParseError(InputError):
    """Malformed text input; carries the 1-based source line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _instance(value, cls):
    """``value`` itself; raises ``InputError`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
        raise InputError(f"expected {article} {cls.__name__}, got {type(value).__name__}")
    return value
