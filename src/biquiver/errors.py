"""Error classes shared across the package.

FormatError covers malformed input documents and values; PreconditionError
covers structurally valid inputs that an operation cannot accept (the CLI
maps them to distinct exit codes). `echo` quotes an input value in an
error message.
"""

# The most characters of an input value's repr that an error message quotes.
ECHO_LIMIT = 60


def echo(value) -> str:
    """repr(value), cut to ECHO_LIMIT characters and its length when longer."""
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


class FormatError(ValueError):
    """Malformed document, field, or value."""


class PreconditionError(ValueError):
    """Valid input outside an operation's domain."""


class SingularMatrixError(PreconditionError):
    """A matrix required to be invertible is singular."""
