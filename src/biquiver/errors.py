"""Error classes shared across the package, and the one int rule.

FormatError covers malformed input documents and values; PreconditionError
covers structurally valid inputs that an operation cannot accept (the CLI
maps them to distinct exit codes). `echo` quotes an input value in an
error message. `is_int` and `check_int` hold the package's one int rule:
an int that is not a bool, and `check_instance` its one type rule for the
package's own classes, which it takes from the caller.
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


def is_int(value) -> bool:
    """Whether value is an int and not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(value, what: str, least: int | None, error: type[ValueError]) -> None:
    """Raise error("<what> must be an int, got <value>") unless is_int(value); with least
    0 or 1, "a nonnegative int" or "a positive int" unless also value >= least."""
    if not is_int(value) or (least is not None and value < least):
        want = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}[least]
        raise error(f"{what} must be {want}, got {echo(value)}")


def check_instance(value, cls: type, what: str) -> None:
    """Raise FormatError("<what> needs a <cls>, got <value>") unless value is a cls."""
    if not isinstance(value, cls):
        raise FormatError(f"{what} needs a {cls.__name__}, got {echo(value)}")
