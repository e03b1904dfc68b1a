"""Exception types shared across the package.

Each subclass carries its CLI exit code (one of ``cli.EXIT_*``) and the
prefix of its stderr line, so commands can be scripted against without
parsing messages.  ``check_cap`` is the one check of ``SEARCH_CAP`` (or a
caller's cap) that every exhaustive search makes before it starts.
"""


class KSCheckError(Exception):
    """Base class for all package-specific errors."""


class ScenarioParseError(KSCheckError):
    """A scenario file failed to parse or validate.

    ``path`` points at the offending location inside the JSON document,
    e.g. ``$.vertices[3].operator``.
    """

    exit_code, prefix = 2, "parse error"

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class InvalidGraphError(KSCheckError):
    """A hypergraph violates a structural invariant (commutation, signed
    identity products, isolated vertices, bad indices, declared signs)."""

    exit_code, prefix = 3, "invalid graph"


class CapExceededError(KSCheckError):
    """An exhaustive search was requested beyond its configured cap."""

    exit_code, prefix = 5, "cap exceeded"


# Most variables (vertices or basic measurements) an exhaustive search takes.
SEARCH_CAP = 24


def check_cap(n_variables: int, cap: int) -> None:
    """Refuse a search over more than ``cap`` variables."""
    if n_variables > cap:
        raise CapExceededError(f"{n_variables} search variables exceed the cap of {cap}")


class MissingBlockError(KSCheckError):
    """A command needs a scenario block (realization, tables, ...) that the
    file does not provide."""

    exit_code, prefix = 4, "missing block"


class BadArgumentError(KSCheckError):
    """A structurally valid input is unusable for the requested operation
    (wrong argument type, inadmissible outcome tuple, unknown name)."""

    exit_code, prefix = 6, "bad argument"


class NotTwoValuedError(BadArgumentError, ValueError):
    """A search over outcome assignments met a measurement without exactly
    two outcomes.  Also a ValueError, which library callers catch."""


class MarginalAmbiguityError(KSCheckError):
    """A sub-measurement is contained in several maximal joints whose
    marginals disagree; the theory is being queried as if non-disturbing."""

    exit_code, prefix = 6, "bad argument"
