"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so commands can be scripted
against without parsing messages.
"""


class KSCheckError(Exception):
    """Base class for all package-specific errors."""


class ScenarioParseError(KSCheckError):
    """A scenario file failed to parse or validate.

    ``path`` points at the offending location inside the JSON document,
    e.g. ``$.vertices[3].operator``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class InvalidGraphError(KSCheckError):
    """A hypergraph violates a structural invariant (commutation, signed
    identity products, isolated vertices, bad indices)."""


class CapExceededError(KSCheckError):
    """An exhaustive search was requested beyond its configured cap."""


class MissingBlockError(KSCheckError):
    """A command needs a scenario block (realization, tables, ...) that the
    file does not provide."""


class BadArgumentError(KSCheckError):
    """A structurally valid input is unusable for the requested operation
    (wrong argument type, inadmissible outcome tuple, unknown name)."""


class NotTwoValuedError(BadArgumentError, ValueError):
    """A search over outcome assignments met a measurement without exactly
    two outcomes.  Also a ValueError, which library callers catch."""


class MarginalAmbiguityError(KSCheckError):
    """A sub-measurement is contained in several maximal joints whose
    marginals disagree; the theory is being queried as if non-disturbing."""
