"""Exception types shared across the library.

Every failure the library can detect maps to one of these, so callers can
distinguish "your inputs are bad" (ConfigInvalid, UnstableMatrix) from
"the computation broke down" (NonConvergence, DivergedState) without
string-matching messages.
"""


class AlqrError(Exception):
    """Base class for all library errors."""


class UnstableMatrix(AlqrError):
    """A matrix required to be Schur stable has spectral radius >= 1."""


class NonConvergence(AlqrError):
    """An iterative solver failed to meet its tolerance within its budget."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class IllConditioned(AlqrError):
    """A linear solve encountered a matrix too close to singular to trust."""


class DivergedState(AlqrError):
    """The simulated state left the trusted numeric range."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ConfigInvalid(AlqrError):
    """A configuration document failed validation.

    ``path`` is a dotted path naming the offending field, e.g.
    ``"plant.generator.n"`` or ``""`` for document-level problems.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path

    @property
    def reason(self) -> str:
        return self.args[0]


class IncompleteLog(AlqrError):
    """A trial log is missing, truncated, or internally inconsistent."""


class IoError(AlqrError):
    """Reading or writing an output artifact failed."""


class EmptyWindow(AlqrError):
    """A fit window contains fewer than two usable points."""


class GenerationFailed(AlqrError):
    """Random plant generation could not satisfy its constraints."""
