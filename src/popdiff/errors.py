"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: parse/format errors are 2,
exhausted retries 3, infeasible parameters 4, degenerate Bohr collapse 5,
a failed regularity guarantee 6.
"""


class PopdiffError(Exception):
    pass


class DomainError(PopdiffError, ValueError):
    """Domain kind or size does not admit the requested operation."""


class FileFormatError(PopdiffError, ValueError):
    """Artifact file is malformed or of the wrong kind."""


class InfeasibleError(PopdiffError, ValueError):
    """Parameters fail a fatal feasibility requirement."""


class RetriesExhausted(PopdiffError, RuntimeError):
    """A randomized construction failed verification on every attempt.

    Carries a ``log`` dict with the failing level/step and the best verdict
    seen, so callers can report what was measured; it holds no failed state,
    which is dropped before the next attempt is built.
    """

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log or {}


class DegenerateBohrError(PopdiffError, RuntimeError):
    """A Bohr set collapsed to {0}, leaving no nonzero difference to return."""


class RegularityError(PopdiffError, RuntimeError):
    """A search found nothing where the theory guarantees a result: no regular
    Bohr scale, or no increment index within its horizon."""
