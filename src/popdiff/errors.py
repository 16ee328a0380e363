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

    Its ``log`` holds what was measured, never the failed state: a product
    run ``{level, retries, best_verdict}``, an interval run ``{best_verdict,
    overlay_retries, product_retries}`` and sampling ``{cert}``.  Each
    ``best_verdict`` is the lowest failing ``aps.Verdict``; an interval scan
    stops early, so its d is a first violating d, not a worst d.
    """

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log or {}


class DegenerateBohrError(PopdiffError, RuntimeError):
    """A Bohr set collapsed to {0}, leaving no nonzero difference to return."""


class RegularityError(PopdiffError, RuntimeError):
    """A search found nothing where the theory guarantees a result: no regular
    Bohr scale, or no increment index within its horizon."""
