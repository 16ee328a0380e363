"""Exception types shared across the package, and the one size rule.

The CLI maps these onto its exit-code contract: parse/format errors are 2,
exhausted retries 3, infeasible parameters 4, degenerate Bohr collapse 5,
a failed regularity guarantee 6.
"""

import math


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


def exp_text(log_x: float, spec: str) -> str:
    """format(exp(log_x), spec) for a "g" spec, also past the float range."""
    k = math.floor(log_x / math.log(10))
    k = k - 300 if k > 300 else min(0, k + 300)  # a shift of 10^k leaves a float
    mant, e, exp10 = format(math.exp(log_x - k * math.log(10)), spec).partition("e")
    return f"{mant}e{int(exp10) + k:+d}" if k else mant + e + exp10


def int_text(k) -> str:
    """str(k) for an int of at most 40 digits, or a tuple of ints as str prints
    one; a longer int as exp_text's 6-digit mantissa and exponent, which keeps
    a detail short and stays defined past str's 4300-digit limit."""
    if isinstance(k, tuple):
        inner = ", ".join(map(int_text, k))
        return f"({inner},)" if len(k) == 1 else f"({inner})"
    if abs(k) < 10**40:
        return str(k)
    return ("-" if k < 0 else "") + exp_text(math.log(abs(k)), ".6g")


def check_size(size: int, what: str) -> None:
    """A DomainError naming ``what`` when no float vector of ``size`` entries
    can be allocated; a size below 1 passes, for the caller's own message.
    bytes(8 * size) is the same lazily zeroed calloc as np.zeros(size), so the
    probe touches no page and needs no numpy."""
    try:
        bytes(8 * max(size, 0))
    except (MemoryError, OverflowError) as exc:  # OverflowError: beyond the index range
        raise DomainError(f"{what} = {int_text(size)} is too large to hold a value vector") from exc
