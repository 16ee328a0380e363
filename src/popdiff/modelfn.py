"""The low-3-AP model function on prime cyclic groups and the check of its
defining moments.

The model function with mean alpha on Z_n is

    g(x) = alpha - (alpha/2) cos(2 pi x / n) - (alpha/2) cos(4 pi x / n),

a five-mode trigonometric profile whose spectrum is supported exactly on
{0, +-1, +-2}: ghat(0) = alpha and ghat(+-1) = ghat(+-2) = -alpha/4.  For any
odd prime n >= 7 the moments are rational in alpha:

    E[g]   = alpha
    E[g^2] = (5/4)  alpha^2
    E[g^3] = (53/32) alpha^3
    total 3-AP density Lambda(g) = (31/32) alpha^3

n = 7 is the cutoff because at n = 5 the frequencies +-1, +-2 exhaust the
whole group and extra wrapped triples change Lambda to (15/16) alpha^3.

A tuple (a_1..a_h) of nonzero dilations is *smooth* for a support set S when
no nonzero (r_1..r_h) in S^h satisfies sum r_j a_j = 0 (mod n).  Smoothness
forces E_x[prod_j g(a_j x + b_j)] = alpha^h for every shift tuple b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import DensityFn, Spectrum, cyclic, is_prime
from .errors import DomainError, check_size

SECOND_MOMENT_FACTOR = 5 / 4
CUBE_MOMENT_FACTOR = 53 / 32
TRIPLE_DENSITY_FACTOR = 31 / 32

MIN_MODEL_PRIME = 7


def model_support(n: int) -> tuple:
    return (0, 1, 2, (n - 2) % n, (n - 1) % n)


@dataclass
class ModelFn:
    alpha: float
    n: int
    fn: DensityFn
    spectrum: Spectrum

    @property
    def values(self) -> np.ndarray:
        return self.fn.values


def build_model_fn(alpha: float, n: int) -> ModelFn:
    """Construct the model function; spectrum stored from the closed form."""
    if not 0 < alpha <= 0.5:
        raise DomainError(
            f"alpha={alpha} out of range: the profile peaks at 2*alpha, so alpha <= 1/2"
        )
    check_size(n, "n")
    if n % 2 == 0 or not is_prime(n):
        raise DomainError(f"model functions live on odd primes, got n={n}")
    if n < MIN_MODEL_PRIME:
        raise DomainError(
            f"n={n} too small: frequencies {{0,+-1,+-2}} must be distinct with "
            f"-2*(+-1) outside the support, which needs n >= {MIN_MODEL_PRIME}"
        )
    x = np.arange(n)
    values = alpha - (alpha / 2) * np.cos(2 * np.pi * x / n) - (alpha / 2) * np.cos(
        4 * np.pi * x / n
    )
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[0] = alpha
    for r in (1, 2, n - 2, n - 1):
        coeffs[r] = -alpha / 4
    return ModelFn(alpha, n, DensityFn(cyclic(n), values), Spectrum(n, coeffs))


def model_fn_extra(m: ModelFn) -> dict:
    """Sidecar block for the function file format."""
    return {"model": {"alpha": float(m.alpha), "n": int(m.n)}}


# ---------------------------------------------------------------------------
# property verification


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    measured: float
    target: float


@dataclass
class ModelReport:
    alpha: float
    n: int
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_model_properties(m: ModelFn) -> ModelReport:
    """Measure the defining moments of a model function and compare against
    the exact constants, each by ``aps.within`` at its own scale.

    The cube moment is checked against its exact value (53/32) alpha^3; that
    the profile sits above (3/2) alpha^3 is a fact of the construction, not a
    defect.
    """
    from .aps import close, total_3ap_density, within

    a, v, n = m.alpha, m.values, m.n
    rep = ModelReport(a, n)

    def equal(name, measured, target):
        rep.checks.append(PropertyCheck(name, close(measured, target), measured, target))

    vmin, vmax = float(v.min()), float(v.max())
    rep.checks.append(PropertyCheck("range", vmin >= 0 and bool(within(vmax, 2 * a)), vmax, 2 * a))
    equal("mean", float(v.mean()), a)
    equal("triple-density", total_3ap_density(m.fn), TRIPLE_DENSITY_FACTOR * a**3)
    equal("cube-moment", float((v**3).mean()), CUBE_MOMENT_FACTOR * a**3)

    s = float(v.sum())
    sq = float((v**2).sum())
    pairwise = (s * s - sq) / (n * (n - 1))
    rep.checks.append(PropertyCheck("pairwise", bool(within(pairwise, a * a)), pairwise, a * a))
    equal("second-moment", float((v**2).mean()), SECOND_MOMENT_FACTOR * a * a)
    return rep
