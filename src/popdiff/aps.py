"""3-AP densities with fixed and varying common difference, plus tower and
Chinese-remainder coordinate helpers.

Density conventions (d=0 is always admissible and included in profiles, so
that the mean of a group profile over all d equals the total density):

* group:                E_{x in Z_n}[f(x) f(x+d) f(x+2d)]
* interval-over-N:      sum_{x in [N-2d]} f(x) f(x+d) f(x+2d) / N
* interval-over-N-2d:   the same sum divided by N-2d

The over-(N-2d) value always dominates the over-N value (same numerator,
smaller denominator).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .domains import (
    GROUP,
    OVER_N,
    OVER_WINDOW,
    APProfile,
    DensityFn,
    Spectrum,
)
from .errors import DomainError
from .fourier import dft

# sparse profile path is worthwhile when the support is this small
_SPARSE_LIMIT = lambda n: max(8, int(np.sqrt(n)))

# the automatic path takes the sparse route only when its error bound is below
# this, well inside the 1e-8 to which profiles are checked against direct scans
SPARSE_TOL = 1e-9


# ---------------------------------------------------------------------------
# fixed difference


def _group_per_diff(v: np.ndarray, d: int) -> float:
    return float(np.mean(v * np.roll(v, -d) * np.roll(v, -2 * d)))


def _interval_window_sum(v: np.ndarray, d: int) -> float:
    n = len(v)
    w = n - 2 * d
    return float(np.dot(v[:w] * v[d : d + w], v[2 * d :]))


def per_diff_density(f: DensityFn, d: int, normalization: str | None = None) -> float:
    """Density of 3-APs with common difference d, in the requested normalization."""
    n = f.n
    if f.domain.is_group:
        if normalization not in (None, GROUP):
            raise DomainError("group domains use the group normalization")
        return _group_per_diff(f.values, d % n)
    if normalization is None or normalization == GROUP:
        raise DomainError("interval densities need an interval normalization")
    if not (d == 0 or 0 < d < n / 2):
        raise DomainError(f"difference d={d} out of range for interval of length {n}")
    s = _interval_window_sum(f.values, d)
    if normalization == OVER_N:
        return s / n
    if normalization == OVER_WINDOW:
        return s / (n - 2 * d)
    raise DomainError(f"unknown normalization {normalization!r}")


# ---------------------------------------------------------------------------
# total density


def total_3ap_density(f: DensityFn, method: str = "spectral") -> float:
    """E_{x,d}[f(x)f(x+d)f(x+2d)] over a group, d=0 included.

    ``spectral`` evaluates sum_r fhat(r)^2 fhat(-2r); ``direct`` averages the
    per-difference densities and is kept as the independent check.
    """
    if not f.domain.is_group:
        raise DomainError("total 3-AP density is a group quantity")
    n = f.n
    if method == "direct":
        return float(np.mean([_group_per_diff(f.values, d) for d in range(n)]))
    if method != "spectral":
        raise DomainError(f"unknown method {method!r}")
    c = dft(f).coeffs
    val = np.sum(c * c * c[(-2 * np.arange(n)) % n])
    return float(val.real)


# ---------------------------------------------------------------------------
# full profiles


def perdiff_table_dense(values: np.ndarray, threads: int = 1) -> np.ndarray:
    """Group per-difference densities for every d, by direct O(n) scans."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    out = np.empty(n)

    def fill(lo, hi):
        for d in range(lo, hi):
            out[d] = _group_per_diff(v, d)

    if threads <= 1 or n < 4096:
        fill(0, n)
    else:
        step = -(-n // threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda lo: fill(lo, min(lo + step, n)), range(0, n, step)))
    return out


def perdiff_table_sparse(spectrum: Spectrum) -> np.ndarray:
    """Group per-difference densities from a sparse spectrum.

    With support S, density(d) = Re sum over (r1,r2,r3) in S^3, r1+r2+r3=0, of
    c(r1)c(r2)c(r3) e(-(r2+2r3) d/n); cost O(|S|^2 + #freqs * n).
    """
    n = spectrum.n
    c = spectrum.coeffs
    supp = spectrum.support
    sset = set(int(r) for r in supp)
    amps: dict[int, complex] = {}
    for r1 in supp:
        for r2 in supp:
            r3 = int(-(r1 + r2)) % n
            if r3 not in sset:
                continue
            k = int(r2 + 2 * r3) % n
            amps[k] = amps.get(k, 0j) + c[r1] * c[r2] * c[r3]
    d = np.arange(n, dtype=np.int64)
    out = np.zeros(n)
    for k, amp in amps.items():
        out += (amp * np.exp((-2j * np.pi / n) * ((k * d) % n))).real
    return out


def sparse_error_bound(values: np.ndarray, spectrum: Spectrum) -> float:
    """Bound on |sparse profile - exact profile| at every d, from the spectrum.

    Let g be f truncated to the support S and e = f - g.  Then
    Lambda_d(f) - Lambda_d(g) = Lambda_d(e,f,f) + Lambda_d(g,e,f) + Lambda_d(g,g,e),
    and each term is at most ||e||_2 M^2 by Cauchy-Schwarz, where
    M = max(||f||_inf, sum_{r in S} |c(r)|) bounds both sup norms.  Parseval
    gives ||e||_2^2 = sum_{r not in S} |c(r)|^2.  Cost O(n).
    """
    mag = np.abs(spectrum.coeffs)
    kept = np.zeros(len(mag), dtype=bool)
    kept[spectrum.support] = True
    dropped = float(np.sqrt(np.sum(mag[~kept] ** 2)))
    m = max(float(np.abs(values).max()), float(mag[kept].sum()))
    return 3.0 * dropped * m * m


def ap_profile(
    f: DensityFn,
    normalization: str | None = None,
    path: str = "auto",
    threads: int = 1,
) -> APProfile:
    """Per-difference densities over every admissible d.

    Group profiles pick the sparse-spectrum path automatically when the
    support is small and ``sparse_error_bound`` is at most ``SPARSE_TOL``,
    otherwise the dense per-d scan; ``path`` forces one.
    Interval profiles cover 0 <= d < N/2 in the requested normalization.
    """
    n = f.n
    if f.domain.is_group:
        if path == "auto":
            spec = dft(f)
            small = len(spec.support) <= _SPARSE_LIMIT(n)
            bounded = small and sparse_error_bound(f.values, spec) <= SPARSE_TOL
            path = "sparse" if bounded else "dense"
        else:
            spec = None
        if path == "sparse":
            dens = perdiff_table_sparse(spec if spec is not None else dft(f))
        elif path == "dense":
            dens = perdiff_table_dense(f.values, threads=threads)
        else:
            raise DomainError(f"unknown profile path {path!r}")
        return APProfile(dens, GROUP, n)
    if normalization not in (OVER_N, OVER_WINDOW):
        raise DomainError("interval profiles need an interval normalization")
    dmax = (n - 1) // 2
    dens = np.empty(dmax + 1)
    for d in range(dmax + 1):
        s = _interval_window_sum(f.values, d)
        dens[d] = s / n if normalization == OVER_N else s / (n - 2 * d)
    return APProfile(dens, normalization, n)


# ---------------------------------------------------------------------------
# tower function


def tower(m: int) -> int:
    """tower(0) = 1, tower(m) = 2**tower(m-1); exact big integers."""
    if m < 0:
        raise ValueError("tower height must be nonnegative")
    t = 1
    for _ in range(m):
        t = 2**t
    return t


def tower_height(n: int) -> int:
    """Least m with tower(m) >= n."""
    if n < 1:
        raise ValueError("tower_height needs a positive argument")
    m, t = 0, 1
    while t < n:
        t = 2**t
        m += 1
    return m


# ---------------------------------------------------------------------------
# product-group coordinates


def to_coords(x: int, factors) -> tuple:
    """Canonical Z_n -> prod Z_{m_i} coordinates, x |-> (x mod m_1, ...)."""
    return tuple(x % m for m in factors)


def from_coords(coords, factors) -> int:
    """Inverse Chinese-remainder map; factors must be pairwise coprime."""
    factors = tuple(factors)
    if len(coords) != len(factors):
        raise ValueError("coordinate/factor length mismatch")
    n = 1
    for m in factors:
        n *= m
    x = 0
    for c, m in zip(coords, factors):
        rest = n // m
        try:
            inv = pow(rest, -1, m)
        except ValueError as exc:
            raise ValueError(f"factors {factors} are not pairwise coprime") from exc
        x = (x + (c % m) * rest * inv) % n
    return x
