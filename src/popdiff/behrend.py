"""Low-3-AP-density subsets of Z_n, built from the progression-free sets of
[N] in ``apfree``.

``low_ap_density_subset`` turns an AP-free set A of [N] into a dense subset
of Z_n with few 3-APs, by one of two routes: for n <= 4N the densest piece of
A inside a window of length ceil(n/2) embeds directly (no nontrivial 3-AP at
all); for n > 4N the doubled set S = {2a} indexes blocks of t = floor(n/4N)
consecutive residues whose union only contains 3-APs falling inside a single
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# brute_max_apfree and is_apfree are not used here; the acceptance suite
# imports them from this module
from .apfree import (  # noqa: F401
    BRUTE_CAP,
    apfree_set,
    brute_max_apfree,
    is_apfree,
    max_apfree_sizes,
)
from .aps import ap_sums, within
from .domains import DensityFn, cyclic
from .errors import DomainError, InfeasibleError

# largest interval bound N that low_ap_density_subset tries; it decides the
# candidate intervals, so it is part of every lowap artifact
_INTERVAL_CAP = 4096

ALPHA0 = 0.1  # the density threshold alpha_0: the largest low-AP subset mean and strict alpha


@dataclass
class LowAPSubset:
    """A subset of Z_n (sorted ``elements``), its density and its 3-AP density
    bound; ``ap_density`` (3-APs (x, x + d, x + 2d) over all x, d in Z_n, over
    n^2) is counted on first read, and the interval overlay never reads it."""

    n: int
    elements: np.ndarray
    density: float
    bound: float
    source_interval: int
    block_width: int  # 0 for the windowed branch

    @cached_property
    def ap_density(self) -> float:
        return int(ap_sums(np.bincount(self.elements, minlength=self.n)).sum()) / self.n**2

    @property
    def ok(self) -> bool:
        return self.density > 0 and within(self.ap_density, self.bound)

    def to_dict(self) -> dict:
        return {
            "elements": [int(v) for v in self.elements],
            "n": int(self.n),
            "density": float(self.density),
            "ap_density": float(self.ap_density),
        }


def density_bound(alpha: float) -> float:
    return float(2.0 ** (-((np.log2(1 / alpha)) ** 2) / 9))


def _apfree_sizes_up_to(cap: int) -> np.ndarray:
    """sizes[N] = size of apfree_set's output for each N <= cap, cap >
    BRUTE_CAP (low_ap_density_subset's cap is at least 64); the exact sizes
    up to BRUTE_CAP come without their witnesses."""
    sizes = np.zeros(cap + 1, dtype=np.int64)
    sizes[: BRUTE_CAP + 1] = max_apfree_sizes(BRUTE_CAP)
    # the ternary sets for N <= cap are prefixes of the one for cap
    member = np.zeros(cap + 1, dtype=np.int64)
    member[np.asarray(apfree_set(cap))] = 1
    sizes[BRUTE_CAP + 1 :] = np.cumsum(member)[BRUTE_CAP + 1 :]
    return sizes


def low_ap_density_subset(n: int, alpha: float) -> LowAPSubset:
    """A subset of Z_n with density >= alpha and few 3-APs.

    The interval bound N is chosen constructively: the largest N for which
    the AP-free generator reaches density 6*alpha.  The result carries the
    measured density and the target bound max(1/n, 2^(-(log2(1/alpha))^2 / 9));
    its 3-AP density is counted only when read.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n % 2 == 0:
        raise DomainError("the modulus must be odd")
    if not 0 < alpha <= ALPHA0:
        raise DomainError(f"alpha={alpha} out of range (need 0 < alpha <= {ALPHA0})")
    cap = min(max(64, 4 * n), _INTERVAL_CAP)
    sizes = _apfree_sizes_up_to(cap)
    # alpha <= ALPHA0 gives 6*alpha < 1 = r(1), so N = 1 is always a candidate
    candidates = np.flatnonzero(sizes[1:] >= 6 * alpha * np.arange(1, cap + 1)) + 1
    bound = max(1.0 / n, density_bound(alpha))

    for n_a in candidates[::-1].tolist():
        a_set = np.asarray(apfree_set(n_a), dtype=np.int64)
        if n <= 4 * n_a:
            elems = _windowed_subset(a_set, n)
        else:
            elems = _block_subset(a_set, n, n_a, alpha)
        if elems is not None and len(elems) >= alpha * n:
            return LowAPSubset(
                n=n,
                elements=np.asarray(sorted(elems), dtype=np.int64),
                density=len(elems) / n,
                bound=bound,
                source_interval=n_a,
                block_width=0 if n <= 4 * n_a else n // (4 * n_a),
            )
    raise InfeasibleError(f"no admissible interval bound yields density {alpha} in Z_{n}")


def _windowed_subset(a_set: np.ndarray, n: int):
    """Densest piece of the set inside a window of length ceil(n/2).  Every
    apfree_set holds 1, so the first window, and so the densest, is never
    empty."""
    width = -(-n // 2)  # ceil
    starts = range(1, int(a_set.max()) + 1, width)
    best_piece = max((a_set[(a_set >= lo) & (a_set < lo + width)] for lo in starts), key=len)
    return (best_piece - best_piece.min()) % n


def _block_subset(a_set: np.ndarray, n: int, n_a: int, alpha: float):
    """Union of blocks of width t = floor(n/4N) indexed by the doubled set;
    called only for n > 4N, so t >= 1."""
    t = n // (4 * n_a)
    need = int(np.ceil(6 * alpha * n_a))
    # the range ends at len(a_set), so a set that never reaches alpha*n falls short whole
    for size in range(min(need, len(a_set)), len(a_set) + 1):
        if size * t >= alpha * n:
            a_use = np.asarray(a_set[:size], dtype=np.int64)
            break
    else:
        return None
    doubled = 2 * a_use
    offs = np.arange(1, t + 1, dtype=np.int64)
    elems = ((doubled[:, None] - 1) * t + offs[None, :]).ravel()
    assert elems.max() <= n // 2, "block construction escaped the half-line"
    return elems % n


def scaled_indicator(x_set: LowAPSubset, alpha_star: float) -> DensityFn:
    """Indicator of the subset scaled to mean alpha_star."""
    n = x_set.n
    size = len(x_set.elements)
    if size == 0:
        raise DomainError("cannot scale an empty set")
    peak = alpha_star * n / size
    if peak > 1 + 1e-12:
        raise DomainError(
            f"scaling {peak:.6g} exceeds 1; the subset is too sparse for mean {alpha_star}"
        )
    values = np.zeros(n)
    values[x_set.elements] = min(peak, 1.0)
    return DensityFn(cyclic(n), values)
