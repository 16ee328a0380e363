"""Independent reference answers, computed with numpy only.

Nothing here imports popdiff: every expected value the benchmark checks a
CLI output against is recomputed from the raw input by the most direct
method available (slice sums, exact integer counts, closed forms).
"""

from __future__ import annotations

import numpy as np

# the ROADMAP oracle tolerance for densities of [0,1]-valued functions
DENSITY_TOL = 1e-8


def group_profile(values) -> np.ndarray:
    """density[d] = E_x v[x] v[x+d] v[x+2d] on Z_n for every d, by slice sums."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    t = np.concatenate([v, v, v])
    out = np.empty(n)
    for d in range(n):
        out[d] = np.dot(v * t[d : d + n], t[2 * d : 2 * d + n]) / n
    return out


def group_per_diff(values, d: int) -> float:
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    idx = np.arange(n)
    return float(np.mean(v * v[(idx + d) % n] * v[(idx + 2 * d) % n]))


def near_argmax(dens: np.ndarray, tol: float = DENSITY_TOL) -> set:
    """Every index whose value is within tol of the maximum (argmax ties)."""
    return set(int(i) for i in np.flatnonzero(dens >= dens.max() - tol))


def interval_ap_counts(elements, n_total: int) -> np.ndarray:
    """counts[d] = #{x : x, x+d, x+2d all in A} for 0 < d < N/2, exact integers.

    Enumerates ordered support pairs (a, c), a < c, with an integer midpoint
    in A; each such pair is the 3-AP (a, (a+c)/2, c) of difference (c-a)/2.
    """
    a = np.unique(np.asarray(elements, dtype=np.int64))
    member = np.zeros(n_total + 2, dtype=bool)
    member[a] = True
    counts = np.zeros((n_total - 1) // 2 + 1, dtype=np.int64)
    chunk = max(1, (1 << 21) // max(a.size, 1))
    for lo in range(0, a.size, chunk):
        rows = a[lo : lo + chunk]
        gap = a[None, :] - rows[:, None]
        ok = (gap > 0) & (gap % 2 == 0)
        mids = (a[None, :] + rows[:, None]) // 2
        hit = ok & member[np.where(ok, mids, 0)]
        d = gap[hit] // 2
        counts += np.bincount(d, minlength=counts.size)[: counts.size]
    return counts


def interval_worst(elements, n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Window-normalised densities count[d]/(N-2d) for d = 1..(N-1)//2.

    Returns (d values, densities) so callers can take the argmax and its ties.
    """
    counts = interval_ap_counts(elements, n_total)
    d = np.arange(1, counts.size, dtype=np.int64)
    return d, counts[1:] / (n_total - 2 * d)


def cyclic_ap_count(elements, n: int) -> int:
    """#{(x, d) in Z_n^2 : x, x+d, x+2d in A}, d = 0 included, one d at a time."""
    member = np.zeros(n, dtype=bool)
    member[np.asarray(elements, dtype=np.int64) % n] = True
    t = np.concatenate([member, member, member])
    return int(sum(int(np.count_nonzero(member & t[d : d + n] & t[2 * d : 2 * d + n])) for d in range(n)))


def is_ap_free(elements) -> bool:
    """No a < c in the set whose midpoint is also in it."""
    a = np.unique(np.asarray(elements, dtype=np.int64))
    s = a[:, None] + a[None, :]
    upper = np.triu(np.ones(s.shape, dtype=bool), k=1) & (s % 2 == 0)
    return not bool(np.isin(s[upper] // 2, a).any())


def model_values(alpha: float, n: int) -> np.ndarray:
    """The five-mode model profile alpha - (alpha/2)cos(2 pi x/n) - (alpha/2)cos(4 pi x/n)."""
    x = np.arange(n)
    return alpha - (alpha / 2) * np.cos(2 * np.pi * x / n) - (alpha / 2) * np.cos(4 * np.pi * x / n)


def lowap_bound(alpha: float, n: int) -> float:
    """max(1/n, 2^(-(log2(1/alpha))^2 / 9)), the lowap certificate target."""
    return max(1.0 / n, float(2.0 ** (-(np.log2(1 / alpha) ** 2) / 9)))
