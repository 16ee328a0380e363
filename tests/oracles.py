"""Slow, independent reference computations that tests compare the package
against; nothing in src/ calls them."""

import itertools

import numpy as np

from popdiff.errors import DomainError
from popdiff.fourier import dft_values


def smooth_tuple_ok(supp, a, n: int) -> tuple:
    """(ok, witness) for a dilation tuple against a frequency support.

    A tuple (a_1..a_h) of nonzero dilations is smooth when no nonzero
    (r_1..r_h) in supp^h satisfies sum r_j a_j = 0 (mod n).  Enumerates
    supp^h (fine for |supp| <= 5, h <= 3); the witness is the first such
    relation, or None when the tuple is smooth.
    """
    a = tuple(int(v) % n for v in a)
    if any(v == 0 for v in a):
        raise DomainError("dilation coefficients must be nonzero")
    supp = tuple(int(r) % n for r in supp)
    for rvec in itertools.product(supp, repeat=len(a)):
        if any(rvec) and sum(r * av for r, av in zip(rvec, a)) % n == 0:
            return False, rvec
    return True, None


def lambda_weighted_spectral(fvals: np.ndarray, phi: np.ndarray) -> float:
    """Spectral evaluation of E_{x,d}[f(x) f(x+d) f(x+2d) phi(d)]:
    sum over r1+r2+r3=0 of fhat(r1) fhat(r2) fhat(r3) phihat(-r2-2r3)."""
    n = len(fvals)
    fh = dft_values(fvals)
    ph = dft_values(phi)
    r2 = np.arange(n, dtype=np.int64)
    total = 0j
    for r3 in range(n):
        r1 = (-(r2 + r3)) % n
        total += np.sum(fh[r1] * fh[r2] * fh[r3] * ph[(-(r2 + 2 * r3)) % n])
    return float(total.real)


def pairwise_apfree(elements) -> bool:
    """Pairwise midpoint check: no a < c in the set with (a+c)/2 also in it.
    A repeated value a fails it, since the pair (a, a) has midpoint a.
    O(|A|^2); the reference for apfree.is_apfree."""
    arr = sorted(int(v) for v in elements)
    eset = set(arr)
    for i, a in enumerate(arr):
        for c in arr[i + 1 :]:
            if (a + c) % 2 == 0 and (a + c) // 2 in eset:
                return False
    return True


def greedy_apfree(n: int) -> np.ndarray:
    """Greedy sieve over 1..n: keep z unless it completes a 3-AP x < y < z
    with x and y already kept.  O(n^2); the reference for apfree.apfree_set
    above its exact cap."""
    member = np.zeros(n + 1, dtype=bool)
    for z in range(1, n + 1):
        ys = np.flatnonzero(member[:z])
        if ys.size:
            xs = 2 * ys - z
            xs = xs[xs >= 1]
            if xs.size and member[xs].any():
                continue
        member[z] = True
    return np.flatnonzero(member)
