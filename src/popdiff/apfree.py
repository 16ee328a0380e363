"""Progression-free subsets of [N], in the standard library only.

Two generators are combined:

* an exact maximizer for N <= 40, built bottom-up: r(N) is either r(N-1)+1
  or r(N-1), and the smaller exact values r(k) bound every branch of a
  depth-first search (Gasarch-Glenn-Kruskal).  Its witness is the
  lexicographically smallest maximum AP-free subset of [N];
* above that, the ternary set 1 + {0 <= x < N : no base-3 digit of x is 2}
  in closed form.  It is AP-free because x + z = 2y among digit-0/1 numbers
  adds digits without carries, which forces x = y = z.  It is the set the
  greedy sieve from 1 produces (Odlyzko-Stanley), and for every
  40 < N <= 10^9 it is at least 2.6 times the largest square-sum class of
  Behrend's digit/sphere construction that fits in [N].

Sets are tuples of Python ints and the AP-free check works on Python ints as
bitsets, so ``construct --kind behrend`` never loads numpy.
"""

from __future__ import annotations

import functools

from .errors import DomainError

BRUTE_CAP = 40


def _mask(offsets, width: int) -> int:
    """The int with bit k set for each k in ``offsets``, all below ``width``."""
    buf = bytearray(width // 8 + 1)
    for k in offsets:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def is_apfree(elements) -> bool:
    """True when the elements are distinct and no x < y < z among them have
    x + z = 2y.  A repeated value a fails, as the pair (a, a) has midpoint a.

    Word-parallel: with M the mask of a - lo and R the mask of hi - a over
    the members a, bit j of M >> (y - lo) says y + j is a member and bit j of
    R >> (hi - y) says y - j is, so y is the middle of a 3-AP exactly when
    their AND has a bit above bit 0.  That is |A| shifts and ANDs of
    (hi - lo)-bit ints, so the cost grows with the span as well as with |A|.
    """
    listed = [int(v) for v in elements]
    vals = set(listed)
    if len(vals) < len(listed):
        return False
    if len(vals) < 3:
        return True
    lo, hi = min(vals), max(vals)
    fwd = _mask((v - lo for v in vals), hi - lo)
    rev = _mask((hi - v for v in vals), hi - lo)
    return not any((fwd >> (y - lo)) & (rev >> (hi - y)) > 1 for y in vals)


@functools.lru_cache(maxsize=None)
def brute_max_apfree(n: int) -> tuple[int, tuple]:
    """Exact r(n), the largest 3-AP-free subset size of [n], with a witness; n <= 40.

    Built bottom-up: r(k) for every k < n comes from this cached function.
    Since r(n-1) <= r(n) <= r(n-1) + 1, the search looks for a set of size
    r(n-1) + 1 and, failing that, of size r(n-1).  It is a depth-first
    search over z = 1..n in increasing order; a bitmask holds every 2y - x
    over chosen x < y (the points that would complete a 3-AP), and a branch
    whose next candidate is z is cut when len(chosen) + r(n - z + 1) falls
    short, because an AP-free subset of [z..n] is a translate of one of
    [1..n-z+1].  The witness is the first set found, so it is the
    lexicographically smallest maximum AP-free subset of [n].
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n > BRUTE_CAP:
        raise DomainError(f"exhaustive search capped at n <= {BRUTE_CAP}")
    r = [0] + [brute_max_apfree(k)[0] for k in range(1, n)]
    r.append(r[-1] + 1)  # r(n) <= r(n-1) + 1 bounds the branch at z = 1
    chosen: list = []

    def rec(start: int, forb: int, m: int) -> bool:
        if len(chosen) == m:
            return True
        for z in range(start, n + 1):
            if len(chosen) + r[n - z + 1] < m:
                return False  # r is nondecreasing, so later z cannot do better
            if forb >> z & 1:
                continue
            grown = forb
            for x in chosen:
                grown |= 1 << (2 * z - x)
            chosen.append(z)
            if rec(z + 1, grown, m):
                return True
            chosen.pop()
        return False

    # a failed search leaves chosen empty; the witness for [n-1] has size r(n-1)
    if not rec(1, 0, r[n - 1] + 1):
        rec(1, 0, r[n - 1])
    return len(chosen), tuple(chosen)


def _ternary_set(n: int) -> list:
    """1 + {0 <= x < n : no base-3 digit of x is 2}, ascending.

    Doubling: the digit-0/1 numbers below 3^(k+1) are those below 3^k and
    the same shifted by 3^k, so each pass appends a shifted copy.
    """
    x = [0]
    step = 1
    while step < n:
        x += [v + step for v in x]
        step *= 3
    return [v + 1 for v in x if v < n]


def apfree_set(n: int) -> tuple:
    """A large 3-AP-free subset of [n], ascending; exact for n <= 40,
    deterministic always."""
    if n < 1:
        raise DomainError("n must be positive")
    if n <= BRUTE_CAP:
        return brute_max_apfree(n)[1]
    return tuple(_ternary_set(n))
