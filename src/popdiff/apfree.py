"""Progression-free subsets of [N], in the standard library only.

Two generators are combined:

* an exact maximizer for N <= 40, built bottom-up after
  Gasarch-Glenn-Kruskal ("Finding large 3-free sets I"): r(N) is either
  r(N-1)+1 or r(N-1), and the smaller exact values r(k) bound every branch
  of a depth-first search.  Growth needs a set that holds both endpoints 1
  and N, so sizes come from one such search per N without any witness, and
  the witness, the lexicographically first maximum AP-free subset of [N],
  is searched for only on demand, below the witness of [N-1];
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


def _search(n: int, r: tuple, m: int, bound: tuple | None = None) -> tuple | None:
    """The lexicographically first AP-free subset of [n] of size m that holds
    both 1 and n, or None; with ``bound``, a size-m set that starts at 1,
    only the sets lexicographically below it.  r[k] = r(k) for k < n.

    A depth-first search over the next element z in increasing order, so the
    first set found is the lexicographically first.  Choosing n up front
    forbids each midpoint (x + n)/2 of a chosen x; choosing z forbids every
    2z - x over chosen x, one shift of the reflected mask (bit n - x per
    chosen x) by 2z - n.  The candidates at a depth are the free bits of
    [start, hi], taken lowest first.  A branch whose next element is z is cut
    when len(chosen) + r(n - z + 1) < m, because the rest, n among them, is a
    translate of an AP-free subset of [n - z + 1]; r is nondecreasing, so the
    cut holds for every later z too.  While the chosen prefix equals the
    bound's, the next element is at most the bound's next one, and a prefix
    that stays equal to the bound's to the end loses: its set ends in n,
    above the bound's last element.
    """
    if n == 1:
        return (1,)
    chosen = [1]

    def rec(start: int, forb: int, rev: int, tight: bool) -> bool:
        k = len(chosen)
        if k == m - 1:
            return not tight
        hi = bound[k] if tight else n - 1
        free = ~forb & ((2 << hi) - (1 << start))
        while free:
            low = free & -free
            free ^= low
            z = low.bit_length() - 1
            if k + r[n - z + 1] < m:
                return False
            shift = 2 * z - n
            grown = forb | (rev << shift if shift >= 0 else rev >> -shift)
            if not (z + n) & 1:
                grown |= 1 << ((z + n) >> 1)
            chosen.append(z)
            if rec(z + 1, grown, rev | 1 << (n - z), tight and z == hi):
                return True
            chosen.pop()
        return False

    midpoint = 0 if n & 1 == 0 else 1 << ((1 + n) >> 1)
    if rec(2, midpoint, 1 << (n - 1), bound is not None):
        return (*chosen, n)
    return None


@functools.lru_cache(maxsize=None)
def _grown(n: int) -> tuple | None:
    """The witness of r(n) = r(n-1) + 1, or None when r(n) = r(n-1).

    Endpoint lemma: an AP-free subset of [n] of size r(n-1) + 1 holds both 1
    and n, since without 1 (or n) it is a translate of a subset of [n-1].  So
    the growth test searches only the sets that hold both, and every maximum
    set of [n] is one of them when r(n) grows.
    """
    r = max_apfree_sizes(n - 1)
    return _search(n, r, r[-1] + 1)


def _check_cap(n: int, least: int) -> None:
    if n < least:
        raise DomainError(f"n must be at least {least}")
    if n > BRUTE_CAP:
        raise DomainError(f"exhaustive search capped at n <= {BRUTE_CAP}")


@functools.lru_cache(maxsize=None)
def max_apfree_sizes(n: int) -> tuple:
    """(r(0), r(1), ..., r(n)), r(k) the largest 3-AP-free subset size of [k];
    n <= 40.  Each step is one growth test (see ``_grown``), and no witness
    of a size that does not grow is computed."""
    _check_cap(n, 0)
    if n == 0:
        return (0,)
    r = max_apfree_sizes(n - 1)
    return (*r, r[-1] + (_grown(n) is not None))


@functools.lru_cache(maxsize=None)
def brute_max_apfree(n: int) -> tuple[int, tuple]:
    """Exact r(n), the largest 3-AP-free subset size of [n], with the
    lexicographically first maximum set as witness; n <= 40.

    When r(n) = r(n-1) + 1 the growth test's set is the witness.  Otherwise
    the witness W(n-1) of [n-1] is a maximum set of [n], and a maximum set
    below it lexicographically holds n, since one inside [n-1] is at or
    above W(n-1).  Such a set also holds 1, as a set without 1 starts above
    W(n-1)'s first element 1.  So only sets that hold 1 and n and lie below
    W(n-1) are searched, and W(n-1) is the witness when there is none.
    """
    _check_cap(n, 1)
    found = _grown(n)
    if found is not None:
        return len(found), found
    size, prev = brute_max_apfree(n - 1)
    below = _search(n, max_apfree_sizes(n - 1), size, prev)
    return size, below if below is not None else prev


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
