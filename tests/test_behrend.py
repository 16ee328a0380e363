"""Progression-free sets and low-AP subsets of Z_n."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdiff.apfree import apfree_set, brute_max_apfree, is_apfree, max_apfree_sizes
from popdiff.behrend import (
    _apfree_sizes_up_to,
    _block_subset,
    density_bound,
    low_ap_density_subset,
    scaled_indicator,
)
from popdiff.aps import _pair_sums, _window_sums, ap_sums
from popdiff.errors import DomainError
from oracles import greedy_apfree, pairwise_apfree, reference_max_apfree


def bitmask_max_apfree(n: int) -> tuple[int, tuple]:
    """Independent oracle: sweep all 2^n subsets with numpy bit tricks.

    Returns the maximum size and the lexicographically smallest sorted
    tuple among the maximum AP-free subsets.
    """
    masks = []
    for d in range(1, (n - 1) // 2 + 1):
        for x in range(1, n - 2 * d + 1):
            masks.append((1 << (x - 1)) | (1 << (x + d - 1)) | (1 << (x + 2 * d - 1)))
    subs = np.arange(1 << n, dtype=np.int64)
    good = np.ones(1 << n, dtype=bool)
    for m in masks:
        good &= (subs & m) != m
    best = 0
    for s in subs[good]:
        best = max(best, int(s).bit_count())
    witnesses = [
        tuple(z for z in range(1, n + 1) if int(s) >> (z - 1) & 1)
        for s in subs[good]
        if int(s).bit_count() == best
    ]
    return best, min(witnesses)


def test_brute_matches_bitmask_oracle():
    # the witness is the lex-first maximum set, not just any maximum set
    for n in range(1, 17):
        assert brute_max_apfree(n) == bitmask_max_apfree(n)


R_1_TO_40 = [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9,
             9, 9, 9, 10, 10, 11, 11, 11, 11, 12, 12, 13, 13, 13, 13, 14, 14, 14, 14, 15]


def test_brute_pinned_values():
    # values produced by the earlier greedy-seeded branch and bound
    assert [brute_max_apfree(n)[0] for n in range(1, 41)] == R_1_TO_40
    assert max_apfree_sizes(40) == (0, *R_1_TO_40)
    assert brute_max_apfree(40)[1] == (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40)


def test_brute_matches_reference_search():
    # every size and every witness, the lexicographically first maximum set,
    # equals the earlier search's for every n <= BRUTE_CAP
    for n in range(1, 41):
        assert brute_max_apfree(n) == reference_max_apfree(n), n


def test_apfree_sizes_up_to_unchanged():
    # the exact sizes up to 40, then the ternary set counted, as before
    want = np.zeros(4097, dtype=np.int64)
    want[1:41] = [reference_max_apfree(m)[0] for m in range(1, 41)]
    member = np.zeros(4097, dtype=np.int64)
    member[greedy_apfree(4096)] = 1
    want[41:] = np.cumsum(member)[41:]
    sizes = _apfree_sizes_up_to(4096)
    assert sizes.dtype == want.dtype and np.array_equal(sizes, want)


@settings(max_examples=60)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
def test_brute_witness_and_subadditivity(nk):
    n, k = nk
    size, witness = brute_max_apfree(n)
    assert is_apfree(witness)
    assert len(witness) == size == R_1_TO_40[n - 1]
    assert min(witness) >= 1 and max(witness) <= n
    assert size <= brute_max_apfree(k)[0] + brute_max_apfree(n - k)[0]


def test_brute_examples():
    assert brute_max_apfree(1)[0] == 1
    assert brute_max_apfree(4)[0] == 3
    assert brute_max_apfree(8)[0] == 4
    size, witness = brute_max_apfree(20)
    assert is_apfree(witness) and len(witness) == size


def test_brute_cap():
    for search, n in ((brute_max_apfree, 41), (brute_max_apfree, 0),
                      (max_apfree_sizes, 41), (max_apfree_sizes, -1)):
        with pytest.raises(DomainError):
            search(n)
    assert max_apfree_sizes(0) == (0,)


def test_apfree_set_properties():
    assert list(apfree_set(1)) == [1]
    s8 = apfree_set(8)
    assert len(s8) >= 4 and is_apfree(s8)
    s27 = apfree_set(27)
    assert is_apfree(s27)
    for n in (50, 100, 300):
        s = apfree_set(n)
        assert is_apfree(s)
        assert min(s) >= 1 and max(s) <= n


def test_is_apfree_matches_pairwise_on_every_small_set():
    # every subset of [N] for N <= 12
    for size in range(13):
        for subset in itertools.combinations(range(1, 13), size):
            assert is_apfree(subset) == pairwise_apfree(subset), subset


@settings(max_examples=300)
@given(st.lists(st.integers(-40, 40), max_size=12))
def test_is_apfree_matches_pairwise_on_lists(values):
    # unsorted, repeated, negative and short inputs alike
    assert is_apfree(values) == pairwise_apfree(values)
    assert is_apfree(reversed(values)) == pairwise_apfree(values)


def test_is_apfree_rejects_repeats_and_one_added_point():
    assert not is_apfree([4, 4])  # a repeated value is its own midpoint
    assert not is_apfree(list(apfree_set(1000)) + [3])  # 1, 2, 3


def test_apfree_set_is_the_greedy_sieve():
    # above BRUTE_CAP the closed form equals the greedy sieve; both outputs
    # for smaller N are prefixes of these, so one N covers every N <= 20000
    assert np.array_equal(apfree_set(20000), greedy_apfree(20000))


def test_apfree_sizes_match_apfree_set():
    # the table counts the same ternary membership that apfree_set returns,
    # on every N that low_ap_density_subset reaches
    sizes = _apfree_sizes_up_to(4096)
    for m in (41, 100, 1000, 4096):
        assert sizes[m] == len(apfree_set(m))


def test_apfree_sanity_floor():
    for n in range(1, 41):
        assert len(apfree_set(n)) >= 0.5 * brute_max_apfree(n)[0]


def test_count_cyclic_matches_direct():
    rng = np.random.default_rng(0)
    n = 55
    elems = rng.choice(n, size=12, replace=False)
    member = np.zeros(n)
    member[elems] = 1
    direct = 0
    for d in range(n):
        for x in range(n):
            direct += member[x] * member[(x + d) % n] * member[(x + 2 * d) % n]
    assert _pair_sums(member, cyclic=True).sum() == direct
    assert ap_sums(member).sum() == direct


@pytest.mark.parametrize("n", [55, 1009])
def test_low_ap_subset_certificate(n):
    alpha = 0.05
    x = low_ap_density_subset(n, alpha)
    assert x.density >= alpha
    bound = max(1 / n, density_bound(alpha))
    assert x.ap_density <= bound + 1e-12
    assert x.ok
    # stored density recomputed by one window per difference
    member = np.zeros(n)
    member[x.elements] = 1.0
    assert x.ap_density == _window_sums(member, np.arange(n), True).sum() / n**2


def test_low_ap_rejects_large_alpha():
    with pytest.raises(DomainError):
        low_ap_density_subset(1009, 0.2)


def test_block_construction_structure():
    # every mod-n 3-AP of the block construction sits inside one block
    n = 1999
    alpha = 0.05
    x = low_ap_density_subset(n, alpha)
    if x.block_width == 0:
        pytest.skip("windowed branch chosen at this size")
    t = x.block_width
    elems = set(int(v) for v in x.elements)
    assert max(elems) <= n // 2
    blocks = {v: (v - 1) // t for v in elems}
    inv2 = pow(2, -1, n)
    for xx in elems:
        for zz in elems:
            mid = ((xx + zz) * inv2) % n
            if mid in elems:
                assert blocks[xx] == blocks[zz] == blocks[mid]


def test_block_subset_short_set_is_none():
    # even the whole set falls short of alpha*n: one element times a block of
    # width t = 400 // 40 = 10 is below 0.1 * 400
    assert _block_subset(np.array([1]), 400, 10, 0.1) is None
    assert len(_block_subset(np.array([1, 2, 4]), 400, 10, 0.05)) == 30  # three blocks


def test_within_block_ap_count():
    # per block of width t the 3-AP count is t + 2*floor((t-1)^2/4)
    for t in (1, 2, 3, 4, 5, 8):
        count = 0
        for d in range(-(t - 1), t):
            for x in range(1, t + 1):
                if 1 <= x + d <= t and 1 <= x + 2 * d <= t:
                    count += 1
        assert count == t + 2 * ((t - 1) ** 2 // 4)


def test_scaled_indicator():
    n = 1009
    x = low_ap_density_subset(n, 0.05)
    xi = scaled_indicator(x, 0.05)
    assert abs(xi.mean() - 0.05) < 1e-12
    assert xi.values.max() <= 1.0
    # cubic scaling: halving the peak scales the total density by 8
    from popdiff.aps import total_3ap_density

    full = scaled_indicator(x, x.density)  # peak exactly 1
    half = scaled_indicator(x, x.density / 2)
    assert abs(total_3ap_density(half) - total_3ap_density(full) / 8) < 1e-12


def test_scaled_indicator_rejects_overflow():
    n = 1009
    x = low_ap_density_subset(n, 0.05)
    with pytest.raises(DomainError):
        scaled_indicator(x, x.density * 1.5)
