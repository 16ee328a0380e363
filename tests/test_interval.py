"""Interval construction: parameter search, tiling, overlay, sampling."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    reference_modulus_candidates,
    reference_strict_interval,
    reference_sample_set,
    reference_step1_step2_tile,
    reference_step3_overlay,
)
from popdiff.aps import (
    Verdict,
    ap_profile,
    ap_sums,
    per_diff_density,
    perdiff_table_sparse,
    worst_difference,
)
from popdiff.behrend import low_ap_density_subset, scaled_indicator
from popdiff.domains import OVER_WINDOW, DensityFn, cyclic, interval
from popdiff.errors import DomainError, InfeasibleError, RetriesExhausted
from popdiff.fourier import dft
from popdiff.interval import (
    _modulus_candidates,
    choose_interval_params,
    construct_interval_fn,
    sample_set,
    scan_interval_fn,
    seam_tail_fraction,
    step1_step2_tile,
    step3_overlay,
)
from popdiff.product import ProductParams, construct_product


# bound on the traced peak of one overlay at desk_params(10**5) (q = 17,
# p = 5387), in float vectors of length N: it measured 0.163, a few length-p
# index vectors, while a copy of the tile alone would be 1.0
OVERLAY_PEAK = 0.25


def desk_params(n_total=20000, alpha=0.05, eps=1e-3, hard_tail=True):
    floor = seam_tail_fraction(alpha, n_total) if hard_tail else None
    return choose_interval_params(n_total, alpha, eps, mode="desk", beta_floor=floor)


def build_g(params, seed=1):
    g, _ = construct_product(
        ProductParams(alpha=params.alpha_prime, epsilon=4 * params.epsilon, factors=params.factors),
        seed=seed,
    )
    return g


def common_classes(params, g):
    """alpha*, the product's alpha', and the residues T where g holds it, as
    construct_interval_fn takes them."""
    alpha_star = ProductParams(params.alpha_prime, 4 * params.epsilon, params.factors).alpha_prime
    return alpha_star, np.flatnonzero(g.values == alpha_star)


def test_strict_mode_names_bounds():
    with pytest.raises(InfeasibleError, match="epsilon\\^-15"):
        choose_interval_params(10**4, 0.1, 1e-2, mode="strict")
    with pytest.raises(InfeasibleError, match="alpha\\^7"):
        choose_interval_params(10**31, 0.1, 1e-2, mode="strict")
    with pytest.raises(InfeasibleError, match="epsilon\\^-15 = 1e\\+450"):  # past the float range
        choose_interval_params(10**31, 0.1, 1e-30, mode="strict")
    with pytest.raises(InfeasibleError, match="alpha=0.2 exceeds alpha0=0.1"):
        choose_interval_params(10**76, 0.2, 1e-5, mode="strict")
    # every hypothesis holds, but a single prime q > N^(1/5) lies above the m1
    # window of the product side
    window = r"\(1.585e\+21, 3.162e\+44\)"
    with pytest.raises(InfeasibleError, match="no admissible modulus q in " + window):
        choose_interval_params(10**106, 0.1, 1e-7, mode="strict")
    # a --factors product is held to the same window, not searched for a prime
    # class count near N/q = 2e105
    with pytest.raises(InfeasibleError, match="q=5 outside the modulus window " + window):
        choose_interval_params(10**106, 0.1, 1e-7, mode="strict", factors=(5,))


def test_strict_factors_inside_the_window_refused_at_once():
    # q = 1e30 + 57 lies inside the modulus window, and the class counts near
    # N/q = 1e76 were once trial-divided; the product's windows refuse first,
    # before any primality test
    start = time.perf_counter()
    with pytest.raises(InfeasibleError) as err:
        choose_interval_params(10**106, 0.1, 1e-7, mode="strict", factors=(10**30 + 57,))
    assert time.perf_counter() - start < 1
    assert "modulus-window" not in str(err.value)
    assert "m1-window: m1=1000000000000000000000000000057" in str(err.value)


def test_a_size_no_vector_holds_is_a_domain_error(monkeypatch):
    # desk: an N past every float has no modulus window N^0.8
    with pytest.raises(DomainError, match=r"N = 1e\+400 is too large to hold a value vector"):
        choose_interval_params(10**400, 0.1, 0.01, mode="desk")
    # strict: an input that passes every window has N >= eps^-15 >= 1e105,
    # refused there, before any class count near N/q is tried
    monkeypatch.setattr("popdiff.interval.window_checks", lambda *args: None)
    with pytest.raises(DomainError, match=r"N = 1e\+700 is too large to hold a value vector"):
        choose_interval_params(10**700, 1e-3, 1e-22, mode="strict", factors=(10**150 + 1,))


POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1e308, allow_subnormal=True)


@given(
    st.integers(1, 10**600),
    POSITIVE_FLOATS,
    POSITIVE_FLOATS,
    st.none() | st.lists(st.integers(1, 10**300), min_size=1, max_size=3).map(tuple),
)
def test_strict_params_only_refuse(n_total, alpha, eps, factors):
    # no bound overflows or underflows; and below N = 1e680 every input fails
    # a window (two levels need eps <= 2.6e-46 from the level count), so no
    # run reaches the search for a prime class count
    with pytest.raises(InfeasibleError):
        choose_interval_params(n_total, alpha, eps, mode="strict", factors=factors)


# the float form's first refusal -> the check the exact form names for it
STRICT_NAMES = {
    "N": "N-bound",
    "epsilon": "epsilon-bound",
    "alpha0": "alpha-bound",
    "modulus": "modulus",  # modulus-window, or "no admissible modulus" without factors
}
PRODUCT_WINDOWS = ("alpha-window", "epsilon-window", "m1-window", "growth", "level-count")


def test_strict_params_match_float_reference():
    # where the float form refuses, the exact form refuses naming that bound;
    # where it went on to search class counts, the product's windows refuse
    searched = compared = 0
    for n_total, alpha, eps, factors in itertools.product(
        (1, 10**4, 10**30, 10**31, 10**76, 10**105, 10**106, 10**120, 10**300, 10**308, 10**400),
        (5e-324, 1e-60, 1e-3, 0.05, 0.1, 0.2),
        (5e-324, 1e-100, 1e-46, 1e-30, 1e-20, 1e-14, 1e-8, 1e-7, 1e-2, 0.5),
        (None, (5,), (101, 1009), (10**22 + 1,), (10**30 + 57,), (10**70 + 1,),
         (10**22 + 1, 10**60 + 1), (10**30 + 57, 10**200 + 1)),
    ):
        try:
            ref = reference_strict_interval(n_total, alpha, eps, factors)
        except OverflowError:
            continue
        compared += 1
        with pytest.raises(InfeasibleError) as err:
            choose_interval_params(n_total, alpha, eps, mode="strict", factors=factors)
        if ref is None:
            searched += 1
            assert any(w in str(err.value) for w in PRODUCT_WINDOWS)
        else:
            assert STRICT_NAMES[ref] in str(err.value), (n_total, alpha, eps, factors)
    assert compared > 4000 and searched > 10


def test_desk_choice_lands_near_n():
    p = choose_interval_params(10**6, 0.1, 0.01, mode="desk")
    assert p.p * p.q == p.n_prime
    assert (1 - 0.01**2) * 10**6 <= p.n_prime <= 10**6
    from popdiff.domains import is_prime

    assert is_prime(p.p)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("n_total", [10**5, 10**6, 10**7])
def test_modulus_candidates_match_reference(n_total, eps):
    # the desk window [5, N^0.8]; the reference tests every odd q in it
    args = (4 * eps, 5, n_total**0.8)
    assert _modulus_candidates(*args) == reference_modulus_candidates(*args, None)


def test_desk_tail_floor():
    p = desk_params()
    assert p.beta >= seam_tail_fraction(0.05, 20000) - 1e-12
    assert p.n_prime == p.p * p.q


def test_tile_mean_and_tail():
    p = desk_params()
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    assert abs(f2.mean() - p.alpha) < 1e-12
    assert np.all(f2.values[p.n_prime :] == 0)
    # d >= N'/2 has no room for a progression inside the support
    d = p.n_prime // 2 + 1
    assert per_diff_density(f2, d, OVER_WINDOW) == 0.0


def test_tile_per_diff_classification():
    # for q not dividing d, the tiled density tracks the group value at
    # d mod q within 1/q
    p = desk_params()
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    lam = perdiff_table_sparse(dft(g))
    n_p, q = p.n_prime, p.q
    rng = np.random.default_rng(0)
    dmax = (n_p - q * q) // 2
    ds = sorted(set(int(v) for v in rng.integers(1, dmax, 80)))
    for d in ds:
        w = n_p - 2 * d
        s = float(np.dot(f2.values[:w] * f2.values[d : d + w], f2.values[2 * d : 2 * d + w]))
        dens = s / w
        if d % q:
            assert abs(dens - lam[d % q]) <= 1 / q + 1e-12
        else:
            cube = float((g.values**3).mean())
            assert dens <= cube + 1 / q + 1e-12


def test_tile_boundary_range_bound():
    # differences just below N'/2: at most t = N'-2d windows carry weight,
    # so the over-(N-2d) density is at most t/(beta N + t)
    p = desk_params()
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    n, n_p = p.n_total, p.n_prime
    tail = n - n_p
    target = p.alpha**3 * (1 - p.epsilon)
    t_cap = int(tail * target / (1 - target))
    for t in (1, 2, t_cap // 2, t_cap):
        if t < 1 or (n_p - t) % 2:
            continue
        d = (n_p - t) // 2
        dens = per_diff_density(f2, d, OVER_WINDOW)
        assert dens <= t / (tail + t) + 1e-12
        assert dens <= target + 1e-12


class IdentityMaps:
    """An rng stand-in whose draws are a_t = 1 and b_t = 0 for every class."""

    def integers(self, lo, hi, size):
        return np.full(size, lo)


def test_overlay_identity_off_t_and_verbatim():
    p = desk_params()
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    tile = f2.values.copy()
    alpha_star, t_classes = common_classes(p, g)
    x_set = low_ap_density_subset(p.p, min(alpha_star, 0.1))
    xi = scaled_indicator(x_set, alpha_star)
    f3 = step3_overlay(f2, p, t_classes, xi, np.random.default_rng(2))
    assert f3 is f2  # written into the tile
    tset = set(t_classes.tolist())
    xs = np.arange(1, p.n_total + 1)
    off = ~np.isin(xs % p.q, list(tset)) | (xs > p.n_prime)
    assert np.array_equal(f3.values[off], tile[off])
    # per-class means are exactly alpha*
    for t in list(tset)[:5]:
        cls = (xs % p.q == t) & (xs <= p.n_prime)
        assert abs(f3.values[cls].mean() - alpha_star) < 1e-12
    assert abs(f3.mean() - p.alpha) < 1e-9
    # identity maps ((a,b)=(1,0)) lay xi down verbatim along each class, and
    # an overlay of an overlaid tile equals that of a fresh one
    step3_overlay(f2, p, t_classes, xi, IdentityMaps())
    t0 = int(t_classes[0])
    cls_x = np.flatnonzero((xs % p.q == t0) & (xs <= p.n_prime)) + 1
    idx = np.arange(1, len(cls_x) + 1) % p.p
    assert np.array_equal(f2.values[cls_x - 1], xi.values[idx])
    fresh = step3_overlay(step1_step2_tile(p, g), p, t_classes, xi, IdentityMaps())
    assert f2.values.tobytes() == fresh.values.tobytes()


def test_overlay_fiber_density_law():
    # for q | d the class-t fiber maps to progressions of the scaled subset
    # with a dilated difference: the rng-average over (a_t, b_t) equals the
    # mean off-zero density of xi
    p = desk_params()
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    x_set = low_ap_density_subset(p.p, 0.05)
    lam_xi = perdiff_table_sparse(dft(scaled_indicator(x_set, 0.05)))
    mean_offdiag = lam_xi[1:].mean()
    # Monte-Carlo over overlay seeds for one class and one q-divisible d
    d = p.q * 7
    j = (d // p.q) % p.p
    rng = np.random.default_rng(3)
    draws = rng.integers(1, p.p, size=10**4)
    mc = lam_xi[(draws * j) % p.p].mean()
    sigma = lam_xi[1:].std() / 100
    assert abs(mc - mean_offdiag) <= 4 * sigma


def test_construct_interval_reports_failure_deterministically():
    p = desk_params(n_total=6000, alpha=0.05, eps=1e-3, hard_tail=False)
    with pytest.raises(RetriesExhausted) as one:
        construct_interval_fn(p, seed=11, max_overlay_retries=2, max_product_retries=1)
    with pytest.raises(RetriesExhausted) as two:
        construct_interval_fn(p, seed=11, max_overlay_retries=2, max_product_retries=1)
    assert one.value.log == two.value.log
    assert one.value.log["best_verdict"].max_offdiag > p.alpha**3 * (1 - p.epsilon)


def test_flat_function_rejected_everywhere():
    # the constant-alpha control sits exactly at alpha^3 in every window,
    # so the scan must reject it at every difference
    n = 501
    alpha, eps = 0.2, 1e-2
    f = DensityFn(interval(n), np.full(n, alpha))
    target = alpha**3 * (1 - eps)
    for d in range(1, (n - 1) // 2 + 1):
        assert per_diff_density(f, d, OVER_WINDOW) > target
    verdict = scan_interval_fn(f.values, target)
    assert not verdict.passed and abs(verdict.max_offdiag - alpha**3) < 1e-12


def test_legs_in_distinct_classes():
    # for q not dividing d the three progression legs always occupy three
    # different residue classes (q odd)
    q = 23
    for d in range(1, 5 * q):
        if d % q == 0:
            continue
        for x in (1, 7, 100):
            classes = {x % q, (x + d) % q, (x + 2 * d) % q}
            assert len(classes) == 3


def test_scan_matches_per_diff():
    rng = np.random.default_rng(5)
    n = 301
    f = DensityFn(interval(n), rng.uniform(0, 0.5, n))
    verdict = scan_interval_fn(f.values, target=1.0)
    dens = [per_diff_density(f, d, OVER_WINDOW) for d in range(1, (n - 1) // 2 + 1)]
    assert abs(verdict.max_offdiag - max(dens)) < 1e-12
    assert verdict.argmax_d == int(np.argmax(dens)) + 1


@pytest.mark.parametrize("as_list", [False, True])
def test_scan_edge_cases(as_list):
    # N <= 2 admits no difference; an all-zero indicator has density 0
    # everywhere; the scan takes a plain list as well as an array
    def zeros(n):
        return [0.0] * n if as_list else np.zeros(n)

    for n in (0, 1, 2):
        assert scan_interval_fn(zeros(n), 0.01) == Verdict(None, None, 0.01, True)
    assert scan_interval_fn(zeros(101), 0.01) == Verdict(1, 0.0, 0.01, True)
    assert scan_interval_fn(zeros(101), -0.01) == Verdict(1, 0.0, -0.01, False)


@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=3, max_size=150), st.floats(0, 0.6))
def test_scan_matches_per_diff_loop(values, target):
    # the scan (dense windows in doubling blocks) stops at the first
    # violating d; the rule on the full profile (support pairs for a sparse
    # indicator) reports the first maximiser; both against a loop over d
    n = len(values)
    dens = []
    for d in range(1, (n - 1) // 2 + 1):
        count = sum(values[x] * values[x + d] * values[x + 2 * d] for x in range(n - 2 * d))
        dens.append(count / (n - 2 * d))
    k = int(np.argmax(dens))
    first_bad = next((d for d, v in enumerate(dens, 1) if v > target + 1e-12), None)
    prof = ap_profile(DensityFn(interval(n), values), OVER_WINDOW)
    assert worst_difference(prof, target) == Verdict(k + 1, dens[k], target, first_bad is None)
    if first_bad is None:
        assert scan_interval_fn(values, target) == Verdict(k + 1, dens[k], target, True)
    else:
        assert (scan_interval_fn(values, target)
                == Verdict(first_bad, dens[first_bad - 1], target, False))


def test_sample_set_mechanics():
    n = 5000
    eps = 0.01
    rng = np.random.default_rng(0)
    f = DensityFn(interval(n), np.full(n, 0.2))
    with pytest.raises(RetriesExhausted) as info:
        sample_set(f, eps, rng, max_attempts=2)
    cert = info.value.log["cert"]
    assert cert.attempts == 2
    # a failing sample reports its worst difference, not its first violating one
    rng = np.random.default_rng(0)
    for _ in range(2):
        indicator = (rng.random(n) < np.where(np.arange(1, n + 1) >= n * (1 - eps), 0.0, f.values))
    dens = ap_sums(indicator.astype(float), cyclic=False)[1:] / (n - 2 * np.arange(1, (n - 1) // 2 + 1))
    assert cert.worst_d == int(dens.argmax()) + 1 > 1
    assert cert.worst_density == dens.max()
    # the truncated tail never enters the sample
    rng = np.random.default_rng(1)
    draws = rng.random(n)
    members = np.arange(1, n + 1)[draws < np.where(np.arange(1, n + 1) >= n * (1 - eps), 0.0, f.values)]
    assert members.max() < n * (1 - eps)
    # empty function -> empty sample; fails any positive size requirement,
    # passes only the degenerate alpha = 0, eps = 0 target
    empty = DensityFn(interval(n), np.zeros(n))
    with pytest.raises(RetriesExhausted):
        sample_set(empty, eps, np.random.default_rng(2), max_attempts=1, alpha=0.1)
    members, cert = sample_set(empty, 0.0, np.random.default_rng(3), max_attempts=1, alpha=0.0)
    assert len(members) == 0 and cert.passed
    # [2] has no nonzero difference: null worst fields, and a failure still reports
    _, cert = sample_set(DensityFn(interval(2), np.ones(2)), 0.0, np.random.default_rng(4),
                         max_attempts=1, alpha=0.0)
    assert cert.passed and cert.to_dict()["worst_d"] is None
    with pytest.raises(RetriesExhausted):
        sample_set(DensityFn(interval(2), np.zeros(2)), 0.0, np.random.default_rng(5),
                   max_attempts=1, alpha=0.5)


def test_sample_set_pinned_retry_count():
    # fixed seed, fixed margins: the measured retry count is reproducible
    n = 20000
    eps = 5e-3
    f = DensityFn(interval(n), np.full(n, 0.2))
    counts = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        try:
            _, cert = sample_set(f, eps, rng, max_attempts=4)
            counts.append(cert.attempts)
        except RetriesExhausted as exc:
            counts.append(exc.log["cert"].attempts)
    assert counts[0] == counts[1]


def _sample_outcomes(sampler, f, seed):
    # epsilon = 1e-3 truncates the top of [N] and fails on the last cert;
    # epsilon = -1 truncates nothing and sets a target every sample meets,
    # so the first attempt passes and returns its members
    with pytest.raises(RetriesExhausted) as info:
        sampler(f, 1e-3, np.random.default_rng(seed), max_attempts=2)
    members, cert = sampler(f, -1.0, np.random.default_rng(seed), alpha=0.0)
    return str(info.value), info.value.log["cert"], members.dtype, members.tobytes(), cert


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("n_total", [1000, 20000, 54321, 10**5, 10**6])
def test_steps_match_reference(n_total, q):
    # the strided tile, overlay and sampler reproduce their index-array
    # references bit for bit, each overlay written over the previous one.
    # The overlay lays down a random profile on Z_p of mean about alpha* (any
    # xi exercises the same strides); sampling at 10^6 thins f to |A| ~ 10^3
    # so that the exhaustive profile stays on the pair backend.
    p = choose_interval_params(n_total, 0.05, 1e-3, mode="desk", factors=(q,))
    g = build_g(p)
    f2 = step1_step2_tile(p, g)
    assert f2.values.tobytes() == reference_step1_step2_tile(p, g).values.tobytes()
    thin = 0.02 if n_total > 10**5 else 1.0
    alpha_star, t_classes = common_classes(p, g)
    for seed in range(3):
        xi = DensityFn(cyclic(p.p), 2 * alpha_star * np.random.default_rng(seed).random(p.p))
        want = reference_step3_overlay(f2, p, t_classes, xi, np.random.default_rng([seed, 1]))
        f3 = step3_overlay(f2, p, t_classes, xi, np.random.default_rng([seed, 1]))
        assert f3.values.tobytes() == want.values.tobytes()
        f = DensityFn(interval(n_total), thin * f3.values)
        assert _sample_outcomes(sample_set, f, seed) == _sample_outcomes(reference_sample_set, f, seed)


def test_interval_working_set():
    # traced peaks in float vectors of length N: the tile is one of them
    # (DensityFn keeps it, uncopied), and the overlay writes into it, adding
    # O(p) per class.  A copy of the tile, an index x or its gather would
    # each add one more.
    p = desk_params(n_total=10**5)
    g = build_g(p)
    alpha_star, t_classes = common_classes(p, g)
    xi = scaled_indicator(low_ap_density_subset(p.p, alpha_star), alpha_star)
    rng = np.random.default_rng(0)
    peaks = []
    for step in (lambda: step1_step2_tile(p, g), lambda: step3_overlay(f2, p, t_classes, xi, rng)):
        tracemalloc.start()
        try:
            f2 = step()
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * p.n_total))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.25 and peaks[1] <= OVERLAY_PEAK, peaks


def test_overlay_writes_into_the_tile(monkeypatch):
    # every candidate a product attempt scans is that attempt's tile,
    # overwritten in place, so no overlay attempt allocates a length-N vector
    from popdiff import interval as mod

    tiles, scanned = [], []
    real_tile, real_scan = mod.step1_step2_tile, mod.scan_interval_fn

    def tile(*args):
        tiles.append(real_tile(*args))
        return tiles[-1]

    def scan(values, target):
        scanned.append((len(tiles), np.shares_memory(values, tiles[-1].values)))
        return real_scan(values, target)

    monkeypatch.setattr(mod, "step1_step2_tile", tile)
    monkeypatch.setattr(mod, "scan_interval_fn", scan)
    with pytest.raises(RetriesExhausted):
        construct_interval_fn(desk_params(n_total=6000, hard_tail=False), seed=11,
                              max_overlay_retries=3, max_product_retries=2)
    assert scanned == [(1, True)] * 3 + [(2, True)] * 3


def test_failing_construction_counts_no_subset_aps(monkeypatch):
    # the overlay reads only the low-AP subset's elements and density, so the
    # subset's 3-AP count is never taken
    from popdiff import behrend

    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return ap_sums(*args, **kwargs)

    monkeypatch.setattr(behrend, "ap_sums", recorder)
    with pytest.raises(RetriesExhausted):
        construct_interval_fn(desk_params(n_total=6000, hard_tail=False), seed=11,
                              max_overlay_retries=2, max_product_retries=1)
    assert calls == []


def test_construct_interval_failure_golden():
    # message and log pinned from the index-array implementation
    p = choose_interval_params(20000, 0.05, 1e-3, mode="desk")
    with pytest.raises(RetriesExhausted) as info:
        construct_interval_fn(p, seed=0, max_overlay_retries=2)
    assert str(info.value) == (
        "interval construction failed all 4 overlay x 2 product attempts; best attempt "
        "has density 0.000133999 at d=3 > target 0.000124875"
    )
    assert info.value.log == {
        "best_verdict": Verdict(3, 0.0001339993904893005, 0.00012487500000000004, False),
        "overlay_retries": 4,
        "product_retries": 2,
    }
