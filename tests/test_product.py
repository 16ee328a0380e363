"""Product-group construction: levels, verification, certificates."""

import copy
import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st_

from oracles import reference_feasibility, reference_random_modify_level, smooth_tuple_ok
from popdiff.aps import Verdict, ap_sums, perdiff_table_sparse
from popdiff.errors import DomainError, InfeasibleError, RetriesExhausted, exp_text, int_text
from popdiff.interval import choose_interval_params
from popdiff.modelfn import CUBE_MOMENT_FACTOR, TRIPLE_DENSITY_FACTOR, build_model_fn
from popdiff.product import (
    FeasibilityReport,
    ProductParams,
    build_level1,
    construct_product,
    feasibility,
    random_modify_level,
    verify_level,
    window_checks,
)

ALPHA = 0.25


def test_feasibility_examples():
    # the m1 window is exact: the float 2^-7 puts m1 = 5 inside (2.52, 5.04],
    # and the float 8e-3 lies above 1/125, so 5 is one part in 1e17 past its
    # upper end, inside the 1e-12 band that the float window tolerated
    rep = feasibility(ProductParams(alpha=ALPHA, epsilon=2.0**-7, factors=(5,)))
    m1 = [c for c in rep.checks if c.name == "m1-window"][0]
    assert m1.status == "pass"
    rep = feasibility(ProductParams(alpha=ALPHA, epsilon=8e-3, factors=(5,)))
    m1 = [c for c in rep.checks if c.name == "m1-window"][0]
    assert m1.status == "waived"

    rep = feasibility(
        ProductParams(alpha=ALPHA, epsilon=20.0**-9, factors=(5,), mode="strict")
    )
    m1 = [c for c in rep.checks if c.name == "m1-window"][0]
    assert m1.status == "fail"

    rep = feasibility(ProductParams(alpha=ALPHA, epsilon=1e-3, factors=(5, 15)))
    with pytest.raises(InfeasibleError, match="factors-odd-distinct-primes"):  # 15 is not prime
        rep.raise_if_fatal()


def test_feasibility_desk_waives():
    rep = feasibility(ProductParams(alpha=ALPHA, epsilon=1e-3, factors=(5, 15629)))
    rep.raise_if_fatal()
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["epsilon-window"] == "waived"  # eps far above the strict max


FEAS_ALPHAS = (5e-324, 1e-300, 1e-60, 1e-54, 1e-20, 1e-3, 0.05, 0.2, 0.25, 0.4, 0.5, 0.8, 1.0)
FEAS_EPSILONS = (5e-324, 1e-300, 1e-100, 1e-60, 1e-46, 1e-27, 20.0**-9, 1e-9, 1e-6, 1e-3,
                 1 / 343, 8e-3, 1 / 27, 0.1, 0.5, 0.9)
FEAS_FACTORS = ((3,), (5,), (7,), (11,), (101,), (1009,), (9,), (5, 15), (5, 5), (7, 5),
                (3, 733), (5, 15629), (5, 101), (101, 1009), (1009, 13), (1009, 7, 11),
                (5, 101, 1009))


def m1_band(eps, m1):
    """The float window's tolerance band (eps^-1/3, eps^-1/3 (1 + 1e-12)]."""
    hi = eps ** (-1 / 3)
    return hi < m1 <= hi * (1 + 1e-12)


def test_feasibility_matches_float_reference():
    # on every grid point where the float form returns, every check's status
    # is the same, except an m1 window inside the float form's tolerance band:
    # on this grid, only m1 = 5 at the float 8e-3
    banded, compared = set(), 0
    for alpha, eps, fac, mode in itertools.product(
        FEAS_ALPHAS, FEAS_EPSILONS, FEAS_FACTORS, ("desk", "strict")
    ):
        params = ProductParams(alpha=alpha, epsilon=eps, factors=fac, mode=mode)
        try:
            ref = reference_feasibility(params)
        except ValueError:  # alpha^6 underflowed in the float level count
            continue
        compared += 1
        got = {c.name: c.status for c in feasibility(params).checks}
        want = {c.name: c.status for c in ref.checks}
        assert got.keys() == want.keys()
        diff = {k for k in got if got[k] != want[k]}
        if diff:
            assert diff == {"m1-window"} and m1_band(eps, fac[0]), (params, diff)
            banded.add((eps, fac[0]))
    assert compared > 5000 and banded == {(8e-3, 5)}


POSITIVE_FLOATS = st_.floats(min_value=5e-324, max_value=1e308, allow_subnormal=True)


@given(
    POSITIVE_FLOATS,
    POSITIVE_FLOATS,
    st_.lists(st_.integers(1, 10**300), min_size=1, max_size=3).map(tuple),
    st_.sampled_from(("desk", "strict")),
)
@example(0.1, 1e-7, (10**400, 10**400 + 1, 3), "strict")  # n_2^6 has 4801 digits
def test_window_checks_never_raise(alpha, eps, factors, mode):
    # exact or in logarithms, no window overflows or underflows
    rep = FeasibilityReport(mode)
    window_checks(rep, alpha, eps, factors)
    assert len(rep.checks) == 2 * len(factors) + 2
    assert all(c.status in ("pass", mode == "desk" and "waived" or "fail") for c in rep.checks)


@pytest.mark.parametrize("log_x", [-40.0, 0.0, 1.5, 49.43, 690.0])
def test_exp_text_is_format_in_float_range(log_x):
    for spec in (".3g", ".4g", ".6g"):
        assert exp_text(log_x, spec) == format(math.exp(log_x), spec)


def test_exp_text_past_float_range():
    assert exp_text(450 * math.log(10), ".6g") == "1e+450"  # epsilon^-15 at epsilon = 1e-30
    assert exp_text(-700 * math.log(10), ".3g") == "1e-700"
    assert exp_text(11166.0, ".4g") == "2.149e+4849"


def test_int_text_is_str_up_to_40_digits():
    for k in (0, 7, -5, 10**30 + 57, 10**40 - 1, -(10**40 - 1)):
        assert int_text(k) == str(k)
    for t in ((5,), (5, 15629), (101, 31, 7)):
        assert int_text(t) == str(t)
    assert int_text(10**40) == "1e+40"
    assert int_text(-(3**100)) == "-5.15378e+47"
    assert int_text(3**10001) == "4.89405e+4771"  # str refuses ints past 4300 digits


def test_unbounded_integers_in_details():
    # formatting these in full once raised ValueError past 4300 digits
    with pytest.raises(DomainError, match=r"^the product of the factors = 2\.44703e\+4772 is too"):
        feasibility(ProductParams(0.25, 1e-3, (5, 3**10001)))
    with pytest.raises(InfeasibleError) as exc:
        choose_interval_params(10**5000, 0.05, 1e-12, mode="strict")
    assert len(str(exc.value)) < 200


def test_level1_exact():
    st = build_level1(ALPHA, 5)
    assert np.allclose(st.values, [0, 5 / 16, 5 / 16, 5 / 16, 5 / 16])
    assert abs(st.values.mean() - ALPHA) < 1e-12
    expect = ALPHA**3 * 50 / 64
    assert np.abs(st.density_table[1:] - expect).max() < 1e-12
    # closed form equals alpha^3 (1 - (3 m - 1)/(m-1)^3)
    assert abs(expect - ALPHA**3 * (1 - 14 / 64)) < 1e-15
    cube = float((st.values**3).mean())
    assert abs(cube - 25 / 1024) < 1e-12
    assert cube < ALPHA**3 * (1 + 3 / 5)


def test_level1_m3_kills_everything():
    st = build_level1(0.25, 3)
    assert np.abs(st.density_table[1:]).max() < 1e-12


def test_modify_structure_and_mean():
    st = build_level1(ALPHA, 5)
    rng = np.random.default_rng(0)
    st2 = random_modify_level(st, 31, rng, mu_next=0.5)
    n_prev, m = 5, 31
    g = build_model_fn(st.alpha_prime, m)
    for w in range(n_prev):
        fiber = st2.values[np.arange(st2.n) % n_prev == w]
        # fiber order follows the canonical labelling; reindex by coordinate
        xs = np.flatnonzero(np.arange(st2.n) % n_prev == w)
        ys = xs % m
        fiber = fiber[np.argsort(ys)]
        if st2.modified[w]:
            a, b = int(st2.coset_a[w]), int(st2.coset_b[w])
            expect = g.values[(a * np.arange(m) + b) % m]
            assert np.abs(fiber - expect).max() < 1e-12
            assert abs(fiber.mean() - st.alpha_prime) < 1e-12
        else:
            assert np.abs(fiber - st.values[w]).max() < 1e-12
    assert abs(st2.values.mean() - ALPHA) < 1e-12


class _LowestDraws:
    """A stand-in generator whose every draw is the low end of its range, so
    each modified coset gets (a_w, b_w) = (1, 0)."""

    def integers(self, low, high, size):
        return np.full(size, low, dtype=np.int64)


def test_modify_identity_reparametrization():
    # (a, b) = (1, 0) lays the profile down verbatim: the fiber over coset w
    # is the stride values[w::5], whose point w + 5k has coordinate (w + 5k) mod 31
    st = build_level1(ALPHA, 5)
    st2 = random_modify_level(st, 31, _LowestDraws(), mu_next=0.3)
    g = build_model_fn(st.alpha_prime, 31)
    k = np.arange(31)
    assert st2.modified.any()
    for w in np.flatnonzero(st2.modified):
        assert (st2.coset_a[w], st2.coset_b[w]) == (1, 0)
        assert np.array_equal(st2.values[w::5], g.values[(w + 5 * k) % 31])
        assert abs(st2.values[w::5].mean() - st.alpha_prime) < 1e-12


def test_fiber_mean_invariant_under_all_maps():
    g = build_model_fn(0.3125, 31)
    y = np.arange(31)
    for a in (1, 2, 17, 30):
        for b in (0, 5, 30):
            assert abs(g.values[(a * y + b) % 31].mean() - 0.3125) < 1e-12


def test_verify_level_table_matches_bruteforce():
    st = build_level1(ALPHA, 5)
    for m, seed in ((31, 0), (7, 1), (101, 2)):
        if m == 7:
            base = build_level1(0.2, 5)
        else:
            base = st
        rng = np.random.default_rng(seed)
        st2 = random_modify_level(base, m, rng, mu_next=0.7)
        brute = ap_sums(st2.values) / st2.n
        assert np.abs(brute - st2.density_table).max() < 1e-10


def test_three_level_table_matches_bruteforce():
    st = build_level1(0.2, 5)
    rng = np.random.default_rng(8)
    st2 = random_modify_level(st, 7, rng, mu_next=0.7)
    st3 = random_modify_level(st2, 11, rng, mu_next=0.4)
    assert st3.n == 385
    assert abs(st3.values.mean() - 0.2) < 1e-12
    brute = ap_sums(st3.values) / st3.n
    assert np.abs(brute - st3.density_table).max() < 1e-10


def test_lift_invariance_under_smoothness():
    # differences sharing a smooth base d' have identical densities across lifts
    st = build_level1(ALPHA, 5)
    rng = np.random.default_rng(11)
    st2 = random_modify_level(st, 31, rng, mu_next=0.7)
    n_prev, m = 5, 31
    table = st2.density_table
    from popdiff.modelfn import model_support

    supp = model_support(m)
    for dprime in range(1, n_prev):
        lifts = [d for d in range(st2.n) if d % n_prev == dprime]
        vals = table[lifts]
        # check smoothness of every coset triple along this base difference
        all_smooth = True
        for w in range(n_prev):
            legs = [(w + j * dprime) % n_prev for j in (0, 1, 2)]
            a = [int(st2.coset_a[l]) for l in legs if st2.modified[l]]
            if len(a) >= 2 and not smooth_tuple_ok(supp, a, m)[0]:
                all_smooth = False
        if all_smooth:
            # no nonzero-frequency term: the row is the level-1 density, bit for bit
            assert np.all(vals == st.density_table[dprime])


def test_table_sampled_check_at_acceptance_size():
    # the structural table must agree with direct per-difference computation
    # at the full desk size; 300 sampled differences incl. the worst one
    st = build_level1(ALPHA, 5)
    rng = np.random.default_rng(42)
    st2 = random_modify_level(st, 15629, rng, mu_next=0.8)
    v = st2.values
    n = st2.n
    picks = set(int(x) for x in np.random.default_rng(1).integers(1, n, 300))
    picks.add(int(st2.density_table[1:].argmax()) + 1)
    picks.update(k * 5 for k in range(1, 6))  # a few diagonal differences
    for d in picks:
        direct = float(np.mean(v * np.roll(v, -d) * np.roll(v, -2 * d)))
        assert abs(direct - st2.density_table[d]) < 1e-10, d


@given(
    chain=st_.lists(st_.sampled_from((7, 11, 13, 31)), min_size=1, max_size=2, unique=True),
    mus=st_.lists(st_.floats(0.0, 1.0), min_size=2, max_size=2),
    alpha=st_.sampled_from((0.2, 0.25, 0.3)),
    seed=st_.integers(0, 2**32 - 1),
)
def test_structural_table_matches_bruteforce(chain, mus, alpha, seed):
    # two- and three-level chains over Z_5: the structural table is the
    # direct per-difference sum at every d
    st = build_level1(alpha, 5)
    rng = np.random.default_rng(seed)
    for m, mu in zip(chain, mus):
        st = random_modify_level(st, m, rng, mu_next=mu)
    brute = ap_sums(st.values) / st.n
    assert np.abs(brute - st.density_table).max() < 1e-12


def _lift_matches_reference(prev, m, rng, mu):
    # the level against the earlier builder, bit for bit, on the same draws
    ref_rng = copy.deepcopy(rng)
    st = random_modify_level(prev, m, rng, mu_next=mu)
    ref = reference_random_modify_level(prev, m, ref_rng, mu_next=mu)
    for name in ("values", "density_table", "modified", "coset_a", "coset_b"):
        got, want = getattr(st, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert st.mu_effective == ref.mu_effective
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return st


@given(
    chain=st_.lists(st_.sampled_from((7, 11, 13, 31)), min_size=1, max_size=2, unique=True),
    mus=st_.lists(st_.floats(0.0, 1.0), min_size=2, max_size=2),
    alpha=st_.sampled_from((0.2, 0.25, 0.3)),
    seed=st_.integers(0, 2**32 - 1),
)
def test_structural_table_matches_reference_bitwise(chain, mus, alpha, seed):
    st = build_level1(alpha, 5)
    rng = np.random.default_rng(seed)
    for m, mu in zip(chain, mus):
        st = _lift_matches_reference(st, m, rng, mu)


def test_three_level_table_matches_reference_bitwise():
    # the chain of the desk-size sampled check below
    rng = np.random.default_rng(42)
    st2 = _lift_matches_reference(build_level1(ALPHA, 5), 101, rng, 0.5)
    _lift_matches_reference(st2, 1009, rng, 0.5)


def test_acceptance_size_level_matches_reference_bitwise():
    # the level of the acceptance-size sampled check
    _lift_matches_reference(build_level1(ALPHA, 5), 15629, np.random.default_rng(42), 0.8)


@pytest.mark.parametrize(
    "chain, m, mu, ceiling",
    [((), 15629, 0.8, 6), ((101,), 1009, 0.5, 3)],
    ids=["5x15629", "5x101x1009"],
)
def test_level_working_set(chain, m, mu, ceiling):
    # the traced peak of one level, in float vectors of the new level's size
    # n: values and table are two of them, and the rest is O(m) per coset or
    # base difference plus the int8 slot table (n bytes).  numpy reports its
    # buffers to tracemalloc; a first call warms numpy's FFT plan cache.
    rng = np.random.default_rng(42)
    st = build_level1(ALPHA, 5)
    for m_prev in chain:
        st = random_modify_level(st, m_prev, rng, mu_next=0.5)
    random_modify_level(st, m, np.random.default_rng(0), mu_next=mu)
    tracemalloc.start()
    try:
        new = random_modify_level(st, m, rng, mu_next=mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new.modified.any()
    assert peak <= ceiling * 8 * new.n


def test_three_level_table_sampled_check_at_desk_size():
    # (5, 101, 1009) is out of reach of the full brute table; 300 sampled
    # differences incl. the worst one and some d' = 0 rows against np.roll sums
    st = build_level1(ALPHA, 5)
    rng = np.random.default_rng(42)
    st2 = random_modify_level(st, 101, rng, mu_next=0.5)
    st3 = random_modify_level(st2, 1009, rng, mu_next=0.5)
    v = st3.values
    n = st3.n
    assert st3.modified.any()
    picks = set(int(x) for x in np.random.default_rng(1).integers(1, n, 300))
    picks.add(int(st3.density_table[1:].argmax()) + 1)
    picks.update(k * 505 for k in range(1, 6))  # d' = 0 rows
    for d in picks:
        direct = float(np.mean(v * np.roll(v, -d) * np.roll(v, -2 * d)))
        assert abs(direct - st3.density_table[d]) < 1e-12, d


@given(
    m=st_.sampled_from((31, 101)),
    mu=st_.floats(0.0, 1.0),
    seed=st_.integers(0, 2**32 - 1),
)
def test_verify_level_reports_smaller_of_d_and_minus_d(m, mu, seed):
    # the structural table is symmetric only to roundoff; the verdict names
    # the smallest d <= (n-1)/2 of the worst pair and the exact table maximum
    st = random_modify_level(build_level1(ALPHA, 5), m, np.random.default_rng(seed), mu_next=mu)
    verdict = verify_level(st, 8e-3)
    table = st.density_table
    assert 1 <= verdict.argmax_d <= (st.n - 1) // 2
    assert verdict.max_offdiag == table[1:].max()
    assert max(table[verdict.argmax_d], table[st.n - verdict.argmax_d]) == verdict.max_offdiag


def test_verify_level_pass_and_fail():
    st = build_level1(ALPHA, 5)
    verdict = verify_level(st, 8e-3)
    assert verdict.passed  # 50/64 <= 1 - eps

    flat = build_level1(ALPHA, 5)
    flat.values = np.full(5, ALPHA)
    flat.density_table = ap_sums(flat.values) / 5
    verdict = verify_level(flat, 1e-3)
    assert not verdict.passed
    assert np.count_nonzero(flat.density_table[1:] > verdict.target) == 4  # every d != 0 fails


def test_mean_and_cube_invariants_across_levels():
    st = build_level1(ALPHA, 5)
    ap = st.alpha_prime
    rng = np.random.default_rng(5)
    st2 = random_modify_level(st, 101, rng, mu_next=0.4)
    assert abs(st2.values.mean() - ALPHA) < 1e-12
    cube = float((st2.values**3).mean())
    assert cube <= ap**3 * (1 + 2 * max(st2.mu_effective, 1 / 5)) + 1e-12
    # exact accounting: each modified fiber adds (53/32 - 1) alpha'^3
    expect = float((st.values**3).mean()) + st2.mu_effective * (CUBE_MOMENT_FACTOR - 1) * ap**3
    assert abs(cube - expect) < 1e-10


def test_fiber_average_law():
    # the rng-average of a modified fiber's density at any fixed nonzero
    # difference is the mean of the profile's off-zero densities, which sits
    # below (31/32) alpha'^3
    ap = 0.3125
    m = 101
    lam = perdiff_table_sparse(build_model_fn(ap, m).spectrum)
    exact_mean = lam[1:].mean()
    assert exact_mean <= TRIPLE_DENSITY_FACTOR * ap**3 + 1e-12
    rng = np.random.default_rng(9)
    g = build_model_fn(ap, m)
    d = 17
    draws = rng.integers(1, m, size=10**4)
    mc = lam[(draws * d) % m].mean()
    sigma = lam[1:].std() / np.sqrt(10**4)
    assert abs(mc - exact_mean) <= 4 * sigma


def test_construct_s1_deterministic():
    params = ProductParams(alpha=ALPHA, epsilon=8e-3, factors=(5,))
    f1, cert1 = construct_product(params, seed=42)
    f2, cert2 = construct_product(params, seed=42)
    assert np.array_equal(f1.values, f2.values)
    assert cert1.to_dict() == cert2.to_dict()
    assert cert1.conclusions["max_offdiag_le_target"]
    assert abs(cert1.max_offdiag_density - ALPHA**3 * 50 / 64) < 1e-12
    # the boost profile's cube moment genuinely exceeds (3/2) alpha^3 at m1=5
    assert not cert1.conclusions["mean_cube_le_3_2_alpha3"]


def test_construct_two_level_reports_failure():
    # no choice of modification passes the target at these desk factors; the
    # retry loop must exhaust and surface the best measured attempt
    params = ProductParams(alpha=ALPHA, epsilon=1e-3, factors=(5, 101))
    with pytest.raises(RetriesExhausted) as info:
        construct_product(params, seed=1, max_retries_per_level=4)
    log = info.value.log
    assert set(log) == {"level", "retries", "best_verdict"}  # no failed state is kept
    assert log["level"] == 2
    assert log["best_verdict"].max_offdiag > ALPHA**3
    assert log["retries"][-1]["attempts"] == 4


def test_product_failure_logs_share_one_shape():
    # a level-1 failure and a level-2 failure log the same keys, each with the
    # failing level's lowest Verdict; the messages are pinned
    cases = [
        (ProductParams(0.25, 0.5, (5,)), 20,
         "level 1 fails at every retry: max density 0.012207 > target 0.0078125 "
         "(epsilon too large for m1=5)"),
        (ProductParams(0.25, 1e-3, (5, 101)), 2,
         "level 2 failed verification on all 2 attempts; best attempt: max density "
         "0.0312329 at d=215 > target 0.0156094"),
    ]
    for params, retries, message in cases:
        with pytest.raises(RetriesExhausted) as info:
            construct_product(params, seed=1, max_retries_per_level=retries)
        log = info.value.log
        assert set(log) == {"level", "retries", "best_verdict"}
        assert isinstance(log["best_verdict"], Verdict) and not log["best_verdict"].passed
        assert str(info.value) == message


def test_construct_keeps_one_candidate(monkeypatch):
    # each failed candidate is dropped before the next attempt is built
    from popdiff import product

    real = product.random_modify_level
    built = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in built)
        cand = real(*args, **kwargs)
        built.append(weakref.ref(cand))
        return cand

    monkeypatch.setattr(product, "random_modify_level", tracked)
    with pytest.raises(RetriesExhausted):
        construct_product(ProductParams(alpha=ALPHA, epsilon=1e-3, factors=(5, 101)), seed=1,
                          max_retries_per_level=3)
    assert len(built) == 3


def test_construct_collects_mu_effective_per_level(monkeypatch):
    # no desk chain passes level 2, so every verdict is made to pass: the
    # certificate lists 0 for level 1, then each accepted level's coset share
    # (level 2 takes all four alpha'-points of Z_5, which leaves none for 3)
    from popdiff import product

    real = product.verify_level
    monkeypatch.setattr(product, "verify_level",
                        lambda st, eps: dataclasses.replace(real(st, eps), passed=True))
    _, cert = construct_product(ProductParams(alpha=ALPHA, epsilon=8e-3, factors=(5, 7, 11)),
                                seed=42)
    assert cert.mu_effective == (0.0, 0.8, 0.0)


def test_construct_infeasible_factors():
    with pytest.raises(InfeasibleError):
        construct_product(
            ProductParams(alpha=ALPHA, epsilon=1e-3, factors=(5, 15)), seed=0
        )


# factors -> (alpha, the one check that fails); the level builders check
# none of these themselves
GATE_REJECTS = {
    (7, 5): (ALPHA, "model-prime"),  # a later factor hosts the model profile: m >= 7
    (5, 3): (ALPHA, "model-prime"),
    (5, 15629, 3): (ALPHA, "model-prime"),
    (9,): (ALPHA, "factors-odd-distinct-primes"),
    (5, 31, 31): (ALPHA, "factors-odd-distinct-primes"),
    (5,): (0.9, "boost-in-range"),  # alpha' = 0.9 * 5/4 > 1
    (7, 31): (0.4285714285714286, "model-mean-in-range"),  # alpha' = 0.5000000000000001
}


@pytest.mark.parametrize("factors", list(GATE_REJECTS))
def test_small_later_factor_is_fatal(factors, monkeypatch):
    # the feasibility check rejects every such input, in desk mode too,
    # before any level is built
    from popdiff import product

    alpha, check = GATE_REJECTS[factors]
    params = ProductParams(alpha=alpha, epsilon=1e-3, factors=factors)
    assert [c.name for c in feasibility(params).checks if c.status == "fail"] == [check]

    def no_build(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(product, "build_level1", no_build)
    with pytest.raises(InfeasibleError, match=check):
        construct_product(params, seed=0)
