"""Bohr sets, regularity, the inequality suite, and the increment search."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_is_regular,
    lambda_weighted_spectral,
    reference_find_regular_scale,
    reference_is_regular,
)
from popdiff.aps import per_diff_density, total_3ap_density
from popdiff.bohr import (
    BohrSet,
    _dist_table,
    _from_dist,
    beta_measure,
    bohr_set,
    dilate,
    double,
    find_regular_scale,
    geometric_schedule,
    inequality_suite,
    is_regular,
    lambda_weighted,
    phi_measure,
    pick_increment_index,
    schur_gap,
    smooth,
    strict_schedule,
    upper_search,
)
from popdiff.domains import DensityFn, cyclic
from popdiff.errors import DegenerateBohrError, DomainError, RegularityError
from popdiff.fourier import dft_values
from popdiff.modelfn import build_model_fn
from test_certs import plain_leaves


def random_fn(n, alpha, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0, 1, n)
    v *= alpha / v.mean()
    return DensityFn(cyclic(n), np.clip(v, 0, 1))


def test_bohr_enumeration_example():
    b = bohr_set(101, {1}, 0.1)
    expect = sorted(list(range(0, 11)) + list(range(91, 101)))
    assert sorted(b.elements.tolist()) == expect
    assert b.size == 21
    assert b.size >= 101 * 0.1  # size lower bound
    with pytest.raises(DomainError):
        bohr_set(100, {1}, 0.1)


def test_bohr_empty_freqs_whole_group():
    b = bohr_set(9, set(), 0.0)
    assert b.size == 9
    # B(emptyset, rho) = Z_n is regular at every scale, but is_regular and the
    # inequality suite still refuse codimension 0
    nu, scaled = find_regular_scale(bohr_set(9, set(), 0.3))
    assert nu == 1.0 and scaled.size == 9 and scaled.rho == 0.3
    with pytest.raises(DomainError):
        is_regular(scaled)
    with pytest.raises(DomainError):
        inequality_suite(DensityFn(cyclic(9), np.full(9, 0.5)), scaled, scaled, 0.01)


def test_bohr_basic_invariants():
    rng = np.random.default_rng(0)
    for n in (101, 1009):
        for _ in range(5):
            freqs = set(int(v) for v in rng.integers(1, n, rng.integers(1, 4)))
            rho = float(rng.uniform(0.02, 0.4))
            b = bohr_set(n, freqs, rho)
            assert 0 in b.elements
            el = set(b.elements.tolist())
            assert all((n - x) % n in el for x in el)  # symmetric
            assert b.size >= n * rho ** len(freqs) - 1e-9
            # sum closure into the doubled radius
            b2 = dilate(b, 2) if 2 * rho <= 1 else bohr_set(n, freqs, 1.0)
            el2 = set(b2.elements.tolist())
            pick = rng.choice(b.elements, size=min(12, b.size), replace=False)
            for x in pick:
                for y in pick:
                    assert (int(x) + int(y)) % n in el2


odd_n = st.integers(1, 600).map(lambda k: 2 * k + 1)
frequencies = st.lists(st.integers(0, 10**6), min_size=1, max_size=3)
unit = st.floats(0.0, 1.0)


@given(n=odd_n, freqs=frequencies, rho=unit, nu=unit)
def test_double_is_dilation_image(n, freqs, rho, nu):
    b = bohr_set(n, freqs, rho)
    assert np.array_equal(np.sort(double(b).elements), np.unique((2 * b.elements) % n))
    lhs = np.sort(dilate(double(b), nu).elements)
    rhs = np.unique((2 * dilate(b, nu).elements) % n)
    assert np.array_equal(lhs, rhs)


@given(n=odd_n, freqs=frequencies, rho=unit, nu1=unit, nu2=unit)
def test_dilate_identity(n, freqs, rho, nu1, nu2):
    b = bohr_set(n, freqs, rho)
    assert np.array_equal(dilate(b, 1.0).elements, b.elements)
    small, large = dilate(b, min(nu1, nu2)), dilate(b, max(nu1, nu2))
    assert np.isin(small.elements, large.elements).all()


def test_regularity_golden_and_scale():
    b = bohr_set(101, {1}, 0.1)
    assert is_regular(b) is True  # recorded after first exact evaluation
    for freqs, rho in (({1}, 0.1), ({1, 11}, 0.23), ({5, 17, 40}, 0.3)):
        nu, scaled = find_regular_scale(bohr_set(1009, freqs, rho))
        assert 0.5 - 1e-12 <= nu <= 1 + 1e-12
        assert is_regular(scaled)


def _exit_slack_example():
    # B({158}, r) on Z_349 with r = 23.005...: two elements at distance 23
    return bohr_set(349, {158}, 23.005172283353133 / 349)


def test_regular_exit_breakpoint_counterexample():
    # the two elements at distance 23 leave (B)_{1-delta} at delta_e = 1 - 23/R;
    # just after, the annulus holds both against 160 delta d |B| -> 1.69, so
    # the inequality fails for every delta slightly above delta_e
    b = _exit_slack_example()
    r = b.radius
    assert b.size == 47 and b.codim == 1 and np.sum(b.dist == 23) == 2
    delta = 1 - 23 / r
    assert abs(delta - 2.248e-4) < 1e-7 and delta <= Fraction(1, 80)
    after = delta + Fraction(1, 10**12)
    lower, upper = math.floor((1 - after) * r), math.floor((1 + after) * r)
    annulus = int(np.sum((b.dist > lower) & (b.dist <= upper)))
    assert annulus == 2
    assert round(float(160 * delta * b.codim * b.size), 2) == 1.69 < annulus


def test_regular_sees_exit_breakpoint():
    assert is_regular(_exit_slack_example()) is False


def _assert_scale_matches_reference(b):
    nu, scaled = find_regular_scale(b)
    ref_nu, ref = reference_find_regular_scale(b)
    assert nu == ref_nu and scaled.radius == ref.radius and scaled.freqs == ref.freqs
    assert np.array_equal(scaled.elements, ref.elements)
    assert np.array_equal(scaled.dist, ref.dist)
    # a realized distance is never a regular radius, so none is returned
    assert b.radius == 0 or scaled.radius not in set(b.dist.tolist())
    assert is_regular(b) == reference_is_regular(b)
    assert is_regular(scaled) == reference_is_regular(scaled)
    return nu


small_odd_n = st.integers(0, 150).map(lambda k: 2 * k + 1)


@given(n=small_odd_n, freqs=frequencies, rho=st.floats(0.0, 0.5, exclude_min=True))
def test_regular_scale_matches_reference(n, freqs, rho):
    # the distance counts give the reference's nu, radius and elements bit for bit
    b = bohr_set(n, freqs, rho)
    _assert_scale_matches_reference(b)
    assert is_regular(b) == brute_is_regular(b)


@st.composite
def exact_radius_bohr_sets(draw):
    n = draw(small_odd_n)
    freqs = tuple(sorted({r % n for r in draw(frequencies)}))
    d = len(freqs)
    # small denominators put the radius on a distance, halfway between two, or
    # a breakpoint on delta = 1/(80d) exactly
    den = draw(st.sampled_from([1, 2, 80 * d - 1, 80 * d + 1]) | st.integers(1, 1000))
    num = draw(st.integers(0, n * den // 2))
    return _from_dist(n, freqs, Fraction(num, den), _dist_table(n, freqs))


@given(b=exact_radius_bohr_sets())
def test_regular_matches_brute_force_at_exact_radii(b):
    assert is_regular(b) == reference_is_regular(b) == brute_is_regular(b)
    _assert_scale_matches_reference(b)


def test_realized_radius_is_never_regular():
    # the exit at delta = 0 leaves the elements at distance R in the annulus
    # against a right side that tends to 0
    b = bohr_set(101, {1}, 0.1)
    realized = _from_dist(101, b.freqs, Fraction(10), b.dist)
    assert is_regular(b) and b.size == realized.size == 21
    assert not is_regular(realized) and not brute_is_regular(realized)


@pytest.mark.parametrize("n, freqs, rho, below_one", [
    # the full radius is not regular, so the candidate loop runs past it
    (511, (976905, 134041), 0.20155649322356461, True),
    (265, (476700, 242394, 983273), 0.15087272304830607, True),
    (2197, (807869, 832180), 0.03230162618093252, True),
    (2941, (432154,), 0.41165955155269873, True),
    (3021, (42903, 461691, 511739), 0.04865627131994499, True),
    # R lies 0.012 above the realized distance 1040, which is never a regular
    # radius; the search settles on the midpoint 1039.5
    (2555, (56021, 993605, 88073), 0.40704976038712765, True),
    # the verdict changes with |B| one short
    (87, (783311, 191252, 406557), 0.22948817747379702, False),
    # an exit breakpoint 6.6e-13 below 1/(80d)
    (9, (6, 7), 0.3354297693918121, False),
    # the six elements at distance 3 enter at delta = 1/(80d) + 1.2e-17, past
    # the range, so the full radius is regular
    (9, (6, 7), 0.33126293995859213, False),
])
def test_regular_scale_edge_cases_match_reference(n, freqs, rho, below_one):
    assert (_assert_scale_matches_reference(bohr_set(n, freqs, rho)) < 1) == below_one


def test_measures():
    b = bohr_set(101, {1}, 0.1)
    beta, phi = beta_measure(b), phi_measure(b)
    assert abs(beta.mean() - 1) < 1e-12
    assert abs(phi.mean() - 1) < 1e-12
    assert np.abs(dft_values(phi) - dft_values(beta) ** 2).max() < 1e-10


def test_smoothing_mean_and_uniform():
    f = random_fn(101, 0.3, 1)
    kappa = np.ones(101)
    assert np.abs(smooth(f.values, kappa) - 0.3).max() < 1e-9
    b = bohr_set(101, {1}, 0.1)
    assert abs(smooth(f.values, phi_measure(b)).mean() - 0.3) < 1e-12


def test_lambda_weighted_point_mass_and_spectral():
    f = random_fn(101, 0.3, 2)
    delta = np.zeros(101)
    delta[0] = 101.0
    assert abs(lambda_weighted(f.values, delta) - np.mean(f.values**3)) < 1e-12
    b = bohr_set(101, {3}, 0.15)
    phi = phi_measure(b)
    assert abs(lambda_weighted(f.values, phi) - lambda_weighted_spectral(f.values, phi)) < 1e-8


def test_sumset_matches_unique_reference():
    # phi_measure is exactly zero off B+B, so its nonzeros are the sumset
    rng = np.random.default_rng(13)
    for n in (1, 7, 101, 1009):
        for size in sorted({1, min(2, n), max(1, n // 3), n}):
            a = np.sort(rng.choice(n, size=size, replace=False))
            ref = np.unique((a[:, None] + a[None, :]) % n)
            phi = phi_measure(BohrSet(n, (), Fraction(0), np.zeros(n, dtype=np.int64), a))
            assert np.array_equal(np.flatnonzero(phi), ref)
    for freqs, rho in (({3}, 0.05), ({5, 17}, 0.2), ({1, 2, 40}, 0.3)):
        b = bohr_set(1009, freqs, rho)
        ref = np.unique((b.elements[:, None] + b.elements[None, :]) % 1009)
        assert np.array_equal(np.flatnonzero(phi_measure(b)), ref)
    # a search whose final Bohr set is {0, 1, -1}, not Z_n: supp phi = {0, +-1, +-2}
    f = build_model_fn(0.3, 1009).fn
    tr = upper_search(f, 0.005, schedule=geometric_schedule(0.1, 0.5), nu=0.5)
    assert tr.phi_support.tolist() == [0, 1, 2, 1007, 1008]


def test_schur():
    assert schur_gap(1, 1, 1) == 0
    assert schur_gap(1, 0, 0) == 1
    rng = np.random.default_rng(3)
    for _ in range(10**4):
        a, b, c = rng.uniform(0, 1, 3)
        assert schur_gap(a, b, c) >= -1e-12
    a, b, c = rng.uniform(0, 1, (3, 100))
    gaps = schur_gap(a, b, c)
    assert gaps.shape == (100,) and gaps.min() >= -1e-12
    assert gaps[7] == schur_gap(a[7], b[7], c[7])
    with pytest.raises(DomainError):
        schur_gap(-1, 0, 0)
    with pytest.raises(DomainError):
        schur_gap(a, b - 2, c)


def test_pick_increment_index():
    alpha, eps = 0.3, 0.1
    a3 = alpha**3
    assert pick_increment_index([a3, a3], alpha, eps) == 1
    # the extremal run: stay strictly above the doubling recursion so no
    # early index qualifies until the [_,1] cap forces one
    seq = [a3]
    while seq[-1] < 1.0:
        seq.append(min(1.0, 2 * seq[-1] - a3 + eps / 2 + 1e-6))
    seq.append(1.0)
    idx = pick_increment_index(seq, alpha, eps)
    assert idx >= 2
    assert idx <= math.ceil(2 * math.log2(2 / eps)) + 1
    # any dip qualifies immediately
    assert pick_increment_index([a3 + 0.2, a3 + 0.1], alpha, eps) == 1
    assert pick_increment_index([a3], alpha, eps) is None  # too short, no hit
    # past the horizon (1 at eps = 1.9) a miss is an error
    with pytest.raises(RegularityError):
        pick_increment_index([a3, 0.99], alpha, 1.9)
    # at eps >= 2, 2 log2(2/eps) <= 0, but an index needs a second term
    assert pick_increment_index([a3], alpha, 2.0) is None
    assert pick_increment_index([a3], alpha, 3.0) is None
    # 2/eps overflows at eps = 1e-320, but the horizon stays finite (2129): a
    # run inside the 1e-9 slack below alpha^3 never qualifies and then fails
    low = [a3 - 5e-10] * 2200
    assert pick_increment_index(low[:2129], alpha, 1e-320) is None
    with pytest.raises(RegularityError):
        pick_increment_index(low, alpha, 1e-320)


def test_suite_trivial_constant():
    n = 101
    f = DensityFn(cyclic(n), np.full(n, 0.3))
    _, b1 = find_regular_scale(bohr_set(n, {1}, 0.2))
    b2 = bohr_set(n, {1, 51}, 0.0)
    rep = inequality_suite(f, b1, b2, 1 / (1000 * b1.codim))
    assert not rep.failures()
    assert any(c.name == "mean-cube-increment" and c.applicable for c in rep.checks)


def test_suite_seeded_instances():
    rng = np.random.default_rng(10)
    n = 101
    checked = 0
    for seed in range(20):
        f = random_fn(n, float(rng.uniform(0.2, 0.5)), seed)
        freqs = {int(rng.integers(1, n))}
        _, b1 = find_regular_scale(bohr_set(n, freqs, float(rng.uniform(0.05, 0.3))))
        nu = 1 / (1000 * b1.codim)
        inv2 = pow(2, -1, n)
        f2 = set(freqs) | {(r * inv2) % n for r in freqs}
        _, b2 = find_regular_scale(bohr_set(n, f2, nu**2 / 8 * b1.rho * 0.9))
        rep = inequality_suite(f, b1, b2, nu)
        assert not rep.failures(), [(c.name, c.margin) for c in rep.failures()]
        checked += sum(c.applicable for c in rep.checks)
    assert checked > 60


def test_upper_search_constant():
    n = 101
    f = DensityFn(cyclic(n), np.full(n, 0.3))
    tr = upper_search(f, 0.05, schedule=geometric_schedule(0.25))
    assert tr.d != 0
    assert abs(tr.density - 0.3**3) < 1e-12
    assert tr.d == int(min(d for d in tr.phi_support if d != 0))


def test_upper_search_matches_argmax_oracle():
    for seed in range(6):
        f = random_fn(1009, 0.3, 100 + seed)
        tr = upper_search(f, 0.05, schedule=geometric_schedule(0.3))
        best_d, best = None, -1.0
        for d in sorted(int(v) for v in tr.phi_support):
            if d == 0:
                continue
            val = per_diff_density(f, d)
            if val > best + 1e-15:
                best_d, best = d, val
        assert tr.d == best_d
        assert abs(tr.density - best) < 1e-15
        assert abs(per_diff_density(f, tr.d) - tr.density) < 1e-15
        # the Bohr sets collapse to Z_n here, so phi = 1 and Lambda_phi is the
        # total density
        assert len(tr.phi_support) == 1009
        assert abs(tr.lambda_phi - total_3ap_density(f)) < 1e-12
        assert tr.collapsed and plain_leaves(tr.to_dict())


@pytest.mark.parametrize("alpha", [0.25, 0.3])
@pytest.mark.parametrize("n, rho0, sumset_size", [(1009, 0.1, 5), (4093, 0.1, 17), (4093, 0.05, 9)])
def test_upper_search_not_collapsed(alpha, n, rho0, sumset_size):
    # alpha^3 - eps > 0 here, so the bound check can fail, and B+B is not Z_n
    eps = 0.005
    f = build_model_fn(alpha, n).fn
    tr = upper_search(f, eps, schedule=geometric_schedule(rho0, 0.5), nu=0.5)
    assert len(tr.phi_support) == sumset_size < n
    assert not tr.collapsed and tr.to_dict()["collapsed"] is False
    assert plain_leaves(tr.to_dict())
    dens = {int(d): per_diff_density(f, int(d)) for d in tr.phi_support if d != 0}
    best = max(dens.values())
    ties = [min(d, n - d) for d, val in dens.items() if val >= best - 1e-15]
    assert tr.d == min(ties)
    assert abs(tr.density - best) < 1e-15
    assert tr.density >= alpha**3 - eps > 0


def test_upper_search_strict_schedule_smoke():
    # the strict radius recipe evaluates finitely at large epsilon and the
    # desk-size group collapses to the documented degenerate error
    sched = strict_schedule(0.5)
    rhos = [sched(i) for i in (1, 2, 3)]
    assert all(np.isfinite(r) for r in rhos) and rhos[0] > 0
    # rho_1 = 1e-70, so rho_1^-5 leaves the float range and rho_2 underflows
    assert strict_schedule(1e-7)(2) == 0.0
    m = build_model_fn(0.25, 101)
    with pytest.raises(DegenerateBohrError):
        upper_search(m.fn, 0.5, schedule=sched)


def test_upper_search_interval_mode():
    f = random_fn(1009, 0.3, 55)
    # the strict final dilation collapses any nontrivial frequency set at
    # this size; a desk nu keeps the short-difference pin alive
    with pytest.raises(DegenerateBohrError):
        upper_search(f, 0.05, schedule=geometric_schedule(0.3), interval_mode=True)
    tr = upper_search(
        f, 0.05, schedule=geometric_schedule(0.3), interval_mode=True, nu=0.2
    )
    assert 0 < tr.d < 1009 / 2
    assert tr.small_d_bound is not None
    out = tr.to_dict()
    assert out["interval_mode"] is True and out["small_d_bound"] == tr.small_d_bound


def test_small_coefficient_bound():
    # with B built at radius rho/(4 pi), |1 - phihat(chi)| <= rho on the
    # frequency set
    n = 1009
    rng = np.random.default_rng(12)
    for _ in range(5):
        freqs = set(int(v) for v in rng.integers(1, n, 2))
        rho = float(rng.uniform(0.05, 0.5))
        b = bohr_set(n, freqs, rho / (4 * np.pi))
        ph = dft_values(phi_measure(b))
        for r in freqs:
            assert abs(1 - ph[r]) <= rho + 1e-9
