"""Model function moments, spectrum, and smoothness certificates."""

import itertools

import numpy as np
import pytest

from popdiff.aps import total_3ap_density
from oracles import smooth_tuple_ok
from popdiff.errors import DomainError
from popdiff.fourier import dft
from popdiff.modelfn import (
    CUBE_MOMENT_FACTOR,
    SECOND_MOMENT_FACTOR,
    TRIPLE_DENSITY_FACTOR,
    build_model_fn,
    model_support,
    verify_model_properties,
)


def test_spectrum_exact():
    for alpha, n in ((0.25, 101), (0.1, 1009), (0.5, 13)):
        m = build_model_fn(alpha, n)
        c = dft(m.fn).coeffs
        assert abs(c[0] - alpha) < 1e-9
        for r in (1, 2, n - 2, n - 1):
            assert abs(c[r] - (-alpha / 4)) < 1e-9
        mask = np.ones(n, bool)
        mask[[0, 1, 2, n - 2, n - 1]] = False
        assert np.abs(c[mask]).max() < 1e-9
        assert np.abs(m.spectrum.coeffs - c).max() < 1e-9
        assert sorted(m.spectrum.support.tolist()) == sorted([0, 1, 2, n - 2, n - 1])


def test_moments_match_direct_sums():
    # the oracle is the direct sum over x; frozen factors must reproduce it
    for alpha, n in ((0.25, 101), (0.5, 13), (0.1, 15629)):
        m = build_model_fn(alpha, n)
        v = m.values
        assert abs(v.mean() - alpha) < 1e-12
        assert abs((v**2).mean() - SECOND_MOMENT_FACTOR * alpha**2) < 1e-9
        assert abs((v**3).mean() - CUBE_MOMENT_FACTOR * alpha**3) < 1e-9
        assert abs(total_3ap_density(m.fn) - TRIPLE_DENSITY_FACTOR * alpha**3) < 1e-9
        assert v.min() >= 0 and v.max() <= 2 * alpha + 1e-12


def test_triple_density_by_triple_loop():
    m = build_model_fn(0.25, 101)
    v = m.values
    tot = 0.0
    for d in range(101):
        tot += float(np.mean(v * np.roll(v, -d) * np.roll(v, -2 * d)))
    assert abs(tot / 101 - 31 / 2048) < 1e-9


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_model_fn(0.6, 101)  # peak 2*alpha would exceed 1
    with pytest.raises(DomainError):
        build_model_fn(0.25, 100)  # even
    with pytest.raises(DomainError):
        build_model_fn(0.25, 91)  # composite
    with pytest.raises(DomainError):
        build_model_fn(0.25, 5)  # aliased frequencies


def test_smooth_h1_always_ok():
    supp = model_support(101)
    for a1 in (1, 5, 100):
        assert smooth_tuple_ok(supp, (a1,), 101)[0]


def test_smooth_pair_witness():
    ok, (r1, r2) = smooth_tuple_ok(model_support(101), (1, 1), 101)
    assert not ok
    assert (r1 * 1 + r2 * 1) % 101 == 0 and (r1, r2) != (0, 0)
    # exhaustive fact: every pair of nonzero dilations over Z_7 admits a
    # support relation
    for a in itertools.product(range(1, 7), repeat=2):
        assert not smooth_tuple_ok(model_support(7), a, 7)[0]


def test_smooth_rejects_zero_dilation():
    with pytest.raises(DomainError):
        smooth_tuple_ok(model_support(101), (0, 1), 101)


def test_smooth_failure_frequency():
    # failure probability for random triples is at most 5^3/(n-1)
    n = 15629
    supp = np.array([0, 1, 2, n - 2, n - 1], dtype=np.int64)
    triples = [
        np.array(t, dtype=np.int64)
        for t in itertools.product(supp.tolist(), repeat=3)
        if any(t)
    ]
    rel = np.stack(triples)  # (124, 3)
    rng = np.random.default_rng(0)
    trials = 10**5
    a = rng.integers(1, n, size=(trials, 3))
    bad = ((rel @ a.T) % n == 0).any(axis=0)
    p_hat = bad.mean()
    p_bound = 125 / (n - 1)
    sigma = np.sqrt(p_bound * (1 - p_bound) / trials)
    assert p_hat <= p_bound + 3 * sigma


def test_smooth_conclusion_b_sweep():
    # verdict true => E_x[prod g(a_j x + b_j)] = alpha^h for ALL shifts;
    # corners plus seeded random shift tuples
    n = 1009
    alpha = 0.3
    m = build_model_fn(alpha, n)
    supp = model_support(n)
    rng = np.random.default_rng(7)
    a = tuple(int(v) for v in rng.integers(1, n, size=3))
    assert smooth_tuple_ok(supp, a, n)[0]
    x = np.arange(n)
    sweeps = [(0, 0, 0), (n - 1, n - 1, n - 1)]
    sweeps += [tuple(int(v) for v in rng.integers(0, n, 3)) for _ in range(100)]
    for b in sweeps:
        prod = np.ones(n)
        for aj, bj in zip(a, b):
            prod = prod * m.values[(aj * x + bj) % n]
        assert abs(prod.mean() - alpha**3) < 1e-8


def test_verify_properties_pass_and_corrupt():
    for alpha, n in ((0.25, 101), (0.5, 13)):
        rep = verify_model_properties(build_model_fn(alpha, n))
        assert rep.ok, [(c.name, c.measured, c.target) for c in rep.checks if not c.passed]
    m = build_model_fn(0.25, 101)
    bad_vals = m.values.copy()
    bad_vals[3] = 1.5
    m.fn.values = bad_vals  # bypass constructor clipping on purpose
    rep = verify_model_properties(m)
    assert not rep.ok
    assert any(c.name == "range" and not c.passed for c in rep.checks)


@pytest.mark.parametrize("alpha", [0.25, 0.01, 1e-4])
def test_verify_properties_flag_a_small_perturbation_at_every_scale(alpha):
    # 0.1 alpha cos(6 pi x / n) moves the second and cube moments by about 1 %,
    # far beyond roundoff at every alpha
    n = 101
    m = build_model_fn(alpha, n)
    m.fn.values = m.values + 0.1 * alpha * np.cos(6 * np.pi * np.arange(n) / n)
    rep = verify_model_properties(m)
    assert not rep.ok
    assert {c.name for c in rep.checks if not c.passed} >= {"second-moment", "cube-moment"}
