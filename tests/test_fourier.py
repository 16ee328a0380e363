"""Transform correctness against naive definitions."""

import numpy as np
import pytest

from popdiff.domains import DensityFn, cyclic, interval
from popdiff.errors import DomainError
from popdiff.fourier import convolve, dft, dft_values, idft


def naive_dft(values):
    n = len(values)
    out = np.zeros(n, dtype=np.complex128)
    for r in range(n):
        for x in range(n):
            out[r] += values[x] * np.exp(2j * np.pi * x * r / n)
    return out / n


def naive_convolve(f, g):
    n = len(f)
    out = np.zeros(n)
    for x in range(n):
        for y in range(n):
            out[x] += f[y] * g[(x - y) % n]
    return out / n


def test_direct_matches_naive():
    rng = np.random.default_rng(0)
    for n in (5, 9, 31):
        v = rng.uniform(0, 1, n)
        got = dft_values(v)
        assert np.abs(got - naive_dft(v)).max() < 1e-12


def vectorised_naive_dft(values):
    # the defining sum as a phase-matrix product, exponents reduced mod n
    n = len(values)
    x = np.arange(n, dtype=np.int64)
    out = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, 256):
        r = np.arange(lo, min(lo + 256, n), dtype=np.int64)
        out[lo : lo + len(r)] = np.exp(2j * np.pi * ((r[:, None] * x) % n) / n) @ values
    return out / n


def test_transform_matches_naive():
    rng = np.random.default_rng(1)
    # two primes of nearby size and a product-group order 5*101
    for n in (4093, 4099, 505):
        v = rng.uniform(0, 1, n)
        assert np.abs(dft_values(v) - vectorised_naive_dft(v)).max() < 1e-12


def test_roundtrip():
    rng = np.random.default_rng(2)
    for n in (65, 101, 4099):
        v = rng.uniform(0, 1, n)
        back = idft(dft(DensityFn(cyclic(n), v)).coeffs)
        assert np.abs(back.imag).max() < 1e-9
        assert np.abs(back.real - v).max() < 1e-9


def test_constant_function_spectrum():
    f = DensityFn(cyclic(7), np.full(7, 0.3))
    c = dft(f).coeffs
    assert abs(c[0] - 0.3) < 1e-12
    assert np.abs(c[1:]).max() < 1e-12


def test_delta_spectrum():
    v = np.zeros(5)
    v[0] = 1.0
    c = dft(DensityFn(cyclic(5), v)).coeffs
    assert np.abs(c - 0.2).max() < 1e-12


def test_interval_rejected():
    f = DensityFn(interval(10), np.full(10, 0.5))
    with pytest.raises(DomainError):
        dft(f)


def test_convolution_identity_and_naive():
    rng = np.random.default_rng(3)
    n = 65
    f = rng.uniform(0, 1, n)
    g = rng.uniform(0, 1, n)
    got = convolve(f, g)
    assert np.abs(got - naive_convolve(f, g)).max() <= 1e-9
    # coefficients multiply
    lhs = dft_values(got)
    rhs = dft_values(f) * dft_values(g)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_convolve_ones_and_delta():
    ones = np.ones(9)
    assert np.abs(convolve(ones, ones) - 1).max() < 1e-12
    delta = np.zeros(5)
    delta[0] = 5.0  # normalized point mass
    got = convolve(delta, delta)
    assert abs(got[0] - 5.0) < 1e-9 and np.abs(got[1:]).max() < 1e-9


def test_convolve_size_mismatch():
    with pytest.raises(DomainError):
        convolve(np.ones(4), np.ones(5))


def test_parseval_and_plancherel():
    rng = np.random.default_rng(4)
    for n in (101, 1009):
        f = rng.uniform(0, 1, n)
        g = rng.uniform(0, 1, n)
        fh, gh = dft_values(f), dft_values(g)
        assert abs(np.sum(np.abs(fh) ** 2) - np.mean(f**2)) < 1e-8
        lhs = np.mean(f * g)
        rhs = np.sum(fh * np.conj(gh)).real
        assert abs(lhs - rhs) < 1e-8
