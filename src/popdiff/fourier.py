"""Fourier transform on Z_n for arbitrary (prime-friendly) n.

The transform convention throughout the package is

    fhat(r) = (1/n) * sum_x f(x) e(x r / n),        e(t) = exp(2*pi*i*t),

with inversion f(x) = sum_r fhat(r) e(-x r / n).  Under this convention the
convolution (f*g)(x) = E_y[f(y) g(x-y)] satisfies (f*g)^hat = fhat * ghat, so
a caller that holds fhat convolves by one product and one ``idft``
(``bohr.smooth``, the package's only convolution).

Every transform is numpy's pocketfft, which handles any length n (prime
lengths through its own Bluestein reduction).  For values in [0,1] its
roundoff is about 1e-16 per coefficient, flat in n.
"""

from __future__ import annotations

import numpy as np

from .domains import CYCLIC, PRODUCT, DensityFn, Spectrum
from .errors import DomainError


def dft(f: DensityFn) -> Spectrum:
    """Normalized transform of a group function; intervals are rejected.

    Callers embed interval functions into a cyclic group explicitly when they
    need spectra.
    """
    if f.domain.kind not in (CYCLIC, PRODUCT):
        raise DomainError("dft is defined on group domains; embed intervals first")
    return Spectrum(f.n, dft_values(f.values))


def dft_values(values) -> np.ndarray:
    """fhat(r) = (1/n) sum_x values[x] e(x r / n) for every r."""
    vec = np.asarray(values, dtype=np.float64).astype(np.complex128)
    return np.fft.ifft(vec, norm="forward") / len(vec)


def idft(coeffs) -> np.ndarray:
    """Inverse transform sum_r c(r) e(-x r / n) for every x; returns the complex
    value vector."""
    return np.fft.fft(np.asarray(coeffs, dtype=np.complex128))
