"""Finite domains and [0,1]-valued functions on them.

Three domain kinds are supported:

* ``cyclic``   -- Z_n with n odd, elements 0..n-1;
* ``product``  -- a product of distinct odd primes m_1..m_s, identified with
  Z_n (n = prod m_i) through the Chinese remainder map and stored in the
  canonical Z_n labelling;
* ``interval`` -- the integers 1..N; index i of the value vector holds the
  value at x = i+1.

Functions are plain float vectors with every entry in [0,1].  Spectra are
complex vectors indexed by frequencies r in Z_n under the convention

    fhat(r) = (1/n) * sum_x f(x) * exp(2*pi*i*x*r/n).

File formats (used by the CLI and by every construction artifact):

* function file (JSON): ``{"domain": {"kind", "n", "factors"?}, "values": [...]}``
  plus optional extra keys (``model``, ``meta``) that the loader ignores;
* set artifact (JSON): ``{"elements": [...], "n" | "N"}``, residues 0..n-1 of Z_n
  or members 1..N of [N]; ``load_fn`` reads either kind, a set as its indicator;
* profile CSV: header ``d,density``, one row per difference, densities with
  12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, FileFormatError, check_size

CYCLIC = "cyclic"
PRODUCT = "product"
INTERVAL = "interval"

GROUP = "group"
OVER_N = "interval-over-N"
OVER_WINDOW = "interval-over-N-2d"

NORMALIZATIONS = (GROUP, OVER_N, OVER_WINDOW)

# |coeff| > SUPPORT_EPS max|coeff| counts as a nonzero spectral coefficient.
# The FFT leaves roundoff of order 1e-16 max|coeff| on each coefficient, so
# this separates the exact zeros of a sparse spectrum from noise at every n
# and at every scale of the values.  Coefficients below it are not trusted to
# be negligible: the sparse profile path bounds what dropping them costs.
SUPPORT_EPS = 1e-12

_VALUE_SLACK = 1e-9


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class DomainDesc:
    kind: str
    n: int
    factors: tuple = ()

    def __post_init__(self):
        if self.kind not in (CYCLIC, PRODUCT, INTERVAL):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("domain size must be positive")
        if self.kind in (CYCLIC, PRODUCT) and self.n % 2 == 0:
            raise DomainError(f"group domains must have odd order, got n={self.n}")
        if self.kind == PRODUCT:
            fac = tuple(int(m) for m in self.factors)
            if not fac:
                raise DomainError("product domain needs factors")
            if len(set(fac)) != len(fac):
                raise DomainError(f"product factors must be distinct, got {fac}")
            # the product first: trial division of a large factor is slow
            prod = math.prod(fac)
            if prod != self.n:
                raise DomainError(f"factors {fac} multiply to {prod}, not n={self.n}")
            for m in fac:
                if not is_prime(m):
                    raise DomainError(f"product factor {m} is not prime")
            object.__setattr__(self, "factors", fac)
        elif self.factors:
            raise DomainError("factors are only meaningful for product domains")

    @property
    def is_group(self) -> bool:
        return self.kind in (CYCLIC, PRODUCT)


def cyclic(n: int) -> DomainDesc:
    return DomainDesc(CYCLIC, n)


def product(factors) -> DomainDesc:
    fac = tuple(int(m) for m in factors)
    return DomainDesc(PRODUCT, math.prod(fac), fac)


def interval(n: int) -> DomainDesc:
    return DomainDesc(INTERVAL, n)


@dataclass
class DensityFn:
    """A function domain -> [0,1], stored as one value per element; a float64
    vector already in [0, 1] is stored as given, shared with the caller."""

    domain: DomainDesc
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or len(v) != self.domain.n:
            raise DomainError(
                f"value vector has length {v.shape}, domain has size {self.domain.n}"
            )
        if not np.isfinite(v).all():
            raise DomainError("values must be finite")
        lo, hi = v.min(), v.max()
        if lo < -_VALUE_SLACK or hi > 1 + _VALUE_SLACK:
            raise DomainError(f"values outside [0,1]: min={lo}, max={hi}")
        self.values = v if lo >= 0 and hi <= 1 else np.clip(v, 0.0, 1.0)

    @property
    def n(self) -> int:
        return self.domain.n

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass
class Spectrum:
    """Fourier coefficients of a function on Z_n, indexed by r in Z_n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or len(c) != self.n:
            raise DomainError("coefficient vector length must equal n")
        self.coeffs = c

    @cached_property
    def support(self) -> np.ndarray:
        """Frequencies whose coefficient clears the zero threshold, relative to
        the largest; computed once per spectrum."""
        mag = np.abs(self.coeffs)
        return np.flatnonzero(mag > SUPPORT_EPS * mag.max(initial=0.0))


@dataclass
class APProfile:
    """Per-common-difference 3-AP densities, one entry per admissible d, and
    the backend that computed them with the reason it was chosen (``aps.plan``
    for a kernel table, ``structural`` for a product level), and the spectrum
    that planned a group profile (``aps.ap_profile``)."""

    densities: np.ndarray
    normalization: str
    n: int
    backend: str
    reason: str
    spectrum: Spectrum | None = None

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise DomainError(f"unknown normalization {self.normalization!r}")
        self.densities = np.asarray(self.densities, dtype=np.float64)

    def to_csv(self, path) -> None:
        rows = "".join("%d,%.12g\n" % row for row in enumerate(self.densities.tolist()))
        Path(path).write_text("d,density\n" + rows, encoding="utf-8")


# ---------------------------------------------------------------------------
# function file format


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def fn_to_dict(f: DensityFn, extra: dict | None = None) -> dict:
    dom = {"kind": f.domain.kind, "n": int(f.domain.n)}
    if f.domain.kind == PRODUCT:
        dom["factors"] = [int(m) for m in f.domain.factors]
    out = {"domain": dom, "values": f.values.tolist()}
    if extra:
        out.update(extra)
    return out


def fn_from_dict(obj: dict) -> DensityFn:
    try:
        dom = obj["domain"]
        kind = dom["kind"]
        n = dom["n"]
        factors = dom.get("factors") or []
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"not a function file: missing {exc}") from exc
    if not _is_int(n):
        raise FileFormatError(f"domain size 'n' must be an integer, got {n!r}")
    if not isinstance(factors, list) or not all(_is_int(m) for m in factors):
        raise FileFormatError(f"domain factors must be a list of integers, got {factors!r}")
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise FileFormatError(f"values must be a list of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise FileFormatError(f"values must be a list of numbers, got {arr.dtype} entries")
    # the length before DomainDesc, which tests product factors for primality
    if arr.shape != (n,):
        raise FileFormatError(f"value vector has shape {arr.shape}, domain has size {n}")
    return DensityFn(DomainDesc(kind, n, tuple(factors)), arr)


def set_from_dict(obj: dict) -> DensityFn:
    """Indicator of a set artifact: distinct residues 0..n-1 of Z_n under
    ``n``, or distinct members 1..N of the interval [N] under ``N``; never both."""
    if "n" in obj and "N" in obj:
        raise FileFormatError("set artifact names both 'n' (Z_n) and 'N' ([N]); give one")
    key = "n" if "n" in obj else "N"
    size = obj.get(key)
    if not _is_int(size) or size < 1:
        raise FileFormatError(f"set artifact needs a positive integer 'n' or 'N', got {size!r}")
    elements = obj["elements"]
    if not isinstance(elements, list) or not all(_is_int(v) for v in elements):
        raise FileFormatError("set elements must be a list of integers")
    lo = 0 if key == "n" else 1
    bad = next((v for v in elements if not lo <= v < lo + size), None)
    if bad is not None:
        raise FileFormatError(f"set element {bad} is outside {lo}..{lo + size - 1} ({key}={size})")
    check_size(size, f"set artifact {key}")
    counts = np.bincount(np.asarray(elements, dtype=np.int64) - lo, minlength=size)
    if counts.max() > 1:
        raise FileFormatError(f"set element {int(counts.argmax()) + lo} is repeated")
    return DensityFn(cyclic(size) if key == "n" else interval(size), counts.astype(np.float64))


def save_fn(f: DensityFn, path, extra: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(fn_to_dict(f, extra), sort_keys=True) + "\n", encoding="utf-8"
    )


def load_fn(path) -> DensityFn:
    """The function of a function file, or the indicator of a set artifact."""
    try:  # ValueError: bad JSON or UTF-8; RecursionError: JSON nested too deep
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict) or not {"values", "elements"} & obj.keys():
        raise FileFormatError(f"{path} holds no JSON object with values or elements")
    return fn_from_dict(obj) if "values" in obj else set_from_dict(obj)
