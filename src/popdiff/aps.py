"""3-AP densities with fixed and varying common difference, and the one rule
that reports the worst nonzero difference.

Every density is a normalized S(d) = sum_x v[x] v[x+d] v[x+2d] from
``ap_sums`` (d=0 is always admissible and included in profiles, so that the
mean of a group profile over all d equals the total density):

* group:                S(d) / n, indices taken mod n
* interval-over-N:      S(d) / N, x running over [N-2d]
* interval-over-N-2d:   the same sum divided by N-2d

The over-(N-2d) value always dominates the over-N value (same numerator,
smaller denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    GROUP,
    OVER_N,
    OVER_WINDOW,
    APProfile,
    DensityFn,
    Spectrum,
)
from .errors import DomainError
from .fourier import dft, idft

# the sparse path is worthwhile when the spectral support has at most
# max(_SPARSE_MIN, isqrt(n)) frequencies
_SPARSE_MIN = 8

# the sparse path is taken only when its error bound is at most this times
# max|v|^3, the scale of the densities, well inside the 1e-8 to which profiles
# are checked against direct scans
SPARSE_TOL = 1e-9

# support pairs enumerated per numpy pass, which bounds the working memory
_PAIR_BLOCK = 1 << 18

# an indicator's full table counts support pairs when |supp| <= this fraction
# of n: pairs cost |supp|^2 and windows n^2, breaking even near 0.22-0.28 n
_PAIR_CROSSOVER = 0.2

VERDICT_SLACK = 1e-12  # relative: a verdict passes a value up to target (1 + VERDICT_SLACK)


def within(value, target):
    """value <= target + VERDICT_SLACK |target|, elementwise on arrays: the
    comparison behind every verdict and check, at the target's own scale, and
    the one reader of the slack."""
    return value <= target + VERDICT_SLACK * abs(target)


def close(value, target) -> bool:
    """``within`` in both directions: value equals target up to the slack."""
    return bool(within(value, target) and within(target, value))


# ---------------------------------------------------------------------------
# the 3-AP correlation kernel, its backends and the one rule that picks one

EXPLICIT = "explicit differences"


def plan(values, diffs=None, cyclic: bool = True, spectrum: Spectrum | None = None) -> tuple:
    """(backend, reason): how the 3-AP table of ``values`` is computed, and
    why; the only place a backend is chosen, and a pure function.

    * ``perdiff``, EXPLICIT: ``diffs`` that leave some d out, one window pass
      per requested d, decided without a pass over the values;
    * ``sparse``, "sparse spectrum": a cyclic full table whose ``spectrum`` has
      at most max(8, isqrt(n)) frequencies and a ``sparse_error_bound`` at
      most SPARSE_TOL max|v|^3;
    * ``pairs``, "sparse indicator": {0,1} values on at most 0.2 n points;
    * ``windows`` otherwise: "dense indicator", or, for other values, "wide
      spectrum", "sparse bound above tolerance" or "no spectrum" (none given).

    ``diffs`` (in range; cyclic ones are read mod n) that cover every
    admissible d ask for the full table, found by one ``bincount`` of them.
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    size = n if cyclic else (n - 1) // 2 + 1
    if diffs is not None:
        ds = np.asarray(diffs, dtype=np.int64)
        if ds.size < size or not np.bincount(ds % n if cyclic else ds, minlength=size)[:size].all():
            return "perdiff", EXPLICIT
    why_not_sparse = "no spectrum"
    if cyclic and spectrum is not None:
        limit = max(_SPARSE_MIN, math.isqrt(n))
        if spectrum.support.size > limit:
            why_not_sparse = "wide spectrum"
        elif sparse_error_bound(v, spectrum) > SPARSE_TOL * float(np.abs(v).max(initial=0.0)) ** 3:
            why_not_sparse = "sparse bound above tolerance"
        else:
            return "sparse", "sparse spectrum"
    if np.all((v == 0) | (v == 1)):
        if np.count_nonzero(v) <= _PAIR_CROSSOVER * n:
            return "pairs", "sparse indicator"
        return "windows", "dense indicator"
    return "windows", why_not_sparse


def ap_sums(values, diffs=None, cyclic: bool = True) -> np.ndarray:
    """S(d) = sum_x v[x] v[x+d] v[x+2d] for each requested d.

    ``cyclic`` reads v on Z_n (d mod n, default every d); otherwise v lives on
    [N], x runs over [N-2d] and d lies in 0..(N-1)//2 (the default).  The
    table of ``planned_sums``, without its label.
    """
    return planned_sums(values, diffs, cyclic)[0]


def planned_sums(values, diffs=None, cyclic: bool = True) -> tuple:
    """(``ap_sums``' table, (backend, reason)): the table by the backend that
    ``plan`` picks, labelled with it.

    ``perdiff`` takes one window pass per requested d, so each value does not
    depend on the other d's; a full table takes exact counts over support
    pairs for a sparse {0,1} vector, equal to the window sums bit for bit, and
    otherwise windows, a cyclic one mirroring d <= n/2 as S(n-d) = S(d)
    (substitute x -> x+2d).
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    ds = None
    if diffs is not None:
        ds = np.asarray(diffs, dtype=np.int64)
        if cyclic:
            ds = ds % n
        elif ds.size and (ds.min() < 0 or ds.max() > (n - 1) // 2):
            raise DomainError(f"difference out of range 0..{(n - 1) // 2} for interval of length {n}")
    label = plan(v, ds, cyclic)
    if label[0] == "perdiff":
        return _window_sums(v, ds, cyclic), label
    table = _full_table(v, cyclic, label[0])
    return (table if ds is None else table[ds]), label


def _full_table(v: np.ndarray, cyclic: bool, backend: str) -> np.ndarray:
    """S at every admissible d by the ``pairs`` or ``windows`` backend."""
    if backend == "pairs":
        return _pair_sums(v, cyclic)
    n = len(v)
    out = _window_sums(v, np.arange((n // 2 if cyclic else (n - 1) // 2) + 1), cyclic)
    return np.concatenate([out, out[1 : (n + 1) // 2][::-1]]) if cyclic else out


def _window_sums(v: np.ndarray, ds: np.ndarray, cyclic: bool) -> np.ndarray:
    """S(d) for each d of ``ds`` (in range), one window pass each."""
    n = len(v)
    t = np.concatenate([v, v, v]) if cyclic else v
    out = np.empty(len(ds))
    for i, d in enumerate(ds.tolist()):
        w = n if cyclic else n - 2 * d
        out[i] = np.einsum("i,i,i->", t[:w], t[d : d + w], t[2 * d : 2 * d + w])
    return out


def _pair_sums(v: np.ndarray, cyclic: bool) -> np.ndarray:
    """Full S table of a {0,1} vector by counting support pairs (x, y = x+d)
    whose continuation 2y - x is in the support; exact integer counts.

    On an interval a pair counts only when x <= y and 2y - x < n, so a block
    of rows x <= x_max takes only the columns x_min <= y <= (n - 1 + x_max)/2.
    """
    n = len(v)
    member = v == 1
    a = np.flatnonzero(v)
    size = n if cyclic else (n - 1) // 2 + 1
    counts = np.zeros(size, dtype=np.int64)
    step = max(1, _PAIR_BLOCK // max(a.size, 1))
    for lo in range(0, a.size, step):
        x = a[lo : lo + step]
        if cyclic:
            y = a
        else:
            y = a[lo : np.searchsorted(a, (n - 1 + int(x[-1])) // 2, side="right")]
        d = y[None, :] - x[:, None]
        z = y[None, :] + d  # 2y - x
        if cyclic:
            d, z = d % n, z % n
        else:
            keep = (d >= 0) & (z < n)
            d, z = d[keep], z[keep]
        counts += np.bincount(d[member[z]], minlength=size)
    return counts.astype(np.float64)


def per_diff_density(f: DensityFn, d: int, normalization: str | None = None) -> float:
    """Density of 3-APs with common difference d, in the requested normalization."""
    n = f.n
    if f.domain.is_group:
        if normalization not in (None, GROUP):
            raise DomainError("group domains use the group normalization")
        return float(ap_sums(f.values, [d])[0]) / n
    if normalization is None or normalization == GROUP:
        raise DomainError("interval densities need an interval normalization")
    s = float(ap_sums(f.values, [d], cyclic=False)[0])
    if normalization == OVER_N:
        return s / n
    if normalization == OVER_WINDOW:
        return s / (n - 2 * d)
    raise DomainError(f"unknown normalization {normalization!r}")


# ---------------------------------------------------------------------------
# total density


def total_3ap_density(f: DensityFn, method: str = "spectral") -> float:
    """E_{x,d}[f(x)f(x+d)f(x+2d)] over a group, d=0 included.

    ``spectral`` evaluates sum_r fhat(r)^2 fhat(-2r); ``direct`` sums the
    per-difference table and is kept as the independent check.
    """
    if not f.domain.is_group:
        raise DomainError("total 3-AP density is a group quantity")
    n = f.n
    if method == "direct":
        return float(ap_sums(f.values).sum()) / n**2
    if method != "spectral":
        raise DomainError(f"unknown method {method!r}")
    c = dft(f).coeffs
    val = np.sum(c * c * c[(-2 * np.arange(n)) % n])
    return float(val.real)


# ---------------------------------------------------------------------------
# full profiles


def triple_amplitudes(v0, r0, v1, r1, third, m: int) -> np.ndarray:
    """Frequency bins of the 3-AP terms of three coefficient sources on Z_m.

    Term i closes (v0[i] at frequency r0[i], v1[i] at r1[i]) with third(r2)[i],
    the third source's coefficient at r2 = -(r0 + r1) mod m; each caller
    passes its own lookup (a truncated spectrum, or the fiber tables of a
    product level).  If F_j(x) = sum_r
    c_j(r) e(-x r / m), then E_x F0(x) F1(x+e) F2(x+2e) is the sum over
    r0 + r1 + r2 = 0 of c0(r0) c1(r1) c2(r2) e(-(r1 + 2 r2) e / m), so each
    product goes to bin k = (r1 + 2 r2) mod m and ``idft`` of the bins
    evaluates the sum at every e.  Vanishing products are dropped; the rest
    add into each bin in the C order of the inputs, fixing the bits.
    """
    r2 = (-(r0 + r1)) % m
    terms = v0 * v1 * third(r2)
    keep = terms != 0
    k, t = ((r1 + 2 * r2) % m)[keep], terms[keep]
    return np.bincount(k, t.real, m) + 1j * np.bincount(k, t.imag, m)


def perdiff_table_sparse(spectrum: Spectrum) -> np.ndarray:
    """Group per-difference densities from a sparse spectrum S: the
    ``triple_amplitudes`` of support pairs (r0, r1), closed by the spectrum
    truncated to S, and one FFT.  Cost O(|S|^2 + n log n).
    """
    n = spectrum.n
    c = spectrum.coeffs
    supp = spectrum.support
    third = np.where(np.isin(np.arange(n), supp), c, 0)  # c on S
    amp = np.zeros(n, dtype=np.complex128)
    step = max(1, _PAIR_BLOCK // max(supp.size, 1))
    for lo in range(0, supp.size, step):
        block = supp[lo : lo + step]
        r0, r1 = np.repeat(block, supp.size), np.tile(supp, block.size)
        amp += triple_amplitudes(c[r0], r0, c[r1], r1, third.take, n)
    return idft(amp).real


def sparse_error_bound(values: np.ndarray, spectrum: Spectrum) -> float:
    """Bound on |sparse profile - exact profile| at every d, from the spectrum.

    Let g be f truncated to the support S and e = f - g.  Then
    Lambda_d(f) - Lambda_d(g) = Lambda_d(e,f,f) + Lambda_d(g,e,f) + Lambda_d(g,g,e),
    and each term is at most ||e||_2 M^2 by Cauchy-Schwarz, where
    M = max(||f||_inf, sum_{r in S} |c(r)|) bounds both sup norms.  Parseval
    gives ||e||_2^2 = sum_{r not in S} |c(r)|^2.  Cost O(n).
    """
    mag = np.abs(spectrum.coeffs)
    kept = np.zeros(len(mag), dtype=bool)
    kept[spectrum.support] = True
    dropped = float(np.sqrt(np.sum(mag[~kept] ** 2)))
    m = max(float(np.abs(values).max()), float(mag[kept].sum()))
    return 3.0 * dropped * m * m


def ap_profile(f: DensityFn, normalization: str | None = None, path: str = "auto") -> APProfile:
    """Per-difference densities over every admissible d, computed by the
    backend that ``plan`` picks and labelled with it.

    A group profile hands ``plan`` its spectrum, so it may take the sparse
    path; ``path`` forces ``sparse`` or ``dense`` (windows) instead, with the
    reason "forced" (the tests compare the two).  Interval profiles cover
    0 <= d < N/2 in the requested normalization.
    """
    n = f.n
    v = f.values
    if f.domain.is_group:
        spec = dft(f)
        if path == "auto":
            backend, reason = plan(v, spectrum=spec)
        elif path in ("sparse", "dense"):
            backend, reason = ("sparse" if path == "sparse" else "windows"), "forced"
        else:
            raise DomainError(f"unknown profile path {path!r}")
        dens = perdiff_table_sparse(spec) if backend == "sparse" else _full_table(v, True, backend) / n
        return APProfile(dens, GROUP, n, backend, reason)
    if normalization not in (OVER_N, OVER_WINDOW):
        raise DomainError("interval profiles need an interval normalization")
    w = n if normalization == OVER_N else n - 2 * np.arange((n - 1) // 2 + 1)
    backend, reason = plan(v, cyclic=False)
    return APProfile(_full_table(v, False, backend) / w, normalization, n, backend, reason)


@dataclass(frozen=True)
class Verdict:
    """The one verdict record: ``argmax_d`` attains ``max_offdiag`` over nonzero
    d (both None when there is none), and passed is ``within(max_offdiag, target)``."""

    argmax_d: int | None
    max_offdiag: float | None
    target: float
    passed: bool


def worst_difference(prof: APProfile, target: float = np.inf) -> Verdict:
    """The ``Verdict`` of the worst nonzero difference of a profile.

    A group takes max(t[d], t[n-d]) over 1 <= d <= (n-1)/2 (d and -d are one
    difference) and an interval 1 <= d <= (N-1)/2; d is the smallest maximiser,
    and with no nonzero d the verdict passes."""
    t = prof.densities[1:]
    if prof.normalization == GROUP:
        t = np.maximum(t[: prof.n // 2], t[::-1][: prof.n // 2])  # t[d-1] vs t[n-d-1]
    if t.size == 0:
        return Verdict(None, None, target, True)
    k = int(t.argmax())
    worst = float(t[k])
    return Verdict(k + 1, worst, target, bool(within(worst, target)))
