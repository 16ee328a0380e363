"""Slow, independent reference computations that tests compare the package
against; nothing in src/ calls them."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from popdiff import aps
from popdiff.bohr import BohrSet, _from_dist, dilate
from popdiff.domains import OVER_WINDOW, DensityFn, Spectrum, interval, is_prime
from popdiff.errors import DomainError, InfeasibleError, RegularityError, RetriesExhausted
from popdiff.fourier import dft_values, idft
from popdiff.modelfn import build_model_fn, model_support
from popdiff.interval import IntervalParams, SampleCert
from popdiff.product import (
    _ALPHA_PRIME_TOL,
    MIN_MODEL_PRIME,
    STRICT_EPS_MAX,
    FeasibilityReport,
    LevelState,
)


def smooth_tuple_ok(supp, a, n: int) -> tuple:
    """(ok, witness) for a dilation tuple against a frequency support.

    A tuple (a_1..a_h) of nonzero dilations is smooth when no nonzero
    (r_1..r_h) in supp^h satisfies sum r_j a_j = 0 (mod n).  Enumerates
    supp^h (fine for |supp| <= 5, h <= 3); the witness is the first such
    relation, or None when the tuple is smooth.
    """
    a = tuple(int(v) % n for v in a)
    if any(v == 0 for v in a):
        raise DomainError("dilation coefficients must be nonzero")
    supp = tuple(int(r) % n for r in supp)
    for rvec in itertools.product(supp, repeat=len(a)):
        if any(rvec) and sum(r * av for r, av in zip(rvec, a)) % n == 0:
            return False, rvec
    return True, None


def lambda_weighted_spectral(fvals: np.ndarray, phi: np.ndarray) -> float:
    """Spectral evaluation of E_{x,d}[f(x) f(x+d) f(x+2d) phi(d)]:
    sum over r1+r2+r3=0 of fhat(r1) fhat(r2) fhat(r3) phihat(-r2-2r3)."""
    n = len(fvals)
    fh = dft_values(fvals)
    ph = dft_values(phi)
    r2 = np.arange(n, dtype=np.int64)
    total = 0j
    for r3 in range(n):
        r1 = (-(r2 + r3)) % n
        total += np.sum(fh[r1] * fh[r2] * fh[r3] * ph[(-(r2 + 2 * r3)) % n])
    return float(total.real)


def pairwise_apfree(elements) -> bool:
    """Pairwise midpoint check: no a < c in the set with (a+c)/2 also in it.
    A repeated value a fails it, since the pair (a, a) has midpoint a.
    O(|A|^2); the reference for apfree.is_apfree."""
    arr = sorted(int(v) for v in elements)
    eset = set(arr)
    for i, a in enumerate(arr):
        for c in arr[i + 1 :]:
            if (a + c) % 2 == 0 and (a + c) // 2 in eset:
                return False
    return True


def greedy_apfree(n: int) -> np.ndarray:
    """Greedy sieve over 1..n: keep z unless it completes a 3-AP x < y < z
    with x and y already kept.  O(n^2); the reference for apfree.apfree_set
    above its exact cap."""
    member = np.zeros(n + 1, dtype=bool)
    for z in range(1, n + 1):
        ys = np.flatnonzero(member[:z])
        if ys.size:
            xs = 2 * ys - z
            xs = xs[xs >= 1]
            if xs.size and member[xs].any():
                continue
        member[z] = True
    return np.flatnonzero(member)


@functools.lru_cache(maxsize=None)
def reference_max_apfree(n: int) -> tuple[int, tuple]:
    """Exact r(n), the largest 3-AP-free subset size of [n], with a witness; n <= 40.
    The reference for apfree.brute_max_apfree: its earlier search, which
    rebuilds every r(k), k < n, with its witness.

    Built bottom-up: r(k) for every k < n comes from this cached function.
    Since r(n-1) <= r(n) <= r(n-1) + 1, the search looks for a set of size
    r(n-1) + 1 and, failing that, of size r(n-1).  It is a depth-first
    search over z = 1..n in increasing order; a bitmask holds every 2y - x
    over chosen x < y (the points that would complete a 3-AP), and a branch
    whose next candidate is z is cut when len(chosen) + r(n - z + 1) falls
    short, because an AP-free subset of [z..n] is a translate of one of
    [1..n-z+1].  The witness is the first set found, so it is the
    lexicographically smallest maximum AP-free subset of [n].
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n > 40:
        raise DomainError("exhaustive search capped at n <= 40")
    r = [0] + [reference_max_apfree(k)[0] for k in range(1, n)]
    r.append(r[-1] + 1)  # r(n) <= r(n-1) + 1 bounds the branch at z = 1
    chosen: list = []

    def rec(start: int, forb: int, m: int) -> bool:
        if len(chosen) == m:
            return True
        for z in range(start, n + 1):
            if len(chosen) + r[n - z + 1] < m:
                return False  # r is nondecreasing, so later z cannot do better
            if forb >> z & 1:
                continue
            grown = forb
            for x in chosen:
                grown |= 1 << (2 * z - x)
            chosen.append(z)
            if rec(z + 1, grown, m):
                return True
            chosen.pop()
        return False

    # a failed search leaves chosen empty; the witness for [n-1] has size r(n-1)
    if not rec(1, 0, r[n - 1] + 1):
        rec(1, 0, r[n - 1])
    return len(chosen), tuple(chosen)


def reference_pair_sums(v: np.ndarray, cyclic: bool) -> np.ndarray:
    """Full S table of a {0,1} vector by counting support pairs (x, y = x+d)
    whose continuation 2y - x is in the support; exact integer counts.
    The reference for aps._pair_sums: its earlier form, which gives every row
    block on an interval all columns y >= x."""
    n = len(v)
    a = np.flatnonzero(v)
    size = n if cyclic else (n - 1) // 2 + 1
    counts = np.zeros(size, dtype=np.int64)
    step = max(1, (1 << 18) // max(a.size, 1))
    for lo in range(0, a.size, step):
        y = a if cyclic else a[lo:]  # on an interval only y >= x counts
        d = y[None, :] - a[lo : lo + step, None]
        z = y[None, :] + d  # 2y - x
        if cyclic:
            d, z = d % n, z % n
        else:
            keep = (d >= 0) & (z < n)
            d, z = d[keep], z[keep]
        counts += np.bincount(d[v[z] == 1], minlength=size)
    return counts.astype(np.float64)


def _annulus(b: BohrSet, delta: Fraction, closed: bool = False) -> int:
    """|{x : (1-delta)R < D[x] <= (1+delta)R}|, or with the lower end closed."""
    lower = (1 - delta) * b.radius
    inside = b.dist <= math.floor((1 + delta) * b.radius)
    above = b.dist >= math.ceil(lower) if closed else b.dist > math.floor(lower)
    return int(np.count_nonzero(inside & above))


def reference_is_regular(b: BohrSet) -> bool:
    """|(B)_{1+delta} \\ (B)_{1-delta}| <= 160 delta d |B| for all delta in
    (0, 1/(80d)], in Fractions, one distinct distance at a time.

    The reference for bohr.is_regular.  Each distance D gives the entry
    delta = D/R - 1, checked at itself, or the exit delta = 1 - D/R, checked
    as the limit from the right, where the annulus is closed below (it still
    holds D) and the right side is its value at the exit.
    """
    d = b.codim
    if d < 1:
        raise DomainError("regularity needs codimension >= 1")
    r = b.radius
    if r == 0:
        return True  # every annulus is empty
    delta_max = Fraction(1, 80 * d)
    checks = [(delta_max, False)]
    for dist in np.unique(b.dist).tolist():
        if 0 < dist / r - 1 <= delta_max:
            checks.append((dist / r - 1, False))
        if 0 <= 1 - dist / r < delta_max:
            checks.append((1 - dist / r, True))
    return all(_annulus(b, delta, closed) <= 160 * delta * d * b.size for delta, closed in checks)


def brute_is_regular(b: BohrSet) -> bool:
    """The regularity inequality by its definition: the annulus is constant
    between consecutive breakpoints |D/R - 1| (for every element), so it is
    counted at every breakpoint in (0, 1/(80d)] and at the middle of every
    gap, against the right side at the gap's left end, its infimum there."""
    d = b.codim
    r = b.radius
    if r == 0:
        return True
    delta_max = Fraction(1, 80 * d)
    breaks = sorted({abs(dist / r - 1) for dist in b.dist.tolist()} | {0, delta_max})
    breaks = breaks[: breaks.index(delta_max) + 1]

    def holds(at: Fraction, rhs_delta: Fraction) -> bool:
        inside = sum(1 for dist in b.dist.tolist() if (1 - at) * r < dist <= (1 + at) * r)
        return inside <= 160 * rhs_delta * d * b.size

    return all(holds(delta, delta) for delta in breaks[1:]) and all(
        holds((lo + hi) / 2, lo) for lo, hi in zip(breaks, breaks[1:])
    )


def reference_find_regular_scale(b: BohrSet) -> tuple[float, BohrSet]:
    """A nu in [1/2, 1] with (B)_nu regular: the largest regular candidate
    among the window ends, every distance realized in [R/2, R] and the
    midpoints between consecutive ones.  Radius 0, or no frequency
    (B(emptyset, rho) = Z_n), is regular at every scale: nu = 1.

    The reference for bohr.find_regular_scale, which skips the realized
    distances: this one materializes every candidate Bohr set and checks it
    with reference_is_regular.
    """
    r = b.radius
    if r == 0 or not b.freqs:
        return 1.0, dilate(b, 1.0)
    points = {r / 2, r} | {Fraction(x) for x in np.unique(b.dist).tolist() if r / 2 <= x <= r}
    ordered = sorted(points)
    cand = points | {(lo + hi) / 2 for lo, hi in zip(ordered, ordered[1:])}
    for radius in sorted(cand, reverse=True):
        scaled = _from_dist(b.n, b.freqs, radius, b.dist)
        if reference_is_regular(scaled):
            return float(radius / r), scaled
    raise RegularityError(
        f"no regular scale in [0.5, 1] for B(S={b.freqs}, rho={b.rho}) on Z_{b.n}"
    )


def reference_perdiff_table_sparse(spectrum: Spectrum) -> np.ndarray:
    """Group per-difference densities from a sparse spectrum.

    With support S, density(d) = Re sum over (r1,r2,r3) in S^3, r1+r2+r3=0, of
    c(r1)c(r2)c(r3) e(-(r2+2r3) d/n): the amplitudes are gathered per
    frequency k = r2+2r3 over support pairs (r1, r2), and one FFT evaluates
    the sum at every d.  Cost O(|S|^2 + n log n).
    The reference for aps.perdiff_table_sparse: its earlier form, which
    gathers and bins its own triples; the pair block is read from aps.
    """
    n = spectrum.n
    c = spectrum.coeffs
    supp = spectrum.support
    member = np.zeros(n, dtype=bool)
    member[supp] = True
    amp = np.zeros(n, dtype=np.complex128)
    step = max(1, aps._PAIR_BLOCK // max(supp.size, 1))
    for lo in range(0, supp.size, step):
        block = supp[lo : lo + step]
        r1 = np.repeat(block, supp.size)
        r2 = np.tile(supp, block.size)
        r3 = (-(r1 + r2)) % n
        hit = member[r3]
        r1, r2, r3 = r1[hit], r2[hit], r3[hit]
        w = c[r1] * c[r2] * c[r3]
        k = (r2 + 2 * r3) % n
        amp += np.bincount(k, w.real, n) + 1j * np.bincount(k, w.imag, n)
    return idft(amp).real


def reference_assemble_density_table(prev, state, model_coeffs) -> np.ndarray:
    """Exact per-difference densities of Q_i (see module docstring), as an
    (n_{i-1}, m_i) array whose entry (d', e) is the density at the d with
    d' = d mod n_{i-1} and e = d mod m_i.  ``prev`` is level i-1 and
    ``model_coeffs`` the spectrum of the model profile on Z_{m_i}.

    Expand each fiber as F_w(y) = sum_r c[w, r] e(-r y / m_i).  Then
    table[d] = base[d'] + (1/n_{i-1}) Re sum_w sum c[w, r0] c[w+d', r1]
    c[w+2d', r2] e(-(r1 + 2 r2) e / m_i) over r0 + r1 + r2 = 0, (r0, r1) != 0,
    with base the level-(i-1) table.  The amplitudes of each d' are binned
    by k = r1 + 2 r2, and one FFT of the bins evaluates every lift e.
    The table step of reference_random_modify_level: the earlier form of
    product._assemble_density_table, which gathers and bins its own triples
    over all (j0, j1).
    """
    n_prev = prev.n
    m = state.factors[-1]
    supp = np.array(model_support(m), dtype=np.int64)
    ghat = model_coeffs[supp]

    # fiber w has coefficient val[w, j] at frequency freq[w, j]: an unmodified
    # fiber is the constant prev.values[w], a modified one g(a_w y + b_w)
    mod = np.flatnonzero(state.modified)
    freq = np.zeros((n_prev, supp.size), dtype=np.int64)
    val = np.zeros((n_prev, supp.size), dtype=np.complex128)
    val[:, 0] = prev.values
    freq[mod] = (state.coset_a[mod, None] * supp) % m
    val[mod] = ghat * np.exp((-2j * np.pi / m) * ((state.coset_b[mod, None] * supp) % m))
    coef = np.zeros((n_prev, m), dtype=np.complex128)
    coef[:, 0] = prev.values
    coef[mod[:, None], freq[mod]] = val[mod]

    # a base difference with no nonzero term keeps the level-(i-1) density exactly
    rows = np.repeat(prev.density_table[:, None], m, axis=1)
    w = np.arange(n_prev)
    for dprime in range(n_prev):
        w1, w2 = (w + dprime) % n_prev, (w + 2 * dprime) % n_prev
        r0, r1 = freq[:, :, None], freq[w1, None, :]
        r2 = (-(r0 + r1)) % m
        terms = val[:, :, None] * val[w1, None, :] * coef[w2[:, None, None], r2]
        keep = ((r0 != 0) | (r1 != 0)) & (terms != 0)
        if keep.any():
            k, t = ((r1 + 2 * r2) % m)[keep], terms[keep]
            amp = np.bincount(k, t.real, m) + 1j * np.bincount(k, t.imag, m)
            rows[dprime] += idft(amp).real / n_prev
    return rows


def reference_random_modify_level(
    state: LevelState,
    m_next: int,
    rng: np.random.Generator,
    mu_next: float,
    clamp: bool = True,
) -> LevelState:
    """Extend f_{i-1} to Q_i, overwriting fibers over floor(mu*n_{i-1})
    alpha'-points with randomly reparametrized model profiles.

    The coset set is the lexicographically first block of alpha'-points (in
    the canonical element order), so only (a_w, b_w) carry randomness.  With
    ``clamp`` (desk behaviour) the coset count is capped by the number of
    available alpha'-points; strict callers pass clamp=False and get an error
    instead.
    The reference for product.random_modify_level: its earlier form, which
    builds length-n index arrays and a dense (n_{i-1}, m_i) table.
    """
    if not is_prime(m_next) or m_next % 2 == 0:
        raise DomainError(f"m={m_next} must be an odd prime")
    if m_next in state.factors:
        raise DomainError(f"factor {m_next} repeats")
    n_prev = state.n
    ap = state.alpha_prime
    avail = np.flatnonzero(np.abs(state.values - ap) <= _ALPHA_PRIME_TOL)
    want = int(mu_next * n_prev)
    if want > len(avail):
        if not clamp:
            raise InfeasibleError(
                f"need {want} alpha'-points for mu={mu_next:.4g}, only {len(avail)} exist"
            )
        want = len(avail)
    chosen = avail[:want]

    g = build_model_fn(ap, m_next)
    n_new = n_prev * m_next
    x = np.arange(n_new, dtype=np.int64)
    w_of = x % n_prev
    y_of = x % m_next

    values = state.values[w_of].copy()
    coset_a = np.zeros(n_prev, dtype=np.int64)
    coset_b = np.zeros(n_prev, dtype=np.int64)
    modified = np.zeros(n_prev, dtype=bool)
    if want:
        coset_a[chosen] = rng.integers(1, m_next, size=want)
        coset_b[chosen] = rng.integers(0, m_next, size=want)
        modified[chosen] = True
        mask = modified[w_of]
        values[mask] = g.values[(coset_a[w_of[mask]] * y_of[mask] + coset_b[w_of[mask]]) % m_next]

    new = LevelState(
        factors=state.factors + (m_next,),
        values=values,
        alpha=state.alpha,
        alpha_prime=ap,
        density_table=np.empty(0),  # filled below
        modified=modified,
        coset_a=coset_a,
        coset_b=coset_b,
        mu_effective=want / n_prev,
    )
    new.density_table = reference_assemble_density_table(state, new, g.spectrum.coeffs)[w_of, y_of]
    return new


def reference_step1_step2_tile(params: IntervalParams, g: DensityFn) -> DensityFn:
    """Tile g over [N'] by residue mod q and zero the tail (N', N].

    The reference for interval.step1_step2_tile: its earlier form, which
    builds the length-N index x, x mod q and a gather.
    """
    if g.n != params.q:
        raise DomainError(f"profile lives on Z_{g.n}, expected Z_{params.q}")
    n, np_, q = params.n_total, params.n_prime, params.q
    x = np.arange(1, n + 1, dtype=np.int64)
    values = np.where(x <= np_, g.values[x % q], 0.0)
    f2 = DensityFn(interval(n), values)
    want = params.alpha
    got = f2.mean()
    # N' = p*q exactly, so the tiled mean is alpha' * N'/N = alpha exactly
    if abs(got - want) > 1e-9:
        raise DomainError(f"tiled mean {got} != alpha {want} beyond rounding")
    return f2


def reference_step3_overlay(
    f2: DensityFn,
    params: IntervalParams,
    t_classes: np.ndarray,
    xi: DensityFn,
    rng: np.random.Generator,
) -> DensityFn:
    """Draw a_t then b_t for the classes t in T and replace f2 on each class
    P_t by xi(a_t phi_t(x) + b_t), in a new vector.

    phi_t enumerates P_t = {x <= N' : x = t mod q} in increasing order with
    phi_t(x_i) = i mod p, so each class mean is exactly E[xi] = alpha*.
    The reference for interval.step3_overlay: its earlier form, which keeps
    per-residue map arrays, copies f2 and builds each class as an explicit
    index list.
    """
    n, np_, q, p = params.n_total, params.n_prime, params.q, params.p
    if xi.n != p:
        raise DomainError(f"overlay profile lives on Z_{xi.n}, expected Z_{p}")
    a = np.zeros(q, dtype=np.int64)
    b = np.zeros(q, dtype=np.int64)
    a[t_classes] = rng.integers(1, p, size=len(t_classes))
    b[t_classes] = rng.integers(0, p, size=len(t_classes))
    values = f2.values.copy()
    for t in t_classes:
        t = int(t)
        first = t if t >= 1 else q  # smallest x >= 1 with x = t (mod q)
        xs = np.arange(first, np_ + 1, q, dtype=np.int64)
        idx = np.arange(1, len(xs) + 1, dtype=np.int64) % p
        values[xs - 1] = xi.values[(a[t] * idx + b[t]) % p]
    return DensityFn(interval(n), values)


def reference_sample_set(
    f: DensityFn,
    epsilon: float,
    rng: np.random.Generator,
    max_attempts: int = 10,
    alpha: float | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, SampleCert]:
    """Truncate the top epsilon-fraction of [N] to zero, sample each x into A
    independently with probability f'(x), and check |A| >= alpha N together
    with every per-difference density against alpha^3 - epsilon.

    The reference for interval.sample_set: its earlier form, which builds
    the length-N index x and a float indicator per attempt.
    """
    if f.domain.kind != "interval":
        raise DomainError("sampling needs an interval function")
    n = f.n
    if alpha is None:
        alpha = f.mean() - 2 * epsilon
    target = alpha**3 - epsilon
    cutoff = n * (1 - epsilon)
    x = np.arange(1, n + 1, dtype=np.int64)
    fprime = np.where(x >= cutoff, 0.0, f.values)
    last = None
    for attempt in range(1, max_attempts + 1):
        draws = rng.random(n)
        members = x[draws < fprime]
        indicator = np.zeros(n)
        indicator[members - 1] = 1.0
        size_ok = len(members) >= alpha * n
        prof = aps.ap_profile(DensityFn(interval(n), indicator), OVER_WINDOW)
        v = aps.worst_difference(prof, target)
        worst_d, worst, ok = v.argmax_d, v.max_offdiag, v.passed
        cert = SampleCert(
            seed=seed,
            attempts=attempt,
            size=len(members),
            size_required=alpha * n,
            worst_d=worst_d,
            worst_density=worst,
            target=target,
            passed=bool(size_ok and ok),
        )
        last = (members, cert)
        if cert.passed:
            return members, cert
    raise RetriesExhausted(
        f"sampling failed {max_attempts} attempts; last: |A|={last[1].size} "
        f"(need {last[1].size_required:.1f}), worst density {last[1].worst_density} "
        f"at d={last[1].worst_d} vs target {target:.6g}",
        log={"cert": last[1]},
    )


# the hand-written certificate serializers that the dataclass-derived
# to_dict methods replaced, verbatim but for taking the record as an argument


def reference_construction_cert_to_dict(self) -> dict:
    return {
        "seed": int(self.seed),
        "mode": self.mode,
        "alpha": self.alpha,
        "epsilon": self.epsilon,
        "factors": [int(m) for m in self.factors],
        "retries": self.retries,
        "max_offdiag_density": self.max_offdiag_density,
        "argmax_d": int(self.argmax_d),
        "mean_cube": self.mean_cube,
        "alpha_star": self.alpha_star,
        "fraction_at_alpha_star": self.fraction_at_alpha_star,
        "mu_requested": list(self.mu_requested),
        "mu_effective": list(self.mu_effective),
        "conclusions": self.conclusions,
        "passed": self.passed,
    }


def reference_interval_cert_to_dict(self) -> dict:
    return {
        "seed": int(self.seed),
        "mode": self.mode,
        "N": int(self.n_total),
        "N_prime": int(self.n_prime),
        "q": int(self.q),
        "p": int(self.p),
        "alpha": self.alpha,
        "epsilon": self.epsilon,
        "alpha_star": self.alpha_star,
        "overlay_retries": self.overlay_retries,
        "product_retries": self.product_retries,
        "worst_d": int(self.worst_d),
        "worst_density": float(self.worst_density),
        "passed": bool(self.passed),
        "notes": self.notes,
    }


def reference_sample_cert_to_dict(self) -> dict:
    return {
        "seed": int(self.seed),
        "attempts": self.attempts,
        "size": self.size,
        "size_required": self.size_required,
        "worst_d": self.worst_d,
        "worst_density": self.worst_density,
        "target": self.target,
        "passed": bool(self.passed),
    }


def reference_modulus_candidates(eps_prod, q_lo, q_hi, factors):
    """Moduli q (with factorizations) admissible for the product side."""
    if factors is not None:
        fac = tuple(int(m) for m in factors)
        return [(math.prod(fac), fac)]
    # single-factor moduli: the base profile needs (3q-1)/(q-1)^3 >= eps_prod
    out = []
    q = max(5, int(q_lo) | 1)
    while q <= q_hi:
        if is_prime(q) and (3 * q - 1) / (q - 1) ** 3 >= eps_prod:
            out.append((q, (q,)))
        q += 2
    return out


def reference_feasibility(params) -> FeasibilityReport:
    """``product.feasibility`` with its windows in floats, as it was before
    they were decided exactly and in logarithms.  Raises ValueError where
    eps^-1/4 alpha^6 / 8 underflows to 0 in the level count."""
    rep = FeasibilityReport(params.mode)
    fac = params.factors
    a, eps = params.alpha, params.epsilon
    s = len(fac)

    distinct = len(set(fac)) == len(fac)
    all_prime = all(is_prime(m) and m % 2 == 1 for m in fac)
    rep.add("factors-odd-distinct-primes", distinct and all_prime, f"factors={fac}", waivable=False)
    if not (distinct and all_prime):
        return rep

    ap = params.alpha_prime
    rep.add("boost-in-range", ap <= 1 + 1e-12, f"alpha'={ap:.6g}", waivable=False)
    if s >= 2:
        rep.add("model-mean-in-range", ap <= 0.5, f"alpha'={ap!r}", waivable=False)
        rep.add("model-prime", min(fac[1:]) >= MIN_MODEL_PRIME, f"{fac[1:]}", waivable=False)

    rep.add("alpha-window", 0 < a <= 0.25, f"alpha={a}")
    rep.add("epsilon-window", 0 < eps <= STRICT_EPS_MAX, f"eps={eps}")
    lo, hi = eps ** (-1 / 3) / 2, eps ** (-1 / 3)
    # the window ends are float powers; tolerate one part in 1e12 at the edges
    rep.add("m1-window", lo < fac[0] <= hi * (1 + 1e-12), f"m1={fac[0]}")

    n_prev = fac[0]
    for i in range(2, s + 1):
        m = fac[i - 1]
        rep.add(f"m{i}-growth-lower", m > n_prev**6, f"m{i}={m}")
        exponent = 0.5 * 64.0**-2 * 150.0 ** (i - 1) * eps**0.25 * n_prev
        try:
            upper = math.exp(exponent) / 2
        except OverflowError:
            upper = math.inf
        rep.add(f"m{i}-growth-upper", m < upper, f"m{i}={m}")
        n_prev *= m

    s_max = math.log(eps**-0.25 * a**6 / 8, 150)
    rep.add("level-count", s <= s_max, f"s={s}")
    return rep


def reference_strict_interval(n_total, alpha, epsilon, factors):
    """Strict ``interval.choose_interval_params`` with its bounds in floats,
    as it was before the product's windows gated it, up to its search for a
    prime class count: the bound it refuses first ("N", "epsilon", "alpha0"
    or "modulus"), or None where it goes on to that search, which for every
    N these bounds admit trial-divides class counts near N/q > 1e52.  Raises
    OverflowError where N^(1/5) leaves the float range."""
    try:
        n_min = epsilon**-15
    except OverflowError:
        n_min = math.inf
    if n_total < n_min:
        return "N"
    if epsilon > alpha**7:
        return "epsilon"
    if alpha > 0.1:
        return "alpha0"
    q_lo = n_total**0.2
    q_hi = math.sqrt(epsilon**2 * alpha**3 * (1 - epsilon) * n_total)
    q_first = max(5, int(q_lo) | 1)
    if factors is not None:
        ok = q_first <= math.prod(factors) <= q_hi
    else:  # the scan ends at its first prime, or at the first q past the level-1 rule
        q, ok = q_first, False
        while not ok and q <= q_hi and (3 * q - 1) / (q - 1) ** 3 >= 4 * epsilon:
            ok, q = is_prime(q), q + 2
    return None if ok else "modulus"
