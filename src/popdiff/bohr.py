"""Bohr sets on odd cyclic groups, smoothing measures, the numerical
inequality suite, and the constructive popular-difference search.

B(S, rho) = {x : ||x r / n||_{R/Z} <= rho for every r in S}.  Distances are
kept as integers D[x] = max_r min(x r mod n, n - x r mod n) and the radius as
the exact rational R = rho n, so membership is D <= R, i.e. D <= floor(R),
dilation scales R exactly, and the regularity inequality is decided in
integers at its finitely many breakpoints; no comparison carries a slack.

The increment search follows the mean-cube strategy: grow frequency sets
S_i (large coefficients of f plus halved frequencies), smooth f by the Bohr
measure phi_i, track a_i = E[f_phi_i^3] until 2a_i - a_{i+1} >= alpha^3 -
eps/2, then return ``worst_difference`` of the per-difference densities on
supp(phi) = B+B.  The returned d is an argmax, checkable against an
exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .aps import planned_sums, within, worst_difference
from .domains import GROUP, APProfile, DensityFn
from .errors import DegenerateBohrError, DomainError, RegularityError
from .fourier import dft, dft_values, idft


@dataclass
class BohrSet:
    n: int
    freqs: tuple
    radius: Fraction  # R = rho n exactly, in distance units
    dist: np.ndarray  # integer distances, one per group element
    elements: np.ndarray

    @property
    def rho(self) -> float:
        return float(self.radius / self.n)

    @property
    def codim(self) -> int:
        return len(self.freqs)

    @property
    def size(self) -> int:
        return len(self.elements)


def _dist_table(n: int, freqs) -> np.ndarray:
    x = np.arange(n, dtype=np.int64)
    d = np.zeros(n, dtype=np.int64)
    for r in freqs:
        m = (x * (int(r) % n)) % n
        np.maximum(d, np.minimum(m, n - m), out=d)
    return d


def _from_dist(n, freqs, radius: Fraction, dist) -> BohrSet:
    elements = np.flatnonzero(dist <= math.floor(radius))
    return BohrSet(n, tuple(freqs), radius, dist, elements)


def bohr_set(n: int, freqs, rho: float) -> BohrSet:
    """Materialize B(S, rho) = {x : D[x] <= rho n}, rho read exactly, in O(n |S|)."""
    if n % 2 == 0:
        raise DomainError(f"Bohr sets need odd group order, got n={n}")
    if not 0 <= rho <= 1:
        raise DomainError(f"radius rho={rho} outside [0,1]")
    freqs = tuple(sorted(set(int(r) % n for r in freqs)))
    return _from_dist(n, freqs, Fraction(rho) * n, _dist_table(n, freqs))


def dilate(b: BohrSet, nu: float) -> BohrSet:
    """(B)_nu: same frequency set, radius R nu exactly; needs nu rho <= 1."""
    if not (0 <= nu < math.inf and b.radius * Fraction(nu) <= b.n):
        raise DomainError(f"scaled radius {nu * b.rho} outside [0,1]")
    return _from_dist(b.n, b.freqs, b.radius * Fraction(nu), b.dist)


def double(b: BohrSet) -> BohrSet:
    """2*B = {2x : x in B}, a Bohr set on the halved frequencies."""
    n = b.n
    inv2 = pow(2, -1, n)
    freqs = tuple(sorted((r * inv2) % n for r in b.freqs))
    dist = b.dist[(np.arange(n, dtype=np.int64) * inv2) % n]
    return _from_dist(n, freqs, b.radius, dist)


# ---------------------------------------------------------------------------
# regularity


def _at_most(b: BohrSet) -> list:
    """c[t] = #{x : D[x] <= t} for 0 <= t <= 2n, all that a radius <= n reads."""
    return np.cumsum(np.bincount(b.dist, minlength=2 * b.n + 1)).tolist()


def _regular(at_most: list, radius: Fraction, d: int) -> bool:
    """The regularity inequality of the codimension-d Bohr set of radius R =
    p/q, read off its counts ``_at_most``.

    The annulus {(1-delta)R < D <= (1+delta)R} grows only at an entry delta =
    D/R - 1, where it holds D, or just after an exit delta = 1 - D/R, where D
    has left, and the right side grows with delta; so the inequality is checked
    in integers at both for every integer D in the window (an unrealized one
    only adds a check the definition also makes).  That covers delta =
    1/(80d) too: the annulus there is the one just after the largest
    breakpoint at or below it, or empty, against a right side no smaller.
    """
    p, q = radius.numerator, radius.denominator
    size = at_most[p // q]
    two_r = 2 * p // q  # floor(2R), so floor(2R - D) = two_r - D
    lo = (80 * d - 1) * p // (80 * d * q)  # floor((1 - 1/(80d)) R)
    hi = (80 * d + 1) * p // (80 * d * q)  # floor((1 + 1/(80d)) R)
    for t in range(lo + 1, hi + 1):
        if t * q > p:  # entry: (1 - delta)R = 2R - t
            count = at_most[t] - at_most[two_r - t]
        else:  # just after the exit: from t up to (1 + delta)R = 2R - t
            count = at_most[two_r - t] - at_most[t - 1]
        if count * p > 160 * d * size * abs(t * q - p):  # delta = |t - R| / R
            return False
    return True


def is_regular(b: BohrSet) -> bool:
    """|(B)_{1+delta} \\ (B)_{1-delta}| <= 160 delta d |B| for all delta in
    (0, 1/(80d)], decided exactly; radius 0 is regular, and a radius equal to
    the distance of an element never is."""
    if b.codim < 1:
        raise DomainError("regularity needs codimension >= 1")
    return _regular(_at_most(b), b.radius, b.codim)


def find_regular_scale(b: BohrSet) -> tuple[float, BohrSet]:
    """A nu in [1/2, 1] with (B)_nu regular, and that set: the largest regular
    candidate radius, kept exact.  The candidates are the window ends R/2 and R
    and the midpoints between consecutive points of {R/2, R} and the distances
    realized in [R/2, R]; a realized distance is never regular (``is_regular``),
    so the radius returned is an end or a midpoint.  Radius 0, or no frequency
    (B(emptyset, rho) = Z_n), is regular at every scale: nu = 1.
    """
    r = b.radius
    if r == 0 or not b.freqs:
        return 1.0, dilate(b, 1.0)
    at_most = _at_most(b)
    window = range(math.ceil(r / 2), math.floor(r) + 1)
    realized = {t for t in window if at_most[t] > at_most[t - 1]}
    points = sorted({r / 2, r} | realized)
    cand = {r / 2, r} | {Fraction(lo + hi, 2) for lo, hi in zip(points, points[1:])}
    for radius in sorted(cand - realized, reverse=True):
        if _regular(at_most, radius, b.codim):
            return float(radius / r), _from_dist(b.n, b.freqs, radius, b.dist)
    raise RegularityError(f"no regular scale in [0.5, 1] for B(S={b.freqs}, rho={b.rho}) on Z_{b.n}")


# ---------------------------------------------------------------------------
# measures and smoothing


def beta_measure(b: BohrSet) -> np.ndarray:
    """Normalized indicator of B: n/|B| on B, zero elsewhere; mean exactly 1."""
    out = np.zeros(b.n)
    out[b.elements] = b.n / b.size
    return out


def phi_measure(b: BohrSet) -> np.ndarray:
    """The smoothed measure beta * beta; mean 1, exactly zero off B+B."""
    beta_hat = dft_values(beta_measure(b))
    phi = idft(beta_hat * beta_hat).real
    # phi(s) = r n / |B|^2 with r the number of ways s = b + b', so half a
    # representation separates zero from nonzero, far above roundoff
    return np.where(phi > 0.5 * b.n / b.size**2, phi, 0.0)


def smooth(fhat: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """f_kappa = f * kappa for a mean-1 measure kappa from f's coefficients
    ``fhat``, by one product; roundoff negatives become 0, the mean is kept."""
    if len(fhat) != len(kappa):
        raise DomainError(f"smooth needs equal sizes, got {len(fhat)} and {len(kappa)}")
    return np.clip(idft(fhat * dft_values(kappa)).real, 0.0, None)


def _support_sums(fvals: np.ndarray, phi: np.ndarray) -> tuple:
    """(supp phi, S(s) for s in supp phi, (backend, reason)), by the backend
    ``aps.plan`` picks."""
    s = np.flatnonzero(phi)
    return (s, *planned_sums(fvals, s))


def _weighted(phi: np.ndarray, s: np.ndarray, sums: np.ndarray) -> float:
    """sum_s phi(s) S(s) / n^2, summed exactly by fsum rather than by a BLAS
    dot product, whose rounding depends on the BLAS thread count."""
    return math.fsum(phi[s] * sums) / len(phi) ** 2


def lambda_weighted(fvals: np.ndarray, phi: np.ndarray) -> float:
    """E_{x,d}[f(x) f(x+d) f(x+2d) phi(d)] = sum_{s in supp phi} phi(s) S(s) / n^2."""
    f = np.asarray(fvals, dtype=np.float64)
    if len(phi) != len(f):
        raise DomainError("weight and function sizes differ")
    s, sums, _ = _support_sums(f, phi)
    return _weighted(phi, s, sums)


# ---------------------------------------------------------------------------
# scalar lemmas


def schur_gap(a, b, c):
    """a^3+b^3+c^3+3abc - (a^2 b + ab^2 + a^2 c + ac^2 + b^2 c + bc^2) >= 0,
    elementwise for arrays."""
    if min(np.min(a), np.min(b), np.min(c)) < 0:
        raise DomainError("Schur gap needs nonnegative inputs")
    lhs = a**3 + b**3 + c**3 + 3 * a * b * c
    rhs = a * a * b + b * b * a + a * a * c + c * c * a + b * b * c + c * c * b
    return lhs - rhs


def pick_increment_index(a_seq, alpha: float, epsilon: float) -> int | None:
    """Least 1-based i with 2 a_i - a_{i+1} >= alpha^3 - eps/2, or None while
    the prefix is no longer than the horizon.

    Guaranteed to exist within 2 log2(2/eps) terms when alpha^3 <= a_i <= 1;
    a miss past that horizon signals an upstream bug.  The horizon is at
    least 1: an index needs two terms, and for eps >= 2, where 2 log2(2/eps)
    <= 0, alpha^3 - eps/2 < 0 lets index 1 qualify at the second term.
    """
    seq = [float(v) for v in a_seq]
    for v in seq:
        if not (within(alpha**3, v) and within(v, 1.0)):
            raise DomainError(f"sequence value {v} outside [alpha^3, 1]")
    horizon = max(1, math.ceil(2 * (1 - math.log2(epsilon))))  # 2/eps may overflow
    for i in range(1, len(seq)):
        if 2 * seq[i - 1] - seq[i] >= alpha**3 - epsilon / 2:
            return i
    if len(seq) <= horizon:
        return None
    raise RegularityError("no increment index within the guaranteed horizon (upstream bug)")


# ---------------------------------------------------------------------------
# inequality suite


@dataclass
class LemmaCheck:
    name: str
    applicable: bool
    margin: float | None
    lhs: float | None
    rhs: float | None
    note: str = ""


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)

    def failures(self, tol: float = 1e-7) -> list:
        return [c for c in self.checks if c.applicable and c.margin is not None and c.margin < -tol]


def inequality_suite(f: DensityFn, b1: BohrSet, b2: BohrSet, nu: float) -> SuiteReport:
    """Numerically evaluate every smoothing inequality whose hypotheses hold.

    Hypothesis failures are reported as non-applicable entries, never raised;
    a negative margin beyond 1e-7 on an applicable entry is an implementation
    bug, since each inequality is a theorem.
    """
    n = f.n
    if b1.n != n or b2.n != n:
        raise DomainError("function and Bohr sets must share a group")
    rep = SuiteReport()
    fv = f.values
    d1 = b1.codim

    def contained(inner: BohrSet, outer: BohrSet, scale: float) -> bool:
        return bool(np.all(outer.dist[inner.elements] <= math.floor(outer.radius * Fraction(scale))))

    reg1 = is_regular(b1)
    reg2 = is_regular(b2)
    within_half = contained(b2, b1, nu / 2)
    within_nu = contained(b2, b1, nu)
    in_b1 = contained(b2, b1, nu * nu / 8)
    in_2b1 = contained(b2, double(b1), nu * nu / 8)

    beta1 = beta_measure(b1)
    phi1 = phi_measure(b1)
    phi2 = phi_measure(b2)
    fh = dft_values(fv)
    f_phi1 = smooth(fh, phi1)
    f_phi2 = smooth(fh, phi2)
    fh2 = dft_values(f_phi2)

    # continuity of regular Bohr sets under convolution by tau = phi_2
    tau_inside = within_half  # supp(phi2) <= B2+B2 <= (B1)_nu when B2 <= (B1)_{nu/2}
    cont_ok = reg1 and nu <= 1 / (80 * d1) and tau_inside
    note = f"reg1={reg1}, nu<=1/(80 d1)={nu <= 1 / (80 * d1)}, supp tau in (B1)_nu={tau_inside}"
    if cont_ok:
        bound = 160 * nu * d1
        for name, kappa in (("continuity-beta", beta1), ("continuity-phi", phi1)):
            lhs = float(np.mean(np.abs(smooth(dft_values(kappa), phi2) - kappa)))
            rep.checks.append(LemmaCheck(name, True, bound - lhs, lhs, bound, note))
        for name, kappa in (("continuity-f-beta", beta1), ("continuity-f-phi", phi1)):
            lhs = float(np.mean(np.abs(smooth(fh2, kappa) - smooth(fh, kappa))))
            rep.checks.append(LemmaCheck(name, True, bound - lhs, lhs, bound, note))
    else:
        rep.checks.append(LemmaCheck("continuity", False, None, None, None, note))

    # moment comparison after smoothing by a finer Bohr measure
    jensen_ok = reg1 and reg2 and nu <= 1 / (80 * d1)
    if jensen_ok and within_half:
        for k in (2, 3):
            lhs = float(np.mean(f_phi2**k))
            rhs = float(np.mean(f_phi1**k)) - 160 * nu * d1 * k
            rep.checks.append(LemmaCheck(f"moment-phi-k{k}", True, lhs - rhs, lhs, rhs))
    if jensen_ok and within_nu:
        beta2 = beta_measure(b2)
        f_beta2 = smooth(fh, beta2)
        for k in (2, 3):
            lhs = float(np.mean(f_beta2**k))
            rhs = float(np.mean(f_phi1**k)) - 160 * nu * d1 * k
            rep.checks.append(LemmaCheck(f"moment-beta-k{k}", True, lhs - rhs, lhs, rhs))
    if not jensen_ok:
        rep.checks.append(
            LemmaCheck("moment-comparison", False, None, None, None, f"reg1={reg1}, reg2={reg2}")
        )

    # counting lemma: no hypotheses beyond shared group
    sup = float(np.abs(fh - fh2).max())
    lam_f = lambda_weighted(fv, phi1)
    lam_s = lambda_weighted(f_phi2, phi1)
    rhs = lam_f - 3 * sup * float(np.mean(fv**2)) * math.sqrt(n / b1.size)
    rep.checks.append(LemmaCheck("counting", True, lam_s - rhs, lam_s, rhs))

    # Schur's inequality on smoothed value triples
    gaps = [
        float(schur_gap(f_phi1, np.roll(f_phi1, -d), np.roll(f_phi1, -2 * d)).min())
        for d in (1, 2, n // 3)
    ]
    rep.checks.append(LemmaCheck("schur", True, min(gaps), min(gaps), 0.0))

    # mean-cube increment
    mc_ok = reg1 and reg2 and nu <= 1 / (1000 * d1) and in_b1 and in_2b1
    note = (
        f"reg1={reg1}, reg2={reg2}, nu<=1/(1000 d1)={nu <= 1 / (1000 * d1)}, "
        f"B2 in (B1)_nu2/8={in_b1}, B2 in (2B1)_nu2/8={in_2b1}"
    )
    if mc_ok:
        _, b_mid = find_regular_scale(dilate(b1, nu / 2))
        phi = phi_measure(b_mid)
        lhs = lambda_weighted(f_phi2, phi)
        rhs = 2 * float(np.mean(f_phi1**3)) - float(np.mean(f_phi2**3)) - 1920 * nu * d1
        rep.checks.append(LemmaCheck("mean-cube-increment", True, lhs - rhs, lhs, rhs, note))
    else:
        rep.checks.append(LemmaCheck("mean-cube-increment", False, None, None, None, note))
    return rep


# ---------------------------------------------------------------------------
# the popular-difference search


def strict_schedule(epsilon: float):
    """rho_1 = eps^10, rho_i = exp(-rho_{i-1}^-5); underflows to 0 harmlessly.
    A radius rho_1 < 1 needs eps < 1 (eps^10 overflows from eps ~ 1e31)."""
    if not 0 < epsilon < 1:
        raise DomainError(f"the strict schedule needs epsilon in (0, 1), got {epsilon}")

    def rho(i: int) -> float:
        r = epsilon**10
        for _ in range(i - 1):
            try:
                r = math.exp(-(r**-5)) if r > 0 else 0.0
            except OverflowError:
                r = 0.0
        return r

    return rho


def geometric_schedule(rho0: float, factor: float = 0.5):
    def rho(i: int) -> float:
        return rho0 * factor ** (i - 1)

    return rho


@dataclass
class IncrementTrace:
    levels: list
    chosen_i: int
    lambda_phi: float
    d: int
    density: float
    collapsed: bool  # every level's B and the final B+B are Z_n: an exhaustive argmax
    interval_mode: bool = False
    small_d_bound: float | None = None
    phi_support: np.ndarray | None = None  # in-memory only; lets oracles replay the argmax

    def to_dict(self) -> dict:
        out = {
            "levels": self.levels,
            "chosen_i": self.chosen_i,
            "lambda_phi": self.lambda_phi,
            "d": self.d,
            "density": self.density,
            "collapsed": self.collapsed,
        }
        if self.interval_mode:
            out["interval_mode"] = True
            out["small_d_bound"] = self.small_d_bound
        return out


def upper_search(
    f: DensityFn,
    epsilon: float,
    schedule,
    interval_mode: bool = False,
    nu: float | None = None,
) -> IncrementTrace:
    """Find a popular difference by the mean-cube increment iteration.

    ``schedule`` maps a 1-based level to rho_i (``strict_schedule`` is the
    paper's recipe, ``geometric_schedule`` the desk one).
    ``nu`` overrides the final dilation factor (default 1e-5 eps rho_i^2, the
    strict choice, which collapses nontrivial Bohr sets at desk sizes).  In
    interval mode the frequency 1 joins every frequency set, which pins the
    returned difference to a short integer; the trace records the bound.
    """
    if not f.domain.is_group:
        raise DomainError("the search runs on odd cyclic groups")
    n = f.n
    fv = f.values
    alpha = f.mean()
    spec = dft(f)
    amag = np.abs(spec.coeffs)
    rho1 = schedule(1)
    big = set(int(r) for r in np.flatnonzero(amag >= rho1 / 2))

    inv2 = pow(2, -1, n)
    levels = []
    a_seq: list = []
    bohrs: list = []
    s_i: set = set()
    chosen = None
    while chosen is None:  # pick_increment_index raises past its horizon
        rho_i = schedule(len(levels) + 1)
        s_i = big | {(r * inv2) % n for r in s_i}
        if interval_mode:
            s_i.add(1)
        b_nom = bohr_set(n, s_i, min(rho_i / (4 * math.pi), 1.0))
        _, b_i = find_regular_scale(b_nom)
        a_i = float(np.mean(smooth(spec.coeffs, phi_measure(b_i)) ** 3))
        a_seq.append(a_i)
        bohrs.append((rho_i, b_i))
        levels.append(
            {"rho": rho_i, "S_size": len(s_i), "B_size": int(b_i.size), "mean_cube": a_i}
        )
        chosen = pick_increment_index(a_seq, alpha, epsilon)

    rho_c, b_c = bohrs[chosen - 1]
    if nu is None:
        nu = 1e-5 * epsilon * rho_c * rho_c  # overflows to +inf, capped below
    _, b_final = find_regular_scale(dilate(b_c, min(nu / 2, 1.0)))
    if b_final.size <= 1:
        raise DegenerateBohrError(f"Bohr set collapsed to the origin at level {chosen}")
    # 0 is in B and |B| >= 2, so B+B contains B and a nonzero difference
    phi = phi_measure(b_final)
    support, sums, label = _support_sums(fv, phi)
    table = np.full(n, -np.inf)
    table[support] = sums / n
    worst = worst_difference(APProfile(table, GROUP, n, *label))
    return IncrementTrace(
        levels=levels,
        chosen_i=chosen,
        lambda_phi=_weighted(phi, support, sums),
        d=worst.argmax_d,
        density=worst.max_offdiag,
        collapsed=support.size == n and all(lv["B_size"] == n for lv in levels),
        interval_mode=interval_mode,
        small_d_bound=2 * rho1 * n if interval_mode else None,
        phi_support=support,
    )
