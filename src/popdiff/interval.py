"""Three-step interval construction and the Bernoulli sampling that turns a
function into a genuine subset of [N].

Step 1 fixes a modulus: N' = p*q <= N with p prime, q admissible for the
product construction, and a zero tail of length N - N' long enough that
differences just under N'/2 are starved of progressions.  Step 2 tiles a
product-construction profile g on Z_q across [N'] (zero beyond), which
controls every difference not divisible by q up to a 1/q discretization
error.  Step 3 re-randomizes the residue classes where g sits at its common
value alpha*, placing an affine image of a scaled low-AP subset on each,
which attacks the differences divisible by q.

Layout: x in [N] is stored at index x - 1, so the tile on [N'] is g's period
shifted by one, (g(1), ..., g(q-1), g(0)), repeated p times, and the class
P_t = {x <= N' : x = t mod q} is the stride (t - 1) mod q, step q, of
exactly p points.  Step 2 writes the tile in place, and step 3 overwrites
the classes of T on that same vector, so a product attempt holds one
length-N vector however many overlays it tries.

Verification is an exhaustive scan over every 0 < d < N/2 in the
over-(N-2d) normalization; the scan never appeals to the concentration
arguments that motivate the construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .aps import EXPLICIT, Verdict, ap_profile, ap_sums, close, within, worst_difference
from .behrend import ALPHA0, low_ap_density_subset, scaled_indicator
from .domains import OVER_WINDOW, APProfile, DensityFn, interval, is_prime
from .errors import DomainError, InfeasibleError, RetriesExhausted, check_size, exp_text, int_text
from .product import FeasibilityReport, ProductParams, construct_product, window_checks


@dataclass
class IntervalParams:
    n_total: int  # N
    alpha: float
    epsilon: float
    mode: str
    p: int  # N'/q, prime
    q: int
    factors: tuple  # factors of q
    n_prime: int  # N' = p*q
    beta: float  # exact tail fraction 1 - N'/N
    notes: list = field(default_factory=list)

    @property
    def alpha_prime(self) -> float:
        return self.alpha / (1 - self.beta)


def seam_tail_fraction(alpha: float, n_total: int) -> float:
    """Smallest tail fraction that starves every near-boundary difference:
    t/(beta N + t) <= alpha^3 for all t >= 1 needs beta N alpha^3 >= 1 - alpha^3,
    which no tail meets once alpha^3 N underflows to 0."""
    a3n = alpha**3 * n_total
    return (1 - alpha**3) / a3n * 1.05 if a3n else math.inf


def choose_interval_params(
    n_total: int,
    alpha: float,
    epsilon: float,
    mode: str = "desk",
    factors: tuple | None = None,
    beta_floor: float | None = None,
) -> IntervalParams:
    """Pick the tail fraction, the modulus q and the class count p = N'/q.

    Strict mode decides the hypothesis chain exactly or in logarithms, before
    any primality test: N >= epsilon^-15, epsilon <= alpha^7 and alpha <=
    alpha0, then the modulus window N^(1/5) < q <= sqrt(eps^2 alpha^3 (1-eps)
    N) and the product's own windows on (alpha/(1-eps^2), 4 eps, factors), the
    largest boost any class count p gives; one report names every violated
    bound.  An input that passes has N >= eps^-15 >= 1e105 (eps <= alpha^7 <=
    1e-7), which no vector holds: a DomainError naming N.  Desk mode admits any
    modulus the product side accepts, prefers the largest N' = p*q, and
    records every waiver; pass ``beta_floor`` to demand a longer zero tail
    (see seam_tail_fraction for the value that defeats boundary differences).
    """
    if mode not in ("strict", "desk"):
        raise DomainError(f"unknown mode {mode!r}")
    fac = None if factors is None else tuple(int(m) for m in factors)
    if mode == "strict":
        # the polynomial bounds are exact in N, q and the floats' integer ratios
        e, a = Fraction(epsilon), Fraction(alpha)
        ln_n, ln_e, ln_a = math.log(n_total), math.log(epsilon), math.log(alpha)
        rep = FeasibilityReport(mode)
        rep.add("N-bound", n_total * e**15 >= 1,
                f"N={int_text(n_total)} violates N >= epsilon^-15 = {exp_text(-15 * ln_e, '.6g')}")
        rep.add("epsilon-bound", e <= a**7,
                f"epsilon={epsilon} violates epsilon <= alpha^7 = {exp_text(7 * ln_a, '.3g')}")
        rep.add("alpha-bound", alpha <= ALPHA0, f"alpha={alpha} exceeds alpha0={ALPHA0}")
        rep.raise_if_fatal()  # alpha <= 0.1 and eps <= 1e-7 from here on
        ln_hi = (2 * ln_e + 3 * ln_a + math.log1p(-epsilon) + ln_n) / 2
        window = f"({exp_text(ln_n / 5, '.4g')}, {exp_text(ln_hi, '.4g')})"
        if fac is None:
            # no q is admissible: a single prime q > N^(1/5) >= eps^-3 lies
            # above the m1 window's upper end (4 eps)^(-1/3)
            raise InfeasibleError(f"no admissible modulus q in {window} for the product side")
        q = math.prod(fac)
        ok = q**5 > n_total and q**2 <= e**2 * a**3 * (1 - e) * n_total
        rep.add("modulus-window", ok, f"q={int_text(q)} outside the modulus window {window}")
        window_checks(rep, alpha / (1 - epsilon**2), 4 * epsilon, fac)
        rep.raise_if_fatal()  # N >= 1e105 > 2^63 / 8 here, so check_size raises in any memory
    elif n_total < 1000:
        raise InfeasibleError(f"N={n_total} below the desk minimum 1000")
    check_size(n_total, "N")
    q_lo, q_hi = 5, n_total**0.8
    window = f"({q_lo:.4g}, {q_hi:.4g})"
    beta_cap = max(epsilon**2, 0.25)
    notes = ["desk mode: modulus window widened to [5, N^0.8]"]
    seam = seam_tail_fraction(alpha, n_total)
    if (beta_floor or 0.0) < seam:
        notes.append(
            f"tail fraction below the seam threshold {seam:.4g} leaves boundary "
            f"differences above alpha^3; pass beta_floor to harden the tail"
        )
    candidates = _modulus_candidates(4 * epsilon, q_lo, q_hi) if fac is None else [(math.prod(fac), fac)]
    if beta_floor is not None:
        if beta_floor >= 0.5:
            raise InfeasibleError("tail floor beta >= 0.5 leaves no room for the profile")
        beta_cap = max(beta_cap, beta_floor * 1.5 + 0.01)
    if not candidates:
        raise InfeasibleError(f"no admissible modulus q in {window} for the product side")
    best = None  # maximize N', tie-break on larger q
    for q, fac in candidates:
        lo_p = max(int(math.ceil((1 - beta_cap) * n_total / q)), 3)
        hi_p = n_total // q
        if beta_floor is not None:
            hi_p = min(hi_p, int(math.floor((1 - beta_floor) * n_total / q)))
        for p in range(hi_p, lo_p - 1, -1):
            if is_prime(p) and p != q:
                if best is None or (p * q, q) > (best[0] * best[1], best[1]):
                    best = (p, q, fac)
                break
    if best is None:
        raise InfeasibleError(
            f"no prime class count p puts N' = p*q inside the tail window for any "
            f"modulus q in {window}"
        )
    p, q, fac = best
    n_prime = p * q
    return IntervalParams(
        n_total=n_total,
        alpha=alpha,
        epsilon=epsilon,
        mode=mode,
        p=p,
        q=q,
        factors=fac,
        n_prime=n_prime,
        beta=1 - n_prime / n_total,
        notes=notes + [f"modulus window {window}, tail cap {beta_cap:.4g}"],
    )


def _modulus_candidates(eps_prod, q_lo, q_hi):
    """Desk single-factor moduli (q, (q,)): the primes q of [q_lo, q_hi] where the
    base profile meets (3q-1)/(q-1)^3 >= eps_prod, which falls as q grows, so
    the first q that fails it ends the scan."""
    out = []
    q = max(5, int(q_lo) | 1)
    while q <= q_hi and (3 * q - 1) / (q - 1) ** 3 >= eps_prod:
        if is_prime(q):
            out.append((q, (q,)))
        q += 2
    return out


# ---------------------------------------------------------------------------
# step 2: tiling


def step1_step2_tile(params: IntervalParams, g: DensityFn) -> DensityFn:
    """Tile g over [N'] by residue mod q and zero the tail (N', N]."""
    if g.n != params.q:
        raise DomainError(f"profile lives on Z_{g.n}, expected Z_{params.q}")
    values = np.zeros(params.n_total)
    values[: params.n_prime].reshape(params.p, params.q)[:] = np.roll(g.values, -1)
    f2 = DensityFn(interval(params.n_total), values)
    want = params.alpha
    got = f2.mean()
    # N' = p*q exactly, so the tiled mean is alpha' * N'/N = alpha exactly
    if not close(got, want):
        raise DomainError(f"tiled mean {got} != alpha {want} beyond rounding")
    return f2


# ---------------------------------------------------------------------------
# step 3: overlay


def step3_overlay(
    f2: DensityFn, params: IntervalParams, t_classes: np.ndarray, xi: DensityFn,
    rng: np.random.Generator,
) -> DensityFn:
    """Draw an affine map (a_t, b_t) per class t in T and overwrite f2 on
    each class P_t by xi(a_t phi_t(x) + b_t); returns f2.

    phi_t enumerates P_t = {x <= N' : x = t mod q} in increasing order with
    phi_t(x_i) = i mod p, so each class mean is exactly E[xi] = alpha*.
    Every point of every P_t is written, so an earlier overlay of the same
    tile leaves nothing behind.
    """
    q, p = params.q, params.p
    if xi.n != p:
        raise DomainError(f"overlay profile lives on Z_{xi.n}, expected Z_{p}")
    a = rng.integers(1, p, size=len(t_classes))
    b = rng.integers(0, p, size=len(t_classes))
    idx = np.arange(1, p + 1, dtype=np.int64) % p  # phi_t along the stride
    for t, a_t, b_t in zip(t_classes, a, b):
        f2.values[(t - 1) % q : params.n_prime : q] = xi.values[(a_t * idx + b_t) % p]
    return f2


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class IntervalCert:
    seed: int
    mode: str
    n_total: int
    n_prime: int
    q: int
    p: int
    alpha: float
    epsilon: float
    alpha_star: float
    overlay_retries: int
    product_retries: int
    worst_d: int
    worst_density: float
    passed: bool
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["N"], d["N_prime"] = d.pop("n_total"), d.pop("n_prime")
        return d


def scan_interval_fn(values: np.ndarray, target: float) -> Verdict:
    """Over-(N-2d) scan of 0 < d < N/2 in doubling blocks (1, 2-3, 4-7, ...):
    the first block with a density not ``within`` the target ends it with the
    failing ``Verdict`` of its first violating d; a scan of every d returns
    ``worst_difference`` of the densities computed."""
    n = len(values)
    dens = np.zeros((n - 1) // 2 + 1)
    lo = 1
    while lo < len(dens):
        ds = np.arange(lo, min(2 * lo, len(dens)))
        dens[ds] = ap_sums(values, ds, cyclic=False) / (n - 2 * ds)
        bad = ds[~within(dens[ds], target)]
        if bad.size:
            return Verdict(int(bad[0]), float(dens[bad[0]]), target, False)
        lo *= 2
    return worst_difference(APProfile(dens, OVER_WINDOW, n, "perdiff", EXPLICIT), target)


def construct_interval_fn(
    params: IntervalParams,
    seed: int,
    max_overlay_retries: int = 3,
    max_product_retries: int = 2,
) -> tuple[DensityFn, IntervalCert]:
    """Run the three steps, scan exhaustively, and retry on failure.

    Overlay randomness is retried first (cheap); the product seed rotates
    only after the overlay budget is spent.  Each product attempt tiles one
    vector and builds alpha*, T and xi once; every overlay attempt redraws
    only the affine maps and overwrites the classes of T on that vector.
    alpha* is the product's alpha', which g holds as exact copies, so T is
    where g equals it.
    Raises RetriesExhausted carrying the lowest failing scan verdict when
    every combination fails.
    """
    alpha, eps = params.alpha, params.epsilon
    target = alpha**3 * (1 - eps)
    prod_params = ProductParams(
        alpha=params.alpha_prime,
        epsilon=4 * eps,
        factors=params.factors,
        mode=params.mode,
    )
    best = None
    overlay_used = 0
    product_used = 0
    for p_try in range(max_product_retries):
        product_used = p_try + 1
        g_fn, _ = construct_product(prod_params, seed=seed + 7919 * p_try, max_retries_per_level=10)
        f2 = step1_step2_tile(params, g_fn)
        alpha_star = prod_params.alpha_prime
        t_classes = np.flatnonzero(g_fn.values == alpha_star)
        x_set = low_ap_density_subset(params.p, min(alpha_star, ALPHA0))
        if not within(alpha_star, x_set.density):
            # a subset asked for at alpha* <= ALPHA0 always reaches alpha*
            raise InfeasibleError(
                f"common value alpha*={alpha_star:.4g} exceeds alpha0={ALPHA0} and the "
                f"density {x_set.density:.4g} of the overlay's low-AP subset; lower alpha"
            )
        xi = scaled_indicator(x_set, alpha_star)
        for o_try in range(max_overlay_retries):
            overlay_used += 1
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, p_try, o_try]))
            step3_overlay(f2, params, t_classes, xi, rng)
            if not close(f2.mean(), alpha):
                raise DomainError(f"overlay broke the mean: {f2.mean()} vs {alpha}")
            verdict = scan_interval_fn(f2.values, target)
            if best is None or verdict.max_offdiag < best.max_offdiag:
                best = verdict
            if verdict.passed:
                cert = IntervalCert(
                    seed=seed,
                    mode=params.mode,
                    n_total=params.n_total,
                    n_prime=params.n_prime,
                    q=params.q,
                    p=params.p,
                    alpha=alpha,
                    epsilon=eps,
                    alpha_star=alpha_star,
                    overlay_retries=overlay_used,
                    product_retries=product_used,
                    worst_d=verdict.argmax_d,
                    worst_density=verdict.max_offdiag,
                    passed=verdict.passed,
                    notes=params.notes,
                )
                return f2, cert
    raise RetriesExhausted(
        f"interval construction failed all {overlay_used} overlay x {product_used} product "
        f"attempts; best attempt has density {best.max_offdiag:.6g} at d={best.argmax_d} "
        f"> target {target:.6g}",
        log={"best_verdict": best, "overlay_retries": overlay_used, "product_retries": product_used},
    )


# ---------------------------------------------------------------------------
# set sampling


@dataclass
class SampleCert:
    """Outcome of one sampling attempt; worst_d is ``worst_difference``'s d,
    reported whether or not the sample passed."""

    seed: int
    attempts: int
    size: int
    size_required: float
    worst_d: int
    worst_density: float
    target: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def sample_set(
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

    The function is expected to carry a boosted mean (alpha + 2 epsilon), so
    the default alpha is E[f] - 2 epsilon.  Resamples up to max_attempts and
    returns the last attempt with its certificate; raises RetriesExhausted
    when no attempt passes.
    """
    if f.domain.kind != "interval":
        raise DomainError("sampling needs an interval function")
    n = f.n
    if alpha is None:
        alpha = f.mean() - 2 * epsilon
    target = alpha**3 - epsilon
    fprime = f.values.copy()
    fprime[max(math.ceil(n * (1 - epsilon)), 1) - 1 :] = 0.0  # x >= (1 - epsilon) N
    last = None
    for attempt in range(1, max_attempts + 1):
        hit = rng.random(n) < fprime
        members = np.flatnonzero(hit) + 1
        size_ok = len(members) >= alpha * n
        prof = ap_profile(DensityFn(interval(n), hit), OVER_WINDOW)
        verdict = worst_difference(prof, target)
        cert = SampleCert(
            seed=seed,
            attempts=attempt,
            size=len(members),
            size_required=alpha * n,
            worst_d=verdict.argmax_d,
            worst_density=verdict.max_offdiag,
            target=target,
            passed=bool(size_ok and verdict.passed),
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
