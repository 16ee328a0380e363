"""Randomized level-by-level lower-bound construction on products of distinct
primes, with an exact per-difference verifier.

Level 1 on Z_{m_1} is the boost profile: value 0 at the origin and
alpha' = alpha(1 + 1/(m_1-1)) elsewhere.  Each later level i lifts f_{i-1}
from Q_{i-1} = Z_{m_1...m_{i-1}} to Q_i and overwrites the Z_{m_i}-fiber over
every coset in a chosen set M_{i-1} of alpha'-valued points with a randomly
reparametrized model profile g_{alpha'}(a_w y + b_w).

Verification never appeals to the probabilistic argument.  The verifier
computes the density of 3-APs for EVERY difference d of Q_i exactly, using
the product structure.  Write d = (d', e) with d' = d mod n_{i-1} and
e = d mod m_i.  The density at d is the level-(i-1) density at d' plus the
nonconstant Fourier terms of the fibers over the coset triples
(w, w+d', w+2d'), which ``aps.triple_amplitudes`` bins for one FFT over
every lift e; each fiber has at most five frequencies (the model support,
dilated by a_w), and d' = 0 is no special case.  A triple whose dilations
are smooth for the model support has no such term, so every lift of a base
difference whose triples are all smooth carries exactly the level-(i-1)
density.

Both are written in canonical order, with no length-n index array.  By CRT
the element x of Q_i has coset w = x mod n_{i-1} and fiber coordinate
y = x mod m_i, so the points over coset w are the stride x = w + n_{i-1} k,
k < m_i, with y = (w + n_{i-1} k) mod m_i.  A modified fiber is written to
values[w::n_{i-1}] and the row of base difference d' to table[d'::n_{i-1}],
each permuted by that y, one at a time with O(m_i) temporaries.

The assembled table is exact to roundoff and is cross-checked against brute
force in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .aps import Verdict, ap_sums, triple_amplitudes, within, worst_difference
from .domains import GROUP, APProfile, DensityFn, cyclic, is_prime, product
from .errors import DomainError, InfeasibleError, RetriesExhausted
from .fourier import idft
from .modelfn import MIN_MODEL_PRIME, build_model_fn, model_support

STRICT_EPS_MAX = 20.0**-9

_ALPHA_PRIME_TOL = 1e-12


def mu_schedule(alpha: float, epsilon: float, s: int, m1: int) -> tuple:
    """mu_1 = eps^(1/4), mu_i = 150^(i-1) * alpha'^-6 * eps^(1/4)."""
    ap = alpha * (1 + 1 / (m1 - 1))
    out = [epsilon**0.25]
    for i in range(2, s + 1):
        out.append(150.0 ** (i - 1) * ap**-6 * epsilon**0.25)
    return tuple(out)


@dataclass
class ProductParams:
    alpha: float
    epsilon: float
    factors: tuple
    mode: str = "desk"  # "strict" | "desk"

    def __post_init__(self):
        self.factors = tuple(int(m) for m in self.factors)
        if not self.factors:
            raise DomainError("a product construction needs at least one factor")
        if self.mode not in ("strict", "desk"):
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def alpha_prime(self) -> float:
        return self.alpha * (1 + 1 / (self.factors[0] - 1))


@dataclass
class FeasibilityCheck:
    name: str
    status: str  # "pass" | "fail" | "waived"
    detail: str


@dataclass
class FeasibilityReport:
    mode: str
    checks: list = field(default_factory=list)

    @property
    def fatal(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def add(self, name, ok, detail, waivable=True):
        if ok:
            status = "pass"
        elif self.mode == "desk" and waivable:
            status = "waived"
        else:
            status = "fail"
        self.checks.append(FeasibilityCheck(name, status, detail))


def feasibility(params: ProductParams) -> FeasibilityReport:
    """Check the construction hypotheses; desk mode waives all but fatal ones.

    Fatal in both modes: non-prime, repeated, or even factors, a later factor
    too small to host the model profile, and boost values escaping [0,1].
    """
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
        rep.add(
            "model-mean-in-range",
            ap <= 0.5 + 1e-12,
            f"alpha'={ap:.6g} must be <= 1/2 to host the model profile",
            waivable=False,
        )
        rep.add(
            "model-prime",
            min(fac[1:]) >= MIN_MODEL_PRIME,
            f"factors after the first host the model profile, so each must be >= "
            f"{MIN_MODEL_PRIME}: {fac[1:]}",
            waivable=False,
        )

    rep.add("alpha-window", 0 < a <= 0.25, f"alpha={a}")
    rep.add("epsilon-window", 0 < eps <= STRICT_EPS_MAX, f"eps={eps}, strict max {STRICT_EPS_MAX:.3g}")
    lo, hi = eps ** (-1 / 3) / 2, eps ** (-1 / 3)
    # the window ends are float powers; tolerate one part in 1e12 at the edges
    rep.add(
        "m1-window",
        lo < fac[0] <= hi * (1 + 1e-12),
        f"m1={fac[0]}, window ({lo:.6g}, {hi:.6g}]",
    )

    n_prev = fac[0]
    for i in range(2, s + 1):
        m = fac[i - 1]
        rep.add(f"m{i}-growth-lower", m > n_prev**6, f"m{i}={m} vs n_{i-1}^6={n_prev**6}")
        exponent = 0.5 * 64.0**-2 * 150.0 ** (i - 1) * eps**0.25 * n_prev
        try:
            upper = math.exp(exponent) / 2
        except OverflowError:
            upper = math.inf
        # exp(...)/2 from the headline statement; the modulus approximation
        # argument quotes exp(...) without the /2
        rep.add(f"m{i}-growth-upper", m < upper, f"m{i}={m} vs exp(...)/2={upper:.6g}")
        n_prev *= m

    # eps > 0 here: any eps <= 0 has already raised at the m1 window's eps ** (-1 / 3)
    s_max = math.log(eps**-0.25 * a**6 / 8, 150)
    rep.add("level-count", s <= s_max, f"s={s} vs log150(eps^-1/4 alpha^6 / 8)={s_max:.4g}")
    return rep


# ---------------------------------------------------------------------------
# level states


@dataclass
class LevelState:
    factors: tuple  # m_1..m_i
    values: np.ndarray  # f_i over Z_{n_i}, canonical labelling
    alpha: float
    alpha_prime: float
    density_table: np.ndarray  # per-d density for all d in Z_{n_i}
    modified: np.ndarray | None = None  # bool over Z_{n_{i-1}}
    coset_a: np.ndarray | None = None
    coset_b: np.ndarray | None = None
    mu_effective: float = 0.0

    @property
    def n(self) -> int:
        return math.prod(self.factors)


def build_level1(alpha: float, m1: int) -> LevelState:
    """The deterministic base profile on Z_{m_1}."""
    if not is_prime(m1) or m1 % 2 == 0:
        raise DomainError(f"m1={m1} must be an odd prime")
    ap = alpha * (1 + 1 / (m1 - 1))
    if ap > 1 + 1e-12:
        raise InfeasibleError(f"boost value alpha'={ap:.6g} exceeds 1 at m1={m1}")
    values = np.full(m1, ap)
    values[0] = 0.0
    return LevelState(
        factors=(m1,),
        values=values,
        alpha=alpha,
        alpha_prime=ap,
        density_table=ap_sums(values) / m1,
    )


def random_modify_level(
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
    coset_a = np.zeros(n_prev, dtype=np.int64)
    coset_b = np.zeros(n_prev, dtype=np.int64)
    modified = np.zeros(n_prev, dtype=bool)
    if want:
        coset_a[chosen] = rng.integers(1, m_next, size=want)
        coset_b[chosen] = rng.integers(0, m_next, size=want)
        modified[chosen] = True
    values = np.tile(state.values, m_next)  # the lift x -> f_{i-1}(x mod n_{i-1})
    step = _stride_residues(n_prev, m_next)
    for w in chosen.tolist():
        values[w::n_prev] = g.values[(coset_a[w] * ((w + step) % m_next) + coset_b[w]) % m_next]

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
    new.density_table = _assemble_density_table(state, new, g.spectrum.coeffs)
    return new


def _stride_residues(n_prev: int, m: int) -> np.ndarray:
    """(n_prev k) mod m for k < m: the point w + n_prev k of a stride has
    fiber coordinate (w + step[k]) mod m."""
    return (n_prev * np.arange(m, dtype=np.int64)) % m


def _assemble_density_table(prev: LevelState, state: LevelState, model_coeffs) -> np.ndarray:
    """Exact per-difference densities of Q_i (see module docstring), in
    canonical order.  ``prev`` is level i-1 and ``model_coeffs`` the spectrum
    of the model profile on Z_{m_i}.

    The row of base difference d' holds the lifts e = d mod m_i of the d with
    d mod n_{i-1} = d': the level-(i-1) density plus the mean over w of the
    ``triple_amplitudes`` of the fibers (w, w+d', w+2d'), over every pair of
    frequencies but (0, 0), evaluated at every e by one FFT.  It is written
    to the stride table[d'::n_{i-1}].
    """
    n_prev = prev.n
    m = state.factors[-1]
    supp = np.array(model_support(m), dtype=np.int64)
    ghat = model_coeffs[supp]

    # fiber w has coefficient val[w, j] at frequency freq[w, j]: an unmodified
    # fiber is the constant prev.values[w], a modified one g(a_w y + b_w).
    # slot[w, r] is the column of val holding frequency r of fiber w; the last
    # column, which is zero, stands for every other frequency
    width = supp.size + 1
    mod = np.flatnonzero(state.modified)
    freq = np.zeros((n_prev, supp.size), dtype=np.int64)
    val = np.zeros((n_prev, width), dtype=np.complex128)
    val[:, 0] = prev.values
    freq[mod] = (state.coset_a[mod, None] * supp) % m
    val[mod, : supp.size] = ghat * np.exp((-2j * np.pi / m) * ((state.coset_b[mod, None] * supp) % m))
    slot = np.full((n_prev, m), supp.size, dtype=np.int8)
    slot[:, 0] = 0
    slot[mod[:, None], freq[mod]] = np.arange(supp.size, dtype=np.int8)

    # the pair (j0, j1) = (0, 0) is frequency 0 in every fiber (a_w is a unit
    # mod m), and its triples sum to the base density
    j0, j1 = np.divmod(np.arange(1, supp.size**2), supp.size)
    v0, r0 = val[:, j0], freq[:, j0]
    v1, r1 = val[:, j1], freq[:, j1]
    table = np.empty(n_prev * m)
    step = _stride_residues(n_prev, m)
    w = np.arange(n_prev)
    for dprime in range(n_prev):
        w1, w2 = (w + dprime) % n_prev, ((w + 2 * dprime) % n_prev)[:, None]
        # flat takes: fiber w2's coefficient at r2 is val[w2, slot[w2, r2]]
        amp = triple_amplitudes(
            v0, r0, v1[w1], r1[w1], lambda r2: val.take(w2 * width + slot.take(w2 * m + r2)), m
        )
        base = prev.density_table[dprime]
        if amp.any():  # a base difference with no term keeps its density exactly
            table[dprime::n_prev] = (base + idft(amp).real / n_prev)[(dprime + step) % m]
        else:
            table[dprime::n_prev] = base
    return table


# ---------------------------------------------------------------------------
# verification


def verify_level(state: LevelState, epsilon: float) -> Verdict:
    """Exhaustive check that every nonzero difference has density at most
    alpha^3 (1 - epsilon), by ``worst_difference``."""
    target = state.alpha**3 * (1 - epsilon)
    return worst_difference(APProfile(state.density_table, GROUP, state.n), target)


# ---------------------------------------------------------------------------
# full construction


@dataclass
class ConstructionCert:
    seed: int
    mode: str
    alpha: float
    epsilon: float
    factors: tuple
    retries: list
    max_offdiag_density: float
    argmax_d: int
    mean_cube: float
    alpha_star: float
    fraction_at_alpha_star: float
    mu_requested: tuple
    mu_effective: tuple
    conclusions: dict

    @property
    def passed(self) -> bool:
        return all(self.conclusions.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _level_rng(seed: int, level: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), level, attempt]))


def construct_product(
    params: ProductParams,
    seed: int,
    max_retries_per_level: int = 20,
) -> tuple[DensityFn, ConstructionCert]:
    """Run the construction level by level, verifying exhaustively and
    retrying each level with fresh randomness on failure.

    Only one candidate is alive at a time.  Raises RetriesExhausted when no
    retry passes, with a log carrying the failing level's best verdict (not
    its state).
    """
    rep = feasibility(params)
    if rep.fatal:
        bad = [c for c in rep.checks if c.status == "fail"]
        raise InfeasibleError("; ".join(f"{c.name}: {c.detail}" for c in bad))

    alpha, eps, fac = params.alpha, params.epsilon, params.factors
    strict = params.mode == "strict"
    mu = mu_schedule(alpha, eps, len(fac), fac[0])
    state = build_level1(alpha, fac[0])
    verdict = verify_level(state, eps)
    retries = [{"level": 1, "attempts": 1, "passed": verdict.passed}]
    mu_effective = [0.0]
    if not verdict.passed:
        raise RetriesExhausted(
            f"level 1 fails at every retry: max density {verdict.max_offdiag:.6g} "
            f"> target {verdict.target:.6g} (epsilon too large for m1={fac[0]})",
            log={"level": 1, "retries": retries, "best_verdict": verdict},
        )

    for i in range(2, len(fac) + 1):
        mu_i = mu[i - 1]
        best = None  # the lowest failing verdict; its candidate is not kept
        for attempt in range(max_retries_per_level):
            rng = _level_rng(seed, i, attempt)
            cand = random_modify_level(state, fac[i - 1], rng, mu_i, clamp=not strict)
            verdict = verify_level(cand, eps)
            if verdict.passed:
                break
            if best is None or verdict.max_offdiag < best.max_offdiag:
                best = verdict
            cand = None  # one candidate alive: drop this one before the next is built
        else:
            retries.append({"level": i, "attempts": max_retries_per_level, "passed": False})
            raise RetriesExhausted(
                f"level {i} failed verification on all {max_retries_per_level} attempts; "
                f"best attempt: max density {best.max_offdiag:.6g} at d={best.argmax_d} "
                f"> target {best.target:.6g}",
                log={"level": i, "retries": retries, "best_verdict": best},
            )
        state = cand
        mu_effective.append(cand.mu_effective)
        retries.append({"level": i, "attempts": attempt + 1, "passed": True})

    # verdict is the last level's passing verdict
    mean_cube = float((state.values**3).mean())
    ap = params.alpha_prime
    frac = float(np.mean(np.abs(state.values - ap) <= _ALPHA_PRIME_TOL))
    cert = ConstructionCert(
        seed=seed,
        mode=params.mode,
        alpha=alpha,
        epsilon=eps,
        factors=fac,
        retries=retries,
        max_offdiag_density=verdict.max_offdiag,
        argmax_d=verdict.argmax_d,
        mean_cube=mean_cube,
        alpha_star=ap,
        fraction_at_alpha_star=frac,
        mu_requested=mu,
        mu_effective=tuple(mu_effective),
        conclusions={
            "max_offdiag_le_target": verdict.passed,
            "mean_cube_le_3_2_alpha3": bool(within(mean_cube, 1.5 * alpha**3)),
            "alpha_star_in_window": bool(alpha - 1e-12 <= ap <= alpha * (1 + eps**0.25) + 1e-12),
            "fraction_ge_3_4": bool(frac >= 0.75),
        },
    )
    domain = product(fac) if len(fac) > 1 else cyclic(fac[0])
    return DensityFn(domain, state.values), cert
