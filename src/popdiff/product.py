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

from .aps import Verdict, planned_sums, triple_amplitudes, within, worst_difference
from .domains import GROUP, APProfile, DensityFn, cyclic, is_prime, product
from .errors import DomainError, InfeasibleError, RetriesExhausted, check_size, exp_text, int_text
from .fourier import idft
from .modelfn import MIN_MODEL_PRIME, build_model_fn, model_support

STRICT_EPS_MAX = 20.0**-9


def mu_schedule(ap: float, epsilon: float, s: int) -> tuple:
    """mu_1 = eps^(1/4), mu_i = 150^(i-1) * ap^-6 * eps^(1/4), for ap = alpha'."""
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

    def add(self, name, ok, detail, waivable=True):
        if ok:
            status = "pass"
        elif self.mode == "desk" and waivable:
            status = "waived"
        else:
            status = "fail"
        self.checks.append(FeasibilityCheck(name, status, detail))

    def raise_if_fatal(self) -> None:
        bad = [f"{c.name}: {c.detail}" for c in self.checks if c.status == "fail"]
        if bad:
            raise InfeasibleError("; ".join(bad))


def feasibility(params: ProductParams) -> FeasibilityReport:
    """Check the construction hypotheses; desk mode waives all but fatal ones.

    Fatal in both modes, and checked nowhere else: non-prime, repeated or even
    factors, alpha' > 1, and with two or more factors alpha' > 1/2 (exactly
    build_model_fn's bound) or a later factor too small for the model profile.
    """
    rep = FeasibilityReport(params.mode)
    fac = params.factors
    check_size(math.prod(fac), "the product of the factors")

    distinct = len(set(fac)) == len(fac)
    # a factor below 3 fails first, so the product bounds every is_prime argument
    all_prime = all(m >= 3 and m % 2 == 1 for m in fac) and all(map(is_prime, fac))
    rep.add("factors-odd-distinct-primes", distinct and all_prime, f"factors={int_text(fac)}",
            waivable=False)
    if not (distinct and all_prime):
        return rep

    ap = params.alpha_prime
    rep.add("boost-in-range", within(ap, 1.0), f"alpha'={ap:.6g}", waivable=False)
    if len(fac) >= 2:
        rep.add("model-mean-in-range", ap <= 0.5,
                f"alpha'={ap!r} must be <= 1/2 to host the model profile", waivable=False)
        rep.add("model-prime", min(fac[1:]) >= MIN_MODEL_PRIME,
                f"factors after the first host the model profile, so each must be >= "
                f"{MIN_MODEL_PRIME}: {int_text(fac[1:])}", waivable=False)
    window_checks(rep, params.alpha, params.epsilon, fac)
    return rep


def window_checks(rep: FeasibilityReport, a: float, eps: float, fac: tuple) -> None:
    """Add the paper's windows on (alpha, epsilon, factors) to ``rep``, exact or in
    logarithms, so no positive finite a and eps or positive integer factors overflow."""
    rep.add("alpha-window", 0 < a <= 0.25, f"alpha={a}")
    rep.add("epsilon-window", 0 < eps <= STRICT_EPS_MAX, f"eps={eps}, strict max {STRICT_EPS_MAX:.3g}")
    # eps^(-1/3)/2 < m1 <= eps^(-1/3), that is 1 < 8 m1^3 eps <= 8
    num, den = eps.as_integer_ratio()
    hi = eps ** (-1 / 3)
    rep.add("m1-window", den < 8 * fac[0] ** 3 * num <= 8 * den,
            f"m1={int_text(fac[0])}, window ({hi / 2!r}, {hi!r}]")

    ln_eps = math.log(eps)
    n_prev = fac[0]
    for i, m in enumerate(fac[1:], start=2):
        rep.add(f"m{i}-growth-lower", m > n_prev**6,
                f"m{i}={int_text(m)} vs n_{i-1}^6={exp_text(6 * math.log(n_prev), '.6g')}")
        # m < exp(x)/2, x = 64^-2 150^(i-1) eps^(1/4) n_{i-1} / 2, as ln ln 2m < ln x; the
        # /2 is the headline statement's, which the modulus approximation argument drops
        ln_x = (i - 1) * math.log(150) + ln_eps / 4 + math.log(n_prev) - math.log(8192)
        rep.add(f"m{i}-growth-upper", math.log(math.log(2 * m)) < ln_x,
                f"m{i}={int_text(m)} vs exp(x)/2 with x={exp_text(ln_x, '.6g')}")
        n_prev *= m

    s_max = (6 * math.log(a) - ln_eps / 4 - math.log(8)) / math.log(150)
    rep.add("level-count", len(fac) <= s_max, f"s={len(fac)} vs log150(eps^-1/4 alpha^6 / 8)={s_max:.4g}")


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
    table_label: tuple = ("structural", "level below plus fiber terms")  # (backend, reason)

    @property
    def n(self) -> int:
        return math.prod(self.factors)

    @property
    def profile(self) -> APProfile:
        """The density table as a profile, labelled as it was computed: level
        1's by ``plan``'s backend, each later level's from the structure."""
        return APProfile(self.density_table, GROUP, self.n, *self.table_label)


def build_level1(alpha: float, m1: int) -> LevelState:
    """The deterministic base profile on Z_{m_1}, as ``feasibility`` admitted it."""
    ap = alpha * (1 + 1 / (m1 - 1))
    values = np.full(m1, ap)
    values[0] = 0.0
    sums, label = planned_sums(values)
    return LevelState(
        factors=(m1,),
        values=values,
        alpha=alpha,
        alpha_prime=ap,
        density_table=sums / m1,
        table_label=label,
    )


def random_modify_level(
    state: LevelState, m_next: int, rng: np.random.Generator, mu_next: float
) -> LevelState:
    """Extend f_{i-1} to Q_i, overwriting fibers over floor(mu*n_{i-1})
    alpha'-points with randomly reparametrized model profiles.

    ``feasibility`` has admitted m_next and alpha'.  The coset set is the
    lexicographically first block of alpha'-points (canonical order), so only
    (a_w, b_w) carry randomness; its size is capped by the alpha'-points there
    are, a cap no strict run reaches: strict mode admits a second factor only
    if m_1^6 < exp(64^-2 150 eps^(1/4) m_1 / 2) / 2 (the m_2 growth window),
    and the m_1 window's eps <= m_1^-3 makes that m_1^6 < exp(0.0183 m_1^(1/4))
    / 2, first true near m_1 = 2.4e16, where level 1 takes 1.9e17 bytes.
    """
    n_prev = state.n
    ap = state.alpha_prime
    # alpha'-points are copies of alpha' (np.full, np.tile), so they compare
    # exactly; a model value g(y) is alpha' only at y/m in {1/6, 1/2, 5/6}
    avail = np.flatnonzero(state.values == ap)
    want = min(int(mu_next * n_prev), len(avail))
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
    return worst_difference(state.profile, target)


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
    feasibility(params).raise_if_fatal()

    alpha, eps, fac = params.alpha, params.epsilon, params.factors
    ap = params.alpha_prime
    mu = mu_schedule(ap, eps, len(fac))
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
            cand = random_modify_level(state, fac[i - 1], rng, mu_i)
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
    frac = float(np.mean(state.values == ap))
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
            "alpha_star_in_window": bool(within(alpha, ap) and within(ap, alpha * (1 + eps**0.25))),
            "fraction_ge_3_4": bool(frac >= 0.75),
        },
    )
    domain = product(fac) if len(fac) > 1 else cyclic(fac[0])
    return DensityFn(domain, state.values), cert
