"""Per-difference and total density engines and the worst-difference rule."""

import ast
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popdiff
import popdiff.aps
import popdiff.domains
from popdiff.aps import (
    EXPLICIT,
    SPARSE_TOL,
    VERDICT_SLACK,
    Verdict,
    _pair_sums,
    _window_sums,
    ap_profile,
    ap_sums,
    per_diff_density,
    perdiff_table_sparse,
    plan,
    sparse_error_bound,
    total_3ap_density,
    triple_amplitudes,
    worst_difference,
)
from popdiff.domains import (
    GROUP,
    OVER_N,
    OVER_WINDOW,
    APProfile,
    DensityFn,
    Spectrum,
    cyclic,
    interval,
    save_fn,
)
from popdiff.behrend import LowAPSubset, scaled_indicator
from popdiff.bohr import geometric_schedule, pick_increment_index, upper_search
from popdiff.cli import main
from popdiff.errors import DomainError, InfeasibleError, RetriesExhausted
from popdiff.fourier import dft, idft
from popdiff.interval import (
    IntervalParams,
    choose_interval_params,
    construct_interval_fn,
    scan_interval_fn,
    step1_step2_tile,
)
from popdiff.modelfn import build_model_fn, verify_model_properties
from popdiff.product import (
    ProductParams,
    build_level1,
    construct_product,
    feasibility,
    random_modify_level,
)
from oracles import reference_pair_sums, reference_perdiff_table_sparse


def brute_total(values):
    n = len(values)
    tot = 0.0
    for d in range(n):
        for x in range(n):
            tot += values[x] * values[(x + d) % n] * values[(x + 2 * d) % n]
    return tot / n**2


def test_constant_total():
    f = DensityFn(cyclic(9), np.full(9, 0.4))
    assert abs(total_3ap_density(f) - 0.4**3) < 1e-12


def test_point_mass_total():
    v = np.zeros(7)
    v[0] = 1.0
    f = DensityFn(cyclic(7), v)
    assert abs(total_3ap_density(f) - 1 / 49) < 1e-12


def test_model_total_exact():
    m = build_model_fn(0.25, 101)
    assert abs(total_3ap_density(m.fn) - 31 / 2048) < 1e-9


def test_spectral_vs_direct_total():
    rng = np.random.default_rng(0)
    for n in (15, 101, 255):
        f = DensityFn(cyclic(n), rng.uniform(0, 1, n))
        assert abs(total_3ap_density(f, "spectral") - total_3ap_density(f, "direct")) < 1e-9
        assert abs(total_3ap_density(f, "spectral") - brute_total(f.values)) < 1e-9


def test_per_diff_boost_profile():
    # one zero and four boosted points: nonzero differences leave 2 of 5 fibers
    alpha = 0.25
    v = np.full(5, alpha * (1 + 1 / 4))
    v[0] = 0.0
    f = DensityFn(cyclic(5), v)
    expect = alpha**3 * 50 / 64
    for d in range(1, 5):
        assert abs(per_diff_density(f, d) - expect) < 1e-12


def test_constant_per_diff():
    f = DensityFn(cyclic(5), np.full(5, 0.5))
    assert abs(per_diff_density(f, 3) - 1 / 8) < 1e-12


def test_model_per_diff_cross_check():
    m = build_model_fn(0.25, 101)
    dens = [per_diff_density(m.fn, d) for d in range(101)]
    # mean over nonzero d recovers the total minus the d=0 slot
    total = total_3ap_density(m.fn)
    assert abs(np.mean(dens) - total) < 1e-9
    cube = float((m.values**3).mean())
    assert abs(np.mean(dens[1:]) - (101 * total - cube) / 100) < 1e-9


def test_interval_normalizations():
    rng = np.random.default_rng(1)
    n = 31
    f = DensityFn(interval(n), rng.uniform(0, 1, n))
    for d in range(0, (n - 1) // 2 + 1):
        over_n = per_diff_density(f, d, OVER_N)
        over_w = per_diff_density(f, d, OVER_WINDOW)
        assert over_w >= over_n - 1e-15
        s = sum(f.values[x] * f.values[x + d] * f.values[x + 2 * d] for x in range(n - 2 * d))
        assert abs(over_n - s / n) < 1e-12
        assert abs(over_w - s / (n - 2 * d)) < 1e-12
    with pytest.raises(DomainError):
        per_diff_density(f, n // 2 + 1, OVER_N)
    with pytest.raises(DomainError):
        per_diff_density(f, 3)


def test_interval_zero_tail_profile():
    n = 20
    v = np.zeros(n)
    v[:10] = 0.7  # support in [1,10]
    f = DensityFn(interval(n), v)
    prof = ap_profile(f, OVER_N)
    for d in range(5, len(prof.densities)):
        assert prof.densities[d] == 0.0


def test_profile_mean_consistency():
    rng = np.random.default_rng(2)
    f = DensityFn(cyclic(101), rng.uniform(0, 1, 101))
    prof = ap_profile(f, path="dense")
    assert abs(prof.densities.mean() - total_3ap_density(f)) < 1e-9


def test_profile_sparse_matches_dense():
    placements = [(0.25, 101), (0.1, 1009)]
    for alpha, n in placements:
        m = build_model_fn(alpha, n)
        sparse = ap_profile(m.fn, path="sparse").densities
        dense = ap_profile(m.fn, path="dense").densities
        assert np.abs(sparse - dense).max() < 1e-8
        # the automatic path keeps the model on the sparse route
        assert sparse_error_bound(m.fn.values, dft(m.fn)) <= SPARSE_TOL


def test_profile_auto_near_old_support_threshold():
    # every nonconstant coefficient sits just under 1e-10 * n, the support
    # threshold once used, which dropped them all and sent this to the
    # sparse path with a profile off by about 1e-7
    n = 20011
    rng = np.random.default_rng(5)
    c = np.zeros(n, dtype=np.complex128)
    c[0] = 0.5
    r = np.arange(1, (n + 1) // 2)
    c[r] = 0.999e-10 * n * np.exp(2j * np.pi * rng.uniform(0, 1, len(r)))
    c[n - r] = np.conj(c[r])
    f = DensityFn(cyclic(n), idft(c).real)
    dense = ap_sums(f.values) / n
    assert np.abs(ap_profile(f).densities - dense).max() < 1e-8


def test_profile_auto_falls_back_when_bound_fails(monkeypatch):
    rng = np.random.default_rng(6)
    f = DensityFn(cyclic(1009), rng.uniform(0, 1, 1009))
    # relative to max|c| = 0.504, so the cutoff is about 0.02 in absolute terms
    monkeypatch.setattr(popdiff.domains, "SUPPORT_EPS", 0.04)
    spec = dft(f)
    assert len(spec.support) <= 31  # small enough for the sparse route
    bound = sparse_error_bound(f.values, spec)
    assert bound > SPARSE_TOL * f.values.max() ** 3
    assert plan(f.values, spectrum=spec) == ("windows", "sparse bound above tolerance")
    dense = ap_sums(f.values) / 1009
    prof = ap_profile(f)
    assert np.array_equal(prof.densities, dense)
    assert (prof.backend, prof.reason) == ("windows", "sparse bound above tolerance")
    assert np.abs(perdiff_table_sparse(spec) - dense).max() <= bound


def test_profile_constant():
    f = DensityFn(cyclic(7), np.full(7, 0.3))
    prof = ap_profile(f)
    assert np.abs(prof.densities - 0.3**3).max() < 1e-12


def brute_sums(values, cyclic):
    """S(d) for every admissible d by the triple loop over (d, x)."""
    n = len(values)
    if cyclic:
        return [
            sum(values[x] * values[(x + d) % n] * values[(x + 2 * d) % n] for x in range(n))
            for d in range(n)
        ]
    return [
        sum(values[x] * values[x + d] * values[x + 2 * d] for x in range(n - 2 * d))
        for d in range((n - 1) // 2 + 1)
    ]


unit_values = st.lists(st.floats(0, 1), min_size=1, max_size=40)
indicators = st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=120)


@given(unit_values, st.booleans())
def test_dense_windows_match_triple_loop(values, cyclic):
    # one window pass per d, every d (past n/2 too, cyclically), and the full
    # table ap_sums takes from plan
    n = len(values)
    ds = np.arange(n if cyclic else (n - 1) // 2 + 1)
    brute = brute_sums(values, cyclic)
    assert np.allclose(_window_sums(np.asarray(values), ds, cyclic), brute, rtol=0, atol=1e-12)
    assert np.allclose(ap_sums(values, cyclic=cyclic), brute, rtol=0, atol=1e-12)


@given(indicators, st.booleans())
def test_pair_backend_matches_dense_bitwise(values, cyclic):
    v = np.asarray(values)
    dense = _window_sums(v, np.arange(len(v) if cyclic else (len(v) - 1) // 2 + 1), cyclic)
    pairs = _pair_sums(v, cyclic)
    assert np.array_equal(pairs, dense)
    assert pairs.tolist() == brute_sums(values, cyclic)
    assert np.array_equal(ap_sums(v, cyclic=cyclic), dense)


def _interval_pairs_match_reference(v, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popdiff.aps, "_PAIR_BLOCK", block)
        got = _pair_sums(v, cyclic=False)
    want = reference_pair_sums(v, cyclic=False)
    return got.dtype == want.dtype and np.array_equal(got, want)


@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=300),
       st.sampled_from([1, 7, 64, 1 << 18]))
def test_interval_pair_backend_matches_reference(values, block):
    # the interval backend gives each row block only the columns whose
    # continuation stays in [N]; small blocks make many blocks per set
    assert _interval_pairs_match_reference(np.asarray(values), block)


def test_interval_pair_backend_matches_reference_on_every_subset():
    # every subset of [12], one row per block and one block for all rows
    bits = (np.arange(1 << 12)[:, None] >> np.arange(12)) & 1
    for row in bits.astype(np.float64):
        assert _interval_pairs_match_reference(row, 1)
        assert _interval_pairs_match_reference(row, 1 << 18)


@given(unit_values, st.booleans(), st.data())
def test_batch_matches_single_bitwise(values, cyclic, data):
    n = len(values)
    dmax = n - 1 if cyclic else (n - 1) // 2
    ds = data.draw(st.lists(st.integers(0, dmax), min_size=1, max_size=12))
    batch = ap_sums(values, ds, cyclic=cyclic)
    for d, got in zip(ds, batch):
        assert got == ap_sums(values, [d], cyclic=cyclic)[0]


@given(unit_values, st.data())
def test_full_cyclic_table_symmetric_bitwise(values, data):
    # S(d) == S(n-d) bit for bit, odd and even n, on the dense backend
    # (values in [0, 1]) and on the pair backend (an indicator on <= n/5 points)
    n = len(values)
    support = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 5))
    indicator = np.zeros(n)
    indicator[list(support)] = 1.0
    for table in (ap_sums(values), ap_sums(indicator), _pair_sums(indicator, True)):
        assert np.array_equal(table[1:], table[1:][::-1])
    windows = _window_sums(np.asarray(values), np.arange(n), True)  # every d its own pass
    assert np.allclose(ap_sums(values), windows, rtol=0, atol=1e-12)


def hand_profile(densities, normalization, n):
    """A hand-written profile, labelled as no backend's."""
    return APProfile(densities, normalization, n, "given", "hand-written table")


def test_worst_difference_rule():
    # a group maximum at n - d = 4 is reported at d = 3 with the same value,
    # and a tie between d = 1 and d = 2 goes to the smaller d
    table = np.array([0.9, 0.1, 0.2, 0.3, 0.35, 0.2, 0.1])
    assert worst_difference(hand_profile(table, GROUP, 7)) == Verdict(3, 0.35, np.inf, True)
    table = np.array([0.9, 0.3, 0.3, 0.1, 0.1, 0.2, 0.1])
    assert worst_difference(hand_profile(table, GROUP, 7)) == Verdict(1, 0.3, np.inf, True)
    # an interval [7] scans d = 1..3 only
    assert (worst_difference(hand_profile([0.9, 0.1, 0.4, 0.4], OVER_WINDOW, 7))
            == Verdict(2, 0.4, np.inf, True))
    # no nonzero difference: Z_1, [1], [2]
    assert worst_difference(hand_profile([0.5], GROUP, 1), 0.0) == Verdict(None, None, 0.0, True)
    for n in (1, 2):
        assert worst_difference(hand_profile([0.5], OVER_N, n), 0.0) == Verdict(None, None, 0.0, True)
    # passed flips at target (1 + VERDICT_SLACK), at any scale
    table = np.array([0.9, 0.1, 0.2, 0.3, 0.35, 0.2, 0.1])
    for scale in (1.0, 2.0**-900):
        prof = hand_profile(scale * table, GROUP, 7)
        assert worst_difference(prof, scale * 0.35).passed
        assert worst_difference(prof, scale * 0.35 / (1 + VERDICT_SLACK / 2)).passed
        assert not worst_difference(prof, scale * 0.35 / (1 + 2 * VERDICT_SLACK)).passed
    # a verdict holds builtins only, so that every artifact serializes it as is
    v = worst_difference(prof, np.float64(0.3))
    assert type(v.argmax_d) is int and type(v.max_offdiag) is float and type(v.passed) is bool


def test_verdict_slack_has_one_reader(monkeypatch, tmp_path):
    # every verdict and check reads aps.VERDICT_SLACK when it compares, so
    # widening the slack to 5 (a target passes up to 6 times itself) turns
    # each of these failures into a pass
    prof = hand_profile(np.array([0.9, 0.1, 0.2, 0.3, 0.35, 0.2, 0.1]), GROUP, 7)
    low = LowAPSubset(7, np.array([0]), 1 / 7, bound=0.01, block_width=0)
    low.ap_density = 0.05  # stands in for the count that ap_density caches
    # mean cube 1.5625 alpha^3, and alpha' = 1.25 alpha above alpha (1 + eps^(1/4))
    boost = ProductParams(alpha=0.25, epsilon=1e-3, factors=(5,))
    tiled = IntervalParams(15, 0.3, 1e-3, "desk", p=3, q=5, factors=(5,), n_prime=15, beta=0.0)
    model = build_model_fn(0.25, 101)
    model.fn.values[0] = 0.3  # the mean moves by 0.3 / 101
    spike = np.full(7, 0.1)
    spike[0] = 1.0  # density 0.0049 at every d, below alpha^3 - eps = 0.0109
    save_fn(DensityFn(cyclic(7), spike), tmp_path / "f.json")
    upper = ["upper", "--in", str(tmp_path / "f.json"), "--epsilon", "1e-3", "--rho0", "0.3",
             "--out", str(tmp_path / "t")]

    def no_error(fn):
        try:
            fn()
        except (DomainError, InfeasibleError):
            return False
        except RetriesExhausted:  # every check passed and the scan ran
            pass
        return True

    def verdicts():
        conclusions = construct_product(boost, seed=42)[1].conclusions
        return (
            worst_difference(prof, 0.3).passed,
            scan_interval_fn(np.full(101, 0.5), 0.12).passed,  # every d has density 1/8
            low.ok,
            conclusions["mean_cube_le_3_2_alpha3"],
            conclusions["alpha_star_in_window"],
            feasibility(ProductParams(0.9, 1e-3, (5,))).checks[1].status == "pass",  # alpha' 1.125
            no_error(lambda: scaled_indicator(low, 0.2)),  # peak 1.4
            no_error(lambda: step1_step2_tile(tiled, DensityFn(cyclic(5), np.full(5, 0.25)))),
            # alpha* = 0.3 against a low-AP subset of density about 0.1, then the
            # overlay's mean against alpha
            no_error(lambda: construct_interval_fn(
                choose_interval_params(2000, 0.25, 1e-3), 0, 1, 1)),
            verify_model_properties(model).ok,
            no_error(lambda: pick_increment_index([1.5], 0.5, 0.1)),
            main(upper) == 0,
        )

    assert not any(verdicts())
    monkeypatch.setattr(popdiff.aps, "VERDICT_SLACK", 5.0)
    assert all(verdicts())


def _perturbed_model(alpha, n=101):
    """The model function plus 0.1 alpha cos(6 pi x / n): its second and cube
    moments move by about 1 %."""
    m = build_model_fn(alpha, n)
    m.fn.values = m.values + 0.1 * alpha * np.cos(6 * np.pi * np.arange(n) / n)
    return m


@settings(max_examples=50)
@given(
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 0.9, 1.0, 1.1]),
    st.sampled_from([5, 7, 11]),
    st.sampled_from([1e-3, 8e-3, 0.2]),
)
def test_verdicts_do_not_depend_on_scale(k, seed, frac, m1, eps):
    # values scaled by 2^-k, and targets by 2^-3k, are exact copies of the
    # unscaled problem, so no pass/fail may change with k
    vals = np.random.default_rng(seed).integers(0, 11, 3001) / 100  # mean about 0.05
    worst = worst_difference(ap_profile(DensityFn(interval(3001), vals), OVER_WINDOW)).max_offdiag

    def outcomes(s):
        target = frac * worst * s**3
        prof = ap_profile(DensityFn(interval(3001), s * vals), OVER_WINDOW)
        try:
            product = construct_product(ProductParams(0.25 * s, eps, (m1,)), seed=0)[1].conclusions
        except RetriesExhausted as exc:  # level 1 fails its target
            product = exc.log["best_verdict"].passed
        return (
            worst_difference(prof, target).passed,
            scan_interval_fn(s * vals, target).passed,
            product,
            verify_model_properties(build_model_fn(0.25 * s, 101)).ok,
            verify_model_properties(_perturbed_model(0.25 * s)).ok,
        )

    assert outcomes(2.0**-k) == outcomes(1.0)


def test_no_float_slack_outside_the_named_constants():
    # every comparison takes its slack from VERDICT_SLACK through within; the
    # other small float literals are named thresholds with their own roles
    named = {"VERDICT_SLACK", "_VALUE_SLACK", "SUPPORT_EPS", "SPARSE_TOL"}
    found = []
    for path in sorted(Path(popdiff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in named for t in node.targets
            ):
                allowed.add(id(node.value))
            if isinstance(node, ast.ClassDef) and node.name == "SuiteReport":
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "failures":
                        allowed.update(id(v) for v in fn.args.defaults)
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < node.value < 1e-6 and id(node) not in allowed
        ]
    assert found == []


@given(
    st.integers(2, 30).map(lambda k: 2 * k + 1),
    st.lists(st.integers(1, 1 << 30), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_spectral_backend_within_error_bound(n, freqs, seed):
    # a few large conjugate-symmetric coefficients plus small ones that fall
    # below a coarse support threshold, so the truncation error is real
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=np.complex128)
    r = np.arange(1, (n + 1) // 2)
    c[r] = 1e-4 * rng.uniform(-1, 1, len(r))
    big = np.array(sorted({f % n for f in freqs} - {0}), dtype=np.int64)
    c[big] = 0.05 * np.exp(2j * np.pi * rng.uniform(0, 1, len(big)))
    c[n - r] = np.conj(c[r])
    c[0] = 0.5
    f = DensityFn(cyclic(n), idft(c).real)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popdiff.domains, "SUPPORT_EPS", 2e-3)  # of max|c| = 0.5: a 1e-3 cutoff
        spec = dft(f)
        bound = sparse_error_bound(f.values, spec)
        sparse = perdiff_table_sparse(spec)
    exact = np.asarray(brute_sums(f.values.tolist(), True)) / n
    assert np.abs(sparse - exact).max() <= bound + 1e-12


@st.composite
def sparse_spectra(draw, n_max=400):
    # a few Gaussian coefficients, conjugate-symmetric (a real function) or not
    n = draw(st.integers(1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = rng.choice(n, draw(st.integers(1, min(n, 40))), replace=False)
    c = np.zeros(n, dtype=np.complex128)
    c[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    if draw(st.booleans()):
        c[(-idx) % n] = np.conj(c[idx])
    return Spectrum(n, c)


@given(sparse_spectra())
def test_sparse_profile_matches_reference_bitwise(spec):
    assert perdiff_table_sparse(spec).tobytes() == reference_perdiff_table_sparse(spec).tobytes()


@given(sparse_spectra(), st.integers(1, 40))
def test_sparse_profile_matches_reference_across_pair_blocks(spec, block):
    # a small pair block splits the support pairs into several bincount passes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popdiff.aps, "_PAIR_BLOCK", block)
        got = perdiff_table_sparse(spec)
        want = reference_perdiff_table_sparse(spec)
    assert got.tobytes() == want.tobytes()


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_triple_amplitudes_evaluate_the_progression_sum(m, seed):
    # three fibers with a few frequencies each: idft of the bins is
    # E_x F0(x) F1(x+e) F2(x+2e) at every e
    rng = np.random.default_rng(seed)
    coef = np.zeros((3, m), dtype=np.complex128)
    for row in coef:
        idx = rng.choice(m, min(m, 3), replace=False)
        row[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    f0, f1, f2 = (idft(row) for row in coef)
    x = np.arange(m)
    want = [np.mean(f0 * f1[(x + e) % m] * f2[(x + 2 * e) % m]) for e in range(m)]
    r0, r1 = np.divmod(np.arange(m * m), m)
    amp = triple_amplitudes(coef[0, r0], r0, coef[1, r1], r1, coef[2].take, m)
    assert np.abs(idft(amp) - want).max() < 1e-12


# ---------------------------------------------------------------------------
# plan: the one backend decision


def _indicator(n, k):
    v = np.zeros(n)
    v[np.random.default_rng(n + k).choice(n, k, replace=False)] = 1.0
    return v


def _plan_cases():
    """(name, plan's arguments, expected (backend, reason))."""
    uniform = np.random.default_rng(0).random(1009)
    model = build_model_fn(0.25, 1009).fn.values
    low, high = _indicator(101, 20), _indicator(101, 21)  # 0.2 n = 20.2
    spec = lambda v: {"spectrum": dft(DensityFn(cyclic(len(v)), v))}
    every_d = np.random.default_rng(1).permutation(101)
    return [
        ("cyclic indicator below 0.2 n", (low,), {}, ("pairs", "sparse indicator")),
        ("cyclic indicator above 0.2 n", (high,), {}, ("windows", "dense indicator")),
        ("interval indicator below 0.2 n", (_indicator(100, 20),), {"cyclic": False},
         ("pairs", "sparse indicator")),
        ("interval indicator above 0.2 n", (_indicator(100, 21),), {"cyclic": False},
         ("windows", "dense indicator")),
        ("indicator with its spectrum", (low,), spec(low), ("pairs", "sparse indicator")),
        ("dense spectrum", (uniform,), spec(uniform), ("windows", "wide spectrum")),
        ("dense values, no spectrum", (uniform,), {}, ("windows", "no spectrum")),
        ("interval values", (uniform,), {"cyclic": False}, ("windows", "no spectrum")),
        ("model profile", (model,), spec(model), ("sparse", "sparse spectrum")),
        ("uniform x 1e-13", (uniform * 1e-13,), spec(uniform * 1e-13), ("windows", "wide spectrum")),
        ("model x 1e-13", (model * 1e-13,), spec(model * 1e-13), ("sparse", "sparse spectrum")),
        ("explicit diffs", (low, [1, 2, 3]), {}, ("perdiff", EXPLICIT)),
        ("explicit diffs of an interval", (_indicator(100, 20), [0, 1]), {"cyclic": False},
         ("perdiff", EXPLICIT)),
        ("explicit diffs missing one d", (low, every_d[1:]), {}, ("perdiff", EXPLICIT)),
        ("explicit diffs covering Z_n", (low, every_d), {}, ("pairs", "sparse indicator")),
        ("explicit diffs covering Z_n, shifted by n", (high, every_d + 101), {},
         ("windows", "dense indicator")),
    ]


@pytest.mark.parametrize("case", _plan_cases(), ids=lambda c: c[0])
def test_plan_pins_backend_and_reason(case):
    _, args, kwargs, want = case
    assert plan(*args, **kwargs) == want


def test_profiles_record_the_backend_that_ran():
    model = build_model_fn(0.25, 1009).fn
    prof = ap_profile(model)
    assert (prof.backend, prof.reason) == ("sparse", "sparse spectrum")
    assert np.array_equal(prof.densities, perdiff_table_sparse(dft(model)))
    forced = ap_profile(model, path="dense")
    assert (forced.backend, forced.reason) == ("windows", "forced")
    assert ap_profile(model, path="sparse").reason == "forced"
    s = DensityFn(interval(100), _indicator(100, 20))
    prof = ap_profile(s, OVER_N)
    assert (prof.backend, prof.reason) == ("pairs", "sparse indicator")
    assert np.array_equal(prof.densities, _pair_sums(s.values, False) / 100)
    # level 1 of a product is a kernel table, every later level is structural
    level1 = build_level1(0.25, 5)
    assert (level1.profile.backend, level1.profile.reason) == ("windows", "no spectrum")
    level2 = random_modify_level(level1, 7, np.random.default_rng(0), 0.5)
    assert level2.profile.backend == "structural"
    assert level2.profile.reason == "level below plus fiber terms"
    assert level2.profile.densities is level2.density_table


def test_explicit_diffs_covering_every_d_take_the_full_table():
    # the same bits as the full table, in the order asked for
    rng = np.random.default_rng(3)
    for v in (rng.random(101), _indicator(101, 15)):
        order = rng.permutation(101)
        assert np.array_equal(ap_sums(v, order), ap_sums(v)[order])
    v = rng.random(100)
    assert np.array_equal(ap_sums(v, np.arange(50), cyclic=False), ap_sums(v, cyclic=False))


def test_a_search_plans_its_table_once(monkeypatch):
    # the label of the search's profile is the plan that computed its sums,
    # here over a support that covers Z_n
    seen = []
    real = popdiff.aps.plan
    monkeypatch.setattr(popdiff.aps, "plan", lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    n = 101
    tr = upper_search(DensityFn(cyclic(n), np.full(n, 0.3)), 0.05, schedule=geometric_schedule(0.25))
    assert tr.phi_support.size == n
    assert seen == [("windows", "no spectrum")]


@pytest.mark.parametrize("kind", ["uniform", "model"])
def test_profile_at_a_tiny_scale_matches_the_direct_sums(kind):
    # at 1e-13 no coefficient clears an absolute 1e-12, which once sent both
    # inputs down a sparse path with an empty support and an all-zero profile
    n = 1009
    base = np.random.default_rng(0).random(n) if kind == "uniform" else build_model_fn(0.25, n).fn.values
    v = base * 1e-13
    dense = ap_sums(v) / n
    got = ap_profile(DensityFn(cyclic(n), v)).densities
    assert dense.max() > 0
    assert np.abs(got - dense).max() <= 1e-9 * dense.max()


def test_sparse_profile_computes_the_support_once(monkeypatch):
    calls = []

    class CountingSpectrum(Spectrum):
        @cached_property
        def support(self):
            calls.append(1)
            return Spectrum.support.func(self)

    monkeypatch.setattr(popdiff.aps, "dft", lambda f: CountingSpectrum(f.n, dft(f).coeffs))
    prof = ap_profile(build_model_fn(0.25, 1009).fn)
    assert prof.backend == "sparse" and len(calls) == 1


def _reads(tree, names, module):
    """(name, module.qualname of the scope) for every read of ``names``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load):
            found.add((node.id, ".".join((module,) + scope)))
        if isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.ctx, ast.Load):
            found.add((node.attr, ".".join((module,) + scope)))
        if isinstance(node, ast.ImportFrom):
            found.update((a.name, module) for a in node.names if a.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_reader_per_threshold():
    readers = {
        "_PAIR_CROSSOVER": "aps.plan",
        "SPARSE_TOL": "aps.plan",
        "_SPARSE_MIN": "aps.plan",
        "SUPPORT_EPS": "domains.Spectrum.support",
    }
    found = set()
    for path in sorted(Path(popdiff.__file__).parent.glob("*.py")):
        found |= _reads(ast.parse(path.read_text(encoding="utf-8")), set(readers), path.stem)
    assert found == set(readers.items())
