"""The three workloads: generated inputs, fixed job lists, expected verdicts.

``build(name, seed, inputs)`` writes every input file a workload needs into
``inputs``, computes the expected answers with the numpy-only oracles, and
returns the job list.  Everything that is compared against a CLI output is
known before the first job is timed, except checks that replay an artifact
the program itself produced (constructions), which recompute from the
artifact's own values.

A job's ``argv`` holds ``{out}`` where the runner substitutes the job's
output prefix for the current pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("scan", "search", "construct")

# exit codes of the CLI (README "Exit codes")
EXIT_OK, EXIT_VERIFY, EXIT_RETRIES = 0, 1, 3


@dataclass
class Job:
    name: str
    argv: list
    expect_exit: int
    artifacts: tuple = ()  # suffixes written under the {out} prefix
    check: Callable | None = None  # (out_prefix: Path, stdout: str, stderr: str) -> [errors]


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def _write_fn(path: Path, values: np.ndarray) -> None:
    obj = {"domain": {"kind": "cyclic", "n": int(len(values))}, "values": [float(v) for v in values]}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _uniform_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform-random values rescaled to mean 0.3 (as in acceptance 7)."""
    v = rng.uniform(0, 1, n)
    v *= 0.3 / v.mean()
    return np.clip(v, 0, 1)


def _close(a, b, tol=oracle.DENSITY_TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# scan: replay every density and certificate through scan / verify


def _group_verdict(prof: np.ndarray, alpha: float, epsilon: float) -> tuple[float, bool]:
    target = alpha**3 * (1 - epsilon)
    worst = float(prof[1:].max())
    if abs(worst - target) < 1e-9:
        raise RuntimeError("generated input sits on the verify threshold; verdict is ambiguous")
    return target, worst <= target + 1e-12


def _scan_check(values: np.ndarray, prof: np.ndarray):
    ties = {d + 1 for d in oracle.near_argmax(prof[1:])}
    mean = float(values.mean())
    total = float(prof.mean())

    def check(out: Path, stdout: str, stderr: str) -> list:
        errs = []
        rows = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (len(prof), 2) or not np.array_equal(rows[:, 0], np.arange(len(prof))):
            return [f"profile csv has shape {rows.shape}, expected {(len(prof), 2)}"]
        dev = float(np.abs(rows[:, 1] - prof).max())
        if dev > oracle.DENSITY_TOL:
            errs.append(f"profile deviates from direct slice sums by {dev:.3g}")
        s = _read_json(Path(f"{out}.summary.json"))
        if not _close(s.get("mean"), mean, 1e-12):
            errs.append(f"summary mean {s.get('mean')} != {mean}")
        if not _close(s.get("total_3ap_density"), total):
            errs.append(f"total density {s.get('total_3ap_density')} != {total}")
        if not _close(s.get("max_offdiag_density"), prof[1:].max()):
            errs.append(f"max density {s.get('max_offdiag_density')} != {prof[1:].max()}")
        if s.get("argmax_d") not in ties:
            errs.append(f"argmax_d {s.get('argmax_d')} not among {sorted(ties)[:4]}")
        return errs

    return check


def _verify_check(target: float, worst: float, ties: set, passed: bool):
    def check(out: Path, stdout: str, stderr: str) -> list:
        try:
            rep = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return ["verify printed no JSON report"]
        errs = []
        if not _close(rep.get("target"), target, 1e-12):
            errs.append(f"target {rep.get('target')} != {target}")
        if not _close(rep.get("worst_density"), worst):
            errs.append(f"worst density {rep.get('worst_density')} != {worst}")
        if rep.get("worst_d") not in ties:
            errs.append(f"worst_d {rep.get('worst_d')} not among {sorted(ties)[:4]}")
        if rep.get("passed") is not passed:
            errs.append(f"passed={rep.get('passed')}, oracle says {passed}")
        return errs

    return check


def _scan_jobs(seed: int, inputs: Path) -> list:
    jobs = []
    # sizes straddle the 4096 direct/Bluestein transform cutoff; no n=1009
    # files, whose jobs would be mostly interpreter start-up
    groups = [("u", 4093), ("u", 15629), ("m", 15629)]
    for k, (kind, n) in enumerate(groups):
        rng = _rng(seed, 1, k)
        if kind == "u":
            values = _uniform_values(rng, n)
            # verified against a generous alpha: the dense file passes
            verify_alpha, eps = 0.4, 1e-3
        else:
            values = oracle.model_values(float(rng.uniform(0.15, 0.35)), n)
            verify_alpha, eps = None, 1e-3  # the model profile fails at d = 1
        path = inputs / f"{kind}{n}.fn.json"
        _write_fn(path, values)  # floats round-trip exactly through JSON
        prof = oracle.group_profile(values)
        jobs.append(
            Job(f"scan-{kind}{n}", ["scan", "--in", str(path), "--out", "{out}"], EXIT_OK,
                (".csv", ".summary.json"), _scan_check(values, prof))
        )
        alpha = verify_alpha if verify_alpha is not None else float(values.mean())
        target, passed = _group_verdict(prof, alpha, eps)
        argv = ["verify", "--in", str(path), "--epsilon", str(eps)]
        if verify_alpha is not None:
            argv += ["--alpha", str(verify_alpha)]
        ties = {d + 1 for d in oracle.near_argmax(prof[1:])}
        jobs.append(
            Job(f"verify-{kind}{n}", argv, EXIT_OK if passed else EXIT_VERIFY, (),
                _verify_check(target, float(prof[1:].max()), ties, passed))
        )
    for k, n_total in enumerate((20000, 100000)):
        rng = _rng(seed, 2, k)
        elems = np.sort(rng.choice(n_total, size=n_total // 20, replace=False) + 1)
        path = inputs / f"set{n_total}.set.json"
        path.write_text(json.dumps({"elements": [int(v) for v in elems], "N": n_total}) + "\n")
        d, dens = oracle.interval_worst(elems, n_total)
        alpha = elems.size / n_total
        target = alpha**3 * (1 - 1e-3)
        worst = float(dens.max())
        if abs(worst - target) < 1e-9:
            raise RuntimeError("generated set sits on the verify threshold")
        ties = set(int(v) for v in d[dens >= worst - 1e-15])
        passed = worst <= target + 1e-12
        jobs.append(
            Job(f"verify-set{n_total}", ["verify", "--in", str(path), "--epsilon", "1e-3"],
                EXIT_OK if passed else EXIT_VERIFY, (), _verify_check(target, worst, ties, passed))
        )
    return jobs


# ---------------------------------------------------------------------------
# search: the popular-difference increment search


def _upper_check(values: np.ndarray, epsilon: float):
    def check(out: Path, stdout: str, stderr: str) -> list:
        tr = _read_json(Path(f"{out}.trace.json"))
        d = tr.get("d")
        if not isinstance(d, int) or not 0 < d < len(values):
            return [f"trace d={d!r} is not a nonzero difference"]
        want = oracle.group_per_diff(values, d)
        errs = []
        if not _close(tr.get("density"), want):
            errs.append(f"trace density {tr.get('density')} != direct {want} at d={d}")
        if want < values.mean() ** 3 - epsilon:
            errs.append(f"d={d} is not popular: {want} < alpha^3 - eps")
        return errs

    return check


def _search_jobs(seed: int, inputs: Path) -> list:
    jobs = []
    eps = 0.05
    files = [("u", 1009, 0), ("u", 1009, 1), ("u", 1009, 2), ("u", 2003, 0), ("m", 1009, 0)]
    for kind, n, rep in files:
        rng = _rng(seed, 3, n, rep)
        if kind == "u":
            values = _uniform_values(rng, n)
        else:
            values = oracle.model_values(float(rng.uniform(0.2, 0.3)), n)
        path = inputs / f"{kind}{n}-{rep}.fn.json"
        _write_fn(path, values)
        argv = ["upper", "--in", str(path), "--epsilon", str(eps), "--schedule", "geometric",
                "--rho0", "0.3", "--out", "{out}"]
        # alpha^3 - eps < 0 for every mean used here, so each search must succeed
        jobs.append(Job(f"upper-{kind}{n}-{rep}", argv, EXIT_OK, (".trace.json",),
                        _upper_check(values, eps)))
    return jobs


# ---------------------------------------------------------------------------
# construct: the constructions and their certificates


def _lowap_check(n: int, alpha: float):
    bound = oracle.lowap_bound(alpha, n)

    def check(out: Path, stdout: str, stderr: str) -> list:
        s = _read_json(Path(f"{out}.set.json"))
        cert = _read_json(Path(f"{out}.cert.json"))
        el = np.asarray(s.get("elements", []), dtype=np.int64)
        errs = []
        if el.size == 0 or el.min() < 0 or el.max() >= n or np.unique(el).size != el.size:
            return ["lowap elements are not distinct residues mod n"]
        ap = oracle.cyclic_ap_count(el, n) / n**2
        if not _close(s.get("ap_density"), ap, 1e-15):
            errs.append(f"ap_density {s.get('ap_density')} != direct count {ap}")
        if not _close(s.get("density"), el.size / n, 1e-15) or el.size < alpha * n:
            errs.append(f"density {s.get('density')} vs |A|/n = {el.size / n}, alpha = {alpha}")
        if not _close(cert.get("bound"), bound, 1e-15) or cert.get("ok") is not (ap <= bound + 1e-12):
            errs.append(f"certificate {cert.get('ok')}/{cert.get('bound')} disagrees with bound {bound}")
        return errs

    return check


def _behrend_check(n: int):
    def check(out: Path, stdout: str, stderr: str) -> list:
        s = _read_json(Path(f"{out}.set.json"))
        cert = _read_json(Path(f"{out}.cert.json"))
        el = np.asarray(s.get("elements", []), dtype=np.int64)
        if el.size == 0 or el.min() < 1 or el.max() > n or np.unique(el).size != el.size:
            return ["behrend elements are not distinct members of [N]"]
        errs = []
        if not oracle.is_ap_free(el):
            errs.append("behrend set contains a 3-AP")
        if cert.get("size") != el.size or cert.get("ok") is not True:
            errs.append(f"certificate {cert} disagrees with the set")
        return errs

    return check


def _model_check(alpha: float, n: int):
    want = oracle.model_values(alpha, n)

    def check(out: Path, stdout: str, stderr: str) -> list:
        obj = _read_json(Path(f"{out}.fn.json"))
        v = np.asarray(obj.get("values", []), dtype=np.float64)
        if v.shape != want.shape:
            return [f"model file has {v.size} values, expected {n}"]
        dev = float(np.abs(v - want).max())
        errs = [f"model values deviate from the closed form by {dev:.3g}"] if dev > 1e-12 else []
        if abs(float(v.mean()) - alpha) > 1e-9:
            errs.append(f"model mean {v.mean()} != alpha {alpha}")
        return errs

    return check


def _stderr_check(prefix: str):
    def check(out: Path, stdout: str, stderr: str) -> list:
        return [] if stderr.startswith(prefix) else [f"stderr does not start with {prefix!r}"]

    return check


def _construct_jobs(seed: int, inputs: Path) -> list:
    rng = _rng(seed, 4)
    s = str(int(rng.integers(0, 2**31)))
    model_alpha = round(float(rng.uniform(0.15, 0.35)), 6)
    common = ["--seed", s, "--out", "{out}"]

    def behrend(rep: int) -> Job:
        # exact maximum AP-free subset of [32], about 0.5 s of the same branch
        # and bound as the maximiser; eight copies spread over the pass make
        # the median job of the workload the middle of sixteen samples of one
        # job taken across the run, which averages the machine's drift
        return Job(f"behrend-32-{rep}", ["construct", "--kind", "behrend", "--n", "32", *common],
                   EXIT_OK, (".set.json", ".cert.json"), _behrend_check(32))

    return [
        behrend(0),
        behrend(1),
        Job("product-5x15629", ["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
                                "--factors", "5,15629", "--retries", "3", *common],
            EXIT_RETRIES, (), _stderr_check("error: level 2 failed verification on all 3 attempts")),
        behrend(2),
        behrend(3),
        # about 20 s of this job is the exact AP-free maximiser for [1..40]
        Job("lowap-1009", ["construct", "--kind", "lowap", "--alpha", "0.05", "--n", "1009", *common],
            EXIT_OK, (".set.json", ".cert.json"), _lowap_check(1009, 0.05)),
        behrend(4),
        behrend(5),
        Job("model-15629", ["construct", "--kind", "model", "--alpha", repr(model_alpha), "--n", "15629",
                            *common],
            EXIT_OK, (".fn.json", ".cert.json"), _model_check(model_alpha, 15629)),
        behrend(6),
        behrend(7),
    ]


def build(name: str, seed: int, inputs: Path) -> list:
    inputs.mkdir(parents=True, exist_ok=True)
    return {"scan": _scan_jobs, "search": _search_jobs, "construct": _construct_jobs}[name](seed, inputs)
