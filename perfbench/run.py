"""popdiff benchmark: time to a verified CLI result.

    python3 perfbench/run.py --workload {scan,search,construct} --seed N \
        --seconds S --trace {0,1}

Run from the root of a popdiff checkout.  The benchmark generates the
workload's inputs from the seed, computes every expected answer with
numpy-only oracles, and then runs the workload's fixed job list as a closed
loop with one client: each job is a fresh ``python -m popdiff.cli`` process
started only after the previous one ended.  A pass is one run of the job
list; at least two passes run, more while they fit in ``--seconds``, and
every output of every pass is checked against the oracles and byte-compared
with the first pass.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
passes alternate between untraced and traced (see child.py) and it reports
the per-layer metrics of the traced passes plus the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# address-space cap per job: 16x the largest peak RSS here (129 MB) and 7x
# that of `upper` at n=4093; a runaway allocation then fails only its own job
AS_LIMIT_MB = 2048
# `--version` samples taken before every pass, so set-up time is sampled
# across the whole run rather than in one burst
SETUP_PER_PASS = 4
MIN_PASSES = 2
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s
JOB_TIMEOUT_S = 90.0

LAYERS = ("fourier", "aps", "interval", "bohr", "behrend", "product", "modelfn", "domains", "cli")
LAYER_COUNTERS = {
    "fourier": ("points", "max_n"),
    "aps": ("diffs", "dense_tables", "sparse_tables"),
    "interval": ("scans", "scan_points", "overlay_attempts"),
    "bohr": ("levels", "collapsed_levels", "candidates", "elements"),
    "behrend": ("brute_misses", "pairs"),
    "product": ("attempts", "table_entries"),
    "domains": ("bytes_read", "bytes_written"),
}
# name -> (numerator counter, denominator counter)
LAYER_RATIOS = {
    "interval.pass_ratio": ("interval.scans_passed", "interval.scans"),
    "product.pass_ratio": ("product.verdicts_passed", "product.verdicts"),
    "behrend.cache_hit_ratio": ("behrend.cache_hits", "behrend.lookups"),
}
UNITS = {"bytes_read": "bytes", "bytes_written": "bytes", "max_n": "count"}


@dataclass
class JobResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    errors: list = field(default_factory=list)
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    jobs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# child processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("POPDIFF_SEED", None)  # it overrides --seed and would change construct
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, stdout: Path, stderr: Path, timeout: float):
    """Run one child to completion; returns (wall_s, rusage, exit_code, timed_out)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        with lock:
            state["reaped"] = True
    finally:
        timer.cancel()
        timer.join()
    return wall, usage, os.waitstatus_to_exitcode(status), state["killed"]


class Runner:
    def __init__(self, root: Path, work: Path, time_left):
        self.work = work
        self.env = child_env(root)
        self.time_left = time_left

    def argv(self, trace_out: str, cli_args: list) -> list:
        return [sys.executable, str(CHILD), str(AS_LIMIT_MB), trace_out, *cli_args]

    def setup_times(self) -> list:
        d = self.work / "setup"
        d.mkdir(exist_ok=True)
        out = []
        for _ in range(SETUP_PER_PASS):
            wall, _, code, _ = spawn(self.argv("-", ["--version"]), self.env, d / "out", d / "err",
                                     self.time_left())
            if code != 0:
                raise RuntimeError(f"popdiff --version exited {code}: {(d / 'err').read_text()[:500]}")
            out.append(wall)
        return out

    def run_pass(self, index: int, jobs: list, traced: bool) -> Pass:
        d = self.work / f"pass{index}"
        d.mkdir()
        p = Pass(traced)
        t0 = time.perf_counter()
        for job in jobs:
            prefix = d / job.name
            args = [prefix.as_posix() if a == "{out}" else a for a in job.argv]
            trace_out = f"{prefix}.spans.json" if traced else "-"
            left = self.time_left()
            if left <= 0:
                p.jobs.append(JobResult(job.name, 0.0, 0.0, 0.0, -1, ["run deadline reached before the job"]))
                continue
            wall, usage, code, killed = spawn(
                self.argv(trace_out, args), self.env, Path(f"{prefix}.stdout"),
                Path(f"{prefix}.stderr"), min(JOB_TIMEOUT_S, left))
            res = JobResult(job.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)
            if killed:
                res.errors.append("killed at the job timeout")
            if traced:
                try:
                    res.trace = json.loads(Path(trace_out).read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError) as exc:
                    res.errors.append(f"no trace written: {exc}")
            p.jobs.append(res)
        p.wall_s = time.perf_counter() - t0
        return p


# ---------------------------------------------------------------------------
# output checks


def check_pass(p: Pass, index: int, first: int | None, jobs: list, work: Path) -> None:
    """Fill each JobResult.errors: exit code, tracebacks, oracle checks, and
    byte identity with the same job's outputs in pass ``first``."""
    d = work / f"pass{index}"
    for job, res in zip(jobs, p.jobs):
        if res.errors:
            continue
        prefix = d / job.name
        stdout = Path(f"{prefix}.stdout").read_text(encoding="utf-8", errors="replace")
        stderr = Path(f"{prefix}.stderr").read_text(encoding="utf-8", errors="replace")
        if res.exit_code != job.expect_exit:
            res.errors.append(f"exit {res.exit_code}, expected {job.expect_exit}")
        if "Traceback" in stderr:
            res.errors.append("traceback: " + stderr.strip().splitlines()[-1][:200])
        missing = [s for s in job.artifacts if not Path(f"{prefix}{s}").is_file()]
        if missing:
            res.errors.append(f"missing artifacts {missing}")
        if res.errors:
            continue
        try:
            res.errors.extend(job.check(prefix, stdout, stderr))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if first is not None:
            ref = work / f"pass{first}" / job.name
            for suffix in (*job.artifacts, ".stdout", ".stderr"):
                if Path(f"{prefix}{suffix}").read_bytes() != Path(f"{ref}{suffix}").read_bytes():
                    res.errors.append(f"{suffix} differs from pass {first}")


# ---------------------------------------------------------------------------
# per-layer numbers from spans


def layer_stats(trace: dict) -> dict:
    """calls / busy_s (outermost spans of a layer) / self_s (minus direct children)."""
    spans = trace["spans"]
    out: dict = {}
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (layer, name, start, end, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][4]
        if p < 0:
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.busy_s"] = out.get(f"{layer}.busy_s", 0.0) + (end - start)
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + (end - start) - child_time[i]
        if name == "brute_max_apfree":  # outermost by name: apfree_set calls it inside behrend
            q = parent
            while q >= 0 and spans[q][1] != name:
                q = spans[q][4]
            if q < 0:
                out["behrend.brute_s"] = out.get("behrend.brute_s", 0.0) + (end - start)
    out.update(trace["counters"])
    hits = trace["counters"].get("behrend.cache_hits", 0)
    out["behrend.lookups"] = hits + trace["counters"].get("behrend.cache_misses", 0)
    return out


def pass_layers(p: Pass) -> dict:
    total: dict = {}
    for res in p.jobs:
        if res.trace is None:
            continue
        for key, val in layer_stats(res.trace).items():
            total[key] = max(total.get(key, 0), val) if key == "fourier.max_n" else total.get(key, 0) + val
    for name, (num, den) in LAYER_RATIOS.items():
        total[name] = total.get(num, 0) / total[den] if total.get(den) else 0.0
    return total


def per_layer_names() -> list:
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
        names += [(f"{layer}.{c}", UNITS.get(c, "count")) for c in LAYER_COUNTERS.get(layer, ())]
    names += [("interval.pass_ratio", "ratio"),
              ("behrend.brute_s", "s"), ("behrend.cache_hit_ratio", "ratio"),
              ("product.pass_ratio", "ratio"), ("trace.overhead_s", "s")]
    return names


# ---------------------------------------------------------------------------
# environment


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _proc_ticks() -> dict:
    ticks = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmd = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "python" not in cmd:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        ticks[entry.name] = (int(fields[11]) + int(fields[12]), cmd.strip()[:120])
    return ticks


def busy_pythons(window: float = 0.5, threshold: float = 0.2) -> list:
    """Other python processes using more than `threshold` of a core right now."""
    if not Path("/proc/self/stat").exists():
        return []
    hz = os.sysconf("SC_CLK_TCK")
    before = _proc_ticks()
    time.sleep(window)
    after = _proc_ticks()
    busy = []
    for pid, (t1, cmd) in after.items():
        if pid in before and (t1 - before[pid][0]) / hz / window > threshold:
            busy.append(f"pid {pid}: {cmd}")
    return busy


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "popdiff" / "cli.py").is_file():
        print(f"error: no popdiff source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    info = machine_info()
    busy = busy_pythons()
    for line in busy:
        print(f"warning: another busy python process may skew timings: {line}", file=sys.stderr)

    jobs = workloads.build(args.workload, args.seed, work / "inputs")
    runner = Runner(root, work, lambda: RUN_DEADLINE_S - (time.perf_counter() - t_start))
    setup: list = []

    # pass 0 is untraced and is the byte-identity reference for every later pass
    passes: list = []
    t_measure = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        setup += runner.setup_times()
        p = runner.run_pass(len(passes), jobs, traced)
        check_pass(p, len(passes), 0 if passes else None, jobs, work)
        passes.append(p)
        elapsed = time.perf_counter() - t_measure
        if runner.time_left() < p.wall_s + 10:
            break
        if len(passes) >= MIN_PASSES and elapsed + p.wall_s > args.seconds:
            break

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(1 for p in passes for r in p.jobs if r.errors)
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]

    def med(values):
        return float(statistics.median(values))

    end_to_end = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med([p.wall_s for p in plain]), "s"),
        # pooled over the untraced passes, so that the median is taken over
        # every sample of the middle jobs, not over one per pass
        "job_s_p50": (med([r.wall_s for p in plain for r in p.jobs]), "s"),
        "cpu_s": (med([sum(r.cpu_s for r in p.jobs) for p in plain]), "s"),
        "peak_rss_mb": (med([max(r.rss_mb for r in p.jobs) for p in plain]), "MB"),
    }
    print(f"popdiff benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"machine  {json.dumps(info, sort_keys=True)}")
    print(f"passes   {len(plain)} untraced, {len(traced_passes)} traced; {len(jobs)} jobs per pass")
    for p_i, p in enumerate(passes):
        for r in p.jobs:
            if r.errors:
                print(f"FAILED   pass {p_i} {r.name}: {'; '.join(r.errors)}")
    for name, (val, unit) in end_to_end.items():
        extra = f"  (median of {len(jobs) * len(plain)} jobs)" if name == "job_s_p50" else ""
        print(f"  {name:<14} {val:12.4f} {unit}{extra}")
    print(f"  {'error_rate':<14} {failed / attempted:12.4f} ratio  ({failed} of {attempted} jobs)")

    if args.trace:
        layers = [pass_layers(p) for p in traced_passes]
        metrics = {}
        for name, unit in per_layer_names():
            if name == "trace.overhead_s":
                val = med([p.wall_s for p in traced_passes]) - end_to_end["wall_s"][0]
            else:
                val = med([lay.get(name, 0) for lay in layers])
            metrics[name] = {"value": val, "unit": unit}
            print(f"  {name:<28} {val:14.6g} {unit}")
        absent = sorted({a for p in traced_passes for r in p.jobs if r.trace for a in r.trace["absent"]})
        for a in absent:
            print(f"warning: traced name absent from the program: {a}", file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info,
              "busy_pythons": busy, "setup_samples_s": setup, "metrics": metrics,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                          "jobs": [{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                                    "rss_mb": r.rss_mb, "exit": r.exit_code, "errors": r.errors}
                                   for r in p.jobs]} for p in passes]}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
