"""Process start-up: importing popdiff keeps OpenBLAS to one thread unless
the user chose a thread count, no result depends on the BLAS threads, and
each CLI command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import popdiff
from popdiff.domains import DensityFn, cyclic, save_fn

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(popdiff.__file__).resolve().parents[1])

REPORT = (
    "import json, os; print(json.dumps({"
    f"'env': {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}, "
    "'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None}))"
)


def run_python(args, **env_set):
    """Run the interpreter with the three thread variables unset except for
    ``env_set``, and popdiff importable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update(env_set)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def report_after(imports, **env_set):
    return json.loads(run_python(["-c", f"{imports}; {REPORT}"], **env_set))


def test_import_starts_single_threaded():
    # import popdiff alone loads no numpy; a submodule loads it after the guard
    rep = report_after("import popdiff.aps")
    assert rep["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                          "OMP_NUM_THREADS": None}
    if rep["threads"] is not None:
        assert rep["threads"] == 1


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_setting_is_kept(name):
    rep = report_after("import popdiff", **{name: "2"})
    assert rep["env"] == {k: "2" if k == name else None for k in THREAD_VARS}


def test_import_after_numpy_leaves_environment():
    rep = report_after("import numpy; import popdiff")
    assert rep["env"] == dict.fromkeys(THREAD_VARS)


def test_upper_trace_independent_of_blas_threads(tmp_path):
    # OpenBLAS threads ddot above n = 10000, and on this input a BLAS dot
    # product gives lambda_phi values that differ in the last bit between
    # one and two threads
    n = 15629
    v = np.random.default_rng(2).uniform(0, 1, n)
    v *= 0.3 / v.mean()
    save_fn(DensityFn(cyclic(n), np.clip(v, 0, 1)), tmp_path / "u.fn.json")
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        run_python(["-m", "popdiff.cli", "upper", "--in", str(tmp_path / "u.fn.json"),
                    "--epsilon", "0.05", "--rho0", "0.3", "--out", str(out)],
                   OPENBLAS_NUM_THREADS=threads)
        traces.append(Path(f"{out}.trace.json").read_bytes())
    assert traces[0] == traces[1]



BARE = ("numpy", "aps", "behrend", "bohr", "domains", "fourier", "interval", "modelfn", "product")
SCAN = ("bohr", "behrend", "product", "interval", "modelfn")

# (argv, exit code, modules that must stay unloaded); argv None only imports
# popdiff, and the files are written by the test into the working directory
IMPORT_CASES = {
    "import": (None, None, BARE),
    "version": (["--version"], 0, BARE),
    "bad-flag": (["scan", "--bogus"], 2, BARE),
    "scan": (["scan", "--in", "u.fn.json", "--out", "o"], 0, SCAN),
    "scan-set": (["scan", "--in", "s.set.json", "--out", "o"], 0, SCAN),
    "verify-fn": (["verify", "--in", "u.fn.json", "--epsilon", "0.5"], 1, SCAN),
    "verify-set": (["verify", "--in", "s.set.json", "--epsilon", "0.5"], 0, SCAN),
    "upper": (["upper", "--in", "u.fn.json", "--epsilon", "0.05", "--out", "o"], 0,
              ("behrend", "product", "interval", "modelfn", "numpy.ma")),
    "construct-behrend": (["construct", "--kind", "behrend", "--n", "27", "--out", "o"], 0, BARE),
    "construct-lowap": (["construct", "--kind", "lowap", "--alpha", "0.05", "--n", "55",
                         "--out", "o"], 0, ("bohr", "product", "interval", "modelfn")),
    "construct-model": (["construct", "--kind", "model", "--n", "101", "--out", "o"], 0,
                        ("bohr", "product", "interval", "behrend", "apfree", "numpy.random")),
    "construct-product": (["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
                           "--factors", "5", "--out", "o"], 1,
                          ("bohr", "interval", "behrend", "apfree", "numpy.ma")),
}

PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import popdiff
else:
    from popdiff.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_command_loads_only_its_modules(tmp_path, monkeypatch, case):
    argv, code, absent = IMPORT_CASES[case]
    monkeypatch.chdir(tmp_path)
    save_fn(DensityFn(cyclic(201), np.random.default_rng(3).uniform(0, 0.5, 201)), "u.fn.json")
    Path("s.set.json").write_text(json.dumps({"elements": [1, 2, 5, 11], "N": 40}))
    rep = json.loads(run_python(["-c", PROBE, json.dumps(argv)]).splitlines()[-1])
    assert rep["code"] == code
    unwanted = {name if name.startswith("numpy") else f"popdiff.{name}" for name in absent}
    assert not unwanted & set(rep["modules"]), sorted(unwanted & set(rep["modules"]))
