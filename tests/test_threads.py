"""Process start-up: importing popdiff keeps OpenBLAS to one thread unless
the user chose a thread count, and no result depends on the BLAS threads."""

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
    rep = report_after("import popdiff")
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
