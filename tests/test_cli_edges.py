"""Edge sweep: every float flag of every command and every size flag of
construct, one edge value at a time, ends in a documented exit code and
never in a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import popdiff
from popdiff.cli import EXIT_CODES, EXIT_OK, EXIT_VERIFY, main

# argparse exits 2 on a value its type rejects; the commands return the rest
DOCUMENTED = {EXIT_OK, EXIT_VERIFY, 2} | {code for _, code in EXIT_CODES}

EDGES = ("5e-324", "1e-320", "1e-300", "1e-160", "1e-100", "1e-60", "1e-20", "1e-12",
         repr(1 - 1e-12), "1", "1e16", "1e308", "nan", "inf", "-0.0")

# one cheap valid command line per command and construct kind ({in} is a
# model function on Z_101), with the float flags it reads
BASES = {
    "model": (["construct", "--kind", "model", "--n", "101"], ("--alpha", "--epsilon")),
    "behrend": (["construct", "--kind", "behrend", "--n", "32"], ("--alpha", "--epsilon")),
    "lowap": (["construct", "--kind", "lowap", "--n", "101", "--alpha", "0.05"],
              ("--alpha", "--epsilon")),
    "product-desk": (["construct", "--kind", "product", "--factors", "5"], ("--alpha", "--epsilon")),
    "product-strict": (["construct", "--kind", "product", "--factors", "5", "--mode", "strict"],
                       ("--alpha", "--epsilon")),
    "interval-desk": (["construct", "--kind", "interval", "--n", "2000", "--retries", "1"],
                      ("--alpha", "--epsilon")),
    "interval-strict": (["construct", "--kind", "interval", "--n", "2000", "--mode", "strict"],
                        ("--alpha", "--epsilon")),
    "upper": (["upper", "--in", "{in}", "--epsilon", "0.05"], ("--epsilon", "--rho0")),
    "upper-strict": (["upper", "--in", "{in}", "--epsilon", "0.5", "--schedule", "strict"],
                     ("--epsilon",)),
    "verify": (["verify", "--in", "{in}", "--epsilon", "0.01"], ("--epsilon", "--alpha")),
}

CASES = [
    pytest.param(base, flag, value, id=f"{base}{flag}={value}")
    for base, (_, flags) in BASES.items()
    for flag in flags
    for value in EDGES
]

# (argv, exit code, text on stderr): lines that once ended in a traceback or
# named the wrong alpha
NAMED = {
    # alpha^6 underflowed in the level count, a ValueError in desk and strict mode;
    # the mean cube is 1.5625 alpha^3, above the 3/2 alpha^3 conclusion at any scale
    "product-alpha-1e-60": (["construct", "--kind", "product", "--factors", "5", "--alpha", "1e-60"],
                            EXIT_VERIFY, ""),
    "product-strict-alpha-1e-60": (["construct", "--kind", "product", "--factors", "5",
                                    "--alpha", "1e-60", "--mode", "strict"],
                                   4, "level-count: s=1 vs log150(eps^-1/4 alpha^6 / 8)=-165.5"),
    # alpha^3 underflowed in seam_tail_fraction, a ZeroDivisionError; the
    # parser now rejects an alpha whose cube is not a normal float
    "interval-n-2000-alpha-1e-160": (["construct", "--kind", "interval", "--n", "2000",
                                      "--alpha", "1e-160"], 2, "1e-160 has a cube below 2.2250738585072014e-308"),
    # alpha* was rounded to 0 at 12 decimals; now exact, the scan's verdict decides
    "interval-n-20000-alpha-1e-20": (["construct", "--kind", "interval", "--n", "20000",
                                      "--alpha", "1e-20"], 3, "> target 9.99e-61"),
}


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("edges") / "g"
    assert main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
                 "--out", str(out)]) == 0
    return f"{out}.fn.json"


def run(argv, tmp_path, model_file):
    argv = [model_file if a == "{in}" else a for a in argv]
    if argv[0] != "verify":
        argv += ["--out", str(tmp_path / "o")]
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the value
        return exc.code


@pytest.mark.parametrize("base, flag, value", CASES)
def test_float_edge_ends_in_documented_code(tmp_path, monkeypatch, model_file, base, flag, value):
    monkeypatch.delenv("POPDIFF_SEED", raising=False)
    argv, _ = BASES[base]
    assert run(argv + [flag, value], tmp_path, model_file) in DOCUMENTED


@pytest.mark.parametrize("name", list(NAMED))
def test_named_edge_lines(tmp_path, monkeypatch, capsys, model_file, name):
    monkeypatch.delenv("POPDIFF_SEED", raising=False)
    argv, code, text = NAMED[name]
    assert run(argv, tmp_path, model_file) == code
    err = capsys.readouterr().err
    assert text in err if code else err == ""


# ---------------------------------------------------------------------------
# integer flags and the one size rule

# 10^18 + 3 is a prime, so trial division of it would run to its square root,
# about 5e8 steps; 2^31 is left out: where RAM plus swap reach 17 GB a vector
# of that length is allocated, and model --n 2147483647 (a prime) builds several
INT_EDGES = ("0", "1", "3", "5", "7", "999", "1000", str(10**18 + 3))

# --retries stays at its base: a product that fails would retry as often
INT_BASES = {
    "model--n": (BASES["model"][0], "--n", "{}"),
    "behrend--n": (BASES["behrend"][0], "--n", "{}"),
    "lowap--n": (BASES["lowap"][0], "--n", "{}"),
    "interval--n": (BASES["interval-desk"][0], "--n", "{}"),
    "product--factors": (BASES["product-desk"][0], "--factors", "5,{}"),
}


@pytest.mark.parametrize("value", INT_EDGES)
@pytest.mark.parametrize("base", INT_BASES)
def test_integer_edge_ends_in_documented_code(tmp_path, monkeypatch, capsys, model_file, base, value):
    monkeypatch.delenv("POPDIFF_SEED", raising=False)
    argv, flag, text = INT_BASES[base]
    assert run(argv + [flag, text.format(value)], tmp_path, model_file) in DOCUMENTED
    assert "Traceback" not in capsys.readouterr().err


def test_factor_product_past_the_str_limit_exits_2(tmp_path, capsys):
    # the product of two 3001-digit factors has 6001 digits, past str's 4300,
    # and once ended in a ValueError while its refusal was formatted
    factors = f"{'1' * 3001},{'3' * 3001}"
    argv = ["construct", "--kind", "product", "--factors", factors, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the product of --factors = 3.7037e+6000 is too large to hold a value vector\n")


SRC = str(Path(popdiff.__file__).resolve().parents[1])

# library calls at a size no vector holds: (import, call, text of the result);
# each once hung in trial division or ended in numpy's own ValueError
LIBRARY_SIZES = {
    "interval-desk": ("from popdiff.interval import choose_interval_params",
                      "choose_interval_params(10**40, 0.1, 0.01)", "N = 1e+40 is too large"),
    "feasibility": ("from popdiff.product import ProductParams, feasibility",
                    "feasibility(ProductParams(0.25, 1e-3, (10**30 + 57,)))",
                    f"the product of the factors = {10**30 + 57} is too large"),
    "model": ("from popdiff.modelfn import build_model_fn", "build_model_fn(0.25, 10**30 + 57)",
              f"n = {10**30 + 57} is too large"),
    "lowap": ("from popdiff.behrend import low_ap_density_subset",
              "low_ap_density_subset(10**30 + 1, 0.05)", f"n = {10**30 + 1} is too large"),
    # a zero factor leaves a product that fits; the factors fail before any primality test
    "feasibility-zero-factor": ("from popdiff.product import ProductParams, feasibility",
                                "feasibility(ProductParams(0.25, 1e-3, (10**30 + 57, 0)))",
                                "name='factors-odd-distinct-primes', status='fail'"),
}

SIZE_PROBE = """
import time
from popdiff.errors import DomainError
{}
start = time.perf_counter()
try:
    result = {}
except DomainError as exc:
    result = exc
print(time.perf_counter() - start, result)
"""


@pytest.mark.parametrize("case", LIBRARY_SIZES)
def test_library_size_refused_at_once(case):
    # in a child process with a timeout, so a call that hangs fails the test
    # instead of stalling the suite
    imports, call, text = LIBRARY_SIZES[case]
    out = subprocess.run([sys.executable, "-c", SIZE_PROBE.format(imports, call)],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                         text=True, timeout=20, check=True).stdout
    seconds, message = out.split(" ", 1)
    assert float(seconds) < 1
    assert text in message


def test_size_rule_written_once():
    # the refusal's words and its probe live in errors.check_size alone
    for path in sorted(Path(popdiff.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for needle in ("hold a value vector", "bytes(8 *"):
            assert path.name == "errors.py" or needle not in source, (path.name, needle)
