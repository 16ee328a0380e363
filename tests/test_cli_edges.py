"""Edge sweep: every float flag of every command, one edge value at a time,
ends in a documented exit code and never in a traceback."""

import pytest

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
