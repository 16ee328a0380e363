"""CLI surface: commands, exit codes, determinism, seed handling."""

import hashlib
import itertools
import json
import random
import re
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from popdiff.aps import plan
from popdiff.cli import BEHREND_MAX_N, main
from popdiff.domains import DensityFn, cyclic, interval, load_fn, save_fn
from popdiff.interval import IntervalCert


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_construct_model_and_scan(tmp_path):
    out = tmp_path / "g"
    assert main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
                 "--out", str(out), "--seed", "7"]) == 0
    assert main(["scan", "--in", f"{out}.fn.json", "--out", str(tmp_path / "scan")]) == 0
    summary = json.loads((tmp_path / "scan.summary.json").read_text())
    assert abs(summary["total_3ap_density"] - 31 / 2048) < 1e-9
    lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    assert lines[0] == "d,density" and len(lines) == 102
    # rescan reproduces the spectrum-level constants
    assert abs(summary["mean"] - 0.25) < 1e-12


def test_scan_constant_rows(tmp_path):
    save_fn(DensityFn(cyclic(7), np.full(7, 0.3)), tmp_path / "c.json")
    assert main(["scan", "--in", str(tmp_path / "c.json"), "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c.csv").read_text().strip().split("\n")[1:]
    assert all(abs(float(r.split(",")[1]) - 0.3**3) < 1e-12 for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--in", "g.fn.json", "--out", "s", "--threads", "2"],
        ["scan", "--in", "g.fn.json", "--out", "s", "--path", "sparse"],
        ["construct", "--kind", "model", "--out", "g", "--threads", "2"],
        ["upper", "--in", "g.fn.json", "--epsilon", "0.05", "--out", "t", "--threads", "2"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.05", "--threads", "2"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.05", "--seed", "1"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.05", "--mode", "desk"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.05", "--bound", "relative"],
        ["upper", "--in", "g.fn.json", "--epsilon", "0.05", "--out", "t", "--decay", "0.5"],
        ["scan", "--in", "g.fn.json", "--out", "s", "--seed", "1"],
        ["scan", "--in", "g.fn.json", "--out", "s", "--mode", "desk"],
    ],
)
def test_removed_options_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# a prime, so trial division of it runs to its square root, about 5e8 steps
HUGE_PRIME = 10**18 + 3


def exit_code(argv):
    """main's exit code, whether main returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--kind", "product"],
        ["construct", "--kind", "product", "--factors", "5,31", "--retries", "0"],
        ["construct", "--kind", "interval", "--alpha", "0.1", "--n", "20000", "--retries", "0"],
        ["construct", "--kind", "product", "--factors", "5", "--epsilon", "0"],
        ["construct", "--kind", "product", "--factors", "5", "--alpha", "0"],
        ["upper", "--in", "g.fn.json", "--epsilon", "0"],
        ["upper", "--in", "g.fn.json", "--epsilon", "-1"],
        ["upper", "--in", "g.fn.json", "--epsilon", "nan"],
        ["upper", "--in", "g.fn.json", "--epsilon", "0.05", "--rho0", "inf"],
        ["upper", "--in", "g.fn.json", "--epsilon", "0.05", "--rho0", "0"],
        ["verify", "--in", "g.fn.json", "--epsilon", "nan"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.05", "--alpha", "-0.5"],
        ["construct", "--kind", "behrend", "--n", str(HUGE_PRIME)],
        ["construct", "--kind", "model", "--n", str(HUGE_PRIME)],
        ["construct", "--kind", "lowap", "--alpha", "0.05", "--n", str(HUGE_PRIME)],
        ["construct", "--kind", "interval", "--alpha", "0.1", "--n", str(HUGE_PRIME)],
        ["construct", "--kind", "product", "--factors", f"5,{HUGE_PRIME}"],
        ["construct", "--kind", "behrend", "--n", str(10**30)],
        ["construct", "--kind", "behrend", "--n", str(BEHREND_MAX_N + 1)],
        ["construct", "--kind", "interval", "--n", "5000", "--factors", "0"],
        ["construct", "--kind", "interval", "--n", "5000", "--factors", "5,0"],
        ["construct", "--kind", "product", "--factors", "0"],
        ["construct", "--kind", "product", "--factors", "-5"],
        ["construct", "--kind", "product", "--factors", "5", "--alpha", "2"],
        ["construct", "--kind", "product", "--factors", "5", "--alpha", "1e300"],
        ["construct", "--kind", "interval", "--n", "5000", "--alpha", "1e300"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.1", "--alpha", "2"],
        ["verify", "--in", "g.fn.json", "--epsilon", "0.1", "--alpha", "1e200"],
        ["upper", "--in", "g.fn.json", "--epsilon", "1e31", "--schedule", "strict"],
        ["upper", "--in", "g.fn.json", "--epsilon", "1", "--schedule", "strict"],
        ["construct", "--kind", "interval", "--n", "20000", "--epsilon", "1e200"],
        ["construct", "--kind", "product", "--factors", "5", "--epsilon", "1"],
        ["verify", "--in", "g.fn.json", "--epsilon", "1"],
        ["construct", "--kind", "behrend", "--n", "0"],
        ["construct", "--kind", "lowap", "--alpha", "0.05", "--n", "100"],
        ["construct", "--kind", "lowap", "--alpha", "0.05", "--n", "0"],
    ],
    ids=["product-no-factors", "product-retries-0", "interval-retries-0", "product-epsilon-0",
         "product-alpha-0", "upper-epsilon-0", "upper-epsilon-negative", "upper-epsilon-nan",
         "upper-rho0-inf", "upper-rho0-0", "verify-epsilon-nan", "verify-alpha-negative",
         "behrend-n-huge", "model-n-huge", "lowap-n-huge", "interval-n-huge",
         "product-factors-huge", "behrend-n-beyond-numpy-dimension", "behrend-n-above-check-bound",
         "interval-factors-0", "interval-factor-0-in-list", "product-factors-0",
         "product-factors-negative", "product-alpha-above-1", "product-alpha-overflow",
         "interval-alpha-overflow", "verify-alpha-above-1", "verify-alpha-overflow",
         "upper-strict-epsilon-overflow", "upper-strict-epsilon-1", "interval-epsilon-overflow", "product-epsilon-1",
         "verify-epsilon-1", "behrend-n-0", "lowap-n-even", "lowap-n-0"],
)
def test_bad_flags_exit_2(tmp_path, capsys, monkeypatch, argv):
    # bad flag values exit 2 with an error line, never in a traceback with
    # exit 1, the code of a failed verification, even when the input file is
    # good; nothing is written, and a size no vector can hold is rejected
    # before any primality test of it
    monkeypatch.chdir(tmp_path)
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), "g.fn.json")
    out = [] if argv[0] == "verify" else ["--out", "c"]
    assert exit_code(argv + out) == 2
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["g.fn.json"]


def test_behrend_n_bound_is_named(tmp_path, capsys):
    # the check of the set costs about |A| N / 64 word operations, so the
    # largest --n it admits is part of the error line
    argv = ["construct", "--kind", "behrend", "--n", str(BEHREND_MAX_N + 1), "--out", str(tmp_path / "b")]
    assert main(argv) == 2
    assert f"above {BEHREND_MAX_N}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_construct_model_certificate_checks_properties(tmp_path, monkeypatch):
    from popdiff import modelfn
    from popdiff.modelfn import ModelReport, PropertyCheck

    # the CLI imports verify_model_properties from modelfn when the command runs
    failing = ModelReport(0.25, 101, [PropertyCheck("mean", False, 0.3, 0.25)])
    monkeypatch.setattr(modelfn, "verify_model_properties", lambda m: failing)
    out = tmp_path / "g"
    assert main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
                 "--out", str(out)]) == 1
    assert json.loads(Path(f"{out}.cert.json").read_text())["ok"] is False


def test_construct_behrend(tmp_path):
    out = tmp_path / "b"
    assert main(["construct", "--kind", "behrend", "--n", "27", "--out", str(out)]) == 0
    obj = json.loads(Path(f"{out}.set.json").read_text())
    els = obj["elements"]
    eset = set(els)
    for a in els:
        for c in els:
            if a < c and (a + c) % 2 == 0:
                assert (a + c) // 2 not in eset or (a + c) // 2 in (a, c)


# sha256 of the .set.json and .cert.json that `construct --kind behrend --n N`
# writes; they hold only integers, booleans and strings (the version among
# them), so the bytes do not depend on the machine
BEHREND_SHA256 = {
    1: ("c0ab5dcb87528d70e872f06a25e654e8f159b94b1a0052050f5572b791eb491e",
        "c048bcb4e452b2e50892fa724d7c9b02dba256742d8b80180dc040e72de69a19"),
    27: ("3d50bedd424e97ed2e893bece460924d443218a3a5139003704c363310a656e6",
         "42bd62e6a6d2e27d40d42aa6afe49280b0cc99f4f9f814404acc6bf0137bcf2d"),
    32: ("5e7e1f986d7a0c21cd5a8737a1e1c07b84ce97b43e7cfd377cc230e0ab2c1917",
         "97f810b581e0d4423e516691977e9a6f9a43c5a9c8f6eb91d087dfddd04a37f6"),
    40: ("525f05b56818832598585aaab024d99e4cf0d2abf88ef3f00e455749599a0ec4",
         "4054e6689085919b97e80c9b1d5c5408c1ce22f0fb8c3f9a994037d66b87e6f7"),
    41: ("6eff59bcb29440e462255ed554281d4af167e4a1efd600a3844f0940a9f2a086",
         "84ae356d57744f97f20536b03447394261457484323bd1c66b841263993796cf"),
    100: ("039eae294b77cb32633f76deb79d7f8084d9317e5abe1dd8f5adb47cecbd7fb2",
          "46ffb101e7bf16794884cd50173a9fcb97ee1cd789376fa38809c25eb2a7fb7e"),
    100000: ("417d49e965c5efa614de3c1f831119bb0932e5ba97673b7ae79a8c3a3c38100b",
             "61fef4b8a379a4515caf708880db113348205d5f8d8a3510341c79ff926b1b80"),
}


@pytest.mark.parametrize("n", BEHREND_SHA256)
def test_construct_behrend_golden_bytes(tmp_path, n):
    out = tmp_path / "b"
    assert main(["construct", "--kind", "behrend", "--n", str(n), "--out", str(out)]) == 0
    assert (digest(f"{out}.set.json"), digest(f"{out}.cert.json")) == BEHREND_SHA256[n]


# sha256 of the .set.json that `construct --kind lowap --alpha 0.05 --n n`
# writes; it holds integers, strings and correctly rounded quotients of
# integers (|A|/n and the 3-AP count over n^2), so the bytes do not depend on
# the machine.  The .cert.json is not pinned: its bound goes through np.log2.
LOWAP_SHA256 = {
    55: "6281a395f528e896b1b0f060c93cfb9f9853cc839469b5ffdd6efe1a36572c78",
    101: "f8ad50b99ebae11ff52fe4e2763d34a6c1a1d370aad5e537ffece32a0feb357d",
    1009: "3dd4c548c5bbd0735ddfa7650b661e3466fcbd43f26069149e7ba88382d6b0ea",
}


@pytest.mark.parametrize("n", LOWAP_SHA256)
def test_construct_lowap_golden_bytes(tmp_path, n):
    out = tmp_path / "l"
    assert main(["construct", "--kind", "lowap", "--alpha", "0.05", "--n", str(n),
                 "--out", str(out)]) == 0
    assert digest(f"{out}.set.json") == LOWAP_SHA256[n]


def test_construct_product_exit_codes(tmp_path, capsys):
    # the m1=5 boost profile verifies its density target but genuinely
    # exceeds the 3/2 cube-moment target, so the cert reports a failure
    code = main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
                 "--factors", "5", "--out", str(tmp_path / "p"), "--seed", "42"])
    assert code == 1
    cert = json.loads((tmp_path / "p.cert.json").read_text())
    assert cert["conclusions"]["max_offdiag_le_target"] is True
    assert cert["conclusions"]["mean_cube_le_3_2_alpha3"] is False
    assert abs(cert["max_offdiag_density"] - 0.25**3 * 50 / 64) < 1e-12
    # infeasible factors
    code = main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "1e-3",
                 "--factors", "5,15", "--out", str(tmp_path / "q"), "--seed", "1"])
    assert code == 4
    # a factor of 1 is infeasible too, caught before anything divides by m1 - 1
    assert main(["construct", "--kind", "product", "--factors", "1",
                 "--out", str(tmp_path / "one")]) == 4
    # alpha' = 0.5000000000000001 cannot host the model profile: the gate says
    # so before level 1 is built, with the digits that show it
    capsys.readouterr()
    assert main(["construct", "--kind", "product", "--alpha", "0.4285714285714286",
                 "--epsilon", "8e-3", "--factors", "7,31", "--out", str(tmp_path / "half")]) == 4
    assert "model-mean-in-range: alpha'=0.5000000000000001" in capsys.readouterr().err
    # retries exhausted at a two-level desk run
    code = main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "1e-3",
                 "--factors", "5,101", "--retries", "2", "--out", str(tmp_path / "r"),
                 "--seed", "1"])
    assert code == 3


@pytest.mark.parametrize("factors", ["7,5", "5,3", "5,15629,3"])
def test_construct_product_small_later_factor_exits_4(tmp_path, capsys, factors):
    # a factor after the first hosts the model profile, so one below 7 is
    # infeasible before any level is built, wherever it stands
    argv = ["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "1e-3",
            "--factors", factors, "--out", str(tmp_path / "p")]
    assert main(argv) == 4
    assert "model-prime" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_replay(tmp_path):
    main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
          "--factors", "5", "--out", str(tmp_path / "p"), "--seed", "42"])
    code = main(["verify", "--in", f"{tmp_path}/p.fn.json", "--bound", "rel",
                 "--epsilon", "8e-3"])
    assert code == 0
    # a constant function fails the relative bound
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), tmp_path / "flat.json")
    assert main(["verify", "--in", str(tmp_path / "flat.json"), "--bound", "rel",
                 "--epsilon", "1e-3"]) == 1


# verify's stdout, pinned: a sparse set in [2000] whose 300 members take the
# pair backend, so its counts are exact integers and the bytes do not depend
# on the machine; and the constant function of test_verify_replay
VERIFY_SET_STDOUT = ('{"passed": false, "target": 0.0023749999999999995, "worst_d": 956, '
                     '"worst_density": 0.022727272727272728}\n')
VERIFY_FLAT_STDOUT = ('{"passed": false, "target": 0.015609375, "worst_d": 12, '
                      '"worst_density": 0.01562500000000001}\n')


def test_verify_golden_stdout(tmp_path, capsys):
    elements = sorted(random.Random(3).sample(range(1, 2001), 300))
    (tmp_path / "s.set.json").write_text(json.dumps({"elements": elements, "N": 2000}))
    assert plan(load_fn(tmp_path / "s.set.json").values, cyclic=False) == ("pairs", "sparse indicator")
    assert main(["verify", "--in", str(tmp_path / "s.set.json"), "--bound", "abs",
                 "--epsilon", "1e-3"]) == 1
    assert capsys.readouterr().out == VERIFY_SET_STDOUT
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), tmp_path / "flat.json")
    assert main(["verify", "--in", str(tmp_path / "flat.json"), "--bound", "rel",
                 "--epsilon", "1e-3"]) == 1
    assert capsys.readouterr().out == VERIFY_FLAT_STDOUT


def readme_cert_keys(kind):
    """The keys that README's "Certificates (JSON)" list gives for ``kind``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.search(rf"- {kind}: `\{{(.*?)\}}`", text, re.S).group(1)
    return [k.strip() for k in keys.split(",")]


def test_readme_certificate_keys(tmp_path):
    main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
          "--factors", "5", "--out", str(tmp_path / "p"), "--seed", "42"])
    cert = json.loads((tmp_path / "p.cert.json").read_text())
    assert sorted(readme_cert_keys("product") + ["meta"]) == sorted(cert)
    # no desk interval run writes a certificate, so its keys come from the record
    assert sorted(readme_cert_keys("interval")) == sorted(IntervalCert(*range(15)).to_dict())


def test_verify_set_artifact(tmp_path):
    # a progression-free set has zero density at every nonzero difference,
    # so it clears the absolute bound whenever alpha^3 - eps >= 0
    main(["construct", "--kind", "behrend", "--n", "27", "--out", str(tmp_path / "b")])
    code = main(["verify", "--in", f"{tmp_path}/b.set.json", "--bound", "abs",
                 "--epsilon", "0.01"])
    assert code == 0


@pytest.mark.parametrize(
    "artifact",
    [
        {"elements": [0, 1, 2], "N": 10},  # interval sets are 1-based: 0 is not in [N]
        {"elements": [1, 2, 11], "N": 10},
        {"elements": [0, 1, 11], "n": 11},
        {"elements": [1, 2, 3]},
        {"elements": [1, 2, 3], "n": 11.5},
        {"elements": [1, 2, 3], "n": "eleven"},
        {"elements": [1.5, 2], "N": 10},
    ],
)
def test_verify_malformed_set_artifact(tmp_path, capsys, artifact):
    path = tmp_path / "s.set.json"
    path.write_text(json.dumps(artifact))
    code = main(["verify", "--in", str(path), "--bound", "abs", "--epsilon", "0.01"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def read_argv(command, path, tmp_path):
    """argv of ``command`` reading ``path``, with any output under ``tmp_path``."""
    return {"scan": ["scan", "--in", str(path), "--out", str(tmp_path / "s")],
            "verify": ["verify", "--in", str(path), "--epsilon", "0.01"],
            "upper": ["upper", "--in", str(path), "--epsilon", "0.05", "--out",
                      str(tmp_path / "t")]}[command]


@pytest.mark.parametrize("command", ["scan", "verify", "upper"])
@pytest.mark.parametrize(
    "domain",
    [pytest.param({"kind": "cyclic", "n": n}, id=str(n)) for n in ("7", True, 7.5)]
    + [pytest.param({"kind": "product", "n": 15, "factors": [m, 5]}, id=f"factor-{m}")
       for m in ("a", None, 3.5, True)],
)
def test_function_file_non_integer_size(tmp_path, capsys, command, domain):
    # the value count matches the intended size, so only a type is wrong
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"domain": domain, "values": [0.25] * int(domain["n"])}))
    assert main(read_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def _fn_file(kind="cyclic", n=3, values=None, **domain):
    return {"domain": {"kind": kind, "n": n, **domain},
            "values": [0.25] * n if values is None else values}


LOADER_FUZZ = {
    "values-strings": _fn_file(values=["a", "b", "c"]),
    "values-numeric-strings": _fn_file(values=["0.1", "0.2", "0.3"]),
    "values-nested": _fn_file(values=[[0.1], [0.2], [0.3]]),
    "values-ragged": _fn_file(values=[[0.1], [0.2, 0.3], 0.3]),
    "values-nulls": _fn_file(values=[None, None, None]),
    "values-booleans": _fn_file(values=[True, False, True]),
    "values-string": _fn_file(values="0.1,0.2,0.3"),
    "values-object": _fn_file(values={"0": 0.1}),
    "values-short": _fn_file(n=5, values=[0.25] * 3),
    "values-above-1": _fn_file(values=[1.5, 0.2, 0.3]),
    "values-missing": {"domain": {"kind": "cyclic", "n": 3}},
    "domain-list": {"domain": ["cyclic", 3], "values": [0.25] * 3},
    "domain-string": {"domain": "cyclic", "values": [0.25] * 3},
    "kind-unknown": _fn_file(kind="torus"),
    "kind-missing": {"domain": {"n": 3}, "values": [0.25] * 3},
    "n-zero": _fn_file(n=0),
    "n-negative": _fn_file(kind="interval", n=-3, values=[0.25] * 3),
    "n-even": _fn_file(n=4),
    "factors-int": _fn_file(kind="product", n=15, factors=15),
    "factors-string": _fn_file(kind="product", n=15, factors="3,5"),
    "factors-duplicate": _fn_file(kind="product", n=9, factors=[3, 3]),
    "factors-not-prime": _fn_file(kind="product", n=9, factors=[9]),
    "factors-on-cyclic": _fn_file(n=15, factors=[3, 5]),
    "json-list": [0.25, 0.25, 0.25],
    "json-number": 3,
    "json-string": "values",
    "json-null": None,
    "set-elements-string": {"elements": "1,2", "N": 10},
    "set-elements-nested": {"elements": [[1], [2]], "N": 10},
    "set-elements-floats": {"elements": [1.0, 2.0], "N": 10},
    "set-elements-null": {"elements": None, "n": 11},
    "set-elements-repeated": {"elements": [1, 1, 2], "N": 3},
    "set-both-n-and-N": {"elements": [1, 2, 3], "N": 3, "n": 5},
    "set-N-unallocatable": {"elements": [1], "N": 10**18},
    "set-N-beyond-numpy-dimension": {"elements": [1], "N": 10**30},
    "set-N-past-index-range": {"elements": [1], "N": 2**62},
    # each is rejected before the factor's primality is tested
    "factor-huge-values-short": _fn_file(kind="product", n=HUGE_PRIME, factors=[HUGE_PRIME],
                                         values=[0.25] * 3),
    "factor-huge-product-wrong": _fn_file(kind="product", n=15, factors=[HUGE_PRIME]),
}


@pytest.mark.parametrize("command", ["scan", "verify", "upper"])
@pytest.mark.parametrize("case", LOADER_FUZZ)
def test_loader_fuzz(tmp_path, capsys, command, case):
    # malformed function and set files end in exit 2 and an error line, never
    # in a traceback; all three commands read their input through load_fn
    path = tmp_path / "f.json"
    path.write_text(json.dumps(LOADER_FUZZ[case]))
    assert main(read_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_no_nonzero_difference_gives_null_fields(tmp_path, capsys):
    # Z_1 and the interval [2] have no nonzero difference: exit 0, null fields
    one = tmp_path / "one.fn.json"
    save_fn(DensityFn(cyclic(1), np.array([0.5])), one)
    assert main(["scan", "--in", str(one), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["argmax_d"] is None
    assert summary["max_offdiag_density"] is None and summary["min_offdiag_density"] is None
    capsys.readouterr()
    two = tmp_path / "two.set.json"
    two.write_text(json.dumps({"elements": [1], "N": 2}))
    for path in (one, two):
        assert main(["verify", "--in", str(path), "--epsilon", "0.01"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["worst_d"] is None and rep["worst_density"] is None and rep["passed"] is True


def readme_cli_commands():
    """(argv, exit code) for each popdiff command of the README's CLI block,
    with backslash continuations joined and the code from '# exit N'."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "popdiff " in b)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("popdiff "):
            command, _, comment = line.partition("#")
            code = re.fullmatch(r"\s*exit (\d+)\s*", comment)
            assert code, f"README command without a trailing '# exit N': {line}"
            commands.append((shlex.split(command)[1:], int(code.group(1))))
    return commands


def test_construct_interval_exit_codes(tmp_path, capsys):
    # at the default alpha the common value exceeds alpha0 and the overlay's
    # low-AP subset is too sparse to carry it: infeasible, not malformed
    argv = ["construct", "--kind", "interval", "--epsilon", "1e-3", "--n", "20000",
            "--seed", "42"]
    assert main(argv + ["--alpha", "0.25", "--out", str(tmp_path / "a")]) == 4
    assert "alpha0=0.1" in capsys.readouterr().err
    assert main(argv + ["--alpha", "0.1", "--out", str(tmp_path / "b")]) == 3


def test_readme_cli_block(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) == 8
    for argv, code in commands:
        assert main(argv) == code, argv


def test_upper_command(tmp_path):
    out = tmp_path / "g"
    main(["construct", "--kind", "model", "--alpha", "0.3", "--n", "1009",
          "--out", str(out), "--seed", "0"])
    code = main(["upper", "--in", f"{out}.fn.json", "--epsilon", "0.05",
                 "--schedule", "geometric", "--rho0", "0.3", "--out", str(tmp_path / "t")])
    assert code == 0
    trace = json.loads((tmp_path / "t.trace.json").read_text())
    assert trace["d"] != 0
    assert trace["density"] >= 0.3**3 - 0.05


@pytest.mark.parametrize("epsilon", ["2", "3"])
def test_upper_large_epsilon(tmp_path, epsilon):
    # 2 log2(2/eps) <= 0 here, but alpha^3 - eps/2 < 0 makes index 1 qualify
    # at the second level, so the search ends and the verdict holds
    v = np.random.default_rng(0).random(1009)
    save_fn(DensityFn(cyclic(1009), v * (0.3 / v.mean())), tmp_path / "f.json")
    assert main(["upper", "--in", str(tmp_path / "f.json"), "--epsilon", epsilon,
                 "--out", str(tmp_path / "t")]) == 0
    trace = json.loads((tmp_path / "t.trace.json").read_text())
    assert trace["chosen_i"] == 1 and len(trace["levels"]) == 2


def test_upper_without_large_coefficient(tmp_path):
    # at mean 0.1 no coefficient reaches rho_1 / 2 = 0.15, so S_1 is empty and
    # every level's B(emptyset, rho) is Z_n: an exhaustive argmax, exit 0
    v = np.random.default_rng(0).random(1009)
    save_fn(DensityFn(cyclic(1009), v * (0.1 / v.mean())), tmp_path / "f.json")
    assert main(["upper", "--in", str(tmp_path / "f.json"), "--epsilon", "0.05",
                 "--rho0", "0.3", "--out", str(tmp_path / "t")]) == 0
    trace = json.loads((tmp_path / "t.trace.json").read_text())
    assert trace["collapsed"] is True
    assert all(lv["S_size"] == 0 and lv["B_size"] == 1009 for lv in trace["levels"])


def test_upper_regularity_failure_exit_6(tmp_path, capsys, monkeypatch):
    # a failed guarantee inside the search is not malformed input
    from popdiff import bohr
    from popdiff.errors import RegularityError

    def fail(*args, **kwargs):
        raise RegularityError("no regular scale found")

    monkeypatch.setattr(bohr, "upper_search", fail)
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), tmp_path / "f.json")
    assert main(["upper", "--in", str(tmp_path / "f.json"), "--epsilon", "0.05",
                 "--out", str(tmp_path / "t")]) == 6
    assert capsys.readouterr().err.startswith("error: no regular scale found")
    assert not (tmp_path / "t.trace.json").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["upper", "--epsilon", "0.05", "--rho0", "1e160"], 0),  # rho^2 overflows
        (["upper", "--epsilon", "1e-320"], 5),  # 2/eps overflows
        (["upper", "--schedule", "strict", "--epsilon", "1e-320"], 5),
        (["construct", "--kind", "interval", "--mode", "strict", "--n", "20000",
          "--epsilon", "1e-30"], 4),  # eps^-15 overflows
        (["construct", "--kind", "interval", "--n", "999"], 4),  # below the desk minimum 1000
    ],
)
def test_float_edge_flags_end_without_traceback(tmp_path, capsys, argv, code):
    if argv[0] == "upper":
        main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
              "--out", str(tmp_path / "g"), "--seed", "0"])
        argv = argv + ["--in", str(tmp_path / "g.fn.json")]
    assert main(argv + ["--out", str(tmp_path / "t"), "--seed", "42"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else err == ""
    if code == 0:  # the trace is standard JSON: no Infinity or NaN in it

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        json.loads((tmp_path / "t.trace.json").read_text(), parse_constant=reject)


def test_upper_degenerate_exit(tmp_path):
    out = tmp_path / "g"
    main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
          "--out", str(out), "--seed", "0"])
    code = main(["upper", "--in", f"{out}.fn.json", "--epsilon", "0.5",
                 "--schedule", "strict", "--out", str(tmp_path / "t")])
    assert code == 5


UNREADABLE = {
    "missing": None,
    "bad-json": b"{not json",
    "not-utf8": b"\xff\xfe{}",
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["scan", "upper", "verify"])
@pytest.mark.parametrize("case", UNREADABLE)
def test_malformed_file_exit(tmp_path, capsys, command, case):
    # every command turns a file it cannot read or parse into exit 2
    path = tmp_path / "in.json"
    content = UNREADABLE[case]
    if content is not None:
        path.write_bytes(content)
    assert main(read_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and str(path) in err
    assert list(tmp_path.iterdir()) == ([] if content is None else [path])


def scan_outputs(tmp_path, infile, out, norm):
    """(csv bytes, summary without meta.params.infile) of one scan."""
    assert main(["scan", "--in", str(infile), "--norm", norm, "--out", str(tmp_path / out)]) == 0
    summary = json.loads((tmp_path / f"{out}.summary.json").read_text())
    del summary["meta"]["params"]["infile"]
    return (tmp_path / f"{out}.csv").read_bytes(), summary


def test_scan_set_artifact_over_n(tmp_path):
    # scan --norm over-n on a set A in [N] writes the paper's c_d(A)/N, and a
    # set artifact scans exactly as its indicator saved as a function file
    n = 60
    elements = sorted(random.Random(5).sample(range(1, n + 1), 24))
    (tmp_path / "a.set.json").write_text(json.dumps({"elements": elements, "N": n}))
    indicator = np.zeros(n)
    indicator[np.array(elements) - 1] = 1
    save_fn(DensityFn(interval(n), indicator), tmp_path / "a.fn.json")
    counts = Counter(y - x for x, y, z in itertools.combinations(elements, 3) if y - x == z - y)
    counts[0] = len(elements)
    for norm in ("over-window", "over-n"):
        csv, summary = scan_outputs(tmp_path, tmp_path / "a.set.json", "set", norm)
        assert (csv, summary) == scan_outputs(tmp_path, tmp_path / "a.fn.json", "fn", norm)
    rows = csv.decode().splitlines()[1:]  # the over-n profile
    assert len(rows) == (n - 1) // 2 + 1
    assert rows == [f"{d},{counts[d] / n:.12g}" for d in range(len(rows))]


def test_scan_and_upper_read_cyclic_set_artifact(tmp_path):
    main(["construct", "--kind", "lowap", "--alpha", "0.05", "--n", "1009",
          "--out", str(tmp_path / "low")])
    obj = json.loads((tmp_path / "low.set.json").read_text())
    indicator = np.zeros(obj["n"])
    indicator[obj["elements"]] = 1
    save_fn(DensityFn(cyclic(obj["n"]), indicator), tmp_path / "low.fn.json")
    assert (scan_outputs(tmp_path, tmp_path / "low.set.json", "set", "over-window")
            == scan_outputs(tmp_path, tmp_path / "low.fn.json", "fn", "over-window"))
    traces = []
    for name in ("low.set", "low.fn"):
        assert main(["upper", "--in", str(tmp_path / f"{name}.json"), "--epsilon", "0.05",
                     "--rho0", "0.3", "--out", str(tmp_path / name)]) == 0
        traces.append((tmp_path / f"{name}.trace.json").read_bytes())
    assert traces[0] == traces[1]


def test_upper_refuses_interval_input(tmp_path, capsys):
    (tmp_path / "a.set.json").write_text(json.dumps({"elements": [1, 2, 4], "N": 9}))
    assert main(["upper", "--in", str(tmp_path / "a.set.json"), "--epsilon", "0.05",
                 "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == "error: the search needs an odd-order group input\n"
    assert not (tmp_path / "t.trace.json").exists()


def test_determinism_byte_identical(tmp_path):
    runs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        main(["construct", "--kind", "product", "--alpha", "0.25", "--epsilon", "8e-3",
              "--factors", "5", "--out", str(d / "p"), "--seed", "42"])
        main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
              "--out", str(d / "g"), "--seed", "42"])
        main(["upper", "--in", str(d / "g.fn.json"), "--epsilon", "0.05",
              "--schedule", "geometric", "--rho0", "0.25", "--out", str(d / "t"),
              "--seed", "42"])
        runs.append([digest(d / f) for f in
                     ("p.fn.json", "p.cert.json", "g.fn.json", "t.trace.json")])
    assert runs[0] == runs[1]


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("POPDIFF_SEED", "123")
    main(["construct", "--kind", "model", "--alpha", "0.25", "--n", "101",
          "--out", str(tmp_path / "g"), "--seed", "7"])
    obj = json.loads((tmp_path / "g.fn.json").read_text())
    assert obj["meta"]["seed"] == 123


@pytest.mark.parametrize(
    "env, argv",
    [
        ("abc", ["construct", "--kind", "behrend", "--n", "5"]),
        (None, ["construct", "--kind", "product", "--factors", "5,31", "--seed", "-1"]),
        ("-3", ["construct", "--kind", "interval", "--alpha", "0.05", "--n", "20000"]),
    ],
    ids=["env-not-integer", "flag-negative", "env-negative"],
)
def test_bad_seed_exits_2(tmp_path, capsys, monkeypatch, env, argv):
    # a seed is a non-negative integer, from --seed or POPDIFF_SEED; any
    # other ends in exit 2 with an error line, before any work
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("POPDIFF_SEED", raising=False)
    else:
        monkeypatch.setenv("POPDIFF_SEED", env)
    assert exit_code(argv + ["--out", "c"]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_ignores_env_seed(tmp_path, monkeypatch):
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), tmp_path / "g.fn.json")
    monkeypatch.setenv("POPDIFF_SEED", "abc")
    assert main(["verify", "--in", str(tmp_path / "g.fn.json"), "--epsilon", "0.05"]) == 1


def test_scan_ignores_env_seed(tmp_path, monkeypatch):
    # scan reads neither a seed nor a mode, and its summary records neither
    save_fn(DensityFn(cyclic(101), np.full(101, 0.25)), tmp_path / "g.fn.json")
    monkeypatch.setenv("POPDIFF_SEED", "abc")
    assert main(["scan", "--in", str(tmp_path / "g.fn.json"), "--out", str(tmp_path / "s")]) == 0
    meta = json.loads((tmp_path / "s.summary.json").read_text())["meta"]
    assert meta["seed"] is None and meta["mode"] is None


def test_small_alpha_verdicts_compare_at_the_targets_scale(tmp_path, capsys):
    # below alpha ~ 1e-4 an absolute slack passed each of these whatever the
    # density; compared at the target's scale, each fails as it does at alpha 0.25
    out = str(tmp_path / "x")
    assert main(["construct", "--kind", "product", "--factors", "5", "--alpha", "2e-4",
                 "--epsilon", "8e-3", "--out", out]) == 1  # mean cube 1.5625 alpha^3
    cert = json.loads(Path(f"{out}.cert.json").read_text())
    assert cert["conclusions"]["mean_cube_le_3_2_alpha3"] is False
    # best density 1.77e-15 against a target of 9.99e-16
    assert main(["construct", "--kind", "interval", "--n", "20000", "--alpha", "1e-5",
                 "--retries", "2", "--out", out]) == 3
    assert main(["construct", "--kind", "model", "--alpha", "1e-5", "--n", "101",
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", f"{out}.fn.json", "--epsilon", "1e-3"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("flags", [["--alpha", "2.8e-103"], []])
def test_verify_rejects_a_mean_whose_cube_underflows(tmp_path, capsys, flags):
    # every target is of order alpha^3; below the smallest normal float no
    # verdict means anything, so --alpha and an input mean alike exit 2
    save_fn(DensityFn(cyclic(101), np.full(101, 2.8e-103)), tmp_path / "g.fn.json")
    assert exit_code(["verify", "--in", str(tmp_path / "g.fn.json"), "--epsilon", "0.05"]
                     + flags) == 2
    assert "has a cube below 2.2250738585072014e-308" in capsys.readouterr().err


def test_verify_empty_set_passes_exactly(tmp_path):
    (tmp_path / "e.set.json").write_text(json.dumps({"elements": [], "N": 50}))
    assert main(["verify", "--in", str(tmp_path / "e.set.json"), "--epsilon", "0.05"]) == 0
