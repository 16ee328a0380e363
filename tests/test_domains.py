"""Domain validation and artifact file formats."""

import json

import numpy as np
import pytest

from popdiff.aps import ap_profile
from popdiff.domains import (
    DensityFn,
    DomainDesc,
    Spectrum,
    cyclic,
    fn_from_dict,
    interval,
    load_fn,
    product,
    save_fn,
)
from popdiff.errors import DomainError, FileFormatError
from popdiff.modelfn import build_model_fn


def test_domain_validation():
    with pytest.raises(DomainError):
        cyclic(10)  # even group order
    with pytest.raises(DomainError):
        product((5, 5))  # repeated factor
    with pytest.raises(DomainError):
        product((5, 9))  # 9 not prime
    with pytest.raises(DomainError):
        DomainDesc("product", 16, (3, 5))  # wrong size
    d = product((3, 5))
    assert d.n == 15 and d.is_group
    assert interval(10).n == 10


def test_values_validation():
    with pytest.raises(DomainError):
        DensityFn(cyclic(5), np.array([0.0, 0.5, 1.2, 0.1, 0.3]))
    with pytest.raises(DomainError):
        DensityFn(cyclic(5), np.ones(4))
    f = DensityFn(cyclic(5), np.array([0.0, 1.0, 0.5, 0.25, 1e-12]))
    assert f.values.min() >= 0


def test_spectrum_support_threshold():
    n = 101
    c = np.zeros(n, dtype=complex)
    c[0] = 0.3
    c[5] = 1e-13  # roundoff level: below the threshold
    c[7] = 1e-10  # small but real: kept, at this n and at any other
    s = Spectrum(n, c)
    sup = set(s.support.tolist())
    assert sup == {0, 7}


def test_function_file_roundtrip(tmp_path):
    m = build_model_fn(0.25, 101)
    path = tmp_path / "g.json"
    save_fn(m.fn, path, extra={"model": {"alpha": 0.25, "n": 101}})
    f = load_fn(path)  # the extra block is written, and ignored on reading
    assert np.abs(f.values - m.values).max() == 0.0
    raw = json.loads(path.read_text())
    assert raw["domain"] == {"kind": "cyclic", "n": 101}
    assert raw["model"] == {"alpha": 0.25, "n": 101}


def test_set_artifact_loads_as_indicator(tmp_path):
    # residues 0..n-1 of Z_n under "n", members 1..N of [N] under "N"
    path = tmp_path / "s.set.json"
    path.write_text(json.dumps({"elements": [0, 3], "n": 5, "density": 0.4}))
    f = load_fn(path)
    assert f.domain == cyclic(5) and f.values.tolist() == [1, 0, 0, 1, 0]
    path.write_text(json.dumps({"elements": [1, 4], "N": 4}))
    f = load_fn(path)
    assert f.domain == interval(4) and f.values.tolist() == [1, 0, 0, 1]


def test_malformed_function_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2,3]")
    with pytest.raises(FileFormatError):
        load_fn(bad)
    with pytest.raises(FileFormatError):
        fn_from_dict({"domain": {"kind": "cyclic", "n": 3}})


def test_profile_csv_format(tmp_path):
    f = DensityFn(cyclic(5), np.full(5, 0.5))
    prof = ap_profile(f)
    path = tmp_path / "p.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "d,density"
    assert len(lines) == 6
    assert lines[1] == "0,0.125"
