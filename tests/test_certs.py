"""Certificate records serialize their own fields: to_dict is derived from the
dataclass and must write the same JSON as the hand-written dicts it replaced."""

import dataclasses
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    reference_construction_cert_to_dict,
    reference_interval_cert_to_dict,
    reference_sample_cert_to_dict,
)
from popdiff.errors import RetriesExhausted
from popdiff.interval import (
    IntervalCert,
    SampleCert,
    choose_interval_params,
    construct_interval_fn,
    sample_set,
    scan_interval_fn,
)
from popdiff.product import ConstructionCert, ProductParams, construct_product

ints = st.integers(min_value=-(2**63), max_value=2**63)
floats = st.floats()
float_tuples = st.lists(floats, max_size=4).map(tuple)


def same_json(cert, reference) -> bool:
    return json.dumps(cert.to_dict(), sort_keys=True) == json.dumps(reference(cert), sort_keys=True)


def plain_leaves(obj) -> bool:
    """True when every leaf is a builtin JSON scalar, not a numpy subclass."""
    if type(obj) in (list, tuple):
        return all(plain_leaves(v) for v in obj)
    if type(obj) is dict:
        return all(type(k) is str and plain_leaves(v) for k, v in obj.items())
    return obj is None or type(obj) in (bool, int, float, str)


def test_product_certificate_matches_reference():
    _, cert = construct_product(ProductParams(alpha=0.25, epsilon=8e-3, factors=(5,)), seed=42)
    assert plain_leaves(cert.to_dict())
    assert same_json(cert, reference_construction_cert_to_dict)


def test_interval_and_sample_certificates_hold_plain_values(monkeypatch):
    # no desk interval run passes its scan, so the verdict is forced; every
    # other field comes from the construction
    monkeypatch.setattr("popdiff.interval.scan_interval_fn",
                        lambda v, t: dataclasses.replace(scan_interval_fn(v, t), passed=True))
    params = choose_interval_params(6000, 0.05, 1e-3, mode="desk")
    f, cert = construct_interval_fn(params, seed=11, max_overlay_retries=1)
    assert plain_leaves(cert.to_dict())
    assert same_json(cert, reference_interval_cert_to_dict)
    try:
        _, sample = sample_set(f, 1e-3, np.random.default_rng(0), max_attempts=1, seed=3)
    except RetriesExhausted as exc:
        sample = exc.log["cert"]
    assert plain_leaves(sample.to_dict())
    assert same_json(sample, reference_sample_cert_to_dict)


@given(
    st.builds(
        ConstructionCert,
        seed=ints,
        mode=st.sampled_from(["strict", "desk"]),
        alpha=floats,
        epsilon=floats,
        factors=st.lists(ints, max_size=4).map(tuple),
        retries=st.lists(st.fixed_dictionaries(
            {"level": ints, "attempts": ints, "passed": st.booleans()}), max_size=3),
        max_offdiag_density=floats,
        argmax_d=ints,
        mean_cube=floats,
        alpha_star=floats,
        fraction_at_alpha_star=floats,
        mu_requested=float_tuples,
        mu_effective=float_tuples,
        conclusions=st.dictionaries(st.text(max_size=8), st.booleans(), max_size=4),
    )
)
def test_construction_cert_matches_reference(cert):
    assert same_json(cert, reference_construction_cert_to_dict)


@given(
    st.builds(
        IntervalCert,
        seed=ints,
        mode=st.sampled_from(["strict", "desk"]),
        n_total=ints,
        n_prime=ints,
        q=ints,
        p=ints,
        alpha=floats,
        epsilon=floats,
        alpha_star=floats,
        overlay_retries=ints,
        product_retries=ints,
        worst_d=ints,
        worst_density=floats,
        passed=st.booleans(),
        notes=st.lists(st.text(max_size=12), max_size=3),
    )
)
def test_interval_cert_matches_reference(cert):
    assert same_json(cert, reference_interval_cert_to_dict)


@given(
    st.builds(
        SampleCert,
        seed=ints,
        attempts=ints,
        size=ints,
        size_required=floats,
        worst_d=st.none() | ints,
        worst_density=st.none() | floats,
        target=floats,
        passed=st.booleans(),
    )
)
def test_sample_cert_matches_reference(cert):
    assert same_json(cert, reference_sample_cert_to_dict)
