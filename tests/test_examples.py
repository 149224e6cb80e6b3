import os

import pytest

from eds235.examples import d6_spec, run_examples, write_spec_files
from eds235.geometry import CurvatureSpec, InconsistentSpec
from eds235.pipeline import embeddability_verdict
from eds235.scalar import Scalar

SPECS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "specs")


def test_both_suites_pass():
    reports = run_examples("all")
    assert [r.name for r in reports] == ["flat", "d6"]
    for r in reports:
        assert r.passed, [c for c in r.checks if not c.passed]


def test_spec_files_reproduce(tmp_path):
    paths = write_spec_files(tmp_path)
    assert sorted(p.name for p in paths) == ["d6.json", "flat.json"]
    for p in paths:
        with open(os.path.join(SPECS, p.name)) as fh:
            assert p.read_text() == fh.read()


def test_shifted_d6_is_not_embeddable():
    spec = d6_spec()
    bindings = dict(spec.bindings)
    bindings["A4_1p"] = bindings["A4_1p"] + Scalar.one()
    verdict = embeddability_verdict(CurvatureSpec(bindings))
    assert not verdict.embeddable
    assert verdict.reduction_relations_hold
    assert verdict.condition_A41p == Scalar.one()
    assert verdict.condition_A501p.is_zero()
    assert "A4_1p = -5*B4" in verdict.failing


def test_verdict_checks_the_spec_relations():
    spec = d6_spec()
    assert embeddability_verdict(spec).embeddable
    contradicted = CurvatureSpec(bindings=dict(spec.bindings),
                                 relations=[Scalar.parse("A3 - 12345")])
    with pytest.raises(InconsistentSpec, match="A3"):
        embeddability_verdict(contradicted)
