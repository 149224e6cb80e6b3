import json
import os

import pytest

from eds235 import geometry
from eds235.examples import d6_spec, run_examples, write_spec_files
from eds235.geometry import CurvatureSpec, InconsistentSpec
from eds235.pipeline import IDENTITIES, embeddability_verdict
from eds235.scalar import Scalar

# The two final conditions, stated here so that collecting the tests below
# derives nothing; test_pipeline checks them against the derived ones.
FINAL_CONDITIONS = {"A4_1p": "-5*B4", "A5_0_1p": "-21*A5_1"}

SPECS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "specs")


def _spec_text(model: str) -> str:
    with open(os.path.join(SPECS, model + ".json"), encoding="utf-8") as fh:
        return fh.read()


def _verdict_of(text: str):
    return embeddability_verdict(CurvatureSpec.from_json(text))


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


@pytest.mark.parametrize("model, distinct", [("flat", 1), ("d6", 31)])
def test_warm_verdict_parses_each_value_text_once(monkeypatch, model, distinct):
    embeddability_verdict(d6_spec())  # builds the verdict's checks
    geometry._parse_value.cache_clear()
    parse, calls = Scalar.parse, []

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(Scalar, "parse", staticmethod(counting))
    assert _verdict_of(_spec_text(model)).embeddable
    assert len(calls) == len(set(calls)) == distinct
    # a second read of the same spec parses nothing
    assert _verdict_of(_spec_text(model)).embeddable
    assert len(calls) == distinct


def test_verdicts_do_not_corrupt_shared_values():
    d6 = _spec_text("d6")
    first = json.dumps(_verdict_of(d6).to_payload())
    assert _verdict_of(_spec_text("flat")).embeddable
    shifted = json.loads(d6)
    shifted["bindings"]["A4_1p"] = f"({shifted['bindings']['A4_1p']}) + 1"
    assert not _verdict_of(json.dumps(shifted)).embeddable
    # a shifted spec that shares every other value text with d6, and its
    # Scalars through the value cache
    shared = json.loads(d6)
    shared["bindings"]["A3"] = f"({shared['bindings']['A3']}) + 2/3 - sqrt7"
    shared_spec = CurvatureSpec.from_json(json.dumps(shared))
    d6_spec_read = CurvatureSpec.from_json(d6)
    assert shared_spec.bindings["A4_1p"] is d6_spec_read.bindings["A4_1p"]
    assert not embeddability_verdict(shared_spec).embeddable
    assert json.dumps(_verdict_of(d6).to_payload()) == first


# Every condition the verdict checks by name, with each symbol it mentions.
CONDITION_SYMBOLS = [
    (f"{s} = {v}", sym)
    for s, v in {**FINAL_CONDITIONS, **IDENTITIES}.items()
    for sym in sorted({s} | Scalar.parse(v).symbols())
]


@pytest.mark.parametrize("change", ["shift", "drop"])
@pytest.mark.parametrize("condition, symbol", CONDITION_SYMBOLS)
@pytest.mark.parametrize("model", ["flat", "d6"])
def test_breaking_a_condition_names_it(model, condition, symbol, change):
    bindings = json.loads(_spec_text(model))["bindings"]
    if change == "shift":
        bindings[symbol] = f"({bindings[symbol]}) + 2/3 - sqrt7"
    else:
        del bindings[symbol]
    verdict = _verdict_of(json.dumps({"bindings": bindings}))
    assert not verdict.embeddable
    assert condition in verdict.failing
