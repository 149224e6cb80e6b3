from eds235.pipeline import (
    FINAL_CONDITIONS,
    extract_obstructions,
    reduction_consequences,
)
from eds235.scalar import Scalar


def test_obstruction_partition():
    assert extract_obstructions().partition() == {
        "stage1": 6,
        "reduction_consequence": 205,
        "final_conditions": 2,
        "unresolved": 3,
    }


def test_identities_in_consequence_map():
    _, full, stuck = reduction_consequences()
    assert len(full) == 205
    assert stuck == []
    assert full["A3_0"] == Scalar.parse("6*C2")
    assert full["B3_1p"] == Scalar.parse("-3*C3")


def test_final_condition_rows():
    rows = extract_obstructions().final_conditions["conditions"]
    assert [(e["generator"], e["monomial"]) for e in rows] == [
        ("et3p_3_t", "th1^om1p"), ("et_22_t", "th1^om1p")]
    first = Scalar.parse(rows[0]["coefficient"])
    assert not first.is_zero()
    value = Scalar.parse(FINAL_CONDITIONS["A4_1p"])
    assert first.substitute({"A4_1p": value}).is_zero()
    assert Scalar.parse(rows[1]["coefficient"]).symbols() == {"A5_0_1p", "A5_1"}
