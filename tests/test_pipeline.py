import pytest

from eds235 import pipeline
from eds235.pipeline import (
    FINAL_CONDITIONS,
    RowMismatch,
    build_I2,
    extract_obstructions,
    generic_frobenius_residuals,
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


def test_final_conditions_zero_their_rows():
    rows = extract_obstructions().final_conditions["conditions"]
    generic = {(g, m): c for g, m, c in generic_frobenius_residuals()}
    for sym, value in FINAL_CONDITIONS.items():
        condition = {sym: Scalar.parse(value)}
        [row] = [e for e in rows if sym in Scalar.parse(e["coefficient"]).symbols()]
        assert Scalar.parse(row["coefficient"]).substitute(condition).is_zero(), sym
        coeff = generic[(row["generator"], "th1^om1p")]
        assert Scalar.parse(coeff).substitute(condition).is_zero(), sym


def test_row_mismatch_names_the_corrupted_row(monkeypatch):
    checks = pipeline._table3_checks

    def corrupted():
        out = []
        for name, build in checks():
            if name == "t3_2a":
                def build(st, T, inner=build):
                    lhs, rhs, kills = inner(st, T)
                    extra = st.ctx.gen("om1p").wedge(st.ctx.gen("om2p"))
                    return lhs, rhs + extra, kills
            out.append((name, build))
        return out

    monkeypatch.setattr(pipeline, "_table3_checks", corrupted)
    with pytest.raises(RowMismatch) as info:
        build_I2(check_tables=True)
    assert info.value.row == "t3_2a"
    ctx = info.value.residual.ctx
    assert (info.value.residual + ctx.gen("om1p").wedge(ctx.gen("om2p"))).is_zero()
