import pytest

from eds235 import pipeline
from eds235.geometry import reduce_relations
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


def test_consequence_closure_reduces_each_relation_once(monkeypatch):
    """Each pass resumes from the last map, so no relation is reduced twice:
    968 relations in five passes, where reducing every pass from empty took
    3714."""
    before = reduction_consequences()
    sizes = []

    def counting(relations, elim=None):
        sizes.append(len(relations))
        return reduce_relations(relations, elim)

    monkeypatch.setattr(pipeline, "reduce_relations", counting)
    reduction_consequences.cache_clear()
    try:
        assert reduction_consequences() == before
    finally:
        reduction_consequences.cache_clear()
    assert sizes == [378, 158, 328, 104, 0]
    assert sum(sizes) == 968


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


# The bindings each cascade row used to state by hand, with the direction
# it absorbs.  The derived rows may bind another coordinate of the same
# relation, so each old binding must hold under the derived values.
TRANSCRIBED_CASCADE = [
    ("V5", {"p11_22": "4*p12_12", "p13_12p": "0"}, None),
    ("V6", {"p22_11": "p12_12"}, "gam2"),
    ("row1", {"p13p_22": "0", "p13_10": "3/2*p12_11",
              "p13p_20": "2*p13_12-7*p23_11"}, None),
    ("row2", {"p11_12": "2*p12_11"}, "gam1"),
    ("row3", {"p13p_00": "0"}, None),
    ("row4", {"p13_12": "-1/2*A3"}, None),
    ("row5", {"p23_11": "-2/7*A3"}, None),
    ("row6", {"p13p_12": "0"}, None),
    ("row7", {"p23p_11": "-2/7*B3"}, None),
    ("row8a", {}, None),
    ("row8b", {"p13_11": "-5/21*A4", "p13p_10": "2/7*A4"}, None),
    ("row9", {"p13p_11": "2/21*B4"}, None),
    ("row10", {"p12_12": "0"}, "et_11"),
    ("row11", {"p12_11": "0"}, "et_12"),
    ("row12", {"p11_11": "0"}, "et_22"),
]


def test_derived_cascade_satisfies_the_transcribed_bindings():
    steps = pipeline.table_reductions().steps
    assert [(s.name, s.coframe) for s in steps] == [
        (name, coframe) for name, _, coframe in TRANSCRIBED_CASCADE]
    values: dict = {}
    old: dict = {}

    def bind(current, new):
        out = {k: v.substitute(new) for k, v in current.items()}
        out.update(new)
        return out

    for step, (name, bindings, _) in zip(steps, TRANSCRIBED_CASCADE):
        values = bind(values, step.bindings)
        old = bind(old, {k: Scalar.parse(v) for k, v in bindings.items()})
        for sym, value in old.items():
            gap = (Scalar.symbol(sym) - value).substitute(values)
            assert gap.is_zero(), (name, sym, str(gap))
    assert values == old == pipeline.final_p_values()
    assert list(pipeline.final_p_values()) == pipeline.P_SYMBOLS


def test_reduction_rows_are_the_corrections_at_the_final_values():
    values = pipeline.final_p_values()
    for base in ("ga12", "ga02", "ga"):
        row: dict = {}
        for coeff, p, gen in pipeline.TILDE_CORRECTIONS[base]:
            c = Scalar.parse(coeff) * (values[p] if p else Scalar.one())
            row[gen] = row.get(gen, Scalar.zero()) + c
        expected = {g: Scalar.parse(v)
                    for g, v in pipeline.REDUCTION_ROWS[base].items()}
        assert {g: c for g, c in row.items() if not c.is_zero()} == expected


@pytest.fixture
def fresh_cascade():
    """Rerun the cascade inside the test and again after it."""
    caches = (pipeline._initial_stage, pipeline.table_reductions)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def _corrupt_tilde(monkeypatch, base, entry):
    corrections = pipeline.TILDE_CORRECTIONS
    monkeypatch.setitem(corrections, base, corrections[base] + [entry])


def test_non_affine_torsion_names_its_row(monkeypatch, fresh_cascade):
    _corrupt_tilde(monkeypatch, "et3_3p", ("1", "p12_12", "om0"))
    with pytest.raises(RowMismatch) as info:
        pipeline.table_reductions()
    assert info.value.row == "V5"


def test_torsion_free_remainder_names_its_row(monkeypatch, fresh_cascade):
    _corrupt_tilde(monkeypatch, "et2_2", ("1", None, "om0"))
    with pytest.raises(RowMismatch) as info:
        pipeline.table_reductions()
    assert info.value.row == "row8a"


def test_wrong_binding_names_its_row(monkeypatch, fresh_cascade):
    forced = pipeline._forced_bindings

    def wrong(stage, name, residual):
        if name == "V6":
            return {"p22_11": Scalar.parse("2*p12_12")}
        return forced(stage, name, residual)

    monkeypatch.setattr(pipeline, "_forced_bindings", wrong)
    with pytest.raises(RowMismatch) as info:
        pipeline.table_reductions()
    assert info.value.row == "V6"


def test_row_mismatch_names_the_corrupted_row(monkeypatch):
    tails = pipeline.SECOND_STAGE_TAILS
    monkeypatch.setitem(tails, "et_11", {**tails["et_11"], "om2p": "1"})
    with pytest.raises(RowMismatch) as info:
        build_I2(check_tables=True)
    assert info.value.row == "t3_2a"
    ctx = info.value.residual.ctx
    assert info.value.residual == ctx.gen("th1").wedge(ctx.gen("om2p"))
