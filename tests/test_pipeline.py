import os
import subprocess
import sys

import pytest

from eds235 import pipeline
from eds235.examples import d6_spec
from eds235.geometry import CurvatureSpec, Inconsistent, reduce_relations
from eds235.pipeline import (
    RowMismatch,
    build_I2,
    embeddability_verdict,
    extract_obstructions,
    generic_frobenius_residuals,
    reduction_consequences,
)
from eds235.scalar import Scalar

# The two final conditions as the verdict used to state them by hand.
TRANSCRIBED_FINAL_CONDITIONS = {"A4_1p": "-5*B4", "A5_0_1p": "-21*A5_1"}


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
    value = Scalar.parse(TRANSCRIBED_FINAL_CONDITIONS["A4_1p"])
    assert first.substitute({"A4_1p": value}).is_zero()
    assert Scalar.parse(rows[1]["coefficient"]).symbols() == {"A5_0_1p", "A5_1"}


def test_final_conditions_zero_their_rows():
    rows = extract_obstructions().final_conditions["conditions"]
    generic = {(g, m): c for g, m, c in generic_frobenius_residuals()}
    for sym, value in TRANSCRIBED_FINAL_CONDITIONS.items():
        condition = {sym: Scalar.parse(value)}
        [row] = [e for e in rows if sym in Scalar.parse(e["coefficient"]).symbols()]
        assert Scalar.parse(row["coefficient"]).substitute(condition).is_zero(), sym
        coeff = generic[(row["generator"], "th1^om1p")]
        assert Scalar.parse(coeff).substitute(condition).is_zero(), sym


def test_derived_final_conditions_equal_the_transcribed_ones():
    assert pipeline.final_conditions() == {
        s: Scalar.parse(v) for s, v in TRANSCRIBED_FINAL_CONDITIONS.items()}
    assert list(pipeline.final_conditions()) == list(TRANSCRIBED_FINAL_CONDITIONS)


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
    coords, _ = pipeline.prolongation()
    assert list(pipeline.final_p_values()) == list(coords)


# The prolongation coordinates and forms as they used to be stated by hand.
# Tail entries are (coefficient, prolongation coordinate or None,
# generator) and stand for their sum; they include the constant torsion
# absorption of Th13_2p.
TRANSCRIBED_P_SYMBOLS = [
    "p11_11", "p11_12", "p11_22", "p12_11", "p12_12", "p22_11",
    "p13_11", "p13_12", "p13_10", "p13_12p",
    "p13p_11", "p13p_12", "p13p_22", "p13p_10", "p13p_20", "p13p_00",
    "p23_11", "p23p_11",
]

TRANSCRIBED_THETA_TAILS = {
    ("11", "1"): [("1", "p11_11", "th1"), ("1", "p11_12", "th2")],
    ("11", "2"): [("1", "p11_12", "th1"), ("1", "p11_22", "th2")],
    ("12", "1"): [("1", "p12_11", "th1"), ("1", "p12_12", "th2")],
    ("12", "2"): [("1", "p12_12", "th1")],
    ("22", "1"): [("1", "p22_11", "th1")],
    ("13", "1"): [
        ("1", "p13_11", "th1"), ("1", "p13_12", "th2"),
        ("1", "p13_10", "om0"), ("1", "p13_12p", "om2p"),
    ],
    ("13p", "1"): [
        ("1", "p13p_11", "th1"), ("1", "p13p_12", "th2"),
        ("1", "p13p_10", "om0"), ("3/2", "p11_11", "om1p"),
        ("3/2", "p11_12", "om2p"), ("-1", "p13_10", "om2p"),
    ],
    ("23", "1"): [
        ("1", "p23_11", "th1"), ("3/2", "p22_11", "om0"),
        ("1", "p13_12p", "om1p"),
    ],
    ("23p", "1"): [
        ("1", "p23p_11", "th1"), ("2", "p13_12", "om0"),
        ("-4", "p23_11", "om0"), ("3", "p12_11", "om1p"),
        ("-1", "p13_10", "om1p"), ("3", "p12_12", "om2p"),
        ("-3/2", "p22_11", "om2p"),
    ],
    ("13", "2"): [("1", "p13_12", "th1"), ("3", "p12_12", "om0")],
    ("13p", "2"): [
        ("1", "p13p_12", "th1"), ("1", "p13p_22", "th2"),
        ("1", "p13p_20", "om0"), ("3/2", "p11_12", "om1p"),
        ("3/2", "p11_22", "om2p"), ("-3", "p12_12", "om2p"),
    ],
    ("13", "0"): [
        ("1", "p13_10", "th1"), ("3", "p12_12", "th2"),
        ("4", "p13_12p", "om0"),
    ],
    ("13", "2p"): [("2", None, "om1p"), ("1", "p13_12p", "th1")],
    ("13p", "0"): [
        ("1", "p13p_10", "th1"), ("1", "p13p_20", "th2"),
        ("1", "p13p_00", "om0"), ("-4", "p13_12p", "om2p"),
    ],
}


def test_derived_prolongation_equals_the_transcribed_tables():
    coords, forms = pipeline.prolongation()
    assert set(coords) == set(TRANSCRIBED_P_SYMBOLS)
    assert len(coords) == len(TRANSCRIBED_P_SYMBOLS)
    assert set(forms) == set(TRANSCRIBED_THETA_TAILS)
    solved = pipeline.stage_context("V4").pi_solutions
    for (w, s), f in forms.items():
        tail = f - solved[f"pi{w}_{s}"]
        got = {f.ctx.generators[i].name: c for (i,), c in tail.terms.items()}
        want = _transcribed_correction(TRANSCRIBED_THETA_TAILS[(w, s)])
        assert got == want, (w, s)


# The tables the prolongation used to state by hand, kept to check the
# derivations against.  Tilde entries are (coefficient, prolongation
# coordinate or None, generator) and stand for their sum.
TRANSCRIBED_TILDE = {
    "ga12": [("3", "p12_12", "th1"), ("-3", "p22_11", "th1")],
    "ga02": [
        ("1", "p13_12", "th1"), ("-2", "p23_11", "th1"),
        ("3", "p12_12", "om0"), ("-3", "p22_11", "om0"),
        ("-2", "p13_12p", "om1p"),
    ],
    "ga": [
        ("-1", "p13p_12", "th1"), ("2", "p23p_11", "th1"),
        ("-1", "p13p_22", "th2"), ("4", "p13_12", "om0"),
        ("-1", "p13p_20", "om0"), ("-8", "p23_11", "om0"),
        ("-3/2", "p11_12", "om1p"), ("6", "p12_11", "om1p"),
        ("-2", "p13_10", "om1p"), ("-3/2", "p11_22", "om2p"),
        ("9", "p12_12", "om2p"), ("-3", "p22_11", "om2p"),
    ],
    "et1_1": [
        ("-3/4", "p11_12", "th1"), ("-3/4", "p11_22", "th2"),
        ("1/2", None, "ze2"), ("3/2", None, "ze1"),
    ],
    "et1_2": [
        ("-3/2", "p11_11", "th1"), ("-3/2", "p11_12", "th2"),
        ("1", None, "ga21"),
    ],
    "et2_1": [("-3/2", "p22_11", "th1")],
    "et2_2": [
        ("3/4", "p11_12", "th1"), ("-3", "p12_11", "th1"),
        ("3/4", "p11_22", "th2"), ("-3", "p12_12", "th2"),
        ("3/2", None, "ze2"), ("3/2", None, "ze1"),
    ],
    "et3_3": [
        ("3/4", "p11_12", "th1"), ("-1", "p13_10", "th1"),
        ("3/4", "p11_22", "th2"), ("-3", "p12_12", "th2"),
        ("-4", "p13_12p", "om0"),
        ("1/2", None, "ze2"), ("1/2", None, "ze1"),
    ],
    "et3_3p": [("-1", "p13_12p", "th1"), ("-2", None, "om1p")],
    "et3p_3": [
        ("-1", "p13p_10", "th1"), ("-1", "p13p_20", "th2"),
        ("-1", "p13p_00", "om0"), ("4", "p13_12p", "om2p"),
        ("-2", None, "ga01"),
    ],
    "et_13": [
        ("-3", "p13p_12", "th1"), ("3", "p23p_11", "th1"),
        ("-3", "p13p_22", "th2"), ("6", "p13_12", "om0"),
        ("-3", "p13p_20", "om0"), ("-12", "p23_11", "om0"),
        ("-9/2", "p11_12", "om1p"), ("9", "p12_11", "om1p"),
        ("-3", "p13_10", "om1p"), ("-9/2", "p11_22", "om2p"),
        ("18", "p12_12", "om2p"), ("-9/2", "p22_11", "om2p"),
    ],
    "et_13p": [
        ("-3", "p23_11", "th1"), ("-9/2", "p22_11", "om0"),
        ("-3", "p13_12p", "om1p"),
    ],
    "et_23": [
        ("-3", "p13p_11", "th1"), ("-3", "p13p_12", "th2"),
        ("-3", "p13p_10", "om0"), ("-9/2", "p11_11", "om1p"),
        ("-9/2", "p11_12", "om2p"), ("3", "p13_10", "om2p"),
    ],
    "et_23p": [
        ("-3", "p13_11", "th1"), ("-3", "p13_12", "th2"),
        ("-3", "p13_10", "om0"), ("-3", "p13_12p", "om2p"),
        ("3", None, "ga01"),
    ],
}

TRANSCRIBED_REDUCTION_ROWS = {
    "ga12": {},
    "ga02": {"th1": "1/14*A3"},
    "ga": {"th1": "-4/7*B3", "om0": "-5/7*A3"},
    "gam2": {"th1": "-2*C2-1/14*A3_0", "om1p": "17/14*A3"},
    "gam1": {
        "th1": "C3+4/7*B3_1p", "th2": "C2",
        "om0": "-22/7*B3", "om1p": "9/7*A4", "om2p": "37/14*A3",
    },
}

TRANSCRIBED_THEOREM_ROWS = {
    "ga12": {},
    "ga02": {"th1": "1/14*A3"},
    "ga": {"th1": "-4/7*B3", "om0": "-5/7*A3"},
    "gam2": {"th1": "-17/7*C2", "om1p": "17/14*A3"},
    "gam1": {
        "th1": "-5/7*C3", "th2": "C2",
        "om0": "-22/7*B3", "om1p": "9/7*A4", "om2p": "37/14*A3",
    },
}

# Second-stage tails, before the table eliminations are substituted.
TRANSCRIBED_SECOND_STAGE_TAILS = {
    "gam2": {"th1": "2*C2+1/14*A3_0", "om1p": "-17/14*A3"},
    "gam1": {
        "th1": "-C3-4/7*B3_1p", "th2": "-C2",
        "om0": "22/7*B3", "om1p": "-9/7*A4", "om2p": "-37/14*A3",
    },
    "et_11": {"th1": "6/7*A3_0", "om1p": "-18/7*A3"},
    "et_12": {
        "th1": "-6/7*B3_1p", "om0": "54/7*B3",
        "om1p": "-24/7*A4", "om2p": "-54/7*A3",
    },
    "et_22": {
        "th1": "-2/7*B4_1p", "om0": "36/7*B4",
        "om1p": "-3*A5", "om2p": "-36/7*A4",
    },
}


def _transcribed_correction(entries, values=None) -> dict:
    """{generator: coefficient} of tilde entries, coordinates at values."""
    row: dict = {}
    for coeff, p, gen in entries:
        c = Scalar.parse(coeff)
        if p is not None:
            c = c * (values[p] if values else Scalar.symbol(p))
        row[gen] = row.get(gen, Scalar.zero()) + c
    return {g: c for g, c in row.items() if not c.is_zero()}


def test_derived_tilde_forms_equal_the_transcribed_ones():
    stage = pipeline._initial_stage()
    ctx = stage.ctx
    tilde = pipeline.tilde_system(stage)
    assert list(tilde) == [b + "_t" for b in TRANSCRIBED_TILDE]
    for base, entries in TRANSCRIBED_TILDE.items():
        expected = ctx.gen(base) - ctx.form(_transcribed_correction(entries))
        assert tilde[base + "_t"] == expected, base


def test_derived_second_stage_forms_equal_the_transcribed_ones():
    gens = build_I2()
    ctx = gens.context
    elims = pipeline._table_eliminations()
    second = [n for n in gens.forms if n[:-2] in TRANSCRIBED_SECOND_STAGE_TAILS]
    assert second == [b + "_t" for b in TRANSCRIBED_SECOND_STAGE_TAILS]
    for base, tail in TRANSCRIBED_SECOND_STAGE_TAILS.items():
        expected = ctx.gen(base) + ctx.form(
            {(g,): Scalar.parse(v).substitute(elims) for g, v in tail.items()})
        assert gens.forms[base + "_t"] == expected, base


def _as_text(rows) -> list:
    return [(g, [(k, str(v)) for k, v in row.items()]) for g, row in rows.items()]


def test_derived_rows_equal_the_transcribed_ones():
    assert _as_text(pipeline.reduction_rows()) == [
        (g, list(row.items())) for g, row in TRANSCRIBED_REDUCTION_ROWS.items()]
    assert _as_text(pipeline.theorem_rows()) == [
        (g, list(row.items())) for g, row in TRANSCRIBED_THEOREM_ROWS.items()]


def test_reduction_rows_are_the_corrections_at_the_final_values():
    values = pipeline.final_p_values()
    rows = pipeline.reduction_rows()
    for base in ("ga12", "ga02", "ga"):
        row = _transcribed_correction(TRANSCRIBED_TILDE[base], values)
        assert rows[base] == row, base


def test_import_derives_nothing():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import eds235.pipeline as p, eds235.examples, eds235.jet as j\n"
            "import eds235.geometry as g\n"
            "print([f.cache_info().currsize for f in (p.table_reductions, "
            "p.tilde_corrections, p.second_stage_tails, p.reduction_rows, "
            "p.theorem_rows, p._generic_final_stage, p.prolongation, "
            "p.final_conditions, p._generic_final_residuals, "
            "j._integrability_step, j.stage_context, "
            "g._is_curvature_symbol, g._parse_value)])")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"


@pytest.fixture
def fresh_cascade():
    """Rerun the derivations inside the test and again after it."""
    caches = (pipeline.prolongation, pipeline._initial_stage,
              pipeline.tilde_corrections, pipeline.table_reductions,
              pipeline._generic_final_stage, pipeline.second_stage_tails,
              pipeline._generic_final_residuals, pipeline.final_conditions,
              pipeline._verdict_checks)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_generic_final_stage_is_built_once(monkeypatch, fresh_cascade):
    calls = []
    final_stage = pipeline._final_stage

    def counted(spec, label):
        calls.append(label)
        return final_stage(spec, label)

    monkeypatch.setattr(pipeline, "_final_stage", counted)
    gens = build_I2()
    pipeline.second_stage_tails()
    assert build_I2(CurvatureSpec({})).context is gens.context
    assert gens.context is pipeline._generic_final_stage().ctx
    assert calls == ["Vp"]


def test_cold_verdict_builds_the_final_ideal_once(fresh_cascade):
    """The verdict reads the final conditions off the generic Frobenius
    residuals; it does not build the final ideal under the restricted
    class a second time."""
    assert embeddability_verdict(d6_spec()).embeddable
    assert pipeline._generic_final_residuals.cache_info().currsize == 0
    assert [(k, str(v)) for k, v in pipeline.final_conditions().items()] == list(
        TRANSCRIBED_FINAL_CONDITIONS.items())


def _corrupt_tilde(monkeypatch, base, gen, extra):
    """Add extra to the derived correction of base on gen."""
    derived = pipeline.tilde_corrections()
    row = dict(derived[base])
    row[gen] = row.get(gen, Scalar.zero()) + Scalar.parse(extra)
    corrupted = {**derived, base: row}
    monkeypatch.setattr(pipeline, "tilde_corrections", lambda: corrupted)


def test_non_affine_torsion_names_its_row(monkeypatch, fresh_cascade):
    _corrupt_tilde(monkeypatch, "et3_3p", "om0", "p12_12")
    with pytest.raises(RowMismatch) as info:
        pipeline.table_reductions()
    assert info.value.row == "V5"


def test_torsion_free_remainder_names_its_row(monkeypatch, fresh_cascade):
    _corrupt_tilde(monkeypatch, "et2_2", "om0", "1")
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


def test_singular_span_is_inconsistent(monkeypatch, fresh_cascade):
    """Th22_1 without its et2_1 term has no pivot left."""
    coords, forms = pipeline.prolongation()
    f = forms[("22", "1")]
    corrupted = {**forms,
                 ("22", "1"): f + f.ctx.gen("et2_1").scale(Scalar.parse("-2/3"))}
    monkeypatch.setattr(pipeline, "prolongation", lambda: (coords, corrupted))
    with pytest.raises(Inconsistent, match="rank 20 of 21"):
        pipeline.tilde_corrections()


def test_row_mismatch_names_the_corrupted_row(monkeypatch, fresh_cascade):
    """A doubled first congruence leaves its lead on the base; the second
    check of gam2 without om1p killed sees the th1 ∧ om1p torsion that the
    first check's tail left."""
    cases = [
        (4, ("t3_2a", [("6", "et2_1_t", None)], "th1", "et_11", []),
         {("th1", "et_11"): "-1"}),
        (1, ("gam2_b", [("1", "ga02_t", None)], "om0", "gam2", ["th2", "om2p"]),
         {("th1", "om1p"): "1/7*B3+1/14*A3_1p"}),
    ]
    for index, check, residual in cases:
        checks = list(pipeline.SECOND_STAGE_CHECKS)
        checks[index] = check
        pipeline.second_stage_tails.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "SECOND_STAGE_CHECKS", checks)
            with pytest.raises(RowMismatch) as info:
                build_I2()
        assert info.value.row == check[0]
        got = info.value.residual
        assert got == got.ctx.form(residual), check[0]


def test_tail_hidden_from_both_checks_is_inconsistent(monkeypatch, fresh_cascade):
    checks = list(pipeline.SECOND_STAGE_CHECKS)
    checks[0] = ("gam2_a", [("1", "ga12_t", None)], "th1", "gam2", ["om1p"])
    monkeypatch.setattr(pipeline, "SECOND_STAGE_CHECKS", checks)
    with pytest.raises(Inconsistent, match=r"gam2 tail on \['om1p'\]"):
        pipeline.second_stage_tails()
