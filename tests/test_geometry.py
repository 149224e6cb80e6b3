import json
import os
import re

import pytest

from eds235 import geometry
from eds235.exterior import eliminate
from eds235.geometry import (
    CONNECTION,
    CURVATURE_SYMBOLS,
    CurvatureSpec,
    DerivativeTable,
    Inconsistent,
    InconsistentSpec,
    build_M_context,
    build_N_context,
    curvature_forms,
    reconstruct_derivatives,
    reduce_relations,
)
from eds235.scalar import Scalar

S = Scalar.parse
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SPECS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "specs")


def combo(ctx, *terms):
    """Linear combination of generators given as (coeff-string, name)."""
    f = ctx.zero()
    for c, name in terms:
        f = f + ctx.gen(name).scale(S(c))
    return f


def g(ctx, name):
    return ctx.gen(name)


# --- structure equations of the curved model -------------------------------

class TestMStructure:
    def setup_method(self):
        self.ctx = build_M_context()

    def test_semibasic_rows(self):
        ctx = self.ctx
        th1, th2, om0, om1p, om2p = (g(ctx, n) for n in
                                     ["th1", "th2", "om0", "om1p", "om2p"])
        d = {
            "th1": (combo(ctx, ("-3", "ze1"), ("-2", "ze2")) ^ th1)
            + (g(ctx, "ga12").scale(S("-1")) ^ th2)
            + (om0 ^ om1p).scale(S("3")),
            "th2": (g(ctx, "ga21").scale(S("-1")) ^ th1)
            + (combo(ctx, ("-3", "ze1"), ("-1", "ze2")) ^ th2)
            + (om0 ^ om2p).scale(S("3")),
            "om0": (g(ctx, "ga01").scale(S("-1")) ^ th1)
            + (g(ctx, "ga02").scale(S("-1")) ^ th2)
            + (combo(ctx, ("-2", "ze1"), ("-1", "ze2")) ^ om0)
            + (om1p ^ om2p).scale(S("2")),
            "om1p": (g(ctx, "ga").scale(S("-1")) ^ th1)
            + (g(ctx, "ga02").scale(S("-2")) ^ om0)
            + (combo(ctx, ("-1", "ze1"), ("-1", "ze2")) ^ om1p)
            + (g(ctx, "ga12").scale(S("-1")) ^ om2p),
            "om2p": (g(ctx, "ga").scale(S("-1")) ^ th2)
            + (g(ctx, "ga01").scale(S("2")) ^ om0)
            + (g(ctx, "ga21").scale(S("-1")) ^ om1p)
            + (g(ctx, "ze1").scale(S("-1")) ^ om2p),
        }
        for name, form in d.items():
            assert ctx.d_rule(name) == form, name

    def test_connection_rows_quadratic_part(self):
        ctx = self.ctx
        k = curvature_forms(ctx)

        def got(name):
            return ctx.d_rule(name) - k[name]

        w = lambda a, b: g(ctx, a) ^ g(ctx, b)
        assert got("ga12") == w("ze2", "ga12").scale(S("-1")) + w("gam2", "th1") \
            + w("ga02", "om1p").scale(S("3"))
        assert got("ze1") == w("ga12", "ga21") + w("gam2", "th2") \
            + w("ga", "om0").scale(S("-1")) + w("ga01", "om1p").scale(S("-1")) \
            + w("ga02", "om2p").scale(S("2"))
        assert got("ze2") == w("ga12", "ga21").scale(S("-2")) + w("gam1", "th1") \
            + w("gam2", "th2").scale(S("-1")) + w("ga01", "om1p").scale(S("3")) \
            + w("ga02", "om2p").scale(S("-3"))
        assert got("ga21") == w("ze2", "ga21") + w("gam1", "th2") \
            + w("ga01", "om2p").scale(S("3"))
        assert got("ga01") == w("ga21", "ga02") + w("ze2", "ga01") \
            + w("ze1", "ga01") + w("gam1", "om0") + w("ga", "om2p").scale(S("2"))
        assert got("ga02") == w("ga12", "ga01") + w("ze1", "ga02") \
            + w("gam2", "om0") + w("ga", "om1p").scale(S("-2"))
        assert got("ga") == w("ga02", "ga01").scale(S("-2")) + w("ze2", "ga") \
            + w("ze1", "ga").scale(S("2")) + w("gam1", "om1p") + w("gam2", "om2p")
        assert got("gam1") == w("ga01", "ga").scale(S("-3")) + w("ga21", "gam2") \
            + w("ze2", "gam1").scale(S("2")) + w("ze1", "gam1").scale(S("3"))
        assert got("gam2") == w("ga02", "ga").scale(S("-3")) + w("ze2", "gam2") \
            + w("ze1", "gam2").scale(S("3")) + w("ga12", "gam1")

    def test_curvature_coefficient_samples(self):
        ctx = self.ctx
        assert ctx.d_rule("ga12").coefficient(["th1", "om1p"]) == S("A3")
        assert ctx.d_rule("ze1").coefficient(["th1", "th2"]) == S("-C2")
        assert ctx.d_rule("ze2").coefficient(["th1", "th2"]) == S("2*C2")
        assert ctx.d_rule("gam2").coefficient(["th1", "om0"]) == S("E+2*Et2")
        assert ctx.d_rule("gam1").coefficient(["th2", "om2p"]) == S("2/3*D1-Dt2")
        assert ctx.d_rule("ga").coefficient(["th2", "om0"]) == S("2*D1")

    def test_torsion_values(self):
        ctx = self.ctx
        assert ctx.d_rule("th1").coefficient(("om0", "om1p")) == S("3")
        assert ctx.d_rule("th2").coefficient(("om0", "om2p")) == S("3")
        assert ctx.d_rule("om0").coefficient(("om1p", "om2p")) == S("2")
        # sign-adjusted lookup of a reversed pair
        assert ctx.d_rule("om0").coefficient(("om2p", "om1p")) == S("-2")

    def test_connection_matrix_blocks(self):
        from eds235 import geometry as geo

        ctx = self.ctx
        for slot in geo.SLOTS:
            name = geo.SB_OF_SLOT[slot]
            f = geo.block_row_rule(
                ctx, slot,
                [(geo.M_OMEGA, geo.SLOTS, lambda c: geo.SB_OF_SLOT[c])],
            )
            for pair, c in geo.M_TORSION.get(slot, {}).items():
                f = f + (g(ctx, pair[0]) ^ g(ctx, pair[1])).scale(S(c))
            assert ctx.d_rule(name) == f, name


class TestNStructure:
    def setup_method(self):
        self.ctx = build_N_context()

    def test_torsion_values(self):
        ctx = self.ctx
        assert ctx.d_rule("vt11").coefficient(("vpi13", "vpi13p")) == S("2")
        assert ctx.d_rule("vt22").coefficient(("vpi23", "vpi23p")) == S("2")
        assert ctx.d_rule("vt12").coefficient(("vpi13", "vpi23p")) == S("1")
        assert ctx.d_rule("vt12").coefficient(("vpi23", "vpi13p")) == S("1")

    def test_theta_rows(self):
        ctx = self.ctx
        w = lambda a, b: g(ctx, a) ^ g(ctx, b)
        assert ctx.d_rule("vt11") == w("et1_1", "vt11").scale(S("-2")) \
            + w("et1_2", "vt12").scale(S("-2")) + w("vpi13", "vpi13p").scale(S("2"))
        assert ctx.d_rule("vt12") == w("et2_1", "vt11").scale(S("-1")) \
            + (combo(ctx, ("-1", "et1_1"), ("-1", "et2_2")) ^ g(ctx, "vt12")) \
            + w("et1_2", "vt22").scale(S("-1")) \
            + w("vpi13", "vpi23p") + w("vpi23", "vpi13p")
        assert ctx.d_rule("vt22") == w("et2_1", "vt12").scale(S("-2")) \
            + w("et2_2", "vt22").scale(S("-2")) + w("vpi23", "vpi23p").scale(S("2"))

    def test_varpi_rows(self):
        ctx = self.ctx
        w = lambda a, b: g(ctx, a) ^ g(ctx, b)
        assert ctx.d_rule("vpi13") == w("et_13p", "vt11").scale(S("-1")) \
            + w("et_23p", "vt12").scale(S("-1")) \
            + (combo(ctx, ("-1", "et1_1"), ("-1", "et3_3")) ^ g(ctx, "vpi13")) \
            + w("et3_3p", "vpi13p").scale(S("-1")) + w("et1_2", "vpi23").scale(S("-1"))
        assert ctx.d_rule("vpi13p") == w("et_13", "vt11").scale(S("-1")) \
            + w("et_23", "vt12").scale(S("-1")) \
            + w("et3p_3", "vpi13").scale(S("-1")) \
            + (combo(ctx, ("-1", "et1_1"), ("1", "et3_3")) ^ g(ctx, "vpi13p")) \
            + w("et1_2", "vpi23p").scale(S("-1"))
        assert ctx.d_rule("vpi23") == w("et_13p", "vt12").scale(S("-1")) \
            + w("et_23p", "vt22").scale(S("-1")) \
            + w("et2_1", "vpi13").scale(S("-1")) \
            + (combo(ctx, ("-1", "et2_2"), ("-1", "et3_3")) ^ g(ctx, "vpi23")) \
            + w("et3_3p", "vpi23p").scale(S("-1"))
        assert ctx.d_rule("vpi23p") == w("et_13", "vt12").scale(S("-1")) \
            + w("et_23", "vt22").scale(S("-1")) \
            + w("et2_1", "vpi13p").scale(S("-1")) \
            + w("et3p_3", "vpi23").scale(S("-1")) \
            + (combo(ctx, ("-1", "et2_2"), ("1", "et3_3")) ^ g(ctx, "vpi23p"))

    def test_connection_matrix_blocks(self):
        from eds235 import geometry as geo

        ctx = self.ctx
        for ab in geo.AB_KEYS:
            f = geo.block_row_rule(
                ctx, ab, [(geo.N_OMEGA_AB, geo.AB_KEYS, lambda c: "vt" + c)]
            )
            for pair, c in geo.N_TORSION[ab].items():
                f = f + (g(ctx, pair[0]) ^ g(ctx, pair[1])).scale(S(c))
            assert ctx.d_rule("vt" + ab) == f, ab
        for key in geo.I_KEYS:
            f = geo.block_row_rule(
                ctx, key,
                [
                    (geo.N_OMEGA_I_AB, geo.AB_KEYS, lambda c: "vt" + c),
                    (geo.N_OMEGA_I_I, geo.I_KEYS, lambda c: "vpi" + c),
                ],
            )
            assert ctx.d_rule("vpi" + key) == f, key

    def test_flat_contexts_close(self):
        assert build_N_context().check_context() == {}
        flat = CurvatureSpec({s: Scalar.zero() for s in CURVATURE_SYMBOLS})
        assert build_M_context(flat).check_context() == {}


# --- derivative reconstruction ---------------------------------------------

class TestReconstruction:
    def test_dA1_vertical_part(self):
        table = reconstruct_derivatives()
        row = table.rules["A1"]
        vertical = {v: c for v, c in row.items() if v in CONNECTION}
        assert vertical == {"ga12": S("4*A2"), "ze1": S("4*A1")}
        for sb, slot in [("th1", "A1_1"), ("th2", "A1_2"), ("om0", "A1_0"),
                         ("om1p", "A1_1p"), ("om2p", "A1_2p")]:
            assert row[sb] == S(slot)

    def test_forced_first_derivative_relation(self):
        table = reconstruct_derivatives()
        assert table.reduce_scalar(S("-3*C3 + A4_0 + 2*B3_1p")).is_zero()
        # independent double-entry: the relation appears in the basis
        assert any(
            r == S("-3*C3 + A4_0 + 2*B3_1p") or r == S("3*C3 - A4_0 - 2*B3_1p")
            for r in table.relations
        )

    def test_condition_symbols_left_free(self):
        table = reconstruct_derivatives(depth=2)
        for sym in ["A3_0", "B3_1p", "A4_1p", "A5_0", "A5_1", "B4_1",
                    "A5_0_1", "A5_0_1p"]:
            assert table.reduce_scalar(S(sym)) == S(sym)

    def test_second_level_closure_sample(self):
        table = reconstruct_derivatives(depth=2)
        # d of an eliminated symbol must be consistent with its rewriting:
        # A4_0 = 3*C3 - 2*B3_1p, so the rules of C3 and B3_1p must combine
        # to a closed rule (checked globally at construction; spot-check
        # the om1p tail of dA5_0 stays the named free symbol).
        assert table.rules["A5_0"]["om1p"] == S("A5_0_1p")
        assert table.rules["A5_0"]["th1"] == S("A5_0_1")

    @pytest.mark.parametrize("coefficient, message", [
        ("_u_A1_ga12^2", "nonlinear"),
        ("A2*_u_A1_ga12", "nonlinear"),
        ("_u_A1_ze1", "unknown _u_A1_ze1 of another block"),
    ])
    def test_bad_block_coefficient_is_inconsistent(self, monkeypatch,
                                                   coefficient, message):
        """A slot with one connection generator must be linear in that
        generator's unknowns; th1^th2^ga12 is a slot of the ga12 block."""
        d_squared = geometry._d_squared

        def corrupted(ctx, name):
            extra = ctx.form({("th1", "th2", "ga12"): S(coefficient)})
            return d_squared(ctx, name) + extra

        monkeypatch.setattr(geometry, "_d_squared", corrupted)
        with pytest.raises(Inconsistent, match=message):
            geometry._extend_table(DerivativeTable(), CURVATURE_SYMBOLS, ["th1"])

    def test_pinned_table_fixture(self):
        with open(os.path.join(FIXTURES, "derivative_table.json")) as fh:
            frozen = fh.read()
        table = reconstruct_derivatives(depth=2)
        assert table.to_json() == frozen


# --- curvature specs --------------------------------------------------------

class TestCurvatureSpec:
    def test_from_json_and_validate(self):
        spec = CurvatureSpec.from_json(
            '{"bindings": {"A3": 1, "C2": "1/7*sqrt7", "E": "9/14"},'
            ' "relations": ["E - 9/14*A3^2"]}'
        )
        spec.validate()
        assert spec.bindings["C2"] == S("1/7*sqrt7")

    def test_inconsistent_binding(self):
        spec = CurvatureSpec.from_json(
            '{"bindings": {"A3": 2, "E": "9/14"},'
            ' "relations": ["E - 9/14*A3^2"]}'
        )
        with pytest.raises(InconsistentSpec):
            build_M_context(spec)

    def test_unbound_relation_symbols_pass(self):
        spec = CurvatureSpec.from_json(
            '{"bindings": {"E": "9/14"}, "relations": ["E - 9/14*A3^2"]}'
        )
        spec.validate()

    @pytest.mark.parametrize("name", ["A33", "A3_9", "p11_12", "A3_"])
    def test_misspelled_binding_rejected(self, name):
        with pytest.raises(InconsistentSpec, match=name):
            CurvatureSpec.from_json('{"bindings": {"%s": 1}}' % name)

    @pytest.mark.parametrize("value", ["1/B4", "1/0", "2*(", [1], True, False])
    def test_bad_binding_value_names_the_binding(self, value):
        text = json.dumps({"bindings": {"A3": 1, "C2": value}})
        with pytest.raises(InconsistentSpec, match="'C2'"):
            CurvatureSpec.from_json(text)

    def test_bindings_must_be_an_object(self):
        with pytest.raises(InconsistentSpec, match="bindings"):
            CurvatureSpec.from_json('{"bindings": [1]}')

    @pytest.mark.parametrize("relations", ['"A3"', '["A3", 1]'])
    def test_relations_must_be_a_list_of_strings(self, relations):
        with pytest.raises(InconsistentSpec, match="relations"):
            CurvatureSpec.from_json('{"relations": %s}' % relations)

    @pytest.mark.parametrize("relation", ["2*(", "1/B4", "1/0", "Q9 - 1"])
    def test_bad_relation_is_named(self, relation):
        text = json.dumps({"relations": ["A3 - 1", relation]})
        with pytest.raises(InconsistentSpec, match=re.escape(repr(relation))):
            CurvatureSpec.from_json(text)

    @pytest.mark.parametrize("name, known", [
        ("A1", True), ("A1_0_1p", True), ("Dt4_2p", True), ("E_0", True),
        ("A1_", False), ("A1__0", False), ("_A1", False), ("A1_9", False),
        ("A1_1p2", False), ("Q9", False), ("a1", False),
    ])
    def test_curvature_symbol_names(self, name, known):
        # the answers of the base-then-slots split of the name at "_",
        # matched on a cleared cache and then read from the warm one
        geometry._is_curvature_symbol.cache_clear()
        assert geometry._is_curvature_symbol(name) is known
        assert geometry._is_curvature_symbol(name) is known
        assert geometry._is_curvature_symbol.cache_info().hits == 1

    @pytest.mark.parametrize("bindings, message", [
        ({"A3": 1, "C2": "2*("}, "bad value for binding 'C2': "),
        ({"A3": 1, "A33": "1"}, "unknown curvature symbol 'A33' in bindings"),
        ({"A3": 1, "C2": True}, "bad value for binding 'C2': true is not a number"),
    ])
    def test_errors_are_raised_on_every_read(self, bindings, message):
        geometry._is_curvature_symbol.cache_clear()
        geometry._parse_value.cache_clear()
        text = json.dumps({"bindings": bindings})
        messages = []
        for _ in range(2):
            with pytest.raises(InconsistentSpec, match=re.escape(message)) as info:
                CurvatureSpec.from_json(text)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_pinned_spec_names_accepted(self):
        for name in ("flat", "d6"):
            with open(os.path.join(SPECS, name + ".json")) as fh:
                spec = CurvatureSpec.from_json(fh.read())
            assert "A5_0_1p" in spec.bindings


# --- relation reduction ------------------------------------------------------

class TestReduceRelations:
    def test_second_pass_resolves_a_set_aside_relation(self):
        basis, elim, stuck = reduce_relations([S("A1*B1 - C1*C2"), S("B1 - 2")])
        assert elim == {"B1": S("2"), "A1": S("1/2*C1*C2")}
        assert basis == [S("B1 - 2"), S("2*A1 - C1*C2")]
        assert stuck == []

    def test_nonlinear_relation_is_stuck(self):
        basis, elim, stuck = reduce_relations([S("A1*B1"), S("C1 - C2")])
        assert stuck == [S("A1*B1")]
        assert basis == [S("C1 - C2")]
        # same depth, both kept: the one later in CURVATURE_SYMBOLS goes
        assert elim == {"C2": S("C1")}

    def test_pivot_prefers_deeper_unkept_symbols(self):
        # A4_0 is a first derivative outside the kept set; A3_0 is kept
        _, elim, _ = reduce_relations([S("A3_0 + A4_0 - C3")])
        assert elim == {"A4_0": S("C3 - A3_0")}

    def test_resumed_map_gets_the_new_pivot_substituted(self):
        start = {"A1": S("B1 + C1")}
        basis, elim, stuck = reduce_relations([S("B1 - 2")], start)
        assert list(elim.items()) == [("A1", S("2 + C1")), ("B1", S("2"))]
        assert basis == [S("B1 - 2")]
        assert stuck == []
        assert start == {"A1": S("B1 + C1")}

    def test_resuming_equals_reducing_from_empty(self):
        first = [S("A1 - B1 - C1"), S("C2 - A3"), S("A4_0 + A3_0 - A1")]
        later = [S("B1 - 2*C2"), S("C1 + A4_0"), S("A1 - B1 - C1")]
        _, elim, _ = reduce_relations(first)
        _, resumed, stuck = reduce_relations(later, elim)
        _, whole, _ = reduce_relations(first + later)
        assert list(resumed.items()) == list(whole.items())
        assert stuck == []


# --- the rank-one reduced homogeneous example -------------------------------

D6_BINDINGS = {
    "A3": "1", "C2": "1/7*sqrt7", "E": "9/14", "Et2": "9/14",
}

D6_REDUCTION = {
    "ga12": {},
    "ze1": {"om0": "-3/14*sqrt7", "ze2": "-1/2"},
    "ga21": {},
    "ga01": {"om2p": "6/7*sqrt7", "th2": "17/14"},
    "ga02": {"th1": "1/14"},
    "ga": {"om0": "-5/7"},
    "gam2": {"th1": "-17/49*sqrt7", "om1p": "17/14"},
    "gam1": {"th2": "1/7*sqrt7", "om2p": "37/14"},
}


def d6_reduced_context():
    bindings = {s: S(D6_BINDINGS.get(s, "0")) for s in CURVATURE_SYMBOLS}
    ctx = build_M_context(CurvatureSpec(bindings))
    replacements = {
        name: combo(ctx, *((c, gname) for gname, c in row.items()))
        for name, row in D6_REDUCTION.items()
    }
    reduced, transfer = eliminate(ctx, replacements, label="D6")
    return reduced


class TestReducedExample:
    def test_reduced_structure_equation(self):
        ctx = d6_reduced_context()
        expected = (g(ctx, "th1") ^ g(ctx, "om0")).scale(S("-9/14*sqrt7")) \
            + (g(ctx, "om0") ^ g(ctx, "om1p")).scale(S("3")) \
            + (g(ctx, "th1") ^ g(ctx, "ze2")).scale(S("1/2"))
        assert ctx.d_rule("th1") == expected

    def test_reduced_context_closes(self):
        assert d6_reduced_context().check_context() == {}
