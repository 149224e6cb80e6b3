import functools
import random

import pytest

from eds235 import jet
from eds235.jet import (
    JetPoint,
    RankDeficient,
    absorbed_tableau_forms,
    act,
    alpha,
    build_jet_context,
    contact_quotient,
    d_contact,
    first_integrability,
    higher_integrability,
    in_span_of_two_forms,
    is_integrable,
    normal_form_point,
    normalize,
    random_integrable,
    random_parabolic_pair,
    remaining_torsion,
    shift_form,
    stage_context,
    symbol_relations,
    tableau_forms_on_V1,
)
from eds235.geometry import Inconsistent
from eds235.liemodel import mat_identity, mat_mul
from eds235.scalar import Scalar

S = Scalar.parse


def combo(ctx, *terms):
    f = ctx.zero()
    for c, name in terms:
        f = f + ctx.gen(name).scale(S(c))
    return f


# --- points and the torsion residuals ---------------------------------------

class TestJetPoint:
    def test_entry_layout(self):
        p = JetPoint.from_entries({("13", "0"): "5", ("12", "2"): "-1/2"})
        assert p.entry("13", "0") == S("5")
        assert p.entry("12", "2") == S("-1/2")
        assert p.entry("23p", "1p").is_zero()
        assert p.q(1, "0") == (S("5"), S("0"))

    def test_projection(self):
        p = JetPoint.from_entries({("11", "0"): 1, ("11", "1"): 2})
        assert not p.is_projected()
        q = p.project()
        assert q.is_projected()
        assert q.entry("11", "1") == S("2")
        assert q.entry("11", "0").is_zero()

    def test_normal_form_shape(self):
        p = normal_form_point("4", "-1", "3/2")
        assert p.rank() == 5
        assert p.is_projected()
        assert is_integrable(p)
        assert p.entry("11", "2") == S("2/3")
        assert p.entry("12", "1") == S("1/3")
        assert p.entry("13", "0") == S("1")
        assert p.entry("13p", "2p") == S("1")
        assert p.entry("23p", "1p") == S("1")
        assert p.entry("13", "2") == S("4")
        assert p.entry("23", "2") == S("-1")
        assert p.entry("23p", "2") == S("3/2")

    def test_residuals_of_a_pinned_point(self):
        p = JetPoint.from_entries({
            ("13", "0"): 1, ("13p", "0"): 2,
            ("13", "1p"): 3, ("13p", "1p"): 4,
        })
        res = first_integrability(p)
        assert res[("11", "0", "1p")] == S("-4")
        nonzero = {k for k, v in res.items() if not v.is_zero()}
        assert nonzero == {("11", "0", "1p")}

    def test_residuals_require_projection(self):
        p = JetPoint.from_entries({("11", "0"): 1})
        with pytest.raises(ValueError):
            first_integrability(p)

    def test_random_solutions(self):
        rng = random.Random(11)
        for _ in range(6):
            p = random_integrable(rng)
            assert p.is_projected()
            assert p.rank() == 5
            assert is_integrable(p)


class TestGroupAction:
    def test_right_action_composition(self):
        rng = random.Random(3)
        p = random_integrable(rng)
        g1, h1 = random_parabolic_pair(rng)
        g2, h2 = random_parabolic_pair(rng)
        stepwise = act(act(p, g1, h1), g2, h2)
        combined = act(p, mat_mul(g1, g2), mat_mul(h1, h2))
        assert stepwise == combined

    def test_integrability_is_equivariant(self):
        rng = random.Random(5)
        p = random_integrable(rng)
        g, h = random_parabolic_pair(rng)
        q = act(p, g, h, project=True)
        assert is_integrable(q)
        # a violated residual stays violated along the orbit
        broken = p.matrix()
        broken[0][0] = broken[0][0] + Scalar.one()
        pb = JetPoint.from_matrix(broken)
        assert not is_integrable(pb)
        assert not is_integrable(act(pb, g, h, project=True))


class TestNormalize:
    def test_moves_reach_the_normal_form(self):
        rng = random.Random(19)
        for _ in range(3):
            p = random_integrable(rng)
            nz = normalize(p)
            a, b, c = (nz.invariants[k]
                       for k in ("H13_2", "H23_2", "H23p_2"))
            assert nz.point == normal_form_point(a, b, c)
            assert act(p, nz.g, nz.h) == nz.point

    def test_normal_form_is_fixed(self):
        p = normal_form_point("5/3", "-2", "7/4")
        nz = normalize(p)
        assert nz.point == p
        assert nz.g == mat_identity(7)
        assert nz.h == mat_identity(6)

    def test_normalization_along_the_orbit(self):
        rng = random.Random(23)
        p = random_integrable(rng)
        g, h = random_parabolic_pair(rng)
        q = act(p, g, h)
        nz = normalize(q)
        assert act(q, nz.g, nz.h) == nz.point

    def test_low_rank_is_rejected(self):
        with pytest.raises(RankDeficient):
            normalize(JetPoint.from_entries({}))
        thin = JetPoint.from_entries({("13", "1p"): 1, ("13p", "1p"): 2})
        assert is_integrable(thin)
        with pytest.raises(RankDeficient):
            normalize(thin)

    def test_bad_input_is_rejected(self):
        with pytest.raises(ValueError):
            normalize(JetPoint.from_entries({("11", "0"): 1}))
        broken = normal_form_point().matrix()
        broken[0][0] = Scalar.one()
        with pytest.raises(ValueError):
            normalize(JetPoint.from_matrix(broken))


# --- the staged loci ---------------------------------------------------------

class TestStagedLoci:
    def test_generator_counts(self):
        assert len(build_jet_context().ctx.names()) == 61
        for stage, n in [("V1", 38), ("V2", 37), ("V3", 36), ("V4", 35)]:
            assert len(stage_context(stage).ctx.names()) == n, stage

    def test_differential_closure_samples(self):
        ctx = build_jet_context().ctx
        for name in ["pi11_1", "pi13_0", "pi23p_2p"]:
            assert ctx.d_rule(name).d().is_zero(), name

    def test_first_locus_tableau(self):
        v1 = stage_context("V1")
        c = v1.ctx
        expected = {
            "pi11_1": [("2/3", "et1_2"), ("-2/3", "ga21")],
            "pi11_2": [("4/3", "et1_1"), ("-2", "ze1"), ("-2/3", "ze2")],
            "pi12_1": [("1/3", "et1_1"), ("1/3", "et2_2"),
                       ("-1", "ze1"), ("-2/3", "ze2")],
            "pi12_2": [("2/3", "et2_1"), ("-1/3", "ga12")],
            "pi22_1": [("2/3", "et2_1")],
            "pi22_2": [],
            "pi13_0": [("1", "et1_1"), ("1", "et3_3"),
                       ("-2", "ze1"), ("-1", "ze2")],
            "pi13_1p": [],
            "pi13_2p": [("1", "et3_3p")],
            "pi13p_0": [("1", "et3p_3"), ("2", "ga01")],
            "pi13p_1p": [("1", "et1_2"), ("-1", "ga21")],
            "pi13p_2p": [("1", "et1_1"), ("-1", "et3_3"), ("-1", "ze1")],
            "pi23_0": [("1", "et2_1")],
            "pi23_1p": [("1", "et3_3p")],
            "pi23_2p": [],
            "pi23p_0": [("-2", "ga02")],
            "pi23p_1p": [("1", "et2_2"), ("-1", "et3_3"),
                         ("-1", "ze1"), ("-1", "ze2")],
            "pi23p_2p": [("1", "et2_1"), ("-1", "ga12")],
        }
        forms = tableau_forms_on_V1()
        assert set(forms) == set(expected)
        for name, pairs in expected.items():
            assert (forms[name] - combo(c, *pairs)).is_zero(), name

    def test_final_locus_theta_columns(self):
        v4 = stage_context("V4")
        c = v4.ctx
        expected = {
            "pi13_1": [("1/3", "et_23p"), ("-1", "ga01")],
            "pi13_2": [("2/3", "et_13p"), ("-1", "ga02")],
            "pi13p_1": [("1/3", "et_23")],
            "pi13p_2": [("2/3", "et_13"), ("-1", "ga")],
            "pi23_1": [("1/3", "et_13p")],
            "pi23_2": [],
            "pi23p_1": [("1/3", "et_13"), ("-1", "ga")],
            "pi23p_2": [],
        }
        for name, pairs in expected.items():
            got = v4.pi_solutions[name]
            assert (got - combo(c, *pairs)).is_zero(), name


class TestSymbolRelations:
    def test_counts(self):
        assert len(symbol_relations("V1")) == 9
        assert len(symbol_relations("V4")) == 3

    def test_relations_by_value(self):
        def texts(stage):
            return [{n: str(c) for n, c in rel.items()}
                    for rel in symbol_relations(stage)]

        assert texts("V1") == [
            {"pi22_2": "1"},
            {"pi13_1p": "1"},
            {"pi11_1": "-3/2", "pi13p_1p": "1"},
            {"pi11_2": "-3/2", "pi13_0": "1", "pi13p_2p": "1"},
            {"pi22_1": "-3/2", "pi23_0": "1"},
            {"pi13_2p": "-1", "pi23_1p": "1"},
            {"pi23_2p": "1"},
            {"pi12_1": "-3", "pi13_0": "1", "pi23p_1p": "1"},
            {"pi12_2": "-3", "pi22_1": "3/2", "pi23p_2p": "1"},
        ]
        # the middle stages' kernels carry symbolic coefficients
        assert texts("V2") == [
            {"pi23_2": "1", "pi22_1": "-3/2*H13_2", "pi13_2p": "-H23p_2"},
        ]
        assert texts("V3") == [
            {"pi23_2": "1", "pi13_2p": "-H23p_2"},
            {"pi13_2": "-1/2", "pi23p_0": "1/4", "pi23_1": "1"},
        ]
        assert texts("V4") == [
            {"pi23p_2": "1"},
            {"pi23_2": "1"},
            {"pi13_2": "-1/2", "pi23p_0": "1/4", "pi23_1": "1"},
        ]

    def test_first_locus_identities(self):
        v1 = stage_context("V1")
        displayed = [
            {"pi11_1": "3", "pi13p_1p": "-2"},
            {"pi12_1": "3", "pi23p_1p": "-1", "pi13_0": "-1"},
            {"pi22_1": "3", "pi23_0": "-2"},
            {"pi11_2": "3", "pi13_0": "-2", "pi13p_2p": "-2"},
            {"pi12_2": "3", "pi23p_2p": "-1", "pi23_0": "-1"},
            {"pi22_2": "3"},
            {"pi13_1p": "1"},
            {"pi13_2p": "1", "pi23_1p": "-1"},
            {"pi23_2p": "1"},
        ]
        for rel in displayed:
            f = v1.ctx.zero()
            for name, c in rel.items():
                f = f + v1.pi_solutions[name].scale(S(c))
            assert f.is_zero(), rel

    def test_final_locus_identities(self):
        v4 = stage_context("V4")
        displayed = [
            {"pi23_2": "1"},
            {"pi23p_2": "1"},
            {"pi23p_0": "1", "pi13_2": "-2", "pi23_1": "4"},
        ]
        for rel in displayed:
            f = v4.ctx.zero()
            for name, c in rel.items():
                f = f + v4.pi_solutions[name].scale(S(c))
            assert f.is_zero(), rel

    def test_absorption_preserves_the_relations(self):
        forms = absorbed_tableau_forms()
        assert len(jet._relation_kernel(forms)) == 12


# --- the integrability chain -------------------------------------------------

# The bindings that cut V2, V3 and V4, as they used to be stated by hand.
TRANSCRIBED_STAGE_BINDINGS = {
    "V2": {"H23_2": "0"},
    "V3": {"H13_2": "0"},
    "V4": {"H23p_2": "0"},
}


class TestIntegrabilityChain:
    def test_loci_bind_the_transcribed_bindings(self):
        steps = higher_integrability()
        assert {s.stage: s.binding for s in steps} == {
            stage: {k: S(v) for k, v in b.items()}
            for stage, b in TRANSCRIBED_STAGE_BINDINGS.items()}
        for stage, bindings in TRANSCRIBED_STAGE_BINDINGS.items():
            bound = stage_context(stage).bound
            assert all(bound[k] == S(v) for k, v in bindings.items()), stage
        assert all(a is b for a, b in zip(steps, higher_integrability()))

    def test_forced_bindings(self):
        steps = higher_integrability()
        assert [s.stage for s in steps] == ["V2", "V3", "V4"]
        assert steps[0].coefficient == S("2*H23_2")
        assert steps[1].coefficient == S("24*H13_2")
        assert steps[2].coefficient == S("-10*H23p_2")
        assert [s.binding for s in steps] == [
            {"H23_2": Scalar.zero()},
            {"H13_2": Scalar.zero()},
            {"H23p_2": Scalar.zero()},
        ]

    def test_second_locus_residual_shape(self):
        steps = higher_integrability()
        v1 = stage_context("V1")
        mono = v1.ctx.gen("th2") ^ v1.ctx.gen("om1p")
        assert (steps[0].residual - mono.scale(S("2*H23_2"))).is_zero()


class TestCongruenceDisplays:
    def setup_method(self):
        self.v2 = stage_context("V2")
        self.c = self.v2.ctx

    def test_symmetric_contact_row(self):
        r = contact_quotient(self.v2, d_contact(self.v2, "22"))
        want = (self.c.gen("th1") ^ self.c.gen("et2_1")).scale(S("2/3"))
        assert (r - want).is_zero()

    def test_first_spin_contact_row(self):
        r = contact_quotient(self.v2, d_contact(self.v2, "13"),
                             kill=["th1", "th2", "om0"])
        tail = self.c.gen("om1p").scale(S("2")) + self.c.gen("et3_3p")
        want = (tail ^ self.c.gen("om2p")).scale(S("-1"))
        assert (r - want).is_zero()

    def test_second_spin_contact_row(self):
        c = self.c
        r = contact_quotient(self.v2, d_contact(self.v2, "23"))
        want = ((c.gen("th2").scale(S("H13_2")) + c.gen("om0"))
                ^ c.gen("et2_1")) \
            + ((c.gen("th2").scale(S("H23p_2")) + c.gen("om1p"))
               ^ c.gen("et3_3p"))
        # the two agree exactly up to a single first-column term
        diff = r - want
        assert (diff - (c.gen("th1") ^ c.gen("et_13p")).scale(S("1/3"))) \
            .is_zero()

    def test_shift_form_derivative(self):
        c = self.c
        f = shift_form(self.v2)
        df = contact_quotient(self.v2, f.d(), kill=["th2", "om0"])
        junk = (c.gen("om2p") ^ c.gen("ga12")).scale(S("-2")) \
            - (c.gen("om1p") ^ combo(c, ("2", "ze1"), ("2", "ze2"),
                                     ("-4", "et3_3")))
        diff = df - (c.gen("th1") ^ junk)
        span = [
            contact_quotient(self.v2, f, kill=["th2", "om0"]),
            contact_quotient(self.v2, d_contact(self.v2, "22"),
                             kill=["th2", "om0"]),
        ]
        assert in_span_of_two_forms(diff, span)


def _substituted_contact_quotient(j, form, kill=()):
    """The contact quotient by direct substitution: each ``vt``/``vpi``
    target by the horizontal part of its contact form, then each killed
    generator by zero."""
    ctx = j.ctx
    f = form
    for k in jet.AB_KEYS:
        repl = ctx.zero()
        for s in jet.THETA_SLOTS:
            repl = repl + ctx.gen(jet.SB_OF_SLOT[s]).scale(j.h_value(k, s))
        f = ctx.substitute_generator(f, "vt" + k, repl)
    for k in jet.I_KEYS:
        repl = ctx.zero()
        for s in jet.SLOTS:
            repl = repl + ctx.gen(jet.SB_OF_SLOT[s]).scale(j.h_value(k, s))
        f = ctx.substitute_generator(f, "vpi" + k, repl)
    for name in kill:
        f = ctx.substitute_generator(f, name, ctx.zero())
    return f


@pytest.mark.parametrize("stage", jet.STAGE_ORDER)
def test_contact_quotient_matches_direct_substitution(stage):
    """The normal form modulo the contact ideal is the substitution, with
    the same terms in the same order, for the kills the engine uses."""
    j = stage_context(stage)
    for k in j.contact_forms():
        form = d_contact(j, k[2:])
        for kill in ([], ["th1", "om0"], ["om0"], ["om1p"]):
            got = contact_quotient(j, form, kill=kill)
            want = _substituted_contact_quotient(j, form, kill)
            assert list(got.terms.items()) == list(want.terms.items()), (k, kill)


def test_contact_forms_are_built_once_per_context(monkeypatch):
    """Each context builds its contact forms once, however many quotients
    and torsion rows read them."""
    bindings = [jet.V1_BINDINGS] + [jet._integrability_step(stage).binding
                                    for stage in jet.STAGE_ORDER[1:]]
    build, built = jet.JetContext._contact_forms.func, []

    def counted(self):
        built.append(self.label)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(jet.JetContext, "_contact_forms")
    monkeypatch.setattr(jet.JetContext, "_contact_forms", prop)
    j = build_jet_context()
    labels = []
    for stage, binding in zip(jet.STAGE_ORDER, bindings):
        j = jet.bind_H(j, binding, label=stage + "-fresh")
        labels.append(j.label)
        for k in j.contact_forms():
            contact_quotient(j, d_contact(j, k[2:]), kill=["om0"])
        assert j.contact_forms() is not j.contact_forms()
    remaining_torsion(j)
    assert built == labels


class TestTorsion:
    def test_final_locus_raw_torsion(self):
        v4 = stage_context("V4")
        tor = remaining_torsion(v4)
        assert set(tor) == {"13"}
        want = (v4.ctx.gen("om1p") ^ v4.ctx.gen("om2p")).scale(S("-2"))
        assert (tor["13"] - want).is_zero()

    def test_absorption(self):
        v4 = stage_context("V4")
        forms = absorbed_tableau_forms(v4)
        assert remaining_torsion(v4, forms) == {}
        for name in ["pi13_2p", "pi23_1p"]:
            shift = forms[name] - v4.pi_solutions[name]
            assert (shift - v4.ctx.gen("om1p").scale(S("2"))).is_zero()

    def test_torsion_left_names_its_row(self, monkeypatch):
        monkeypatch.setattr(jet, "TORSION_ABSORPTION",
                            {**jet.TORSION_ABSORPTION, "pi13_2p": [("1", "om1p")]})
        with pytest.raises(Inconsistent, match="torsion left in row 13:"):
            absorbed_tableau_forms()


# --- pinned results on seeded points ------------------------------------------

def test_normalize_and_act_match_the_pinned_reference():
    """Three points of random_integrable(Random(41)), each followed by a
    random_parabolic_pair from the same generator; the fixture holds every
    entry as text."""
    import json
    from pathlib import Path

    def rows(m):
        return [[str(c) for c in r] for r in m]

    ref = json.loads(
        (Path(__file__).parent / "fixtures" / "normalize_seeded.json").read_text())
    rng = random.Random(41)
    for want in ref:
        p = random_integrable(rng)
        assert rows(p.matrix()) == want["point"]
        nz = normalize(p)
        assert rows(nz.point.matrix()) == want["normal_form"]
        assert rows(nz.g) == want["g"]
        assert rows(nz.h) == want["h"]
        assert {k: str(v) for k, v in nz.invariants.items()} == want["invariants"]
        g, h = random_parabolic_pair(rng)
        assert (rows(g), rows(h)) == (want["pair_g"], want["pair_h"])
        assert rows(act(p, g, h).matrix()) == want["act_pair"]
        assert act(p, nz.g, nz.h, project=True) == nz.point
