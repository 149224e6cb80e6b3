"""Prolongation ideal, reduction cascade, obstructions, embeddability verdict.

The embedding system on the 35-dimensional product locus is prolonged by 18
fibre coordinates (the entries of a symmetric-tensor family parameterizing
the prolongation space).  A staged cascade of exterior-derivative
computations, each verified against a stored expected residual, binds all 18
coordinates to curvature expressions and absorbs five coframe freedoms.  The
surviving ideal has 26 generators; its Frobenius obstructions split into
consequences of the connection reduction plus exactly two scalar conditions
on curvature derivatives.  Everything is exact: residuals are compared to
stored forms coefficient by coefficient, and any divergence aborts with the
first mismatched monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .exterior import CoframedContext, Form, extend, reduce_mod, reindex
from .geometry import (
    AB_KEYS,
    CURVATURE_SYMBOLS,
    SB_OF_SLOT,
    CurvatureSpec,
    Inconsistent,
    build_M_context,
    reconstruct_derivatives,
    reduce_relations,
    split_symbol,
)
from .jet import H_COLUMNS, ROW_KEYS, h_name, pi_name, stage_context
from .liemodel import mc_rules, sp6_model
from .scalar import Scalar, rank_of


class RowMismatch(Exception):
    """A recomputed cascade row disagrees with its stored expected form."""

    def __init__(self, row: str, residual: Form):
        self.row = row
        self.residual = residual
        ctx = residual.ctx
        parts = []
        for idx, c in sorted(residual.terms.items()):
            mono = "^".join(ctx.generators[i].name for i in idx)
            parts.append(f"({c})*{mono}")
        super().__init__(f"row {row}: residual {' + '.join(parts) or '0'}")


class ObstructionNonzero(Exception):
    """A curvature spec contradicts an already-forced obstruction."""


def _saturate(bindings: Mapping[str, Scalar]) -> dict:
    """Iterate substitution until binding values mention no bound symbol."""
    b = dict(bindings)
    for _ in range(len(b) + 2):
        nb = {k: v.substitute(b) for k, v in b.items()}
        if all(nb[k] == b[k] for k in b):
            return nb
        b = nb
    raise Inconsistent("cyclic curvature bindings")


# --------------------------------------------------------------------------
# prolongation coordinates
# --------------------------------------------------------------------------

# The 18 fibre coordinates of the prolongation space, named p<key>_<slots>:
# p11_12 sits in W-component "11" at the symmetric slot pair (1,2), while a
# trailing "p" marks a primed slot (p13_12p = component "13", slots (1,2')).
P_SYMBOLS = [
    "p11_11", "p11_12", "p11_22", "p12_11", "p12_12", "p22_11",
    "p13_11", "p13_12", "p13_10", "p13_12p",
    "p13p_11", "p13p_12", "p13p_22", "p13p_10", "p13p_20", "p13p_00",
    "p23_11", "p23p_11",
]


def dp_name(p: str) -> str:
    return "d" + p


N_NAMES = sp6_model().names


@lru_cache(maxsize=1)
def _m2_context() -> CoframedContext:
    """Curved base context with the depth-2 derivative table installed."""
    return build_M_context(table=reconstruct_derivatives(depth=2), label="M2")


def product_context(m_ctx: CoframedContext | None = None,
                    extra: Sequence[str] = (),
                    label: str = "MxN") -> CoframedContext:
    """Joint context of the curved base and the flat model group."""
    if m_ctx is None:
        m_ctx = _m2_context()
    ctx, _ = extend(m_ctx, N_NAMES + list(extra), label)
    for name, rule in mc_rules(sp6_model(), ctx).items():
        ctx.set_rule(name, rule)
    return ctx


@dataclass
class PStage:
    """A stage of the cascade: the context plus bound prolongation values."""

    ctx: CoframedContext
    p_values: dict
    label: str = "stage"

    def p(self, name: str) -> Scalar:
        if name in self.p_values:
            return self.p_values[name]
        return Scalar.symbol(name)

    def free(self) -> list:
        return [p for p in P_SYMBOLS if p not in self.p_values]


def prolonged_stage(p_values: Mapping[str, Scalar] | None = None,
                    m_ctx: CoframedContext | None = None,
                    label: str = "V4p") -> PStage:
    """Product context extended by the still-free prolongation coordinates.

    Each free coordinate p gets an exact differential generator dp; bound
    coordinates are substituted by their values and differentiate through
    the curvature derivative rules.
    """
    vals = dict(p_values or {})
    free = [p for p in P_SYMBOLS if p not in vals]
    ctx = product_context(m_ctx, extra=[dp_name(p) for p in free], label=label)
    for p in free:
        ctx.set_symbol_rule(p, ctx.gen(dp_name(p)))
        ctx.set_rule(dp_name(p), ctx.zero())
    for p, v in vals.items():
        ctx.set_symbol_rule(p, ctx.d_scalar(v))
    return PStage(ctx, vals, label)


# --------------------------------------------------------------------------
# ideal generators
# --------------------------------------------------------------------------

@dataclass
class IdealGenerators:
    """Named independent 1-forms spanning a Pfaffian system."""

    stage: str
    forms: dict
    context: CoframedContext

    def all(self) -> list:
        return list(self.forms.values())

    def check_independent(self) -> int:
        mat = [_coeff_row(f) for f in self.forms.values()]
        r = rank_of(mat)
        if r != len(mat):
            raise Inconsistent(
                f"{self.stage} generators dependent: rank {r} of {len(mat)}"
            )
        return r


def _coeff_row(f: Form) -> list:
    n = len(f.ctx.generators)
    row = [Scalar.zero()] * n
    for idx, c in f.terms.items():
        if len(idx) != 1:
            raise ValueError("coefficient rows are for 1-forms only")
        row[idx[0]] = c
    return row


def _span_rank(forms: Sequence[Form]) -> int:
    return rank_of([_coeff_row(f) for f in forms])


def contact_system(ctx: CoframedContext,
                   bindings: Mapping[str, Scalar] = ()) -> dict:
    """The seven contact forms at the normal-form jet fibre point."""
    from .jet import V1_BINDINGS, STAGE_BINDINGS

    h = {k: Scalar.parse(v) for k, v in V1_BINDINGS.items()}
    for stage in STAGE_BINDINGS.values():
        h.update({k: Scalar.parse(v) for k, v in stage.items()})
    b = dict(bindings) if bindings else {}
    out = {}
    for k in ROW_KEYS:
        target = ("vt" if k in AB_KEYS else "vpi") + k
        f = ctx.gen(target)
        for s in H_COLUMNS[k]:
            c = h[h_name(k, s)]
            if b:
                c = c.substitute(b)
            if not c.is_zero():
                f = f - ctx.gen(SB_OF_SLOT[s]).scale(c)
        out["Th" + k] = f
    return out


# The 14 independent prolongation 1-forms: the solved fibre forms plus the
# symmetric-tensor tail evaluated on each slot.  Entries are
# (coefficient, prolongation coordinate or None, semibasic generator).
THETA_TAILS = {
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

# Corrections subtracted from connection generators so that the corrected
# forms lie in the prolonged ideal.  Same entry convention as THETA_TAILS.
TILDE_CORRECTIONS = {
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

TILDE_BASES = list(TILDE_CORRECTIONS)


def _entries_form(stage: PStage, entries) -> Form:
    ctx = stage.ctx
    f = ctx.zero()
    for coeff, psym, gen in entries:
        c = Scalar.parse(coeff)
        if psym is not None:
            c = c * stage.p(psym)
        if not c.is_zero():
            f = f + ctx.gen(gen).scale(c)
    return f


def tilde_form(stage: PStage, base: str) -> Form:
    """Connection generator minus its prolongation-coordinate correction."""
    return stage.ctx.gen(base) - _entries_form(stage, TILDE_CORRECTIONS[base])


def tilde_system(stage: PStage) -> dict:
    return {b + "_t": tilde_form(stage, b) for b in TILDE_BASES}


def theta_system(stage: PStage) -> dict:
    """The 14 prolongation forms: solved fibre form plus coordinate tail."""
    v4 = stage_context("V4")
    out = {}
    for (k, s), entries in THETA_TAILS.items():
        pi = reindex(v4.pi_solutions[pi_name(k, s)], stage.ctx)
        out[f"Th{k}_{s}"] = pi + _entries_form(stage, entries)
    return out


def ideal_one_forms(stage: PStage) -> list:
    """Contact forms plus corrected connection forms: a basis of the ideal."""
    return list(contact_system(stage.ctx).values()) + list(
        tilde_system(stage).values()
    )


@lru_cache(maxsize=1)
def _initial_stage() -> PStage:
    return prolonged_stage(label="V4p")


def build_I1() -> IdealGenerators:
    """Prolonged ideal generators; both stated bases must span the same space.

    The contact forms plus the 14 prolongation forms, verified to coincide
    (as a span of 1-forms) with the contact forms plus the 14 corrected
    connection generators.
    """
    stage = _initial_stage()
    contact = contact_system(stage.ctx)
    theta = theta_system(stage)
    tilde = tilde_system(stage)
    a = list(contact.values()) + list(theta.values())
    b = list(contact.values()) + list(tilde.values())
    ra, rb, rab = _span_rank(a), _span_rank(b), _span_rank(a + b)
    if not (ra == rb == rab == len(a)):
        raise Inconsistent(
            f"prolonged ideal bases disagree: ranks {ra}, {rb}, joint {rab}"
        )
    gens = IdealGenerators("I1", {**contact, **theta}, stage.ctx)
    gens.check_independent()
    return gens


# --------------------------------------------------------------------------
# the reduction cascade
# --------------------------------------------------------------------------

@dataclass
class ReductionStep:
    name: str
    bindings: dict
    coframe: str | None = None
    residual_zero: bool = True


@dataclass
class ReductionResult:
    steps: list
    p_values: dict
    stage: PStage


@lru_cache(maxsize=1)
def _table_eliminations() -> dict:
    """Symbol rewrites the derivative table performs on dependent symbols."""
    return dict(reconstruct_derivatives(depth=2).eliminations)


def _check_congruence(stage: PStage, name: str, lhs: Form, rhs: Form,
                      kills: Sequence[str], ideal: Sequence[Form]):
    mods = [stage.ctx.gen(k) for k in kills] + list(ideal)
    res = reduce_mod(lhs - rhs, mods).normal_form
    res = res.substitute_scalars(_table_eliminations())
    if not res.is_zero():
        raise RowMismatch(name, res)


_ZI = ["om0", "om1p", "om2p"]


def _cascade_rows():
    """The staged congruence checks and the bindings each one forces.

    Each entry: (name, row builder, bindings, absorbed coframe direction).
    The builder returns (lhs, expected residual, killed generators); the
    congruence is checked modulo the killed generators plus the current
    ideal basis, and a failure aborts the cascade with that row's name.
    """
    S = Scalar.parse

    def w(ctx, spec):
        return ctx.form(spec)

    def pre_V5(st, T):
        lhs = T["et3_3p"].d()
        rhs = w(st.ctx, {
            ("th2", "om1p"): S("3") * st.p("p11_22") - S("12") * st.p("p12_12"),
            ("om0", "om1p"): S("-15") * st.p("p13_12p"),
        })
        return lhs, rhs, ["th1"]

    def pre_V6(st, T):
        u = st.p("p11_22") - S("4") * st.p("p22_11")
        lhs = T["ga12"].d()
        vec = (st.ctx.gen("ze2").scale(S("3/4") * u)
               + st.ctx.gen("ze1").scale(S("9/4") * u)
               + st.ctx.gen("gam2")
               - st.ctx.d_scalar(u).scale(S("3/4")))
        return lhs, vec.wedge(st.ctx.gen("th1")), ["th2"] + _ZI

    def row1(st, T):
        lhs = T["et3_3p"].d()
        rhs = w(st.ctx, {
            ("th1", "th2"): S("-2") * st.p("p13p_22"),
            ("th1", "om0"): (S("4") * st.p("p13_12")
                             - S("2") * st.p("p13p_20")
                             - S("14") * st.p("p23_11")),
            ("th1", "om1p"): (S("12") * st.p("p12_11")
                              - S("8") * st.p("p13_10")),
        })
        return lhs, rhs, []

    def row2(st, T):
        u = st.p("p11_12") - S("2") * st.p("p12_11")
        lhs = T["ga"].d()
        vec = (st.ctx.gen("ze2").scale(S("-3") * u)
               + st.ctx.gen("ze1").scale(S("-9/2") * u)
               + st.ctx.gen("gam1")
               + st.ctx.d_scalar(u).scale(S("3/2")))
        return lhs, vec.wedge(st.ctx.gen("om1p")), ["th1", "th2", "om0", "om2p"]

    def row3(st, T):
        lhs = T["et3p_3"].d()
        rhs = w(st.ctx, {("om1p", "om2p"): S("2") * st.p("p13p_00")})
        return lhs, rhs, ["th1", "th2", "om0"]

    def row4(st, T):
        lhs = T["et2_2"].d()
        rhs = w(st.ctx, {
            ("th2", "om1p"): S("-3") * st.p("p13_12") - S("3/2*A3"),
        })
        return lhs, rhs, ["th1", "om0", "om2p"]

    def row5(st, T):
        lhs = T["et3_3"].d().scale(S("1/14")) + T["et2_2"].d().scale(S("1/6"))
        rhs = w(st.ctx, {
            ("th2", "om1p"): -(st.p("p23_11") + S("2/7*A3")),
        })
        return lhs, rhs, ["th1", "om0", "om2p"]

    def row6(st, T):
        th1, th2 = st.ctx.gen("th1"), st.ctx.gen("th2")
        lhs = (T["ga02"].d().scale(S("6")).wedge(th2)
               - T["et_13p"].d().scale(S("4")).wedge(th2)
               + T["et3p_3"].d().scale(S("3")).wedge(th1))
        rhs = w(st.ctx, {
            ("th1", "th2", "om1p"): S("30") * st.p("p13p_12"),
        })
        return lhs, rhs, ["om0", "om2p"]

    def row7(st, T):
        lhs = T["ga02"].d().scale(S("2/7")) - T["et_13p"].d().scale(S("1/42"))
        rhs = w(st.ctx, {
            ("th1", "om1p"): -(st.p("p23p_11") + S("2/7*B3")),
        })
        return lhs, rhs, ["th2", "om0", "om2p"]

    def row8a(st, T):
        lhs = T["et1_1"].d() - T["et2_2"].d() + T["et3_3"].d().scale(S("2"))
        rhs = w(st.ctx, {
            ("th1", "om1p"): (S("9") * st.p("p13_11")
                              + S("4") * st.p("p13p_10") + S("A4")),
        })
        return lhs, rhs, ["th2"]

    def row8b(st, T):
        th1, om0 = st.ctx.gen("th1"), st.ctx.gen("om0")
        lhs = (T["et3p_3"].d().wedge(th1)
               + (T["et1_1"].d() - T["et2_2"].d() + T["et3_3"].d())
               .scale(S("4")).wedge(om0))
        rhs = w(st.ctx, {
            ("th1", "om0", "om1p"): (S("-24") * st.p("p13_11")
                                     + st.p("p13p_10") - S("6*A4")),
        })
        return lhs, rhs, ["th2"]

    def row9(st, T):
        lhs = (T["et3p_3"].d().scale(S("5/42"))
               + T["et_23p"].d().scale(S("2/42")))
        rhs = w(st.ctx, {
            ("th1", "om1p"): st.p("p13p_11") - S("2/21*B4"),
        })
        return lhs, rhs, ["th2", "om0", "om2p"]

    def _vertical_row(st, T, base, scale_lhs, c2, c1, ceta, eta, cdv):
        v = st.p(base)
        lhs = scale_lhs(T)
        vec = (st.ctx.gen("ze2").scale(S(c2) * v)
               + st.ctx.gen("ze1").scale(S(c1) * v)
               + st.ctx.gen(eta).scale(S(ceta))
               + st.ctx.d_scalar(v).scale(S(cdv)))
        return lhs, vec.wedge(st.ctx.gen("th1")), ["th2"] + _ZI

    def row10(st, T):
        return _vertical_row(st, T, "p22_11",
                             lambda T: T["et2_1"].d(),
                             "-3/2", "-9/2", "1/3", "et_11", "3/2")

    def row11(st, T):
        return _vertical_row(st, T, "p12_11",
                             lambda T: T["et1_1"].d().scale(S("3")) - T["et2_2"].d(),
                             "-6", "-9", "2/3", "et_12", "3")

    def row12(st, T):
        return _vertical_row(st, T, "p11_11",
                             lambda T: T["et1_2"].d(),
                             "-9/2", "-9/2", "1/3", "et_22", "3/2")

    return [
        ("V5", pre_V5, {"p11_22": "4*p12_12", "p13_12p": "0"}, None),
        ("V6", pre_V6, {"p22_11": "p12_12"}, "gam2"),
        ("row1", row1, {
            "p13p_22": "0",
            "p13_10": "3/2*p12_11",
            "p13p_20": "2*p13_12-7*p23_11",
        }, None),
        ("row2", row2, {"p11_12": "2*p12_11"}, "gam1"),
        ("row3", row3, {"p13p_00": "0"}, None),
        ("row4", row4, {"p13_12": "-1/2*A3"}, None),
        ("row5", row5, {"p23_11": "-2/7*A3"}, None),
        ("row6", row6, {"p13p_12": "0"}, None),
        ("row7", row7, {"p23p_11": "-2/7*B3"}, None),
        ("row8a", row8a, {}, None),
        ("row8b", row8b, {"p13_11": "-5/21*A4", "p13p_10": "2/7*A4"}, None),
        ("row9", row9, {"p13p_11": "2/21*B4"}, None),
        ("row10", row10, {"p12_12": "0"}, "et_11"),
        ("row11", row11, {"p12_11": "0"}, "et_12"),
        ("row12", row12, {"p11_11": "0"}, "et_22"),
    ]


def _bind(stage: PStage, bindings: Mapping[str, str], label: str) -> PStage:
    new = {k: Scalar.parse(v) for k, v in bindings.items()}
    vals = {k: v.substitute(new) for k, v in stage.p_values.items()}
    vals.update(new)
    return prolonged_stage(vals, label=label)


@lru_cache(maxsize=1)
def table_reductions() -> ReductionResult:
    """Run the cascade: verify every stored congruence, bind all 18 values.

    Each step recomputes an exterior-derivative congruence modulo the listed
    generators and the current ideal basis, compares to the stored residual,
    and then applies the forced bindings.  Five of the steps additionally
    absorb a connection generator into the coframe (recorded per step).
    """
    stage = _initial_stage()
    steps = []
    for name, builder, bindings, coframe in _cascade_rows():
        T = {b: tilde_form(stage, b) for b in TILDE_BASES}
        lhs, rhs, kills = builder(stage, T)
        ideal = ideal_one_forms(stage)
        _check_congruence(stage, name, lhs, rhs, kills, ideal)
        if bindings:
            stage = _bind(stage, bindings, label=name)
        steps.append(ReductionStep(name, dict(bindings), coframe))
    if stage.free():
        raise Inconsistent(f"cascade left free coordinates: {stage.free()}")
    return ReductionResult(steps, dict(stage.p_values), stage)


def final_p_values() -> dict:
    """All 18 prolongation coordinates as curvature expressions."""
    return dict(table_reductions().p_values)


# --------------------------------------------------------------------------
# the reduced connection and its consequences
# --------------------------------------------------------------------------

# Values taken by the five reducible connection generators on the reduced
# bundle, before the derivable identities are substituted.
REDUCTION_ROWS = {
    "ga12": {},
    "ga02": {"th1": "1/14*A3"},
    "ga": {"th1": "-4/7*B3", "om0": "-5/7*A3"},
    "gam2": {"th1": "-2*C2-1/14*A3_0", "om1p": "17/14*A3"},
    "gam1": {
        "th1": "C3+4/7*B3_1p", "th2": "C2",
        "om0": "-22/7*B3", "om1p": "9/7*A4", "om2p": "37/14*A3",
    },
}

# The two derivative identities among the reduction consequences.
IDENTITIES = {"A3_0": "6*C2", "B3_1p": "-3*C3"}


def _map_rows(rows: Mapping[str, Mapping[str, str]], fn) -> dict:
    """Apply fn to every entry of a table of rows written as scalar text."""
    return {g: {k: str(fn(Scalar.parse(v))) for k, v in row.items()}
            for g, row in rows.items()}


# The same rows after substituting the identities.
THEOREM_ROWS = _map_rows(REDUCTION_ROWS, lambda s: s.substitute(
    {k: Scalar.parse(v) for k, v in IDENTITIES.items()}))


def row_form(ctx: CoframedContext, row: Mapping[str, str]) -> Form:
    """The 1-form with the given coefficient text on each named generator."""
    return ctx.form({(g,): Scalar.parse(v) for g, v in row.items()})


def reduction_context(rows: Mapping[str, Mapping[str, str]] | None = None
                      ) -> tuple[CoframedContext, dict]:
    """Base context with the five reducible connection generators eliminated.

    Returns the reduced context together with the per-generator consistency
    residuals: the structure equation of each eliminated generator minus the
    exterior derivative of its replacement value.  These residuals, with the
    closure residuals of the remaining coframe, encode every curvature
    relation forced by the existence of the reduction.
    """
    from .exterior import eliminate

    rows = rows or REDUCTION_ROWS
    m = _m2_context()
    repl = {g: row_form(m, r) for g, r in rows.items()}
    ctx, transfer = eliminate(m, repl, label="R")
    residuals = {}
    for g, r in rows.items():
        residuals[g] = transfer(m.d_rule(g)) - row_form(ctx, r).d()
    return ctx, residuals


def _relation_scan(ctx: CoframedContext, residuals: Mapping[str, Form]) -> list:
    """Every scalar coefficient forced to vanish by closure of the reduction."""
    rels = []

    def collect(form: Form):
        for _, c in form.terms.items():
            if not c.is_zero():
                rels.append(c)

    for g, res in residuals.items():
        collect(res)
    for g in ctx.names():
        collect(ctx.d_rule(g).d())
    for sym in CURVATURE_SYMBOLS:
        collect(ctx.d_scalar(Scalar.symbol(sym)).d())
    return rels


def _derivative_order(rel: Scalar) -> int:
    return max((len(split_symbol(s)[1]) for s in rel.symbols()), default=0)


@lru_cache(maxsize=1)
def reduction_consequences() -> tuple[dict, dict, list]:
    """Curvature relations implied by the reduced connection.

    The closure relations are prolonged once (every relation whose symbols
    all carry derivative rules is differentiated on the reduced context)
    and then Gaussian-reduced.  Returns (first_order, full, nonpivot):
    first_order is the base-function part of the elimination map — ten
    vanishing curvatures plus E = 9/14*A3^2, Dt3 = -2/3*D2 and
    Et2 = 9/14*A3^2; full adds the derivative identities (in particular
    A3_0 = 6*C2 and B3_1p = -3*C3).  Relations that stay nonlinear are
    listed in nonpivot.
    """
    ctx, residuals = reduction_context()
    rels = _relation_scan(ctx, residuals)
    ruled = set(ctx.rules.d_of_symbol)
    work = sorted(rels, key=_derivative_order)
    elim_full: dict = {}
    stuck: list = []
    for _ in range(8):
        _, elim, stuck = reduce_relations(work)
        if elim == elim_full:
            break
        elim_full = elim
        new = []
        for k, v in elim.items():
            r = Scalar.symbol(k) - v
            if set(r.symbols()) <= ruled:
                for _, c in ctx.d_scalar(r).terms.items():
                    if not c.is_zero():
                        new.append(c)
        work = work + new
    else:
        raise Inconsistent("consequence closure did not stabilize")
    elim_first = {
        k: v for k, v in elim_full.items() if not split_symbol(k)[1]
    }
    return elim_first, elim_full, stuck


@lru_cache(maxsize=1)
def restricted_class_spec() -> CurvatureSpec:
    """Symbolic spec imposing every consequence of the connection reduction."""
    _, full, _ = reduction_consequences()
    return CurvatureSpec(bindings=_saturate(full))


# --------------------------------------------------------------------------
# the final ideal
# --------------------------------------------------------------------------

# Tails added to the remaining connection generators at the final stage:
# the two reduction rows of gam2 and gam1, negated, then the three et_ rows.
SECOND_STAGE_TAILS = {
    **_map_rows({g: REDUCTION_ROWS[g] for g in ("gam2", "gam1")},
                Scalar.__neg__),
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

STAGE1_OBSTRUCTIONS = ["A1", "A2", "B1", "B2", "C1"]


def _final_stage(spec: CurvatureSpec | None, label: str) -> PStage:
    """Final-locus context: all prolongation coordinates bound, spec applied."""
    vals = final_p_values()
    if spec is not None and spec.bindings:
        spec = CurvatureSpec(bindings=_saturate(spec.bindings),
                             relations=list(spec.relations))
        spec.validate()
        m = build_M_context(spec=spec,
                            table=reconstruct_derivatives(depth=2),
                            label=label + "-base")
        vals = {k: v.substitute(spec.bindings) for k, v in vals.items()}
    else:
        m = _m2_context()
    ctx = product_context(m, label=label)
    for p, v in vals.items():
        ctx.set_symbol_rule(p, ctx.d_scalar(v))
    return PStage(ctx, vals, label)


def _second_stage_forms(stage: PStage,
                        bindings: Mapping[str, Scalar] = ()) -> dict:
    b = dict(bindings) if bindings else {}
    elims = _table_eliminations()
    out = {}
    for base, tail in SECOND_STAGE_TAILS.items():
        f = stage.ctx.gen(base)
        for g, v in tail.items():
            c = Scalar.parse(v).substitute(elims)
            if b:
                c = c.substitute(b)
            if not c.is_zero():
                f = f + stage.ctx.gen(g).scale(c)
        out[base + "_t"] = f
    return out


def _table3_checks():
    """Congruences justifying the five second-stage corrected forms."""
    S = Scalar.parse

    def vec(ctx, spec):
        f = ctx.zero()
        for g, c in spec:
            f = f + ctx.gen(g).scale(S(c) if isinstance(c, str) else c)
        return f

    def t3(name, lhs_fn, lead, spec, kills):
        def build(st, T):
            lhs = lhs_fn(T)
            rhs = st.ctx.gen(lead).wedge(vec(st.ctx, spec))
            return lhs, rhs, kills
        return name, build

    return [
        t3("gam2_a", lambda T: T["ga12_t"].d(), "th1",
           [("om1p", "17/14*A3"), ("gam2", "-1")], []),
        t3("gam2_b", lambda T: T["ga02_t"].d(), "om0",
           [("th1", "-2*C2-1/14*A3_0"), ("gam2", "-1")],
           ["th2", "om1p", "om2p"]),
        t3("t3_1a", lambda T: T["et3_3_t"].d().scale(Scalar.rational(2)), "th1",
           [("th2", "-C2"), ("om0", "22/7*B3"), ("om1p", "-9/7*A4"),
            ("om2p", "-37/14*A3"), ("gam1", "1")], []),
        t3("t3_1b", lambda T: T["ga_t"].d(), "om1p",
           [("th1", "C3+4/7*B3_1p"), ("gam1", "-1")],
           ["th2", "om0", "om2p"]),
        t3("t3_2a", lambda T: T["et2_1_t"].d().scale(Scalar.rational(3)), "th1",
           [("om1p", "18/7*A3"), ("et_11", "-1")], []),
        t3("t3_2b", lambda T: T["et_13p_t"].d(), "om0",
           [("th1", "-6/7*A3_0"), ("et_11", "-1")],
           ["th2", "om1p", "om2p"]),
        t3("t3_3a", lambda T: (T["et2_2_t"].d().scale(Scalar.rational(3))
                               - T["et3_3_t"].d().scale(Scalar.rational(9))),
           "th1",
           [("om0", "-54/7*B3"), ("om1p", "24/7*A4"),
            ("om2p", "54/7*A3"), ("et_12", "-1")], []),
        t3("t3_3b", lambda T: T["et_13_t"].d(), "om1p",
           [("th1", "6/7*B3_1p"), ("et_12", "-1")],
           ["th2", "om0", "om2p"]),
        t3("t3_4a", lambda T: T["et1_2_t"].d().scale(Scalar.rational(3)), "th1",
           [("om0", "-36/7*B4"), ("om1p", "3*A5"),
            ("om2p", "36/7*A4"), ("et_22", "-1")], []),
        t3("t3_4b", lambda T: T["et_23_t"].d(), "om1p",
           [("th1", "2/7*B4_1p"), ("et_22", "-1")],
           ["th2", "om0", "om2p"]),
    ]


def build_I2(spec: CurvatureSpec | None = None,
             check_tables: bool = True) -> IdealGenerators:
    """Final ideal: contact forms plus the 19 corrected connection forms.

    Requires the five stage-1 obstructions to vanish; they are imposed on
    top of the given spec.  When check_tables is set, the congruences that
    justify each second-stage corrected form are re-derived and compared to
    their stored residuals.
    """
    bindings = _saturate(spec.bindings) if spec is not None else {}
    for s in STAGE1_OBSTRUCTIONS:
        v = bindings.get(s)
        if v is not None:
            if v.is_constant() and not v.is_zero():
                raise ObstructionNonzero(f"{s} = {v} contradicts {s} = 0")
        bindings[s] = Scalar.zero()
    bindings = _saturate(bindings)
    eff = CurvatureSpec(bindings=bindings,
                        relations=list(spec.relations) if spec else [])
    stage = _final_stage(eff, label="Vp")

    contact = contact_system(stage.ctx)
    first = tilde_system(stage)
    second = _second_stage_forms(stage, eff.bindings)
    forms = {**contact, **first, **second}

    if check_tables:
        # Each congruence pair determines one second-stage form; later rows
        # hold modulo the forms the earlier rows determined.
        ideal = list(contact.values()) + list(first.values())
        T = {**first, **second}
        determined = {
            "gam2_b": "gam2_t", "t3_1b": "gam1_t", "t3_2b": "et_11_t",
            "t3_3b": "et_12_t", "t3_4b": "et_22_t",
        }
        for name, builder in _table3_checks():
            lhs, rhs, kills = builder(stage, T)
            _check_congruence(stage, name, lhs, rhs, kills, ideal)
            if name in determined:
                ideal.append(second[determined[name]])

    gens = IdealGenerators("I2", forms, stage.ctx)
    gens.check_independent()
    return gens


# --------------------------------------------------------------------------
# obstruction extraction and the Frobenius check
# --------------------------------------------------------------------------

def _monomial_name(ctx: CoframedContext, idx: tuple) -> str:
    return "^".join(ctx.generators[i].name for i in idx)


def _residual_entries(name: str, form: Form) -> list:
    ctx = form.ctx
    out = []
    for idx, c in sorted(form.terms.items()):
        out.append({
            "generator": name,
            "monomial": _monomial_name(ctx, idx),
            "coefficient": str(c),
        })
    return out


def frobenius_check(gens: IdealGenerators) -> dict:
    """d of every generator must reduce to zero modulo the generators."""
    forms = gens.all()
    residuals = []
    for name, f in gens.forms.items():
        r = reduce_mod(f.d(), forms).normal_form
        if not r.is_zero():
            residuals.extend(_residual_entries(name, r))
    return {"frobenius": not residuals, "residuals": residuals}


@lru_cache(maxsize=1)
def generic_frobenius_residuals() -> tuple:
    """Residual rows of the final ideal with the curvature left symbolic."""
    gens = build_I2(CurvatureSpec({}), check_tables=False)
    return tuple(
        (e["generator"], e["monomial"], e["coefficient"])
        for e in frobenius_check(gens)["residuals"]
    )


@dataclass
class ObstructionReport:
    stage1: list
    consequences_first_order: dict
    identities: dict
    final_conditions: dict
    relations: list

    def partition(self) -> dict:
        return {
            "stage1": len(self.stage1),
            "reduction_consequence": len(self.relations),
            "final_conditions": len(self.final_conditions["conditions"]),
            "unresolved": len(self.final_conditions["unresolved"]),
        }

    def to_payload(self) -> dict:
        return {
            "stage1": self.stage1,
            "consequences_first_order": {
                k: str(v) for k, v in self.consequences_first_order.items()
            },
            "identities": {k: str(v) for k, v in self.identities.items()},
            "final_conditions": self.final_conditions,
            "relations": self.relations,
            "partition": self.partition(),
        }


def stage1_obstructions(spec: CurvatureSpec | None = None) -> list:
    """Residual coefficients that force the five stage-1 curvature zeros.

    Computed from the combination d(ga12_t)^om0 + d(ga02_t)^th1 reduced
    modulo the ideal at the final cascade stage, before any curvature
    condition is imposed.
    """
    stage = _final_stage(spec, label="Vp-stage1")
    T = tilde_system(stage)
    ideal = list(contact_system(stage.ctx).values()) + list(T.values())
    ctx = stage.ctx
    comb = (T["ga12_t"].d().wedge(ctx.gen("om0"))
            + T["ga02_t"].d().wedge(ctx.gen("th1")))
    res = reduce_mod(comb, ideal).normal_form
    return _residual_entries("ga12_t^om0+ga02_t^th1", res)


# The two scalar conditions on curvature derivatives, as symbol = value.
FINAL_CONDITIONS = {"A4_1p": "-5*B4", "A5_0_1p": "-21*A5_1"}


def partition_final_residuals(entries: list) -> dict:
    """Split raw final residual rows into conditions and leftovers.

    The two rows on the th1^om1p monomial are the genuine scalar
    conditions.  Every other row either vanishes once the first condition
    is substituted (``resolved_by_A41p``) or involves derivative symbols
    whose relations are not visible at second order (``unresolved``).
    """
    cond1 = {"A4_1p": Scalar.parse(FINAL_CONDITIONS["A4_1p"])}
    out = {"conditions": [], "resolved_by_A41p": [], "unresolved": []}
    for e in entries:
        if e["monomial"] == "th1^om1p":
            out["conditions"].append(e)
        elif Scalar.parse(e["coefficient"]).substitute(cond1).is_zero():
            out["resolved_by_A41p"].append(e)
        else:
            out["unresolved"].append(e)
    return out


def final_condition_residuals(spec: CurvatureSpec | None = None) -> list:
    """The two residuals left once all reduction consequences are imposed."""
    base = restricted_class_spec()
    bindings = dict(base.bindings)
    if spec is not None:
        bindings.update(spec.bindings)
    gens = build_I2(CurvatureSpec(bindings=bindings), check_tables=False)
    forms = gens.all()
    out = []
    for name, factor in (("et3p_3_t", 1), ("et_22_t", 7)):
        f = gens.forms[name].scale(Scalar.rational(factor))
        r = reduce_mod(f.d(), forms).normal_form
        out.extend(_residual_entries(name, r))
    return out


def extract_obstructions(spec: CurvatureSpec | None = None) -> ObstructionReport:
    """Full obstruction analysis of the final ideal.

    Collects the stage-1 coefficients, the curvature relations forced by
    the connection reduction (first-order set plus derivative identities),
    and the two final residuals that survive once every consequence is
    imposed.
    """
    first, full, _ = reduction_consequences()
    identities = {s: full[s] for s in IDENTITIES if s in full}
    for s, expect in IDENTITIES.items():
        got = identities.get(s)
        if got is None or got != Scalar.parse(expect):
            raise Inconsistent(f"expected identity {s} = {expect}, got {got}")
    relations = sorted(f"{k} - ({v})" for k, v in full.items())
    return ObstructionReport(
        stage1=stage1_obstructions(spec),
        consequences_first_order=dict(first),
        identities=identities,
        final_conditions=partition_final_residuals(
            final_condition_residuals(spec)
        ),
        relations=relations,
    )


# --------------------------------------------------------------------------
# the verdict
# --------------------------------------------------------------------------

@dataclass
class EmbeddabilityVerdict:
    reduction_relations_hold: bool
    condition_A41p: Scalar
    condition_A501p: Scalar
    frobenius: bool
    failing: list = field(default_factory=list)

    @property
    def embeddable(self) -> bool:
        return (self.reduction_relations_hold
                and self.condition_A41p.is_zero()
                and self.condition_A501p.is_zero()
                and self.frobenius)

    def to_payload(self) -> dict:
        return {
            "embeddable": self.embeddable,
            "reduction_relations_hold": self.reduction_relations_hold,
            "condition_A41p": str(self.condition_A41p),
            "condition_A501p": str(self.condition_A501p),
            "frobenius": self.frobenius,
            "failing": self.failing,
        }


def embeddability_verdict(spec: CurvatureSpec) -> EmbeddabilityVerdict:
    """Evaluate the full embeddability criterion under a curvature spec.

    Checks every relation forced by the connection reduction, the two final
    scalar conditions, and the Frobenius property of the final ideal with
    the spec substituted.  Relations that stay symbolic under the spec are
    reported as failing (not proven to vanish).
    """
    b = _saturate(spec.bindings)
    first, full, _ = reduction_consequences()
    checks = dict(first)
    checks.update({s: full[s] for s in IDENTITIES if s in full})
    failing = []
    reduction_ok = True
    for sym, value in sorted(checks.items()):
        residual = (Scalar.symbol(sym) - value).substitute(b)
        if not residual.is_zero():
            reduction_ok = False
            failing.append(f"{sym} = {value}")
    cond1, cond2 = conditions = [
        (Scalar.symbol(s) - Scalar.parse(v)).substitute(b)
        for s, v in FINAL_CONDITIONS.items()
    ]
    for (s, v), cond in zip(FINAL_CONDITIONS.items(), conditions):
        if not cond.is_zero():
            failing.append(f"{s} = {v}")
    # Frobenius: every residual coefficient of the generic final ideal is a
    # function of the curvature symbols; the ideal restricted to the locus
    # the spec describes is integrable exactly when they all vanish there.
    # (Substituting nonzero constants into the structure equations before
    # differentiating would discard the vertical parts of the curvature
    # derivatives, which only vanish along the reduced sub-bundle.)
    frob = True
    for s in STAGE1_OBSTRUCTIONS:
        v = b.get(s)
        if v is not None and v.is_constant() and not v.is_zero():
            frob = False
            failing.append(f"{s} = {v} contradicts {s} = 0")
            break
    if frob:
        for _, _, coeff in generic_frobenius_residuals():
            if not Scalar.parse(coeff).substitute(b).is_zero():
                frob = False
                failing.append("final ideal is not Frobenius under the spec")
                break
    return EmbeddabilityVerdict(
        reduction_relations_hold=reduction_ok,
        condition_A41p=cond1,
        condition_A501p=cond2,
        frobenius=frob,
        failing=failing,
    )
