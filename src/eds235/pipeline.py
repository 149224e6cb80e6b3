"""Prolongation ideal, reduction cascade, obstructions, embeddability verdict.

The embedding system on the 35-dimensional product locus is prolonged by 18
fibre coordinates, read off the first prolongation of the linearized
tableau of the final jet locus V4 (``prolongation``): they are the pivot
entries of its basis tensors, and every entry of the generic prolongation
tensor is linear in them.  The 14 prolongation forms sit at the pivot rows
of the tableau: each is an absorbed tableau form plus its tail, the generic
tensor contracted with the semibasic coframe.  The seven contact forms are
those of V4.  The contact and prolongation forms span the prolonged ideal;
solving that span for its pivots gives the 14 corrected connection forms.
A staged cascade of exterior-derivative computations on them binds all 18
coordinates to curvature expressions and absorbs five coframe freedoms:
each row's residual torsion is solved for the coordinates it forces, and
what is left must lie on the direction the row absorbs.  The tails of the
five second-stage forms are read off their congruences.  The surviving
ideal has 26 generators; those of its connection forms that live on the
base give the reduction rows.  Its Frobenius obstructions split into
consequences of the connection reduction, two scalar conditions on
curvature derivatives, and three rows left unresolved.  Everything is
exact, and a row that does not come out aborts with its name and the
residual that is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .exterior import CoframedContext, Form, eliminate, extend, reduce_mod, reindex
from .geometry import (
    AB_KEYS,
    CURVATURE_SYMBOLS,
    SB_OF_SLOT,
    SLOTS,
    CurvatureSpec,
    Inconsistent,
    InconsistentSpec,
    build_M_context,
    reconstruct_derivatives,
    reduce_relations,
    split_symbol,
)
from .jet import (ROW_KEYS, absorbed_tableau_forms, linearized_tableau,
                  pi_name, stage_context)
from .liemodel import mc_rules, sp6_model
from .scalar import Scalar, mat_mul_vec, rank_of, solve_linear
from .tableau import SYM_PAIRS, W_KEYS, SymTensor, prolong


def _monomial_name(ctx: CoframedContext, idx: tuple) -> str:
    return "^".join(ctx.generators[i].name for i in idx)


class RowMismatch(Exception):
    """A cascade or second-stage row whose residual does not come out.

    Raised with the residual that is left: torsion that is not affine in the
    free coordinates or has no solution, a remainder off the absorbed
    direction, or a second-stage congruence that does not reduce to zero.
    """

    def __init__(self, row: str, residual: Form):
        self.row = row
        self.residual = residual
        parts = [f"({c})*{_monomial_name(residual.ctx, idx)}"
                 for idx, c in sorted(residual.terms.items())]
        super().__init__(f"row {row}: residual {' + '.join(parts) or '0'}")


class ObstructionNonzero(Exception):
    """A curvature spec contradicts an already-forced obstruction."""


def _saturate(bindings: Mapping[str, Scalar]) -> dict:
    """Iterate substitution until binding values mention no bound symbol.

    Bindings that never get there form a cycle (``A3 -> A3 + 1``, or
    ``A3 -> B3 -> A3``); they raise InconsistentSpec naming their symbols.
    Constant values never change, so only the symbolic ones are visited.
    """
    b = dict(bindings)
    symbolic = [k for k, v in b.items() if not v.is_constant()]
    for _ in range(len(symbolic) + 1):
        cyclic = sorted(k for k in symbolic if b[k].symbols() & b.keys())
        if not cyclic:
            return b
        b.update({k: b[k].substitute(b) for k in symbolic})
    raise InconsistentSpec(f"cyclic curvature bindings: {', '.join(cyclic)}")


# --------------------------------------------------------------------------
# prolongation coordinates
# --------------------------------------------------------------------------

def dp_name(p: str) -> str:
    return "d" + p


@lru_cache(maxsize=1)
def prolongation() -> tuple[tuple, dict]:
    """The prolongation coordinates and the 14 prolongation forms.

    Both are read off ``prolong(linearized_tableau())``.  The coordinates
    are the pivot entries (w, si, sj) of the prolongation basis, in index
    order over W_KEYS x SYM_PAIRS, named p<w>_<si><sj>: p11_12 is component
    "11" at the slot pair (1, 2), and p13_12p component "13" at (1, 2').
    One solve writes every entry of the generic prolongation tensor as a
    linear Scalar in them.  The forms, keyed (w, s), are the pivot rows of
    the tableau's 35 x dim coordinate matrix, in row-major order: each is
    the absorbed tableau form of (w, s) on V4 plus its tail, the tensor
    entry (w, s, t) on the semibasic generator of every slot t.  Both
    matrices are constant, so the pivot rows of one elimination are the
    first independent rows in index order.
    """
    tableau = linearized_tableau()
    basis = prolong(tableau).basis
    keys = [(w, si, sj) for w in W_KEYS for si, sj in SYM_PAIRS]
    rows = [[t.coeff(*k) for t in basis] for k in keys]
    pivots = sorted(solve_linear(rows, [Scalar.zero()] * len(rows)).pivot_rows)
    coords = tuple(f"p{w}_{si}{sj}" for w, si, sj in (keys[i] for i in pivots))
    x = solve_linear([rows[i] for i in pivots],
                     [Scalar.symbol(p) for p in coords]).particular
    generic = SymTensor.from_entries(dict(zip(keys, mat_mul_vec(rows, x))))
    cells = [(w, s) for w in W_KEYS for s in SLOTS]
    table = [list(col) for col in zip(*tableau.flats())]
    v4 = stage_context("V4")
    absorbed = absorbed_tableau_forms(v4)
    forms = {}
    for i in sorted(solve_linear(table, [Scalar.zero()] * len(table)).pivot_rows):
        w, s = cells[i]
        tail = {SB_OF_SLOT[t]: generic.coeff(w, s, t) for t in SLOTS}
        forms[(w, s)] = absorbed[pi_name(w, s)] + v4.ctx.form(tail)
    return coords, forms


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

    def free(self) -> list:
        return [p for p in prolongation()[0] if p not in self.p_values]


def prolonged_stage(p_values: Mapping[str, Scalar] | None = None,
                    m_ctx: CoframedContext | None = None,
                    label: str = "V4p") -> PStage:
    """Product context extended by the still-free prolongation coordinates.

    Each free coordinate p gets an exact differential generator dp; bound
    coordinates are substituted by their values and differentiate through
    the curvature derivative rules.
    """
    vals = dict(p_values or {})
    free = [p for p in prolongation()[0] if p not in vals]
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


def _contact_target(k: str) -> str:
    return ("vt" if k in AB_KEYS else "vpi") + k


def contact_system(ctx: CoframedContext) -> dict:
    """The seven contact forms at the normal-form jet fibre point: those of
    the final locus V4, reindexed onto ctx."""
    return {k: reindex(f, ctx)
            for k, f in stage_context("V4").contact_forms().items()}


# The 14 connection generators the prolonged ideal corrects.  With the seven
# contact targets they are the pivot columns of the I1 span.
TILDE_BASES = [
    "ga12", "ga02", "ga", "et1_1", "et1_2", "et2_1", "et2_2",
    "et3_3", "et3_3p", "et3p_3", "et_13", "et_13p", "et_23", "et_23p",
]


def theta_system(stage: PStage) -> dict:
    """The 14 ``prolongation`` forms on the stage's context, named
    Th<w>_<s>, with the stage's coordinate values substituted."""
    return {f"Th{w}_{s}": reindex(f, stage.ctx).substitute_scalars(stage.p_values)
            for (w, s), f in prolongation()[1].items()}


@lru_cache(maxsize=1)
def _initial_stage() -> PStage:
    return prolonged_stage(label="V4p")


@lru_cache(maxsize=1)
def tilde_corrections() -> dict:
    """The correction {g: c} of each of the TILDE_BASES, read off the I1 span.

    The contact and prolongation forms on the initial stage have a constant
    21x21 block on the contact targets and the bases.  Solving them for
    these pivots, with the other generators g carried as symbols, writes
    each base modulo the span as the sum of c * g, c linear in the
    prolongation coordinates.  A singular block raises Inconsistent.
    """
    stage = _initial_stage()
    forms = [*contact_system(stage.ctx).values(), *theta_system(stage).values()]
    pivots = [_contact_target(k) for k in ROW_KEYS] + TILDE_BASES
    others = [g for g in stage.ctx.names() if g not in pivots]
    rows = [[f.coefficient([g]) for g in pivots] for f in forms]
    rhs = [sum((-f.coefficient([g]) * Scalar.symbol(g) for g in others),
               Scalar.zero()) for f in forms]
    sol = solve_linear(rows, rhs)
    if sol.rank < len(pivots):
        raise Inconsistent(
            f"I1 span is singular on its pivots: rank {sol.rank} of {len(pivots)}")
    return {b: {g: x.partial(g) for g in others if g in x.symbols()}
            for b, x in zip(pivots, sol.particular) if b in TILDE_BASES}


def tilde_system(stage: PStage) -> dict:
    """Each of the TILDE_BASES minus its ``tilde_corrections`` at the
    stage's coordinate values, named base + "_t"."""
    ctx = stage.ctx
    return {b + "_t": ctx.gen(b) - ctx.form(
                {g: c.substitute(stage.p_values) for g, c in corr.items()})
            for b, corr in tilde_corrections().items()}


def build_I1() -> IdealGenerators:
    """Prolonged ideal generators: the seven contact forms plus the 14
    prolongation forms, checked independent.  Their span fixes the
    corrected connection forms (``tilde_corrections``)."""
    stage = _initial_stage()
    gens = IdealGenerators(
        "I1", {**contact_system(stage.ctx), **theta_system(stage)}, stage.ctx)
    gens.check_independent()
    return gens


# --------------------------------------------------------------------------
# the reduction cascade
# --------------------------------------------------------------------------

# The staged congruences, in cascade order: (name, d-combination, killed
# generators, absorbed coframe direction).  A d-combination lists
# (coefficient, corrected form, right wedge factor or None) and stands for
# the sum of coefficient * d(corrected form) ∧ factor.
CASCADE_ROWS = [
    ("V5", [("1", "et3_3p_t", None)], ["th1"], None),
    ("V6", [("1", "ga12_t", None)], ["th2", "om0", "om1p", "om2p"], "gam2"),
    ("row1", [("1", "et3_3p_t", None)], [], None),
    ("row2", [("1", "ga_t", None)], ["th1", "th2", "om0", "om2p"], "gam1"),
    ("row3", [("1", "et3p_3_t", None)], ["th1", "th2", "om0"], None),
    ("row4", [("1", "et2_2_t", None)], ["th1", "om0", "om2p"], None),
    ("row5", [("1/14", "et3_3_t", None), ("1/6", "et2_2_t", None)],
     ["th1", "om0", "om2p"], None),
    ("row6", [("6", "ga02_t", "th2"), ("-4", "et_13p_t", "th2"),
              ("3", "et3p_3_t", "th1")], ["om0", "om2p"], None),
    ("row7", [("2/7", "ga02_t", None), ("-1/42", "et_13p_t", None)],
     ["th2", "om0", "om2p"], None),
    ("row8a", [("1", "et1_1_t", None), ("-1", "et2_2_t", None),
               ("2", "et3_3_t", None)], ["th2"], None),
    ("row8b", [("1", "et3p_3_t", "th1"), ("4", "et1_1_t", "om0"),
               ("-4", "et2_2_t", "om0"), ("4", "et3_3_t", "om0")], ["th2"], None),
    ("row9", [("5/42", "et3p_3_t", None), ("1/21", "et_23p_t", None)],
     ["th2", "om0", "om2p"], None),
    ("row10", [("1", "et2_1_t", None)], ["th2", "om0", "om1p", "om2p"], "et_11"),
    ("row11", [("3", "et1_1_t", None), ("-1", "et2_2_t", None)],
     ["th2", "om0", "om1p", "om2p"], "et_12"),
    ("row12", [("1", "et1_2_t", None)], ["th2", "om0", "om1p", "om2p"], "et_22"),
]


@dataclass
class ReductionStep:
    name: str
    bindings: dict
    coframe: str | None = None


@dataclass
class ReductionResult:
    steps: list
    p_values: dict


@lru_cache(maxsize=1)
def _table_eliminations() -> dict:
    """Symbol rewrites the derivative table performs on dependent symbols."""
    return dict(reconstruct_derivatives(depth=2).eliminations)


def _combination(ctx: CoframedContext, forms: Mapping[str, Form],
                 combo) -> Form:
    """Sum of coefficient * d(forms[base]) ∧ factor over a d-combination."""
    out = ctx.zero()
    for coeff, base, factor in combo:
        f = forms[base].d().scale(Scalar.parse(coeff))
        if factor is not None:
            f = f.wedge(ctx.gen(factor))
        out = out + f
    return out


def _residual(stage: PStage, lhs: Form, kills: Sequence[str],
              ideal: Sequence[Form]) -> Form:
    """lhs modulo the killed generators and the ideal, in table normal form."""
    mods = [stage.ctx.gen(k) for k in kills] + list(ideal)
    return reduce_mod(lhs, mods).substitute_scalars(_table_eliminations())


def _forced_bindings(stage: PStage, name: str, residual: Form) -> dict:
    """Solve the torsion of a residual for the coordinates it forces.

    The torsion is every coefficient that mentions a free coordinate; each
    must be affine in the free coordinates.  The pivot coordinates of the
    solved system are bound to their values in the remaining ones.
    """
    free = stage.free()
    torsion = [c for c in residual.terms.values() if c.symbols() & set(free)]
    mentioned = set().union(*(c.symbols() for c in torsion))
    cols = [p for p in free if p in mentioned]
    at_zero = {p: Scalar.zero() for p in cols}
    rows = [[c.partial(p) for p in cols] for c in torsion]
    if not all(x.is_constant() for row in rows for x in row):
        raise RowMismatch(name, residual)
    sol = solve_linear(rows, [-c.substitute(at_zero) for c in torsion])
    if sol.inconsistent:
        raise RowMismatch(name, residual)
    out = {}
    for j in sol.pivot_cols:
        v = sol.particular[j]
        for k, vec in zip(sol.free_cols, sol.nullspace):
            v = v + vec[j] * Scalar.symbol(cols[k])
        out[cols[j]] = v
    return out


def _check_absorbed(stage: PStage, name: str, residual: Form,
                    bindings: Mapping[str, Scalar], absorbed: str | None):
    """With the bindings applied, the residual lies on the absorbed direction."""
    ctx = stage.ctx
    res = residual.substitute_scalars(bindings)
    for p, v in bindings.items():
        res = ctx.substitute_generator(res, dp_name(p), ctx.d_scalar(v))
    res = res.substitute_scalars(_table_eliminations())
    if absorbed is not None:
        k = ctx.index_of(absorbed)
        res = Form(ctx, {i: c for i, c in res.terms.items() if k not in i})
    if not res.is_zero():
        raise RowMismatch(name, res)


def _bind(stage: PStage, new: Mapping[str, Scalar], label: str) -> PStage:
    vals = {k: v.substitute(new) for k, v in stage.p_values.items()}
    vals.update(new)
    return prolonged_stage(vals, label=label)


@lru_cache(maxsize=1)
def table_reductions() -> ReductionResult:
    """Run the cascade: derive the bindings of all 18 coordinates, row by row.

    Each row reduces its d-combination modulo its killed generators and the
    current ideal basis.  The torsion (coefficients in the free coordinates)
    is solved and its pivot coordinates are bound; what is left must lie on
    the connection direction the row absorbs into the coframe (five rows
    absorb one, recorded per step), or vanish.
    """
    stage = _initial_stage()
    steps = []
    for name, combo, kills, coframe in CASCADE_ROWS:
        T = tilde_system(stage)
        ideal = list(contact_system(stage.ctx).values()) + list(T.values())
        residual = _residual(stage, _combination(stage.ctx, T, combo), kills,
                             ideal)
        bindings = _forced_bindings(stage, name, residual)
        _check_absorbed(stage, name, residual, bindings, coframe)
        if bindings:
            stage = _bind(stage, bindings, label=name)
        steps.append(ReductionStep(name, bindings, coframe))
    if stage.free():
        raise Inconsistent(f"cascade left free coordinates: {stage.free()}")
    return ReductionResult(steps, {p: stage.p_values[p] for p in prolongation()[0]})


def final_p_values() -> dict:
    """All 18 prolongation coordinates as curvature expressions."""
    return dict(table_reductions().p_values)


# --------------------------------------------------------------------------
# the reduced connection and its consequences
# --------------------------------------------------------------------------

# The two derivative identities among the reduction consequences.
IDENTITIES = {"A3_0": "6*C2", "B3_1p": "-3*C3"}


@lru_cache(maxsize=1)
def reduction_rows() -> dict:
    """Values of the connection generators the reduced bundle eliminates.

    These are the corrected and second-stage bases on the base context:
    ga12, ga02 and ga take their ``tilde_corrections`` at the final
    coordinate values, gam2 and gam1 their ``second_stage_tails`` negated.
    Rows map generators, in context order, to Scalars.
    """
    base = set(_m2_context().names())
    values = final_p_values()
    rows = {}
    for b, corr in tilde_corrections().items():
        if b in base:
            row = {g: c.substitute(values) for g, c in corr.items()}
            rows[b] = {g: c for g, c in row.items() if not c.is_zero()}
    for b, tail in second_stage_tails().items():
        if b in base:
            rows[b] = {g: -c for g, c in tail.items()}
    return rows


@lru_cache(maxsize=1)
def theorem_rows() -> dict:
    """The ``reduction_rows`` with the IDENTITIES substituted."""
    ids = {k: Scalar.parse(v) for k, v in IDENTITIES.items()}
    return {g: {k: v.substitute(ids) for k, v in row.items()}
            for g, row in reduction_rows().items()}


def reduction_context() -> tuple[CoframedContext, dict]:
    """Base context with the five reducible connection generators eliminated.

    The generators and their values are the ``reduction_rows``.  Returns the
    reduced context together with the per-generator consistency residuals:
    the structure equation of each eliminated generator minus the exterior
    derivative of its replacement value.  These residuals, with the closure
    residuals of the remaining coframe, encode every curvature relation
    forced by the existence of the reduction.
    """
    rows = reduction_rows()
    m = _m2_context()
    repl = {g: m.form(r) for g, r in rows.items()}
    ctx, transfer = eliminate(m, repl, label="R")
    residuals = {}
    for g, r in rows.items():
        residuals[g] = transfer(m.d_rule(g)) - ctx.form(r).d()
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

    The closure relations are Gaussian-reduced, then prolonged until
    nothing new appears: every elimination whose symbols all carry
    derivative rules is differentiated on the reduced context, and each
    pass hands ``reduce_relations`` only the relations it added (with any
    still stuck), resuming from the previous pass's elimination map.
    Returns (first_order, full, nonpivot): first_order is the base-function
    part of the elimination map — ten vanishing curvatures plus
    E = 9/14*A3^2, Dt3 = -2/3*D2 and Et2 = 9/14*A3^2; full adds the
    derivative identities (in particular A3_0 = 6*C2 and B3_1p = -3*C3).
    Relations that stay nonlinear are listed in nonpivot.
    """
    ctx, residuals = reduction_context()
    rels = _relation_scan(ctx, residuals)
    ruled = set(ctx.rules.d_of_symbol)
    new = sorted(rels, key=_derivative_order)
    # A relation seen before reduces to 0 again, and an elimination
    # differentiated once gives the same derivatives: skip both.
    seen = set(new)
    differentiated: set = set()
    elim_full: dict = {}
    stuck: list = []
    for _ in range(8):
        _, elim, stuck = reduce_relations(stuck + new, elim_full)
        if elim == elim_full:
            break
        elim_full = elim
        new = []
        for k, v in elim.items():
            r = Scalar.symbol(k) - v
            if (k, v) in differentiated or not set(r.symbols()) <= ruled:
                continue
            differentiated.add((k, v))
            for _, c in ctx.d_scalar(r).terms.items():
                if not c.is_zero() and c not in seen:
                    seen.add(c)
                    new.append(c)
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


@lru_cache(maxsize=1)
def _generic_final_stage() -> PStage:
    """The final stage with only the stage-1 zeros imposed, built once.

    ``second_stage_tails`` and ``build_I2`` on a spec that binds nothing
    else share it; neither changes its context or its values.
    """
    zeros = dict.fromkeys(STAGE1_OBSTRUCTIONS, Scalar.zero())
    return _final_stage(CurvatureSpec(zeros), label="Vp")


# The congruences that fix the second-stage forms, in pairs: (name,
# d-combination, lead, second-stage base, killed generators).  Each states
# that combination + lead ∧ (base + tail) reduces to zero modulo the killed
# generators and the ideal; after the second check of a pair, the pair's
# form joins the ideal of the checks after it.
SECOND_STAGE_CHECKS = [
    ("gam2_a", [("1", "ga12_t", None)], "th1", "gam2", []),
    ("gam2_b", [("1", "ga02_t", None)], "om0", "gam2",
     ["th2", "om1p", "om2p"]),
    ("t3_1a", [("-2", "et3_3_t", None)], "th1", "gam1", []),
    ("t3_1b", [("1", "ga_t", None)], "om1p", "gam1",
     ["th2", "om0", "om2p"]),
    ("t3_2a", [("3", "et2_1_t", None)], "th1", "et_11", []),
    ("t3_2b", [("1", "et_13p_t", None)], "om0", "et_11",
     ["th2", "om1p", "om2p"]),
    ("t3_3a", [("3", "et2_2_t", None), ("-9", "et3_3_t", None)], "th1",
     "et_12", []),
    ("t3_3b", [("1", "et_13_t", None)], "om1p", "et_12",
     ["th2", "om0", "om2p"]),
    ("t3_4a", [("3", "et1_2_t", None)], "th1", "et_22", []),
    ("t3_4b", [("1", "et_23_t", None)], "om1p", "et_22",
     ["th2", "om0", "om2p"]),
]


@lru_cache(maxsize=1)
def second_stage_tails() -> dict:
    """The tail {g: c} of each second-stage base, read off its congruences.

    Runs SECOND_STAGE_CHECKS in order on the generic final stage, the one
    ``build_I2()`` uses, reducing combination + lead ∧ (base + tail so
    far).  Each lead ∧ g monomial left gives the tail coefficient of g,
    except that the second check of a pair reads only the g the first could
    not see (its lead and killed generators); any other monomial left, a
    disagreement with the first check included, raises RowMismatch.  A
    generator hidden from both checks of a pair raises Inconsistent.
    """
    stage = _generic_final_stage()
    ctx = stage.ctx
    first = tilde_system(stage)
    ideal = list(contact_system(ctx).values()) + list(first.values())
    tails: dict = {}
    hidden: dict = {}  # base -> what the first check of its pair cannot see
    for name, combo, lead, base, kills in SECOND_STAGE_CHECKS:
        tail = tails.setdefault(base, {})
        lhs = (_combination(ctx, first, combo)
               + ctx.gen(lead).wedge(ctx.gen(base) + ctx.form(tail)))
        k = ctx.index_of(lead)
        readable = hidden.get(base)
        left = {}
        for idx, c in _residual(stage, lhs, kills, ideal).terms.items():
            pair = len(idx) == 2 and k in idx
            g = ctx.generators[sum(idx) - k].name if pair else base
            if g != base and (readable is None or g in readable):
                tail[g] = -c if idx[0] == k else c
            else:
                left[idx] = c
        if left:
            raise RowMismatch(name, Form(ctx, left))
        blind = {lead, *kills}
        if readable is None:
            hidden[base] = blind
        elif readable & blind:
            raise Inconsistent(f"{base} tail on {sorted(readable & blind)} is"
                               " hidden from both checks of its pair")
        else:
            ideal.append(ctx.gen(base) + ctx.form(tail))
    return {b: {g: t[g] for g in ctx.names() if g in t}
            for b, t in tails.items()}


def build_I2(spec: CurvatureSpec | None = None) -> IdealGenerators:
    """Final ideal: contact forms plus the 19 corrected connection forms.

    Requires the five stage-1 obstructions to vanish; they are imposed on
    top of the given spec.  The 14 first-stage forms are the
    ``tilde_system`` at the final coordinate values; the five second-stage
    forms carry the ``second_stage_tails`` with the spec's bindings
    substituted.
    """
    bindings = _saturate(spec.bindings) if spec is not None else {}
    for s in STAGE1_OBSTRUCTIONS:
        v = bindings.get(s)
        if v is not None:
            if v.is_constant() and not v.is_zero():
                raise ObstructionNonzero(f"{s} = {v} contradicts {s} = 0")
        bindings[s] = Scalar.zero()
    bindings = _saturate(bindings)
    relations = list(spec.relations) if spec else []
    if not relations and bindings == dict.fromkeys(STAGE1_OBSTRUCTIONS, Scalar.zero()):
        stage = _generic_final_stage()
    else:
        stage = _final_stage(CurvatureSpec(bindings, relations), label="Vp")
    ctx = stage.ctx
    second = {b + "_t": ctx.gen(b) + ctx.form(
                  {g: c.substitute(bindings) for g, c in tail.items()})
              for b, tail in second_stage_tails().items()}
    forms = {**contact_system(ctx), **tilde_system(stage), **second}
    gens = IdealGenerators("I2", forms, ctx)
    gens.check_independent()
    return gens


# --------------------------------------------------------------------------
# obstruction extraction and the Frobenius check
# --------------------------------------------------------------------------

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
        r = reduce_mod(f.d(), forms)
        if not r.is_zero():
            residuals.extend(_residual_entries(name, r))
    return {"frobenius": not residuals, "residuals": residuals}


@lru_cache(maxsize=1)
def generic_frobenius_residuals() -> tuple:
    """Residual rows of the final ideal with the curvature left symbolic."""
    gens = build_I2(CurvatureSpec({}))
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
    comb = _combination(stage.ctx, T, [("1", "ga12_t", "om0"),
                                       ("1", "ga02_t", "th1")])
    return _residual_entries("ga12_t^om0+ga02_t^th1", reduce_mod(comb, ideal))


def partition_final_residuals(entries: list) -> dict:
    """Split raw final residual rows into conditions and leftovers.

    The rows on the th1^om1p monomial are the scalar conditions.  Every
    other row goes to ``resolved_by_A41p`` if it vanishes once the A4_1p
    value of ``final_conditions`` is substituted, and to ``unresolved``
    otherwise: nothing here decides whether it follows from the conditions
    and their derivatives.
    """
    cond1 = {"A4_1p": final_conditions()["A4_1p"]}
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
    """The two residuals left once all reduction consequences are imposed.

    Those of the generic spec (None) are computed once
    (``_generic_final_residuals``) and copied.
    """
    if spec is None:
        return [dict(e) for e in _generic_final_residuals()]
    bindings = dict(restricted_class_spec().bindings)
    bindings.update(spec.bindings)
    gens = build_I2(CurvatureSpec(bindings=bindings))
    forms = gens.all()
    out = []
    for name, factor in (("et3p_3_t", 1), ("et_22_t", 7)):
        f = gens.forms[name].scale(Scalar.rational(factor))
        r = reduce_mod(f.d(), forms)
        out.extend(_residual_entries(name, r))
    return out


@lru_cache(maxsize=1)
def _generic_final_residuals() -> tuple:
    return tuple(final_condition_residuals(CurvatureSpec({})))


@lru_cache(maxsize=1)
def final_conditions() -> dict:
    """The two scalar conditions on curvature derivatives, {symbol: value}.

    Read off the th1^om1p rows of et3p_3_t and et_22_t among the generic
    Frobenius residuals, which the verdict builds anyway, each solved for
    its pivot by ``reduce_relations``.  A row without a constant pivot
    raises Inconsistent.
    """
    rows = [Scalar.parse(c) for g, m, c in generic_frobenius_residuals()
            if g in ("et3p_3_t", "et_22_t") and m == "th1^om1p"]
    _, conditions, stuck = reduce_relations(rows)
    if stuck:
        raise Inconsistent(f"final conditions without a pivot: {stuck}")
    return conditions


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


@lru_cache(maxsize=1)
def _verdict_checks() -> tuple:
    """The verdict's checks, parsed once: (reduction, conditions, frobenius).

    reduction holds (symbol - value, failing text) for every first-order
    consequence and identity, sorted by symbol; conditions the same for the
    two ``final_conditions``; frobenius the coefficients of the generic
    Frobenius residuals.  Built on the first verdict, not at import.
    """
    first, full, _ = reduction_consequences()
    checks = dict(first)
    checks.update({s: full[s] for s in IDENTITIES if s in full})
    reduction = tuple((Scalar.symbol(s) - v, f"{s} = {v}")
                      for s, v in sorted(checks.items()))
    conditions = tuple((Scalar.symbol(s) - v, f"{s} = {v}")
                       for s, v in final_conditions().items())
    frobenius = tuple(Scalar.parse(c)
                      for _, _, c in generic_frobenius_residuals())
    return reduction, conditions, frobenius


def embeddability_verdict(spec: CurvatureSpec) -> EmbeddabilityVerdict:
    """Evaluate the full embeddability criterion under a curvature spec.

    Checks every relation forced by the connection reduction, the two final
    scalar conditions, and the Frobenius property of the final ideal with
    the spec substituted.  Relations that stay symbolic under the spec are
    reported as failing (not proven to vanish).  A spec whose own relations
    contradict its bindings, or whose bindings are cyclic, raises
    InconsistentSpec.

    The checks are derived and parsed once per process, on the first
    verdict (``_verdict_checks``); each verdict only substitutes the
    saturated bindings into them.
    """
    b = _saturate(spec.bindings)
    CurvatureSpec(bindings=b, relations=list(spec.relations)).validate()
    reduction, conditions, frobenius_coeffs = _verdict_checks()
    failing = []
    reduction_ok = True
    for relation, text in reduction:
        if not relation.substitute(b).is_zero():
            reduction_ok = False
            failing.append(text)
    cond1, cond2 = values = [c.substitute(b) for c, _ in conditions]
    for (_, text), value in zip(conditions, values):
        if not value.is_zero():
            failing.append(text)
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
        for coeff in frobenius_coeffs:
            if not coeff.substitute(b).is_zero():
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
