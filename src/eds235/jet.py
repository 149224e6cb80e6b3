"""First-order jet data for filtered maps between the two models.

A jet point is a 7x5 matrix over the negative coframes: rows are the seven
target directions (three symmetric-square rows, four spin rows), columns the
five source directions.  The companion coframed context carries the 26 fiber
coordinates as function symbols together with their covariant differentials
as extra generators, so torsion computations and normalizations can be done
symbolically and then evaluated on exact points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .exterior import CoframedContext, Form, eliminate, reduce_mod, reindex
from .geometry import (
    AB_KEYS,
    I_KEYS,
    M_OMEGA,
    N_OMEGA_AB,
    N_OMEGA_I_AB,
    N_OMEGA_I_I,
    SB_OF_SLOT,
    SLOTS,
    Inconsistent,
    build_N_context,
    build_M_context,
    omega_entry,
    reconstruct_derivatives,
)
from .liemodel import (
    adjoint_quotient,
    exp_nilpotent,
    g2_model,
    mat_identity,
    mat_inverse,
    mat_mul,
    m_torus,
    n_gl_up,
    n_sp_q,
    sp6_model,
)
from .scalar import Scalar, rank_of, solve_linear
from .tableau import LinearTableau

ROW_KEYS = AB_KEYS + I_KEYS
ROW_INDEX = {k: i for i, k in enumerate(ROW_KEYS)}
COL_INDEX = {s: i for i, s in enumerate(SLOTS)}
THETA_SLOTS = ["1", "2"]
OMEGA_SLOTS = ["0", "1p", "2p"]

H_COLUMNS = {**{k: THETA_SLOTS for k in AB_KEYS}, **{k: SLOTS for k in I_KEYS}}


def h_name(key: str, slot: str) -> str:
    return f"H{key}_{slot}"


def pi_name(key: str, slot: str) -> str:
    return f"pi{key}_{slot}"


PI_NAMES = [pi_name(k, s) for k in ROW_KEYS for s in H_COLUMNS[k]]


class RankDeficient(Exception):
    pass


@dataclass(frozen=True)
class JetPoint:
    """Exact 7x5 matrix of fiber coordinates (rows 11,12,22,13,13',23,23')."""

    rows: tuple

    @staticmethod
    def from_entries(entries: Mapping) -> "JetPoint":
        rows = []
        for k in ROW_KEYS:
            rows.append(tuple(Scalar.of(entries.get((k, s), 0)) for s in SLOTS))
        return JetPoint(tuple(rows))

    @staticmethod
    def from_matrix(mat: Sequence) -> "JetPoint":
        return JetPoint(tuple(tuple(Scalar.of(x) for x in row) for row in mat))

    def entry(self, key: str, slot: str) -> Scalar:
        return self.rows[ROW_INDEX[key]][COL_INDEX[slot]]

    def matrix(self) -> list:
        return [list(row) for row in self.rows]

    def q(self, a: int, slot: str) -> tuple:
        """Spin pair (H^{a3}_slot, H^{a3'}_slot) for a in {1, 2}."""
        return (self.entry(f"{a}3", slot), self.entry(f"{a}3p", slot))

    def rank(self) -> int:
        return rank_of(self.matrix())

    def project(self) -> "JetPoint":
        """Zero the symmetric-square rows outside the theta columns."""
        rows = []
        for i, k in enumerate(ROW_KEYS):
            if k in AB_KEYS:
                rows.append(tuple(
                    c if SLOTS[j] in THETA_SLOTS else Scalar.zero()
                    for j, c in enumerate(self.rows[i])
                ))
            else:
                rows.append(self.rows[i])
        return JetPoint(tuple(rows))

    def is_projected(self) -> bool:
        return all(
            self.entry(k, s).is_zero() for k in AB_KEYS for s in OMEGA_SLOTS
        )

    def __str__(self):
        return "\n".join(
            f"{k:>4}: [" + ", ".join(str(c) for c in row) + "]"
            for k, row in zip(ROW_KEYS, self.rows)
        )


def act(point: JetPoint, g, h, project: bool = False) -> JetPoint:
    """Right action of a pair of group elements on a jet point.

    An identity factor acts trivially, so its adjoint quotient is skipped.
    """
    mat = point.matrix()
    if g != mat_identity(len(g)):
        mat = mat_mul(mat, mat_inverse(adjoint_quotient(g, g2_model())))
    if h != mat_identity(len(h)):
        mat = mat_mul(adjoint_quotient(h, sp6_model()), mat)
    out = JetPoint.from_matrix(mat)
    return out.project() if project else out


def alpha(u: tuple, v: tuple) -> Scalar:
    """Area form on spin pairs."""
    return u[0] * v[1] - u[1] * v[0]


def first_integrability(point: JetPoint) -> dict:
    """The nine symmetric-row torsion residuals of a projected point."""
    if not point.is_projected():
        raise ValueError("integrability residuals need a projected point")
    out = {}
    for (a, b) in [(1, 1), (1, 2), (2, 2)]:
        ab = f"{a}{b}" if a <= b else f"{b}{a}"
        for c, cp in [("1", "1p"), ("2", "2p")]:
            val = (
                alpha(point.q(a, "0"), point.q(b, cp))
                + alpha(point.q(b, "0"), point.q(a, cp))
                - point.entry(ab, c) * Scalar.rational(3)
            )
            out[(ab, "0", cp)] = val
        out[(ab, "1p", "2p")] = alpha(point.q(a, "1p"), point.q(b, "2p")) \
            + alpha(point.q(b, "1p"), point.q(a, "2p"))
    return out


def is_integrable(point: JetPoint) -> bool:
    return all(v.is_zero() for v in first_integrability(point).values())


# --------------------------------------------------------------------------
# exact random data
# --------------------------------------------------------------------------

def _rand_scalar(rng: random.Random, nonzero=False) -> Scalar:
    while True:
        v = Scalar.rational(rng.randint(-6, 6))
        if not nonzero or not v.is_zero():
            return v


def random_integrable(rng: random.Random) -> JetPoint:
    """Random projected rank-5 solution of the integrability equations.

    All primed spin columns of such a point lie on a common line; sampling
    that shape directly (plus the forced symmetric rows) covers every case.
    """
    while True:
        u = (_rand_scalar(rng), _rand_scalar(rng, nonzero=True))
        p = [[_rand_scalar(rng) for _ in range(2)] for _ in range(2)]
        entries = {}
        for a in (1, 2):
            for j, cp in enumerate(("1p", "2p")):
                entries[(f"{a}3", cp)] = p[a - 1][j] * u[0]
                entries[(f"{a}3p", cp)] = p[a - 1][j] * u[1]
            entries[(f"{a}3", "0")] = _rand_scalar(rng)
            entries[(f"{a}3p", "0")] = _rand_scalar(rng)
            for c in THETA_SLOTS:
                entries[(f"{a}3", c)] = _rand_scalar(rng)
                entries[(f"{a}3p", c)] = _rand_scalar(rng)
        point = JetPoint.from_entries(entries)
        # forced symmetric rows
        forced = {}
        for (a, b) in [(1, 1), (1, 2), (2, 2)]:
            for c, cp in [("1", "1p"), ("2", "2p")]:
                forced[(f"{a}{b}", c)] = (
                    alpha(point.q(a, "0"), point.q(b, cp))
                    + alpha(point.q(b, "0"), point.q(a, cp))
                ) / Scalar.rational(3)
        entries.update(forced)
        point = JetPoint.from_entries(entries)
        if point.rank() == 5:
            assert is_integrable(point)
            return point


def random_parabolic_pair(rng: random.Random):
    """Random structure-group pair (source, target factor)."""
    g = m_torus(_rand_frac(rng), _rand_frac(rng))
    g2 = g2_model()
    for name in ["ga12", "ga21", "ga01", "ga02", "ga", "gam1", "gam2"]:
        c = Scalar.rational(rng.randint(-3, 3))
        step = exp_nilpotent([[c * x for x in row] for row in g2.basis[name]])
        g = mat_mul(g, step)
    b = _rand_gl2(rng)
    s = _rand_sl2(rng)
    h = mat_mul(n_gl_up(b), n_sp_q(s))
    sp6 = sp6_model()
    for name in ["et_13", "et_13p", "et_23", "et_23p", "et_11", "et_12",
                 "et_22"]:
        c = Scalar.rational(rng.randint(-3, 3))
        step = exp_nilpotent([[c * x for x in row] for row in sp6.basis[name]])
        h = mat_mul(h, step)
    return g, h


def _rand_frac(rng):
    num = rng.choice([x for x in range(-5, 6) if x != 0])
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _rand_gl2(rng):
    while True:
        b = [[_rand_scalar(rng) for _ in range(2)] for _ in range(2)]
        if not (b[0][0] * b[1][1] - b[0][1] * b[1][0]).is_zero():
            return b


def _rand_sl2(rng):
    while True:
        b = [[_rand_scalar(rng) for _ in range(2)] for _ in range(2)]
        det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        if det == Scalar.one():
            return b
        if not det.is_zero() and not b[0][0].is_zero():
            # rescale first row to unit determinant
            b[0][0] = b[0][0] / det
            b[0][1] = b[0][1] / det
            return b


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------

@dataclass
class Normalization:
    """Normal form of a jet point with the group pair that reaches it."""

    point: "JetPoint"
    g: list
    h: list
    invariants: dict


def _collinearity(point: JetPoint):
    """Common line and multiplier matrix of the primed spin pairs."""
    pairs = {(a, c): point.q(a, c) for a in (1, 2) for c in ("1p", "2p")}
    u = None
    for key in [(1, "1p"), (1, "2p"), (2, "1p"), (2, "2p")]:
        if not (pairs[key][0].is_zero() and pairs[key][1].is_zero()):
            u = pairs[key]
            break
    if u is None:
        raise RankDeficient("primed spin columns vanish")
    mult = {}
    for key, w in pairs.items():
        if not alpha(u, w).is_zero():
            raise RankDeficient("primed spin pairs are not collinear")
        mult[key] = w[0] / u[0] if not u[0].is_zero() else w[1] / u[1]
    return u, mult


def normalize(point: JetPoint) -> Normalization:
    """Carry an integrable rank-5 point to the normal form by group moves.

    Returns the normal form together with the source and target group
    elements realizing it, so that act(point, g, h) equals the result.
    Raises RankDeficient when the point has rank below five.
    """
    if not point.is_projected():
        raise ValueError("normalize expects a projected point")
    if not is_integrable(point):
        raise ValueError("normalize expects an integrable point")
    if point.rank() != 5:
        raise RankDeficient(f"rank {point.rank()} < 5")

    g2, sp6 = g2_model(), sp6_model()
    state = {
        "point": point,
        "g": mat_identity(7),
        "h": mat_identity(6),
    }

    def apply_m(g):
        state["point"] = act(state["point"], g, mat_identity(6))
        state["g"] = mat_mul(state["g"], g)

    def apply_n(h):
        state["point"] = act(state["point"], mat_identity(7), h)
        state["h"] = mat_mul(state["h"], h)

    def m_exp(name, c):
        return exp_nilpotent([[c * x for x in row] for row in g2.basis[name]])

    def n_exp(name, c):
        return exp_nilpotent([[c * x for x in row] for row in sp6.basis[name]])

    def cur():
        return state["point"]

    one, zero = Scalar.one(), Scalar.zero()

    # align the first spin row: make both alpha-pairings against it usable
    u, _ = _collinearity(cur())
    if alpha(u, cur().q(1, "0")).is_zero():
        if alpha(u, cur().q(2, "0")).is_zero():
            raise RankDeficient("both unprimed spin pairs lie on the line")
        apply_n(n_gl_up([[zero, one], [one, zero]]))
    q = cur().q(1, "2p")
    if q[0].is_zero() and q[1].is_zero():
        apply_m(m_exp("ga12", one))

    # symplectic move: q^1_0 to the transverse axis, q^1_{2'} to the line
    q1, q3 = cur().q(1, "0"), cur().q(1, "2p")
    beta = alpha(q1, q3)
    apply_n(n_sp_q([[q1[0] / beta, q3[0]], [q1[1] / beta, q3[1]]]))

    # remove the transverse part of the second unprimed pair
    kappa = cur().q(2, "0")[0] / cur().q(1, "0")[0]
    apply_n(n_gl_up([[one, zero], [kappa, one]]))

    # diagonalize the multiplier matrix of the primed pairs
    apply_m(m_exp("ga21", -cur().q(1, "1p")[1]))
    apply_m(m_exp("ga12", -cur().q(2, "2p")[1] / cur().q(2, "1p")[1]))

    # remove the line part of the second unprimed pair
    zeta = cur().q(2, "1p")[1]
    apply_m(m_exp("ga02", -cur().q(2, "0")[1] / (Scalar.rational(2) * zeta)))

    # scale the three pinned entries to one
    beta = cur().q(1, "0")[0]
    zeta = cur().q(2, "1p")[1]
    apply_m(m_torus(one / beta, one))
    apply_n(n_gl_up([[one / beta, zero], [zero, zeta / beta]]))

    # clean the theta-column entries of the spin rows
    k1 = (cur().entry("13p", "2") - cur().entry("23p", "1")) \
        * Scalar.rational(3)
    apply_n(n_exp("et_13", k1))
    apply_m(m_exp("ga", -cur().entry("23p", "1")))
    apply_n(n_exp("et_23p", Scalar.rational(3) * cur().entry("13", "1")))
    apply_n(n_exp("et_13p", Scalar.rational(3) * cur().entry("23", "1")))
    apply_n(n_exp("et_23", Scalar.rational(3) * cur().entry("13p", "1")))

    final = cur()
    expected = normal_form_point(
        final.entry("13", "2"), final.entry("23", "2"),
        final.entry("23p", "2"))
    if final != expected:
        raise RuntimeError("normalization did not reach the normal form")
    invariants = {
        "H13_2": final.entry("13", "2"),
        "H23_2": final.entry("23", "2"),
        "H23p_2": final.entry("23p", "2"),
    }
    return Normalization(final, state["g"], state["h"], invariants)


# --------------------------------------------------------------------------
# jet context
# --------------------------------------------------------------------------

@dataclass
class JetContext:
    ctx: CoframedContext
    bound: dict = field(default_factory=dict)
    pi_solutions: dict = field(default_factory=dict)
    label: str = "jet"

    def h_value(self, key: str, slot: str) -> Scalar:
        name = h_name(key, slot)
        return self.bound.get(name, Scalar.symbol(name))

    def contact_forms(self) -> dict:
        """The contact forms Th<key>, built once per context: a JetContext
        does not change once ``build_jet_context`` or ``bind_H`` returns
        it.  The dict is a copy; the Forms are shared and never mutated."""
        return dict(self._contact_forms)

    @cached_property
    def _contact_forms(self) -> dict:
        out = {}
        ctx = self.ctx
        for k in AB_KEYS:
            f = ctx.gen("vt" + k)
            for s in THETA_SLOTS:
                f = f - ctx.gen(SB_OF_SLOT[s]).scale(self.h_value(k, s))
            out["Th" + k] = f
        for k in I_KEYS:
            f = ctx.gen("vpi" + k)
            for s in SLOTS:
                f = f - ctx.gen(SB_OF_SLOT[s]).scale(self.h_value(k, s))
            out["Th" + k] = f
        return out


def _covariant_tail(ctx: CoframedContext, jet_bound: Mapping, key: str,
                    slot: str) -> Form:
    """The non-pi part of d of a fiber coordinate."""

    def h(k, s):
        if s not in H_COLUMNS[k]:
            return Scalar.zero()
        name = h_name(k, s)
        if name in jet_bound:
            return jet_bound[name]
        return Scalar.symbol(name)

    f = ctx.zero()
    if key in AB_KEYS:
        for cd in AB_KEYS:
            ent = omega_entry(ctx, N_OMEGA_AB, key, cd)
            if not ent.is_zero():
                f = f - ent.scale(h(cd, slot))
        for d in THETA_SLOTS:
            ent = omega_entry(ctx, M_OMEGA, d, slot)
            if not ent.is_zero():
                f = f + ent.scale(h(key, d))
    else:
        for cd in AB_KEYS:
            ent = omega_entry(ctx, N_OMEGA_I_AB, key, cd)
            if not ent.is_zero():
                f = f - ent.scale(h(cd, slot))
        for j in I_KEYS:
            ent = omega_entry(ctx, N_OMEGA_I_I, key, j)
            if not ent.is_zero():
                f = f - ent.scale(h(j, slot))
        for x in SLOTS:
            ent = omega_entry(ctx, M_OMEGA, x, slot)
            if not ent.is_zero():
                f = f + ent.scale(h(key, x))
    return f


def build_jet_context(m_ctx: CoframedContext | None = None,
                      n_ctx: CoframedContext | None = None,
                      label: str = "jet") -> JetContext:
    if m_ctx is None:
        m_ctx = build_M_context(table=reconstruct_derivatives())
    if n_ctx is None:
        n_ctx = build_N_context()
    names = list(m_ctx.names()) + list(n_ctx.names()) + list(PI_NAMES)
    ctx = CoframedContext(names, label=label)
    for src in (m_ctx, n_ctx):
        for g in src.names():
            ctx.set_rule(g, reindex(src.d_rule(g), ctx))
        for sym, rule in src.rules.d_of_symbol.items():
            ctx.set_symbol_rule(sym, reindex(rule, ctx))
    tails = {}
    for k in ROW_KEYS:
        for s in H_COLUMNS[k]:
            tail = _covariant_tail(ctx, {}, k, s)
            tails[(k, s)] = tail
            ctx.set_symbol_rule(h_name(k, s), ctx.gen(pi_name(k, s)) + tail)
    for (k, s), tail in tails.items():
        ctx.set_rule(pi_name(k, s), tail.d().scale(Scalar.rational(-1)))
    return JetContext(ctx, {}, {}, label)


def bind_H(jet: JetContext, bindings: Mapping, label: str | None = None
           ) -> JetContext:
    """Restrict to the locus where the given fiber coordinates are constant.

    Each bound coordinate's differential generator becomes dependent and is
    eliminated; the solved forms are kept for later use.
    """
    values = {k: Scalar.of(v) for k, v in bindings.items()}
    ctx = jet.ctx
    new_label = label or (jet.label + "+bind")
    work = CoframedContext(list(ctx.names()), label=new_label + "-pre")
    for g in ctx.names():
        work.set_rule(g, reindex(ctx.d_rule(g), work).substitute_scalars(values))
    for sym, rule in ctx.rules.d_of_symbol.items():
        if sym in values:
            continue
        work.set_symbol_rule(
            sym, reindex(rule, work).substitute_scalars(values)
        )
    bound = dict(jet.bound) | values
    replacements = {}
    for name in values:
        key, slot = name[1:].split("_", 1)
        tail = _covariant_tail(work, bound, key, slot)
        replacements[pi_name(key, slot)] = tail.scale(Scalar.rational(-1))
    reduced, transfer = eliminate(work, replacements, label=new_label)
    pi_solutions = {n: reindex(f, reduced) for n, f in replacements.items()}
    for name, f in jet.pi_solutions.items():
        pi_solutions[name] = transfer(
            reindex(f, work).substitute_scalars(values)
        )
    return JetContext(reduced, bound, pi_solutions, new_label)


# --------------------------------------------------------------------------
# the staged loci
# --------------------------------------------------------------------------

V1_BINDINGS = {
    "H11_1": "0", "H11_2": "2/3", "H12_1": "1/3", "H12_2": "0",
    "H22_1": "0", "H22_2": "0",
    "H13_0": "1", "H13_1p": "0", "H13_2p": "0",
    "H13p_0": "0", "H13p_1p": "0", "H13p_2p": "1",
    "H23_0": "0", "H23_1p": "0", "H23_2p": "0",
    "H23p_0": "0", "H23p_1p": "1", "H23p_2p": "0",
    "H13_1": "0", "H13p_1": "0", "H23_1": "0", "H23p_1": "0",
    "H13p_2": "0",
}

STAGE_ORDER = ["V1", "V2", "V3", "V4"]


def normal_form_point(h13_2="0", h23_2="0", h23p_2="0") -> JetPoint:
    entries = {("13", "2"): h13_2, ("23", "2"): h23_2, ("23p", "2"): h23p_2}
    for name, v in V1_BINDINGS.items():
        key, slot = name[1:].split("_", 1)
        entries[(key, slot)] = v
    return JetPoint.from_entries(entries)


@lru_cache(maxsize=None)
def stage_context(stage: str) -> JetContext:
    """The jet context on one of the loci in STAGE_ORDER.

    V1 binds V1_BINDINGS.  Each later locus binds, on the locus before it,
    the coordinate that its integrability step forces to vanish.
    """
    if stage == "V1":
        return bind_H(build_jet_context(), V1_BINDINGS, label="V1")
    prev = stage_context(STAGE_ORDER[STAGE_ORDER.index(stage) - 1])
    return bind_H(prev, _integrability_step(stage).binding, label=stage)


def tableau_forms_on_V1() -> dict:
    jet = stage_context("V1")
    keep = [pi_name(k, s) for k in AB_KEYS for s in THETA_SLOTS]
    keep += [pi_name(k, s) for k in I_KEYS for s in OMEGA_SLOTS]
    return {n: jet.pi_solutions[n] for n in keep}


def contact_quotient(jet: JetContext, form: Form, kill: Sequence[str] = ()
                     ) -> Form:
    """Normal form modulo the contact forms and the listed generators.

    Each contact form pivots on its ``vt``/``vpi`` target generator, which
    is therefore replaced by the horizontal part of the form, and each
    killed generator pivots on itself.
    """
    return reduce_mod(form, [*jet.contact_forms().values(),
                             *(jet.ctx.gen(k) for k in kill)])


def _span_columns(deg: int, two_forms: Sequence[Form], support) -> list:
    """All wedge multiples of the 2-forms in the given total degree.

    Multipliers are supported on the given generator indices, which is no
    restriction when the support covers the target: a multiplier generator
    absent from every slot of the target could only produce terms that
    cancel among themselves.
    """
    columns = []
    for g in two_forms:
        if deg == 2:
            columns.append(g)
            continue
        for combo in combinations(sorted(support), deg - 2):
            col = Form(g.ctx, {tuple(combo): Scalar.one()}).wedge(g)
            if not col.is_zero():
                columns.append(col)
    return columns


def _solve_in_span(form: Form, columns: Sequence[Form]):
    slots = set(form.terms)
    for col in columns:
        slots |= set(col.terms)
    slots = sorted(slots)
    rows = [[col.terms.get(s, Scalar.zero()) for col in columns]
            for s in slots]
    rhs = [form.terms.get(s, Scalar.zero()) for s in slots]
    return solve_linear(rows, rhs)


def _joint_support(form: Form, two_forms: Sequence[Form]) -> set:
    support = set(form.generators_present())
    for g in two_forms:
        support |= g.generators_present()
    return support


def in_span_of_two_forms(form: Form, two_forms: Sequence[Form]) -> bool:
    """Whether a form lies in the algebraic span of the given 2-forms."""
    if form.is_zero():
        return True
    cols = _span_columns(form.degree(), two_forms,
                         _joint_support(form, two_forms))
    return not _solve_in_span(form, cols).inconsistent


def _relation_kernel(forms: Mapping) -> list:
    """Left kernel of a family of 1-forms, as coefficient dicts."""
    names = list(forms)
    index = {}
    rows = []
    for n in names:
        row = {}
        for idx, c in forms[n].terms.items():
            index.setdefault(idx[0], len(index))
            row[idx[0]] = c
        rows.append(row)
    transposed = [[rows[i].get(k, Scalar.zero()) for i in range(len(names))]
                  for k in index]
    sol = solve_linear(transposed, [Scalar.zero()] * len(index))
    return [
        {names[i]: v for i, v in enumerate(vec) if not v.is_zero()}
        for vec in sol.nullspace
    ]


def symbol_relations(stage: str) -> list:
    """Linear relations among the solved differential generators.

    Coefficient dicts over generator names; the later stages report only
    relations that are new modulo the first stage: the kernel relations
    that are pivot rows of one elimination of the first-stage relations
    stacked above the kernel.  The first-stage rows are constant and
    independent, so they are the first pivots.  Where the kernel is
    constant too (V4), the fresh relations are exactly those outside the
    span of the ones before them; at V2 and V3 some coefficients are
    symbolic, and they are still a basis of the kernel modulo the first
    stage.
    """
    if stage == "V1":
        return _relation_kernel(tableau_forms_on_V1())
    jet = stage_context(stage)
    kernel = _relation_kernel(jet.pi_solutions)
    names = [n for n in PI_NAMES if n in jet.pi_solutions]

    def vec(rel):
        return [rel.get(n, Scalar.zero()) for n in names]

    stacked = [vec(r) for r in symbol_relations("V1") + kernel]
    old = len(stacked) - len(kernel)
    pivots = solve_linear(stacked, [Scalar.zero()] * len(stacked)).pivot_rows
    return [kernel[i - old] for i in sorted(pivots) if i >= old]


# --------------------------------------------------------------------------
# higher integrability chain
# --------------------------------------------------------------------------

def shift_form(jet: JetContext) -> Form:
    """The exact 2-form adjoined when passing beyond the first locus."""
    ctx = jet.ctx
    tail = ctx.gen("et3_3p") + ctx.gen("om1p").scale(Scalar.rational(2)) \
        + ctx.gen("th2").scale(jet.h_value("23p", "2") * Scalar.rational(2))
    return ctx.gen("th1") ^ tail


def d_contact(jet: JetContext, key: str) -> Form:
    return jet.contact_forms()["Th" + key].d()


@dataclass
class IntegrabilityStep:
    stage: str
    residual: Form
    coefficient: Scalar
    binding: dict


def higher_integrability() -> list:
    """The steps that cut the second, third and fourth loci.

    Each step is computed once, on the locus before it, and
    ``stage_context`` binds the coordinate it forces.
    """
    return [_integrability_step(stage) for stage in STAGE_ORDER[1:]]


@lru_cache(maxsize=None)
def _integrability_step(stage: str) -> IntegrabilityStep:
    """The step that cuts ``stage`` (V2, V3 or V4) out of the locus before it.

    It reduces an exterior-derivative combination modulo the contact
    system (plus stated 1- and 2-forms) and reads off the coordinate whose
    vanishing is forced on integral sections.
    """
    prev = stage_context(STAGE_ORDER[STAGE_ORDER.index(stage) - 1])
    ctx = prev.ctx
    th1, th2 = ctx.gen("th1"), ctx.gen("th2")
    om0, om1p, om2p = ctx.gen("om0"), ctx.gen("om1p"), ctx.gen("om2p")
    if stage == "V2":
        r = contact_quotient(prev, d_contact(prev, "22"), kill=["th1", "om0"])
        coeff = r.coefficient(["th2", "om1p"])
        if not (r - (th2 ^ om1p).scale(coeff)).is_zero():
            raise AssertionError("unexpected residual shape at stage two")
        return IntegrabilityStep(stage, r, coeff, _forced_binding(coeff))
    shift = shift_form(prev)
    if stage == "V3":
        kill, monomial = ["om0"], ("th1", "th2", "om1p", "om2p")
        comb = (
            d_contact(prev, "23p").wedge(th1).wedge(th2).scale(Scalar.rational(4))
            + d_contact(prev, "12").wedge(th1).wedge(om2p).scale(Scalar.rational(18))
            - d_contact(prev, "12").wedge(th2).wedge(om1p).scale(Scalar.rational(12))
            - d_contact(prev, "11").wedge(th1).wedge(om1p).scale(Scalar.rational(3))
            + shift.d().wedge(th2)
        )
    else:
        kill, monomial = ["om1p"], ("th1", "th2", "om0", "om2p")
        comb = (
            d_contact(prev, "12").wedge(th1).wedge(om2p).scale(Scalar.rational(3))
            + d_contact(prev, "13").wedge(th1).wedge(om0).scale(Scalar.rational(2))
            + d_contact(prev, "23").wedge(th2).wedge(om0).scale(Scalar.rational(4))
            + d_contact(prev, "23p").wedge(th1).wedge(th2)
        )
    reduced = contact_quotient(prev, comb, kill=kill)
    coeff = _two_form_residual_coefficient(
        prev, reduced, kill=kill, two_forms=[shift, d_contact(prev, "22")],
        monomial=monomial)
    return IntegrabilityStep(stage, reduced, coeff, _forced_binding(coeff))


def _forced_binding(coeff: Scalar) -> dict:
    syms = sorted(coeff.symbols())
    if len(syms) != 1:
        raise AssertionError(f"residual not linear in one coordinate: {coeff}")
    name = syms[0]
    # coeff = c * symbol with c a nonzero constant
    c = coeff.partial(name)
    if not c.is_constant() or not (coeff - c * Scalar.symbol(name)).is_zero():
        raise AssertionError(f"residual not linear in {name}: {coeff}")
    return {name: Scalar.zero()}


def _two_form_residual_coefficient(jet, reduced, kill, two_forms, monomial):
    """Coefficient x with reduced ≡ x·(monomial) modulo the stated ideal.

    ``reduced`` is already the contact quotient with the same ``kill``.
    """
    ctx = jet.ctx
    mono = ctx.form({tuple(monomial): Scalar.one()})
    qforms = [contact_quotient(jet, g, kill=kill) for g in two_forms]
    columns = [mono] + _span_columns(
        reduced.degree(), qforms, _joint_support(reduced, qforms))
    sol = _solve_in_span(reduced, columns)
    if sol.inconsistent or sol.particular is None:
        raise AssertionError("combination does not reduce to the monomial line")
    if any(not vec[0].is_zero() for vec in sol.nullspace):
        raise AssertionError("monomial coefficient is not well defined")
    return sol.particular[0]


def remaining_torsion(jet: JetContext, forms: Mapping | None = None) -> dict:
    """Semibasic torsion of each contact row against given tableau forms."""
    if forms is None:
        forms = jet.pi_solutions
    ctx = jet.ctx
    out = {}
    for k in ROW_KEYS:
        t = contact_quotient(jet, d_contact(jet, k))
        for s in H_COLUMNS[k]:
            t = t + forms[pi_name(k, s)].wedge(ctx.gen(SB_OF_SLOT[s]))
        sb = {ctx.index_of(SB_OF_SLOT[s]) for s in SLOTS}
        for idx in t.terms:
            if any(i not in sb for i in idx):
                raise AssertionError(f"non-semibasic torsion in row {k}")
        if not t.is_zero():
            out[k] = t
    return out


TORSION_ABSORPTION = {"pi13_2p": [("2", "om1p")], "pi23_1p": [("2", "om1p")]}


def absorbed_tableau_forms(jet: JetContext | None = None) -> dict:
    """Tableau forms on the final locus with remaining torsion absorbed.

    The TORSION_ABSORPTION shifts must leave no ``remaining_torsion``; a
    contact row that keeps some raises Inconsistent naming the row.
    """
    if jet is None:
        jet = stage_context("V4")
    forms = dict(jet.pi_solutions)
    for name, shifts in TORSION_ABSORPTION.items():
        f = forms[name]
        for coeff, gen in shifts:
            f = f + jet.ctx.gen(gen).scale(Scalar.parse(coeff))
        forms[name] = f
    left = remaining_torsion(jet, forms)
    if left:
        row = next(iter(left))
        raise Inconsistent(f"torsion left in row {row}: {left[row]}")
    return forms


def linearized_tableau():
    """Tableau of the final-locus system as a span of coefficient matrices.

    Each non-semibasic coframe generator contributes the matrix of its
    coefficients across the absorbed tableau forms; their span is the
    linearized tableau, read off pointwise.
    """
    jet = stage_context("V4")
    ctx = jet.ctx
    forms = absorbed_tableau_forms(jet)
    semibasic = {SB_OF_SLOT[s] for s in SLOTS}
    names = []
    for f in forms.values():
        for i in sorted(f.generators_present()):
            n = ctx.generators[i].name
            if n not in semibasic and n not in names:
                names.append(n)
    mats = []
    for n in names:
        mat = [
            [forms[pi_name(k, s)].coefficient([n])
             if s in H_COLUMNS[k] else Scalar.zero()
             for s in SLOTS]
            for k in ROW_KEYS
        ]
        mats.append(mat)
    return LinearTableau.from_spanning(mats)
