"""Homogeneous-model contexts and curvature derivative reconstruction.

The curved structure equations extend the Maurer-Cartan rules of the 7x7
model by curvature 2-forms whose coefficients are 24 named functions.  All
covariant derivative information (the vertical part of d of each curvature
function, the commutation corrections for second derivatives, and the linear
relations among first derivatives) is *derived* here from d^2 = 0 rather
than transcribed: each unknown enters a slot of some d^2 residual linearly
with rational coefficients, so exact linear algebra recovers everything and
flags any transcription error as an inconsistency.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .exterior import CoframedContext, Form
from .liemodel import g2_model, sp6_model, mc_rules
from .scalar import Scalar, solve_linear


class InconsistentSpec(Exception):
    pass


class Inconsistent(Exception):
    pass


SEMIBASIC = ["th1", "th2", "om0", "om1p", "om2p"]
CONNECTION = ["ga12", "ze1", "ze2", "ga21", "ga01", "ga02", "ga", "gam1", "gam2"]
SLOT_OF = {"th1": "1", "th2": "2", "om0": "0", "om1p": "1p", "om2p": "2p"}
SLOTS = ["1", "2", "0", "1p", "2p"]
SB_OF_SLOT = {v: k for k, v in SLOT_OF.items()}

CURVATURE_SYMBOLS = [
    "A1", "A2", "A3", "A4", "A5",
    "B1", "B2", "B3", "B4",
    "C1", "C2", "C3",
    "D1", "D2", "E",
    "Dt1", "Dt2", "Dt3", "Dt4",
    "Et1", "Et2", "Et3",
    "Ft1", "Ft2",
]


def derivative_symbol(base: str, *slots: str) -> str:
    return "_".join((base,) + slots)


def split_symbol(sym: str) -> tuple[str, tuple]:
    parts = sym.split("_")
    base = parts[0]
    if base not in CURVATURE_SYMBOLS:
        raise KeyError(f"not a curvature symbol family: {sym}")
    return base, tuple(parts[1:])


# --------------------------------------------------------------------------
# curvature 2-forms of the nine connection rows
# --------------------------------------------------------------------------

# Each row maps (semibasic, semibasic) pairs to a linear expression in the
# curvature functions.  Shared shape: the five slots
# (th2,om2p), (th1,om2p)+(th2,om1p), (th1,om1p), (th2,om0), (th1,om0), (th1,th2).
_K_ROWS = {
    "ga12": ("A1", "A2", "A3", "-2*B1", "-2*B2", "C1"),
    "ze1": ("-A2", "-A3", "-A4", "2*B2", "2*B3", "-C2"),
    "ga21": ("-A3", "-A4", "-A5", "2*B3", "2*B4", "-C3"),
    "ga01": ("-B2", "-B3", "-B4", "2*C2", "2*C3", "-D2"),
    "ga02": ("-B1", "-B2", "-B3", "2*C1", "2*C2", "-D1"),
    "ga": ("-C1", "-C2", "-C3", "2*D1", "2*D2", "-E"),
    "gam1": (
        "2/3*D1-Dt2", "1/3*D2-Dt3", "-Dt4",
        "-E+2*Et2", "2*Et3", "-Ft2",
    ),
    "gam2": (
        "-Dt1", "-1/3*D1-Dt2", "-2/3*D2-Dt3",
        "2*Et1", "E+2*Et2", "-Ft1",
    ),
}


def curvature_forms(ctx: CoframedContext) -> dict:
    """The curvature 2-form added to each connection-row structure equation."""
    out = {}
    for row, (c22, cmix, c11, c20, c10, c12) in _K_ROWS.items():
        f = ctx.form(
            {
                ("th2", "om2p"): Scalar.parse(c22),
                ("th1", "om2p"): Scalar.parse(cmix),
                ("th2", "om1p"): Scalar.parse(cmix),
                ("th1", "om1p"): Scalar.parse(c11),
                ("th2", "om0"): Scalar.parse(c20),
                ("th1", "om0"): Scalar.parse(c10),
                ("th1", "th2"): Scalar.parse(c12),
            }
        )
        out[row] = f
    out["ze2"] = out["ze1"].scale(Scalar.rational(-2))
    return out


# --------------------------------------------------------------------------
# connection-matrix blocks of both models
# --------------------------------------------------------------------------

# Convention: d(row) = -sum_col Omega[row,col] ^ col + torsion, with entries
# given as integer-coefficient combinations of connection generators.  The
# same blocks feed the covariant-derivative formulas on the jet space.

M_OMEGA = {
    ("1", "1"): [("3", "ze1"), ("2", "ze2")],
    ("1", "2"): [("1", "ga12")],
    ("2", "1"): [("1", "ga21")],
    ("2", "2"): [("3", "ze1"), ("1", "ze2")],
    ("0", "1"): [("1", "ga01")],
    ("0", "2"): [("1", "ga02")],
    ("0", "0"): [("2", "ze1"), ("1", "ze2")],
    ("1p", "1"): [("1", "ga")],
    ("1p", "0"): [("2", "ga02")],
    ("1p", "1p"): [("1", "ze1"), ("1", "ze2")],
    ("1p", "2p"): [("1", "ga12")],
    ("2p", "2"): [("1", "ga")],
    ("2p", "0"): [("-2", "ga01")],
    ("2p", "1p"): [("1", "ga21")],
    ("2p", "2p"): [("1", "ze1")],
}

M_TORSION = {
    "1": {("om0", "om1p"): "3"},
    "2": {("om0", "om2p"): "3"},
    "0": {("om1p", "om2p"): "2"},
}

AB_KEYS = ["11", "12", "22"]
I_KEYS = ["13", "13p", "23", "23p"]

N_OMEGA_AB = {
    ("11", "11"): [("2", "et1_1")],
    ("11", "12"): [("2", "et1_2")],
    ("12", "11"): [("1", "et2_1")],
    ("12", "12"): [("1", "et1_1"), ("1", "et2_2")],
    ("12", "22"): [("1", "et1_2")],
    ("22", "12"): [("2", "et2_1")],
    ("22", "22"): [("2", "et2_2")],
}

N_OMEGA_I_AB = {
    ("13", "11"): [("1", "et_13p")],
    ("13", "12"): [("1", "et_23p")],
    ("13p", "11"): [("1", "et_13")],
    ("13p", "12"): [("1", "et_23")],
    ("23", "12"): [("1", "et_13p")],
    ("23", "22"): [("1", "et_23p")],
    ("23p", "12"): [("1", "et_13")],
    ("23p", "22"): [("1", "et_23")],
}

N_OMEGA_I_I = {
    ("13", "13"): [("1", "et1_1"), ("1", "et3_3")],
    ("13", "13p"): [("1", "et3_3p")],
    ("13", "23"): [("1", "et1_2")],
    ("13p", "13"): [("1", "et3p_3")],
    ("13p", "13p"): [("1", "et1_1"), ("-1", "et3_3")],
    ("13p", "23p"): [("1", "et1_2")],
    ("23", "13"): [("1", "et2_1")],
    ("23", "23"): [("1", "et2_2"), ("1", "et3_3")],
    ("23", "23p"): [("1", "et3_3p")],
    ("23p", "13p"): [("1", "et2_1")],
    ("23p", "23"): [("1", "et3p_3")],
    ("23p", "23p"): [("1", "et2_2"), ("-1", "et3_3")],
}

N_TORSION = {
    "11": {("vpi13", "vpi13p"): "2"},
    "12": {("vpi13", "vpi23p"): "1", ("vpi23", "vpi13p"): "1"},
    "22": {("vpi23", "vpi23p"): "2"},
}


def omega_entry(ctx: CoframedContext, block: Mapping, row: str, col: str) -> Form:
    f = ctx.zero()
    for c, name in block.get((row, col), ()):
        f = f + ctx.gen(name).scale(Scalar.parse(c))
    return f


def block_row_rule(ctx, row, parts):
    """-sum Omega[row,col] ^ generator(col) over (block, keys, name) parts."""
    f = ctx.zero()
    for block, keys, col_name in parts:
        for col in keys:
            ent = omega_entry(ctx, block, row, col)
            if not ent.is_zero():
                f = f + (ent ^ ctx.gen(col_name(col))).scale(Scalar.rational(-1))
    return f


# --------------------------------------------------------------------------
# derivative tables
# --------------------------------------------------------------------------

@dataclass
class DerivativeTable:
    """d of curvature symbols as coefficient rows over the model coframe.

    rules[sym] maps generator names to coefficients; tails at semibasic
    generators are (possibly rewritten) first/second derivative symbols,
    vertical parts are linear in lower-order symbols.  relations is the
    basis of linear relations among derivative symbols that d^2 = 0 forces;
    rules are already written in terms of the free symbols only.
    """

    rules: dict = field(default_factory=dict)
    relations: list = field(default_factory=list)
    eliminations: dict = field(default_factory=dict)

    def rule_form(self, ctx: CoframedContext, sym: str) -> Form:
        coeffs = self.rules[sym]
        return ctx.form({(g,): c for g, c in coeffs.items() if not c.is_zero()})

    def reduce_scalar(self, s: Scalar) -> Scalar:
        return s.substitute(self.eliminations)

    def to_json(self) -> str:
        payload = {
            "rules": {
                sym: {g: str(c) for g, c in row.items() if not c.is_zero()}
                for sym, row in sorted(self.rules.items())
            },
            "relations": [str(r) for r in self.relations],
            "eliminations": {k: str(v) for k, v in sorted(self.eliminations.items())},
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DerivativeTable":
        payload = json.loads(text)
        return DerivativeTable(
            {
                sym: {g: Scalar.parse(c) for g, c in row.items()}
                for sym, row in payload["rules"].items()
            },
            [Scalar.parse(r) for r in payload["relations"]],
            {k: Scalar.parse(v) for k, v in payload["eliminations"].items()},
        )


def _base_context(label="M") -> CoframedContext:
    ctx = CoframedContext(list(SEMIBASIC) + list(CONNECTION), label=label)
    rules = mc_rules(g2_model(), ctx)
    kf = curvature_forms(ctx)
    for name in ctx.names():
        r = rules[name]
        if name in kf:
            r = r + kf[name]
        ctx.set_rule(name, r)
    return ctx


def _symbol_row(sym: str, vertical: Mapping[str, Scalar]) -> dict:
    """Rule row of a symbol: the vertical part plus its derivative tail."""
    row = dict(vertical)
    for sb in SEMIBASIC:
        row[sb] = Scalar.symbol(derivative_symbol(sym, SLOT_OF[sb]))
    return row


def _d_squared(ctx: CoframedContext, name: str) -> Form:
    """d² of a generator or of a function symbol of the context."""
    if name in ctx.rules.d_of_generator:
        return ctx.d_rule(name).d()
    return ctx.d_scalar(Scalar.symbol(name)).d()


# ---- elimination priority for relation pivots -----------------------------

# Symbols named by the staged reduction displays must never be rewritten,
# so relation pivots prefer everything else.
_KEEP = {
    "A3_0", "B3_1p", "B4_1p", "A4_1p",
    "A5_0", "A5_1", "B4_1", "A5_0_1", "A5_0_1p",
}


def _pivot_key(sym: str) -> tuple:
    base, slots = split_symbol(sym)
    keep = sym in _KEEP or not slots
    # eliminate: deeper first, non-kept first, late families first
    return (len(slots), 0 if keep else 1, CURVATURE_SYMBOLS.index(base), slots)


def reduce_relations(relations: Sequence[Scalar],
                     elim: Mapping[str, Scalar] | None = None) -> tuple[list, dict, list]:
    """Gaussian-reduce relations among curvature symbols.

    Relations are taken in the given order, each with the eliminations
    found so far substituted.  The pivot of a relation is chosen among the
    symbols whose coefficient is a nonzero constant, by the largest
    ``_pivot_key``: the deepest derivative, then a symbol outside ``_KEEP``
    (base symbols count as kept), then the later base in ``CURVATURE_SYMBOLS``,
    then the later slots.  The solved value is substituted into every
    earlier elimination.

    A relation with no such pivot is set aside and retried, in order, after
    the pass over the others; passes repeat until one eliminates nothing.
    Returns (basis, elim, stuck): the pivot relations as they stood when
    used, the elimination map (no value mentions an eliminated symbol), and
    the nonzero relations left without a constant pivot, fully reduced.

    ``elim`` resumes a reduction: an elimination map returned earlier, whose
    pivots the new relations are reduced against and whose values get each
    new pivot substituted.  The map passed in is not changed; the returned
    map starts with its keys, and the basis lists only the new pivots.
    """
    basis: list[Scalar] = []
    elim = dict(elim) if elim else {}
    stuck: list[Scalar] = list(relations)
    progress = True
    while progress:
        progress = False
        pending, stuck = stuck, []
        for rel in pending:
            r = rel.substitute(elim) if elim else rel
            if r.is_zero():
                continue
            cands = []
            for sym in sorted(r.symbols()):
                c = r.partial(sym)
                if c.is_constant() and not c.is_zero():
                    cands.append((_pivot_key(sym), sym, c))
            if not cands:
                stuck.append(r)
                continue
            _, sym, c = max(cands)
            rest = r.substitute({sym: Scalar.zero()})
            value = -(rest / c)
            elim = {k: v.substitute({sym: value}) for k, v in elim.items()}
            elim[sym] = value
            basis.append(r)
            progress = True
    return basis, elim, stuck


def _extend_table(below: DerivativeTable, syms: Sequence[str],
                  roots: Sequence[str]) -> DerivativeTable:
    """One prolongation step: rules for ``syms`` on top of ``below``.

    Each new symbol gets a rule with unknown vertical coefficients and its
    derivative symbols on the semibasic generators.  In d² of each root (a
    generator or a symbol) every slot with exactly one connection generator
    is linear in that generator's unknowns; these slots make one exactly
    determined block per connection generator.  Slots with no connection
    generator are relations among derivative symbols, reduced after the
    blocks are solved; slots with several must vanish.  A block coefficient
    with an unknown that is not linear, or that belongs to another block,
    raises Inconsistent.
    """
    unknown = {(sym, v): f"_u_{sym}_{v}" for sym in syms for v in CONNECTION}
    rows = {
        sym: _symbol_row(sym, {v: Scalar.symbol(unknown[sym, v]) for v in CONNECTION})
        for sym in syms
    }
    ctx = build_M_context(table=DerivativeTable(below.rules | rows), label="M-extend")

    blocks: dict[str, list] = {v: [] for v in CONNECTION}
    relations: list[Scalar] = []
    for root in roots:
        for idx, c in _d_squared(ctx, root).terms.items():
            names = (ctx.generators[i].name for i in idx)
            conn = [n for n in names if n in CONNECTION]
            if len(conn) == 1:
                blocks[conn[0]].append(c)
            elif not conn:
                relations.append(c)
            else:  # a Form holds no zero term, so this slot does not vanish
                raise Inconsistent(
                    f"unexpected vertical-slot residual in d²({root}): {c}"
                )

    unknowns = set(unknown.values())
    solution: dict[str, Scalar] = {}
    for v in CONNECTION:
        cols = [unknown[sym, v] for sym in syms]
        col_of = {u: j for j, u in enumerate(cols)}
        mat, rhs = [], []
        for c in blocks[v]:
            row, rest = _read_unknowns(c, col_of, unknowns)
            mat.append(row)
            rhs.append(-rest)
        sol = solve_linear(mat, rhs)
        if sol.inconsistent or sol.particular is None:
            raise Inconsistent(f"vertical block {v} unsolvable")
        if sol.nullspace:
            raise Inconsistent(f"vertical block {v} underdetermined")
        solution.update(zip(cols, sol.particular))

    basis, elim, stuck = reduce_relations([r.substitute(solution) for r in relations])
    if stuck:
        raise Inconsistent(f"relation with no linear pivot: {stuck[0]}")
    elim = below.eliminations | elim

    table = DerivativeTable(dict(below.rules), below.relations + basis, elim)
    for sym in syms:
        row = _symbol_row(sym, {v: solution[unknown[sym, v]] for v in CONNECTION})
        reduced = {g: c.substitute(elim) for g, c in row.items()}
        table.rules[sym] = {g: c for g, c in reduced.items() if not c.is_zero()}
    _verify_closure(table, list(below.rules))
    return table


def _read_unknowns(c: Scalar, col_of: Mapping[str, int],
                   unknowns: set) -> tuple[list, Scalar]:
    """Split c into its coefficients on the block's unknowns and the rest.

    One pass over the terms of c: a term q·u, with q a constant and u an
    unknown of the block (``col_of`` gives its column), fills that column;
    a term free of ``unknowns`` joins the rest.  Any other term, an unknown
    squared, times a symbol or of another block, raises Inconsistent.
    """
    row = [Scalar.zero()] * len(col_of)
    rest = {}
    for m, q in c.terms.items():
        if not any(name in unknowns for name, _ in m):
            rest[m] = q
            continue
        if len(m) != 1 or m[0][1] != 1:
            raise Inconsistent(f"nonlinear unknown coefficient: {c}")
        u = m[0][0]
        if u not in col_of:
            raise Inconsistent(f"unknown {u} of another block: {c}")
        row[col_of[u]] = Scalar({(): q})
    return row, Scalar(rest)


def _verify_closure(table: DerivativeTable, symbols: Sequence[str]):
    """d² of every generator and of the given symbols must vanish.

    Only symbols one level below the table depth can be checked: deeper
    residuals would need derivative rules the table does not carry.
    """
    ctx = build_M_context(table=table, label="M-closure-check")
    for name in ctx.names() + list(symbols):
        r = _d_squared(ctx, name)
        if not r.is_zero():
            bad = {idx: str(c) for idx, c in r.terms.items()}
            raise Inconsistent(f"d²({name}) nonzero after reconstruction: {bad}")


@lru_cache(maxsize=1)
def reconstruct_level1() -> DerivativeTable:
    """Solve d² = 0 of the curved coframe for all first-derivative data."""
    return _extend_table(DerivativeTable(), CURVATURE_SYMBOLS, SEMIBASIC + CONNECTION)


def free_derivative_symbols(table: DerivativeTable) -> list:
    """Derivative symbols still appearing in rule tails, deepest level last."""
    seen = set()
    for row in table.rules.values():
        for c in row.values():
            for s in c.symbols():
                base, slots = split_symbol(s)
                if slots and s not in table.rules:
                    seen.add(s)
    return sorted(seen, key=lambda s: (len(split_symbol(s)[1]), s))


@lru_cache(maxsize=1)
def reconstruct_level2() -> DerivativeTable:
    """Extend the level-1 table with rules for every free first derivative.

    The level-1 eliminations couple the families, so all free symbols are
    solved together from d² of the base functions: the mixed
    connection/semibasic slots determine the vertical parts, and the
    pure-semibasic slots yield the commutation relations among the
    second-derivative symbols.
    """
    t1 = reconstruct_level1()
    return _extend_table(t1, free_derivative_symbols(t1), CURVATURE_SYMBOLS)


def reconstruct_derivatives(depth: int = 1) -> DerivativeTable:
    """The level-1 table (depth 1) or the level-2 table (depth 2)."""
    return reconstruct_level1() if depth == 1 else reconstruct_level2()


# --------------------------------------------------------------------------
# curvature specs and public context builders
# --------------------------------------------------------------------------

_CURVATURE_SYMBOL = re.compile("(?:{})(?:_(?:{}))*".format(
    "|".join(map(re.escape, CURVATURE_SYMBOLS)), "|".join(map(re.escape, SLOTS))))


@lru_cache(maxsize=4096)
def _is_curvature_symbol(name: str) -> bool:
    """A base of CURVATURE_SYMBOLS followed by derivative slots of SLOTS.

    Cached per process: the specs of one process name symbols from the
    same vocabulary, so each name is matched once.
    """
    return _CURVATURE_SYMBOL.fullmatch(name) is not None


@lru_cache(maxsize=256)
def _parse_value(text: str) -> Scalar:
    """``Scalar.parse`` of a binding value text, cached per process.

    Specs may share the cached Scalar, because no Scalar is mutated in
    place.  A text that does not parse raises on every call: lru_cache
    does not cache exceptions.  Under the bound a text that recurs across
    specs stays, since each use moves it to the front, and a text read
    once (about 0.5 kB for a d6 value plus a constant) is evicted in time.
    """
    return Scalar.parse(text)


@dataclass
class CurvatureSpec:
    bindings: dict = field(default_factory=dict)
    relations: list = field(default_factory=list)

    @staticmethod
    def from_json(text: str) -> "CurvatureSpec":
        """Read a spec: an object with ``bindings`` (curvature symbol to
        scalar text or number) and ``relations`` (a list of scalar texts),
        and no other key.

        Symbol names and binding value texts are cached per process
        (``_is_curvature_symbol``, ``_parse_value``), so a name or value
        text is checked or parsed once however many specs carry it, and the
        bindings that share a value text share one Scalar.  Both caches are
        bounded, and neither caches an error.  A malformed spec, an unknown
        key, an unknown symbol, a JSON boolean or a value that does not
        parse raises InconsistentSpec naming the first key, binding or
        relation that carries it, on every read.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise InconsistentSpec("spec must be a JSON object")
        unknown = sorted(set(payload) - {"bindings", "relations"})
        if unknown:
            raise InconsistentSpec(f"unknown spec key {unknown[0]!r}")
        raw_bindings = payload.get("bindings", {})
        if not isinstance(raw_bindings, dict):
            raise InconsistentSpec("spec bindings must be a JSON object")
        raw_relations = payload.get("relations", [])
        if not isinstance(raw_relations, list) or not all(
            isinstance(r, str) for r in raw_relations
        ):
            raise InconsistentSpec("spec relations must be a list of strings")
        bindings = {}
        for name, value in raw_bindings.items():
            if not _is_curvature_symbol(name):
                raise InconsistentSpec(f"unknown curvature symbol {name!r} in bindings")
            if isinstance(value, bool):
                raise InconsistentSpec(
                    f"bad value for binding {name!r}: {json.dumps(value)} is not a number")
            try:
                if isinstance(value, str):
                    bindings[name] = _parse_value(value)
                else:
                    bindings[name] = Scalar.of(value)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise InconsistentSpec(f"bad value for binding {name!r}: {exc}") from exc
        relations = []
        for text in raw_relations:
            try:
                rel = Scalar.parse(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise InconsistentSpec(f"bad relation {text!r}: {exc}") from exc
            unknown = sorted(s for s in rel.symbols() if not _is_curvature_symbol(s))
            if unknown:
                raise InconsistentSpec(
                    f"bad relation {text!r}: unknown curvature symbol {unknown[0]!r}")
            relations.append(rel)
        return CurvatureSpec(bindings, relations)

    def validate(self):
        for rel in self.relations:
            v = rel.substitute(self.bindings)
            if v.is_constant() and not v.is_zero():
                raise InconsistentSpec(f"binding violates relation {rel} = 0")


def build_M_context(
    spec: CurvatureSpec | None = None,
    table: DerivativeTable | None = None,
    label: str = "M",
) -> CoframedContext:
    """Curved model context, optionally with curvature values substituted."""
    ctx = _base_context(label)
    if table is not None:
        for sym, row in table.rules.items():
            ctx.set_symbol_rule(sym, table.rule_form(ctx, sym))
    if spec is not None:
        spec.validate()
        b = spec.bindings
        for name in ctx.names():
            ctx.set_rule(name, ctx.d_rule(name).substitute_scalars(b))
        for sym in list(ctx.rules.d_of_symbol):
            if sym in b:
                del ctx.rules.d_of_symbol[sym]
            else:
                ctx.set_symbol_rule(
                    sym, ctx.rules.d_of_symbol[sym].substitute_scalars(b)
                )
    return ctx


def build_N_context(label: str = "N") -> CoframedContext:
    alg = sp6_model()
    ctx = CoframedContext(alg.names, label=label)
    for name, rule in mc_rules(alg, ctx).items():
        ctx.set_rule(name, rule)
    return ctx
