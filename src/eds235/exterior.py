"""Exterior algebra over a coframed context.

A CoframedContext is an ordered list of 1-form generators together with two
derivation rule tables: d of each generator, and d of each function symbol
that may appear in coefficients.  Forms are sparse maps from strictly
increasing generator index tuples to scalars.  Everything is exact.

Sums are accumulated in place: ``d``, ``d_scalar``, ``form``,
``substitute_generator``, ``+``, ``-`` and the row updates of ``reduce_mod``
add each contribution straight into one term dict with ``_add_into`` or
``_sub_into``, which delete a key whose sum cancels, and wrap the result
with ``Form._wrap`` instead of building a throwaway Form per step.

Term order is observable (the derivative-table JSON and the order of
derived relations follow it), so these loops keep the order of the
compositional definitions they replace: contributions are added in the
same sequence, each to the running sum as ``sum + contribution``, and a
cancelled key is deleted at once, so it re-enters at the end, as it did
when every partial sum was a filtered Form.  ``wedge`` is different: it
accumulates every product first and drops the zeros once at the end.

``reduce_mod`` is the one reduction modulo a Pfaffian ideal: every caller,
the jet's contact quotient included, takes its normal form.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .scalar import Scalar


class ContextMismatch(Exception):
    """Operands built over different coframed contexts."""


class MissingRule(Exception):
    """No derivation rule for a generator or symbol that was differentiated."""

    def __init__(self, name: str):
        super().__init__(f"no derivation rule for {name!r}")
        self.name = name


class DependentGenerators(Exception):
    """reduce_mod was given 1-forms that are linearly dependent."""


@dataclass(frozen=True)
class Generator:
    name: str
    index: int


class Form:
    """Exterior form: sparse {strictly increasing index tuple -> Scalar}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: "CoframedContext", terms: Mapping[tuple, Scalar]):
        self.ctx = ctx
        self.terms = {i: c for i, c in terms.items() if not c.is_zero()}

    @classmethod
    def _wrap(cls, ctx: "CoframedContext", terms: dict) -> "Form":
        """A Form owning ``terms``, which must hold no zero coefficient."""
        f = cls.__new__(cls)
        f.ctx = ctx
        f.terms = terms
        return f

    # ---- basics ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        degs = {len(i) for i in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("mixed-degree form has no single degree")
        return degs.pop()

    def _check(self, o: "Form"):
        if self.ctx is not o.ctx:
            raise ContextMismatch(
                f"forms over different contexts ({self.ctx.label} vs {o.ctx.label})"
            )

    def __add__(self, o: "Form") -> "Form":
        self._check(o)
        t = dict(self.terms)
        for i, c in o.terms.items():
            _add_into(t, i, c)
        return Form._wrap(self.ctx, t)

    def __neg__(self) -> "Form":
        return Form._wrap(self.ctx, {i: -c for i, c in self.terms.items()})

    def __sub__(self, o: "Form") -> "Form":
        self._check(o)
        t = dict(self.terms)
        for i, c in o.terms.items():
            _sub_into(t, i, c)
        return Form._wrap(self.ctx, t)

    def scale(self, c: Scalar) -> "Form":
        if c.is_zero():
            return Form._wrap(self.ctx, {})
        # no zero divisors: a product of nonzero polynomials is nonzero
        return Form._wrap(self.ctx, {i: k * c for i, k in self.terms.items()})

    def __eq__(self, o) -> bool:
        """Equal contexts and equal terms; coefficients are canonical Scalars."""
        if not isinstance(o, Form):
            return NotImplemented
        return self.ctx is o.ctx and self.terms == o.terms

    def __hash__(self):
        return hash((id(self.ctx), frozenset(self.terms)))

    # ---- multiplication ---------------------------------------------------
    def wedge(self, o: "Form") -> "Form":
        self._check(o)
        out: dict = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in o.terms.items():
                r = _sorted_concat(i1, i2)
                if r is None:
                    continue
                idx, sign = r
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = out.get(idx)
                out[idx] = c if s is None else s + c
        return Form(self.ctx, out)

    def __xor__(self, o: "Form") -> "Form":  # f ^ g sugar in tests/demos
        return self.wedge(o)

    # ---- differentiation ---------------------------------------------------
    def d(self) -> "Form":
        """Leibniz rule, summed into one term dict.

        For each term c·g_1∧…∧g_k, in term order: d(c) ∧ monomial, then for
        each position (-1)^pos · c · g_1∧…∧d(g_pos)∧…∧g_k.
        """
        ctx = self.ctx
        gens = ctx.generators
        out: dict = {}
        for idx, c in self.terms.items():
            for i1, c1 in ctx.d_scalar(c).terms.items():
                r = _sorted_concat(i1, idx)
                if r is not None:
                    _add_into(out, r[0], c1 if r[1] > 0 else -c1)
            for pos, gi in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1 :]
                lead = -1 if pos % 2 else 1
                for ri, rc in ctx.d_rule(gens[gi].name).terms.items():
                    r = _splice(rest, pos, ri)
                    if r is not None:
                        cc = c * rc
                        _add_into(out, r[0], cc if r[1] == lead else -cc)
        return Form._wrap(ctx, out)

    # ---- access -------------------------------------------------------------
    def coefficient(self, names: Sequence[str]) -> Scalar:
        """Coefficient of the wedge of the named generators, in given order.

        The lookup is sign-adjusted: asking for an unordered tuple returns
        the stored coefficient times the permutation sign.
        """
        idx = tuple(self.ctx.index_of(n) for n in names)
        r = _sorted_concat(idx[:1], idx[1:]) if len(idx) > 1 else (idx, 1)
        if r is None:
            return Scalar.zero()
        key, sign = r
        c = self.terms.get(key, Scalar.zero())
        return c if sign > 0 else -c

    def substitute_scalars(self, bindings: Mapping[str, Scalar]) -> "Form":
        return Form(
            self.ctx, {i: c.substitute(bindings) for i, c in self.terms.items()}
        )

    def generators_present(self) -> set:
        out: set = set()
        for i in self.terms:
            out.update(i)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            mono = "^".join(self.ctx.generators[i].name for i in idx) or "1"
            cs = str(c)
            if any(ch in cs for ch in "+-") and not (
                cs.startswith("-") and not any(ch in cs[1:] for ch in "+-")
            ):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if cs not in ("1",) else mono)
        return " + ".join(parts)

    def __repr__(self):
        return f"Form({self})"


def _add_into(t: dict, idx: tuple, c: Scalar) -> None:
    """t[idx] += c for a nonzero c, deleting the key if the sum cancels."""
    s = t.get(idx)
    if s is None:
        t[idx] = c
        return
    c = s + c
    if c.is_zero():
        del t[idx]
    else:
        t[idx] = c


def _sub_into(t: dict, idx: tuple, c: Scalar) -> None:
    """t[idx] -= c for a nonzero c, deleting the key if the difference cancels."""
    s = t.get(idx)
    if s is None:
        t[idx] = -c
        return
    c = s - c
    if c.is_zero():
        del t[idx]
    else:
        t[idx] = c


def _splice(rest: tuple, pos: int, ins: tuple) -> tuple[tuple, int] | None:
    """Sort rest[:pos] + ins + rest[pos:], with the sign of the permutation.

    rest and ins are strictly increasing; None if they share an index.  The
    inversions are Σ_j |#{r in rest : r < j} − pos| over j in ins.
    """
    n = 0
    for j in ins:
        if j in rest:
            return None
        k = bisect_left(rest, j)
        n += k - pos if k > pos else pos - k
    return tuple(sorted(rest + ins)), -1 if n % 2 else 1


def _sorted_concat(i1: tuple, i2: tuple) -> tuple[tuple, int] | None:
    """Concatenate two strictly increasing tuples, sorting with sign."""
    if not i2:
        return i1, 1
    if not i1:
        return i2, 1
    merged = list(i1)
    sign = 1
    for j in i2:
        if j in merged:
            return None
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > j:
            pos -= 1
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, j)
    return tuple(merged), sign


@dataclass
class DerivationRules:
    d_of_generator: dict
    d_of_symbol: dict = field(default_factory=dict)


class CoframedContext:
    """Ordered generators plus derivation rules; owner of all Forms."""

    def __init__(self, names: Sequence[str], label: str = "ctx"):
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.label = label
        self.generators = [Generator(n, i) for i, n in enumerate(names)]
        self._index = {n: i for i, n in enumerate(names)}
        self.rules = DerivationRules({}, {})

    # ---- structure -----------------------------------------------------
    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a generator of {self.label}") from None

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    def _own(self, form: "Form"):
        if form.ctx is not self:
            raise ContextMismatch(
                f"form over {form.ctx.label} used in {self.label}")

    def set_rule(self, name: str, form: "Form"):
        self.index_of(name)
        self._own(form)
        self.rules.d_of_generator[name] = form

    def set_symbol_rule(self, sym: str, form: "Form"):
        self._own(form)
        self.rules.d_of_symbol[sym] = form

    def d_rule(self, name: str) -> "Form":
        r = self.rules.d_of_generator.get(name)
        if r is None:
            raise MissingRule(name)
        return r

    def d_scalar(self, c: Scalar) -> "Form":
        """Σ over the symbols s of c, in sorted order, of d(s) · ∂c/∂s."""
        out: dict = {}
        for sym in sorted(c.symbols()):
            p = c.partial(sym)
            if p.is_zero():
                continue
            rule = self.rules.d_of_symbol.get(sym)
            if rule is None:
                raise MissingRule(sym)
            for i, k in rule.terms.items():
                _add_into(out, i, k * p)
        return Form._wrap(self, out)

    # ---- form constructors ----------------------------------------------
    def zero(self) -> Form:
        return Form._wrap(self, {})

    def gen(self, name: str) -> Form:
        return Form._wrap(self, {(self.index_of(name),): Scalar.one()})

    def form(self, terms: Mapping[Sequence[str], object]) -> Form:
        """Σ c · n_1∧…∧n_k over the entries, the names in the given order."""
        out: dict = {}
        for names, c in terms.items():
            if isinstance(names, str):
                names = (names,)
            c = Scalar.of(c)
            key = tuple(self.index_of(n) for n in names)
            r = _sorted_concat(key[:1], key[1:])
            if r is not None and not c.is_zero():
                _add_into(out, r[0], c if r[1] > 0 else -c)
        return Form._wrap(self, out)

    def scalar_form(self, c: Scalar) -> Form:
        return Form(self, {(): c})

    # ---- integrability --------------------------------------------------
    def check_context(self) -> dict:
        """d² residual of every generator; empty dict means flat/consistent."""
        out = {}
        for g in self.generators:
            rule = self.rules.d_of_generator.get(g.name)
            if rule is None:
                raise MissingRule(g.name)
            r = rule.d()
            if not r.is_zero():
                out[g.name] = r
        return out

    # ---- substitution -----------------------------------------------------
    def substitute_generator(self, f: Form, name: str, replacement: Form) -> Form:
        """Rewrite every occurrence of the named generator by a 1-form.

        Terms without the generator keep their place; the rewritten terms
        are summed apart and then added, in order.
        """
        self._own(replacement)
        k = self.index_of(name)
        out: dict = {}
        extra: dict = {}
        for idx, c in f.terms.items():
            if k not in idx:
                out[idx] = c
                continue
            pos = idx.index(k)
            rest = idx[:pos] + idx[pos + 1 :]
            # prefix ∧ replacement ∧ suffix sits exactly where the generator was
            for ri, rc in replacement.terms.items():
                r = _splice(rest, pos, ri)
                if r is not None:
                    cc = c * rc
                    _add_into(extra, r[0], cc if r[1] > 0 else -cc)
        for idx, c in extra.items():
            _add_into(out, idx, c)
        return Form._wrap(self, out)


def reduce_mod(f: Form, ideal_gens: Sequence[Form]) -> Form:
    """Normal form of f modulo the algebraic ideal of the given 1-forms.

    The 1-forms are row-reduced (Gauss–Jordan), each pivoting on its
    highest present generator not already a pivot (deterministic; raises
    DependentGenerators if they are not independent).  Each pivot generator
    is then substituted by itself minus its reduced 1-form, in pivot order,
    so the normal form contains no pivot generator and differs from f by an
    element of the ideal.
    """
    ctx = f.ctx
    for g in ideal_gens:
        if g.ctx is not ctx:
            raise ContextMismatch("ideal generator over a different context")
        if g.degree() != 1:
            raise ValueError("reduce_mod expects 1-form ideal generators")

    work = list(ideal_gens)
    pivots: list[int] = []  # generator index of row i
    for i, g in enumerate(work):
        cand = [j for j in g.generators_present() if j not in pivots]
        if not cand:
            raise DependentGenerators(f"generator {i} reduces to zero")
        p = max(cand)
        g = work[i] = g.scale(g.terms[(p,)].inverse())
        for j, h in enumerate(work):
            cj = h.terms.get((p,))
            if j != i and cj is not None:
                t = dict(h.terms)
                for idx, c in g.terms.items():
                    _sub_into(t, idx, c * cj)
                work[j] = Form._wrap(ctx, t)
        pivots.append(p)

    # pivot generator ≡ pivot − reduced row  (mod ideal)
    out = f
    for g, p in zip(work, pivots):
        name = ctx.generators[p].name
        out = ctx.substitute_generator(out, name, ctx.gen(name) - g)
    if not out.generators_present().isdisjoint(pivots):
        raise AssertionError("normal form keeps a pivot generator")
    return out


def eliminate(
    ctx: CoframedContext,
    replacements: Mapping[str, Form],
    label: str | None = None,
) -> tuple[CoframedContext, Callable[[Form], Form]]:
    """Quotient context with some generators rewritten as 1-forms in the rest.

    Replacement forms must not mention any eliminated generator.  Returns the
    new context and a transfer map old-Form -> new-Form; derivation rules of
    kept generators and of symbols are transferred automatically.
    """
    dropped = set(replacements)
    for name, r in replacements.items():
        bad = {ctx.generators[i].name for i in r.generators_present()} & dropped
        if bad:
            raise ValueError(f"replacement for {name} mentions eliminated {bad}")
    keep = [g.name for g in ctx.generators if g.name not in dropped]
    new = CoframedContext(keep, label or f"{ctx.label}/reduced")

    def transfer(f: Form) -> Form:
        for name, r in replacements.items():
            f = ctx.substitute_generator(f, name, r)
        return reindex(f, new)

    for name in keep:
        rule = ctx.rules.d_of_generator.get(name)
        if rule is not None:
            new.set_rule(name, transfer(rule))
    for sym, rule in ctx.rules.d_of_symbol.items():
        new.set_symbol_rule(sym, transfer(rule))
    return new, transfer


def reindex(form: Form, target: CoframedContext) -> Form:
    """Rebuild a form on another context that shares its generator names."""
    names = form.ctx.generators
    return target.form({
        tuple(names[i].name for i in idx): c for idx, c in form.terms.items()
    })


def extend(
    ctx: CoframedContext,
    new_names: Sequence[str],
    label: str | None = None,
) -> tuple[CoframedContext, Callable[[Form], Form]]:
    """Context with extra generators appended; old forms transfer unchanged."""
    new = CoframedContext(ctx.names() + list(new_names), label or ctx.label)

    def transfer(f: Form) -> Form:
        return Form(new, dict(f.terms))

    for name, rule in ctx.rules.d_of_generator.items():
        new.set_rule(name, transfer(rule))
    for sym, rule in ctx.rules.d_of_symbol.items():
        new.set_symbol_rule(sym, transfer(rule))
    return new, transfer
