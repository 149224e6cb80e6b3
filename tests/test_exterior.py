"""Form algebra: wedge/d axioms, context checking, ideal reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from eds235.exterior import (
    CoframedContext,
    ContextMismatch,
    DependentGenerators,
    Form,
    MissingRule,
    eliminate,
    extend,
    reduce_mod,
)
from eds235.scalar import Scalar


def heisenberg():
    """Toy flat context: dc = a∧b, symbols x,y with dx = a, dy = b."""
    ctx = CoframedContext(["a", "b", "c"], label="heis")
    ctx.set_rule("a", ctx.zero())
    ctx.set_rule("b", ctx.zero())
    ctx.set_rule("c", ctx.gen("a").wedge(ctx.gen("b")))
    ctx.set_symbol_rule("x", ctx.gen("a"))
    ctx.set_symbol_rule("y", ctx.gen("b"))
    return ctx


@st.composite
def forms(draw, ctx, degree):
    """Homogeneous form of the given degree with polynomial coefficients."""
    names = ctx.names()
    nterms = draw(st.integers(0, 4))
    f = ctx.zero()
    for _ in range(nterms):
        mono = draw(
            st.lists(st.sampled_from(names), min_size=degree, max_size=degree,
                     unique=True)
        )
        coef = Scalar.rational(draw(st.integers(-6, 6)))
        for s in draw(st.lists(st.sampled_from(["x", "y"]), max_size=2)):
            coef = coef * Scalar.symbol(s)
        f = f + ctx.form({tuple(mono): coef})
    return f


CTX = heisenberg()


@settings(max_examples=50, deadline=None)
@given(forms(CTX, 1), forms(CTX, 1), forms(CTX, 2))
def test_wedge_axioms(a, b, c):
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)
    assert a.wedge(b + b) == a.wedge(b) + a.wedge(b)
    assert a.wedge(a).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), forms(CTX, k))),
       forms(CTX, 2))
def test_leibniz_and_d_squared(ka, b):
    k, a = ka
    lhs = (a.wedge(b)).d()
    sign = -1 if k % 2 else 1
    rhs = a.d().wedge(b) + (a.wedge(b.d())).scale(Scalar.rational(sign))
    assert lhs == rhs
    assert a.d().d().is_zero()
    assert b.d().d().is_zero()


def test_check_context_flat_and_broken():
    ctx = heisenberg()
    assert ctx.check_context() == {}
    # an extra generator whose rule is not closed: d(e) = y·a∧c with dy = b
    big, up = extend(ctx, ["e"])
    big.set_symbol_rule("y", big.gen("b"))
    big.set_rule(
        "e", big.gen("a").wedge(big.gen("c")).scale(Scalar.symbol("y"))
    )
    res = big.check_context()
    assert set(res) == {"e"}
    assert res["e"] == big.form({("a", "b", "c"): -1})


def test_missing_rule_names_offender():
    ctx = CoframedContext(["a", "b"])
    ctx.set_rule("a", ctx.zero())
    with pytest.raises(MissingRule) as ei:
        ctx.gen("b").d()
    assert ei.value.name == "b"
    f = ctx.scalar_form(Scalar.symbol("q"))
    with pytest.raises(MissingRule) as ei2:
        f.d()
    assert ei2.value.name == "q"


def test_context_mismatch():
    c1, c2 = heisenberg(), heisenberg()
    with pytest.raises(ContextMismatch):
        c1.gen("a").wedge(c2.gen("b"))
    with pytest.raises(ContextMismatch):
        c1.gen("a") + c2.gen("a")
    with pytest.raises(ContextMismatch):
        c1.gen("a") - c2.gen("a")
    # rules are checked when set, since d reads their terms directly
    with pytest.raises(ContextMismatch):
        c1.set_rule("c", c2.gen("a").wedge(c2.gen("b")))
    with pytest.raises(ContextMismatch):
        c1.set_symbol_rule("x", c2.gen("a"))
    with pytest.raises(ContextMismatch):
        c1.substitute_generator(c1.gen("c"), "c", c2.gen("a"))


def test_coefficient_sign_adjusted():
    f = CTX.form({("a", "b"): 2, ("b", "c"): 5})
    assert f.coefficient(["a", "b"]) == Scalar.rational(2)
    assert f.coefficient(["b", "a"]) == Scalar.rational(-2)
    assert f.coefficient(["c", "b"]) == Scalar.rational(-5)
    assert f.coefficient(["a", "c"]).is_zero()


def test_substitute_generator():
    # c ↦ x·a + b inside a∧c + c∧b
    f = CTX.form({("a", "c"): 1, ("b", "c"): 3})
    repl = CTX.form({("a",): Scalar.symbol("x"), ("b",): 1})
    got = CTX.substitute_generator(f, "c", repl)
    want = CTX.form({("a", "b"): 1}) + CTX.form({("a", "b"): -3}).scale(
        Scalar.symbol("x")
    )
    assert got == want


def test_reduce_mod_normal_form_and_multipliers():
    ctx = heisenberg()
    x = Scalar.symbol("x")
    # ideal generated by (c + x·a) and (b − a)
    g1 = ctx.form({("c",): 1, ("a",): x})
    g2 = ctx.form({("b",): 1, ("a",): -1})
    f = ctx.form({("a", "b"): 1, ("b", "c"): 1, ("a",): 5})
    nf = reduce_mod(f, [g1, g2])
    # pivots are c (for g1) and b (for g2): nothing with b or c survives
    assert nf == ctx.form({("a",): 5})
    # f − nf lies in the ideal, with these multipliers
    a = ctx.gen("a")
    witness = g1.wedge(-a) + g2.wedge(g1 - a.scale(Scalar.one() + x))
    assert f - nf == witness
    # idempotence
    assert reduce_mod(nf, [g1, g2]) == nf


def test_reduce_mod_dependent_generators():
    ctx = heisenberg()
    g1 = ctx.form({("a",): 1, ("b",): 2})
    g2 = ctx.form({("a",): 2, ("b",): 4})
    with pytest.raises(DependentGenerators):
        reduce_mod(ctx.gen("c"), [g1, g2])


def test_reduce_mod_on_higher_degree():
    ctx = heisenberg()
    g = ctx.form({("c",): 1, ("a",): -2})  # c ≡ 2a mod ideal
    f = ctx.form({("a", "b", "c"): 7, ("b", "c"): 1})
    assert reduce_mod(f, [g]) == ctx.form({("a", "b"): -2})


def test_eliminate_and_extend():
    ctx = heisenberg()
    new, tr = eliminate(ctx, {"c": ctx.form({("a",): 2, ("b",): -1})})
    assert new.names() == ["a", "b"]
    f = ctx.form({("b", "c"): 1})
    assert tr(f) == new.form({("a", "b"): -2})
    # transferred rules keep d consistent
    assert tr(ctx.gen("a").d()) == new.gen("a").d()

    big, up = extend(ctx, ["w"])
    assert big.names() == ["a", "b", "c", "w"]
    assert up(ctx.gen("c")).terms == big.gen("c").terms
    big.set_rule("w", up(ctx.gen("a").wedge(ctx.gen("b"))))
    assert big.gen("w").d() == up(ctx.gen("c")).d()



def test_equal_forms_hash_equal():
    x = Scalar.symbol("x")
    f = CTX.form({("a", "b"): x, ("c",): 2})
    g = CTX.form({("b", "a"): -x, ("c",): 1}) + CTX.gen("c")
    assert f == g and hash(f) == hash(g)
    assert f != g + CTX.gen("a")
    assert f != heisenberg().form({("a", "b"): x, ("c",): 2})


# ---- reference: the compositional definitions that build a Form per step ----

CANCELLED = []  # keys whose partial sum cancelled in a _ref_add


def _ref_add(f, g):
    t = dict(f.terms)
    for i, c in g.terms.items():
        s = t.get(i)
        t[i] = c if s is None else s + c
        if t[i].is_zero():
            CANCELLED.append(i)
    return Form(f.ctx, t)


def _ref_scale(f, c):
    return Form(f.ctx, {i: k * c for i, k in f.terms.items()})


def _ref_d_scalar(ctx, c):
    out = Form(ctx, {})
    for sym in sorted(c.symbols()):
        p = c.partial(sym)
        if not p.is_zero():
            out = _ref_add(out, _ref_scale(ctx.rules.d_of_symbol[sym], p))
    return out


def _ref_d(f):
    ctx = f.ctx
    out = Form(ctx, {})
    for idx, c in f.terms.items():
        dc = _ref_d_scalar(ctx, c)
        if not dc.is_zero():
            out = _ref_add(out, dc.wedge(Form(ctx, {idx: Scalar.one()})))
        for pos, gi in enumerate(idx):
            rule = ctx.d_rule(ctx.generators[gi].name)
            cc = c if pos % 2 == 0 else -c
            left = Form(ctx, {idx[:pos]: cc})
            right = Form(ctx, {idx[pos + 1:]: Scalar.one()})
            out = _ref_add(out, left.wedge(rule).wedge(right))
    return out


def _ref_form(ctx, terms):
    out = Form(ctx, {})
    for names, c in terms.items():
        f = Form(ctx, {(): Scalar.of(c)})
        for n in names:
            f = f.wedge(ctx.gen(n))
        out = _ref_add(out, f)
    return out


def _ref_substitute_generator(ctx, f, name, replacement):
    k = ctx.index_of(name)
    kept, extra = {}, Form(ctx, {})
    for idx, c in f.terms.items():
        if k not in idx:
            kept[idx] = c
            continue
        pos = idx.index(k)
        left = Form(ctx, {idx[:pos]: c})
        right = Form(ctx, {idx[pos + 1:]: Scalar.one()})
        extra = _ref_add(extra, left.wedge(replacement).wedge(right))
    return _ref_add(Form(ctx, kept), extra)


def _random_coefficient(rng):
    c = Scalar.rational(rng.choice([-1, 1, 2]))
    for _ in range(rng.randint(0, 1)):
        c = c * Scalar.symbol(rng.choice("xy"))
    return c


def _random_terms(rng, names, degree, count):
    """Entries for ``form``, in any name order; repeats and zeros included."""
    out = {}
    for _ in range(count):
        mono = tuple(rng.choice(names) for _ in range(degree))
        out[mono] = _random_coefficient(rng) if rng.random() < 0.9 else 0
    return out


def _curved_context(rng):
    """Generators with nonclosed rules, two symbols whose rules close up."""
    names = ["a", "b", "c", "e"]
    ctx = CoframedContext(names, label="curved")
    for n in names:
        ctx.set_rule(n, ctx.form(_random_terms(rng, names, 2, 4)))
    ctx.set_symbol_rule("x", ctx.form(_random_terms(rng, names, 1, 2)))
    ctx.set_symbol_rule("y", ctx.form({("a",): Scalar.symbol("x"), ("b",): 1}))
    return ctx


def test_accumulation_matches_the_compositional_reference():
    """Values and key order of d, d_scalar, form and substitute_generator
    equal those of the definitions that add one filtered Form per step."""
    import random

    rng = random.Random(10)
    cancelled = reentered = 0
    for _ in range(40):
        ctx = _curved_context(rng)
        names = ctx.names()
        for degree in range(3):
            terms = _random_terms(rng, names, degree, 5)
            f = ctx.form(terms)
            ref = _ref_form(ctx, terms)
            assert list(f.terms.items()) == list(ref.terms.items())
            for g in (f, f.d(), f.d() + f):
                CANCELLED.clear()
                want = _ref_d(g)
                assert list(g.d().terms.items()) == list(want.terms.items())
                # a cancelled key that comes back moves to the end
                cancelled += bool(CANCELLED)
                reentered += any(i in want.terms for i in CANCELLED)
            repl = ctx.form(_random_terms(rng, names, 1, 3))
            got = ctx.substitute_generator(f, "c", repl)
            want = _ref_substitute_generator(ctx, f, "c", repl)
            assert list(got.terms.items()) == list(want.terms.items())
            for c in f.terms.values():
                assert (list(ctx.d_scalar(c).terms.items())
                        == list(_ref_d_scalar(ctx, c).terms.items()))
    assert cancelled >= 30 and reentered >= 15, (cancelled, reentered)
