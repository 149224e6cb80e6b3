"""Arithmetic layer: ring axioms, the quadratic extension, linear solves."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eds235.scalar import (
    DivisionByZero,
    LinearSolution,
    NonConstantDivision,
    QuadExt,
    Scalar,
    S,
    mat_mul_vec,
    rank_of,
    solve_linear,
    solve_linear_many,
)


# ---------------------------------------------------------------------------
# QuadExt
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 12)
)
quads = st.builds(QuadExt.of, rationals, rationals)


@given(quads, quads)
def test_quad_conjugate_norm(x, y):
    # (a + b s)(a - b s) = a^2 - 7 b^2
    prod = x * x.conjugate()
    assert prod.b == 0
    assert prod.a == x.a * x.a - 7 * x.b * x.b
    # conjugation is multiplicative
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_sqrt7_powers():
    s = QuadExt.of(0, 1)
    s2 = s * s
    s4 = s2 * s2
    assert s2 == QuadExt.of(7, 0)
    assert s4 == QuadExt.of(49, 0)


def _lowest_terms(x: QuadExt) -> bool:
    return x.d > 0 and math.gcd(x.p, x.q, x.d) == 1


@given(quads, quads)
def test_quad_results_in_lowest_terms(x, y):
    results = [x + y, x - y, x * y, -x]
    if not y.is_zero():
        results += [x / y, y.inverse()]
    for r in results:
        assert _lowest_terms(r), r


@given(quads)
def test_quad_of_round_trip(x):
    y = QuadExt.of(x.a, x.b)
    assert (y.p, y.q, y.d) == (x.p, x.q, x.d)
    assert y == x and hash(y) == hash(x)


@given(rationals, rationals)
def test_quad_str_matches_fraction_rendering(a, b):
    x = QuadExt.of(a, b)
    if b == 0:
        expected = str(a)
    else:
        srt = "sqrt7" if abs(b) == 1 else f"{abs(b)}*sqrt7"
        sign = "+" if b > 0 else "-"
        expected = (sign.lstrip("+") + srt) if a == 0 else f"{a}{sign}{srt}"
    assert str(x) == expected


def test_quad_str_examples():
    assert str(QuadExt.of(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*sqrt7"
    assert str(QuadExt.of(0, -1)) == "-sqrt7"
    assert str(QuadExt.of(Fraction(-6, 4))) == "-3/2"


def test_quad_zero_is_canonical():
    for z in [QuadExt(0), QuadExt(0, 0, -5), QuadExt.of(3) - QuadExt.of(3),
              QuadExt.of(Fraction(1, 3), 2) * QuadExt(0)]:
        assert (z.p, z.q, z.d) == (0, 0, 1)
        assert z.is_zero()


@given(quads)
def test_quad_inverse(x):
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        assert x * x.inverse() == QuadExt.of(1, 0)


# ---------------------------------------------------------------------------
# Scalar ring axioms (random polynomials in a small symbol pool)
# ---------------------------------------------------------------------------

_syms = ["A3", "B4", "C2"]


def _monoms():
    return st.lists(st.sampled_from(_syms), min_size=0, max_size=2)


@st.composite
def scalars(draw):
    nterms = draw(st.integers(1, 3))
    total = Scalar.zero()
    for _ in range(nterms):
        c = draw(rationals)
        cs = draw(st.booleans())
        coef = Scalar.from_quad(QuadExt.of(c, Fraction(1, 2) if cs else 0))
        for name in draw(_monoms()):
            coef = coef * Scalar.symbol(name)
        total = total + coef
    return total


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars(), quads)
def test_ring_axioms(x, y, z, c):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Scalar.zero() == x
    assert x * Scalar.one() == x
    assert x - x == Scalar.zero()
    if not c.is_zero():
        k = Scalar.from_quad(c)
        assert x / k * k == x


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_equal_scalars_hash_equal(x, y):
    back = (x + y) - y
    assert back == x
    assert hash(back) == hash(x)
    assert x * y == y * x
    assert hash(x * y) == hash(y * x)


def test_partial_derivative():
    a, b = Scalar.symbol("A3"), Scalar.symbol("B4")
    f = a * a * b + Scalar.rational(9, 14) * a
    assert f.partial("A3") == Scalar.rational(2) * a * b + Scalar.rational(9, 14)
    assert f.partial("B4") == a * a
    assert f.partial("C2") == Scalar.zero()


def test_substitute_and_division_guard():
    a, b = Scalar.symbol("A3"), Scalar.symbol("B4")
    f = (a + b) * (a - b)
    got = f.substitute({"A3": Scalar.rational(3), "B4": Scalar.rational(1)})
    assert got == Scalar.rational(8)
    assert f.substitute({"B4": Scalar.zero()}) == a * a
    with pytest.raises(NonConstantDivision):
        f / (a - b)
    with pytest.raises(NonConstantDivision):
        (a - b) ** -1
    with pytest.raises(DivisionByZero):
        f / Scalar.zero()


def test_parse_round_trip():
    cases = {
        "17/14": Scalar.rational(17, 14),
        "-2/7": Scalar.rational(-2, 7),
        "1/7*sqrt7": Scalar.sqrt7() * Scalar.rational(1, 7),
        "9/14*A3^2": Scalar.rational(9, 14) * Scalar.symbol("A3") ** 2,
        "A5_0_1p - 21*A5_1": Scalar.symbol("A5_0_1p")
        - Scalar.rational(21) * Scalar.symbol("A5_1"),
        "(A3 + 1)/(2 - sqrt7)": (Scalar.symbol("A3") + Scalar.one())
        * (Scalar.rational(2) + Scalar.sqrt7()) / Scalar.rational(-3),
    }
    for text, want in cases.items():
        assert Scalar.parse(text) == want, text
    # rendering parses back to an equal scalar
    for want in cases.values():
        assert Scalar.parse(str(want)) == want
    with pytest.raises(NonConstantDivision):
        Scalar.parse("(A3 + 1)/(A3 - 1)")


def test_sqrt7_arithmetic_in_field():
    s = Scalar.sqrt7()
    assert s * s == Scalar.rational(7)
    assert (s ** 4) == Scalar.rational(49)
    inv = Scalar.one() / s
    assert inv == s / Scalar.rational(7)


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------

def _rand_matrix(rng, m, n):
    return [
        [Scalar.rational(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)
    ]


def test_solve_linear_seeded_random():
    import random

    rng = random.Random(0)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        x = [Scalar.rational(rng.randint(-3, 3)) for _ in range(n)]
        b = mat_mul_vec(a, x)
        sol = solve_linear(a, b)
        assert not sol.inconsistent
        assert sol.particular is not None
        assert mat_mul_vec(a, sol.particular) == b
        for v in sol.nullspace:
            assert mat_mul_vec(a, v) == [Scalar.zero()] * m
        assert sol.rank + len(sol.nullspace) == n


def test_solve_linear_inconsistent_is_flag():
    a = [[Scalar.one(), Scalar.one()], [Scalar.one(), Scalar.one()]]
    b = [Scalar.zero(), Scalar.one()]
    sol = solve_linear(a, b)
    assert sol.inconsistent
    assert sol.particular is None
    assert sol.rank == 1


def test_solve_linear_symbolic_rhs():
    # systems met in practice: rational coefficient matrix, symbolic rhs
    t = Scalar.symbol("A3")
    a = [[Scalar.rational(2), Scalar.rational(1)], [Scalar.zero(), Scalar.rational(3)]]
    b = [t, Scalar.rational(6) * t]
    sol = solve_linear(a, b)
    assert sol.rank == 2 and not sol.inconsistent
    assert sol.particular == [-t / Scalar.rational(2), Scalar.rational(2) * t]


def test_solve_linear_non_constant_pivot_raises():
    with pytest.raises(NonConstantDivision):
        solve_linear([[Scalar.symbol("A3")]], [Scalar.one()])


def test_rank_of():
    one, two = Scalar.one(), Scalar.rational(2)
    assert rank_of([[one, two], [two, two * two]]) == 1
    assert rank_of([[one, Scalar.zero()], [Scalar.zero(), one]]) == 2


def test_solve_linear_rhs_length_must_match_rows():
    one = Scalar.one()
    with pytest.raises(ValueError, match=r"1 rows but 2 right-hand sides"):
        solve_linear([[one]], [one, Scalar.rational(5)])
    with pytest.raises(ValueError, match=r"2 rows but 1 right-hand sides"):
        solve_linear([[one], [one]], [one])


def _rescanning_solve_linear(rows, rhs):
    """Reference: the elimination that rescans every entry for each pivot.

    The pivot is the min of (not constant, row, col) over the nonzero
    entries of the unused rows and columns.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots, used_rows, used_cols = [], set(), set()
    for _ in range(min(m, n)):
        best = best_w = None
        for i in range(m):
            if i in used_rows:
                continue
            for j in range(n):
                if j in used_cols or a[i][j].is_zero():
                    continue
                w = (not a[i][j].is_constant(), i, j)
                if best_w is None or w < best_w:
                    best, best_w = (i, j), w
        if best is None:
            break
        pi, pj = best
        used_rows.add(pi)
        used_cols.add(pj)
        pivots.append((pi, pj))
        inv = a[pi][pj].inverse()
        a[pi] = [x * inv for x in a[pi]]
        for i in range(m):
            if i != pi and not a[i][pj].is_zero():
                f = a[i][pj]
                a[i] = [a[i][k] - f * a[pi][k] for k in range(n + 1)]
    inconsistent = any(i not in used_rows and not a[i][n].is_zero() for i in range(m))
    particular = None
    if not inconsistent:
        particular = [Scalar.zero()] * n
        for i, j in pivots:
            particular[j] = a[i][n]
    free_cols = [j for j in range(n) if j not in used_cols]
    nullspace = []
    for fc in free_cols:
        vec = [Scalar.zero()] * n
        vec[fc] = Scalar.one()
        for i, j in pivots:
            vec[j] = -a[i][fc]
        nullspace.append(vec)
    return LinearSolution(len(pivots), particular, nullspace, inconsistent,
                          [j for _, j in pivots], free_cols,
                          [i for i, _ in pivots])


def _sparse_entry(rng):
    kind = rng.random()
    if kind < 0.55:
        return Scalar.zero()
    if kind < 0.75:
        return Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3))
    if kind < 0.88:
        return Scalar.from_quad(QuadExt.of(rng.randint(-2, 2), rng.randint(-2, 2)))
    return Scalar.symbol(rng.choice(["A3", "B4"])) * Scalar.rational(rng.randint(1, 2))


def test_solve_linear_pivots_match_the_rescanning_reference():
    import random

    rng = random.Random(8)
    outcomes = {"solved": 0, "raised": 0}
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = [[_sparse_entry(rng) for _ in range(n)] for _ in range(m)]
        b = [_sparse_entry(rng) for _ in range(m)]
        try:
            want = _rescanning_solve_linear(a, b)
        except NonConstantDivision:
            with pytest.raises(NonConstantDivision):
                solve_linear(a, b)
            outcomes["raised"] += 1
            continue
        assert solve_linear(a, b) == want
        outcomes["solved"] += 1
    # both branches of the pivot rule are exercised
    assert min(outcomes.values()) >= 30, outcomes


# ---------------------------------------------------------------------------
# solve_linear_many: one elimination, many right-hand columns
# ---------------------------------------------------------------------------

def _assert_many_matches_columns(a, columns):
    got = solve_linear_many(a, columns)
    assert len(got) == len(columns)
    for sol, b in zip(got, columns):
        want = solve_linear(a, b)
        assert sol.rank == want.rank
        assert sol.particular == want.particular
        assert sol.nullspace == want.nullspace
        assert sol.inconsistent == want.inconsistent
        assert sol.pivot_cols == want.pivot_cols
        assert sol.free_cols == want.free_cols
        assert sol.pivot_rows == want.pivot_rows
    return got


def test_solve_linear_many_matches_column_by_column():
    import random

    rng = random.Random(11)
    seen = {"full_rank": 0, "deficient": 0, "mixed": 0}
    for _ in range(60):
        m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        if rng.random() < 0.4 and m > 1:
            a[-1] = [x + y for x, y in zip(a[0], a[-1 - (m > 2)])]
        columns = []
        for _ in range(k):
            if rng.random() < 0.7:
                x = [Scalar.rational(rng.randint(-3, 3)) for _ in range(n)]
                columns.append(mat_mul_vec(a, x))
            else:
                columns.append([Scalar.rational(rng.randint(-3, 3)) for _ in range(m)])
        got = _assert_many_matches_columns(a, columns)
        flags = {sol.inconsistent for sol in got}
        if flags == {True, False}:
            seen["mixed"] += 1
        if got[0].rank == min(m, n):
            seen["full_rank"] += 1
        else:
            seen["deficient"] += 1
    assert min(seen.values()) >= 5, seen


def test_solve_linear_many_one_inconsistent_column():
    one, zero = Scalar.one(), Scalar.zero()
    a = [[one, one], [one, one], [zero, one]]
    columns = [[one, one, zero], [zero, one, zero], [Scalar.rational(2)] * 3]
    got = _assert_many_matches_columns(a, columns)
    assert [sol.inconsistent for sol in got] == [False, True, False]
    assert got[1].particular is None
    assert got[0].particular == [one, zero]
    assert got[2].particular == [zero, Scalar.rational(2)]


def test_solve_linear_many_symbolic_and_sparse_columns():
    import random

    rng = random.Random(12)
    solved = 0
    for _ in range(120):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        a = [[_sparse_entry(rng) for _ in range(n)] for _ in range(m)]
        if any(not x.is_constant() for r in a for x in r):
            continue
        columns = [[_sparse_entry(rng) for _ in range(m)] for _ in range(k)]
        _assert_many_matches_columns(a, columns)
        solved += 1
    assert solved >= 30


def test_solve_linear_many_guards():
    one = Scalar.one()
    with pytest.raises(NonConstantDivision):
        solve_linear_many([[Scalar.symbol("A3")]], [[one], [Scalar.rational(2)]])
    with pytest.raises(ValueError, match=r"2 rows but 1 right-hand sides"):
        solve_linear_many([[one], [one]], [[one, one], [one]])
    assert solve_linear_many([[one]], []) == []


def test_pivot_rows_give_the_rank_of_every_row_prefix():
    import random

    rng = random.Random(14)
    seen = {"skipped_row": 0, "full_rank": 0}
    for _ in range(80):
        m, n = rng.randint(1, 8), rng.randint(1, 6)
        rows = [
            [Scalar.zero() if rng.random() < 0.4 else
             Scalar.from_quad(QuadExt.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                         rng.randint(-1, 1)))
             for _ in range(n)]
            for _ in range(m)
        ]
        if m > 2 and rng.random() < 0.5:
            # a row in the span of two earlier ones
            c = Scalar.from_quad(QuadExt.of(rng.randint(-2, 2), rng.randint(-1, 1)))
            k = rng.randint(2, m - 1)
            rows[k] = [x + c * y for x, y in zip(rows[0], rows[1])]
        sol = solve_linear(rows, [Scalar.zero()] * m)
        assert sol.pivot_rows == sorted(sol.pivot_rows)
        assert len(sol.pivot_rows) == len(sol.pivot_cols) == sol.rank
        for r in range(m + 1):
            assert sum(i < r for i in sol.pivot_rows) == rank_of(rows[:r])
        if len(sol.pivot_rows) < m:
            seen["skipped_row"] += 1
        if sol.rank == min(m, n):
            seen["full_rank"] += 1
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# substitute: one accumulating pass against the compositional reference
# ---------------------------------------------------------------------------

def _compositional_substitute(s, bindings):
    """Reference: the definition that adds each term's product to a running sum."""
    if not any(name in bindings for m in s.terms for name, _ in m):
        return s
    total = Scalar.zero()
    for m, c in s.terms.items():
        term = Scalar.from_quad(c)
        for name, e in m:
            base = bindings.get(name)
            if base is None:
                base = Scalar.symbol(name)
            for _ in range(e):
                term = term * base
        total = total + term
    return total


def _rand_poly(rng, names, nterms):
    total = Scalar.zero()
    for _ in range(nterms):
        term = Scalar.from_quad(QuadExt.of(rng.choice([-2, -1, 1, 2]), rng.choice([0, 0, 1])))
        for _ in range(rng.randint(0, 3)):
            term = term * Scalar.symbol(rng.choice(names))
        total = total + term
    return total


def test_substitute_matches_the_compositional_reference():
    import random

    rng = random.Random(13)
    names = ["A3", "B4", "C2", "E"]
    seen = {"cancel": 0, "power": 0, "symbolic": 0, "zero": 0, "unbound": 0}
    for _ in range(300):
        s = _rand_poly(rng, names, rng.randint(1, 6))
        bindings = {}
        for name in rng.sample(names, rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.2:
                bindings[name] = Scalar.zero()
            elif kind < 0.5:
                bindings[name] = Scalar.from_quad(
                    QuadExt.of(rng.randint(-3, 3), rng.randint(-1, 1)))
            elif kind < 0.8:
                bindings[name] = _rand_poly(rng, ["F1", "F2"], rng.randint(1, 2))
            else:
                bindings[name] = _rand_poly(rng, names, rng.randint(1, 3))
        image = _compositional_substitute(Scalar(dict([next(iter(s.terms.items()))])),
                                          bindings)
        if rng.random() < 0.6 and not image.symbols() & set(bindings):
            # an unbound copy of the first term's image: that image cancels
            s = s - image
        got, want = s.substitute(bindings), _compositional_substitute(s, bindings)
        assert got == want
        assert list(got.terms) == list(want.terms)
        if any(not v.is_constant() for v in bindings.values()):
            seen["symbolic"] += 1
        if any(v.is_zero() for v in bindings.values()):
            seen["zero"] += 1
        if s.symbols() - set(bindings):
            seen["unbound"] += 1
        if any(e > 1 and name in bindings for m in s.terms for name, e in m):
            seen["power"] += 1
        products = {k for m, c in s.terms.items()
                    for k in _compositional_substitute(Scalar({m: c}), bindings).terms}
        if products - set(got.terms):
            seen["cancel"] += 1
    assert min(seen.values()) >= 20, seen
