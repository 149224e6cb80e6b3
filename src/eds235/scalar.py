"""Exact scalar arithmetic for the engine.

Everything downstream computes over a single field: rational functions in
named symbols with coefficients in Q(sqrt 7).  The tower is

    Fraction  ->  QuadExt (a + b*sqrt7)  ->  Poly (sparse multivariate)
              ->  Scalar (fraction field of Poly)

No floats anywhere; equality is decidable (cross-multiplication) and every
canonical form is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class DivisionByZero(ZeroDivisionError):
    """Raised on exact division by a scalar that is identically zero."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(7) of the real quadratic field Q(sqrt 7)."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QuadExt":
        return QuadExt(_frac(a), _frac(b))

    def __add__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b)

    def __mul__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a * o.a + 7 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - 7 * self.b * self.b
        if n == 0:
            if self.a == 0 and self.b == 0:
                raise DivisionByZero("inverse of zero in Q(sqrt 7)")
            # a^2 = 7 b^2 with a, b rational forces a = b = 0, so n == 0
            # only at zero; keep the guard for clarity.
            raise DivisionByZero("norm vanished unexpectedly")
        return QuadExt(self.a / n, -self.b / n)

    def __truediv__(self, o: "QuadExt") -> "QuadExt":
        return self * o.inverse()

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        srt = "sqrt7" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt7"
        sb = srt if self.b > 0 else "-" + srt
        if self.a == 0:
            return sb
        return f"{self.a}+{srt}" if self.b > 0 else f"{self.a}-{srt}"


QUAD_ZERO = QuadExt(Fraction(0), Fraction(0))
QUAD_ONE = QuadExt(Fraction(1), Fraction(0))
SQRT7 = QuadExt(Fraction(0), Fraction(1))

# A monomial is a tuple of (symbol name, positive exponent) pairs, sorted by
# name.  The empty tuple is the constant monomial.
Monomial = tuple

_EMPTY: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    # graded order first, then a deterministic lexicographic tie-break
    return (_mono_degree(m), m)


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    d2 = dict(m2)
    return all(d2.get(name, 0) >= e for name, e in m1)


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2, assuming divisibility."""
    d = dict(m1)
    for name, e in m2:
        d[name] -= e
    return tuple(sorted((n, e) for n, e in d.items() if e))


class Poly:
    """Sparse multivariate polynomial over Q(sqrt 7)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, QuadExt]):
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @staticmethod
    def constant(c: QuadExt) -> "Poly":
        return Poly({_EMPTY: c})

    @staticmethod
    def symbol(name: str) -> "Poly":
        return Poly({((name, 1),): QUAD_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def constant_value(self) -> QuadExt:
        if self.is_zero():
            return QUAD_ZERO
        return self.terms[_EMPTY]

    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def __add__(self, o: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in o.terms.items():
            s = t.get(m, QUAD_ZERO) + c
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        return Poly(t)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, o: "Poly") -> "Poly":
        return self + (-o)

    def __mul__(self, o: "Poly") -> "Poly":
        if self.is_zero() or o.is_zero():
            return Poly({})
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                s = t.get(m, QUAD_ZERO) + c1 * c2
                if s.is_zero():
                    t.pop(m, None)
                else:
                    t[m] = s
        return Poly(t)

    def scale(self, c: QuadExt) -> "Poly":
        if c.is_zero():
            return Poly({})
        return Poly({m: k * c for m, k in self.terms.items()})

    def leading(self) -> tuple[Monomial, QuadExt]:
        m = max(self.terms, key=_mono_key)
        return m, self.terms[m]

    def monomial_gcd(self) -> Monomial:
        """Largest monomial dividing every term."""
        it = iter(self.terms)
        try:
            common = dict(next(it))
        except StopIteration:
            return _EMPTY
        for m in it:
            if not common:
                break
            d = dict(m)
            common = {n: min(e, d[n]) for n, e in common.items() if n in d}
        return tuple(sorted(common.items()))

    def div_monomial(self, m: Monomial) -> "Poly":
        return Poly({_mono_div(k, m): c for k, c in self.terms.items()})

    def try_div(self, d: "Poly") -> "Poly | None":
        """Exact polynomial division; None if not divisible."""
        if d.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = self
        dm, dc = d.leading()
        out: dict = {}
        while not rem.is_zero():
            rm, rc = rem.leading()
            if not _mono_divides(dm, rm):
                return None
            qm = _mono_div(rm, dm)
            qc = rc / dc
            out[qm] = out.get(qm, QUAD_ZERO) + qc
            rem = rem - d * Poly({qm: qc})
        return Poly(out)

    def symbols(self) -> set:
        out: set = set()
        for m in self.terms:
            out.update(name for name, _ in m)
        return out

    def eval(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        total = Scalar.zero()
        for m, c in self.terms.items():
            term = Scalar.from_quad(c)
            for name, e in m:
                base = bindings.get(name)
                if base is None:
                    base = Scalar.symbol(name)
                for _ in range(e):
                    term = term * base
            total = total + term
        return total

    def __eq__(self, o) -> bool:
        return isinstance(o, Poly) and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
            cs = str(c)
            if "+" in cs or ("-" in cs[1:]):
                cs = f"({cs})"
            if not mono:
                s = cs
            elif cs == "1":
                s = mono
            elif cs == "-1":
                s = f"-{mono}"
            else:
                s = f"{cs}*{mono}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


POLY_ZERO = Poly({})
POLY_ONE = Poly.constant(QUAD_ONE)


class Scalar:
    """Element of the fraction field of Poly.

    Canonical form: common monomial factors cancelled, exact polynomial
    quotients taken when they exist, denominator scaled to leading
    coefficient 1.  Equality falls back to cross-multiplication, so light
    reduction never compromises correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = POLY_ONE, _reduce: bool = True):
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if _reduce:
            num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar(POLY_ZERO, POLY_ONE, _reduce=False)

    @staticmethod
    def one() -> "Scalar":
        return Scalar(POLY_ONE, POLY_ONE, _reduce=False)

    @staticmethod
    def from_quad(c: QuadExt) -> "Scalar":
        return Scalar(Poly.constant(c), POLY_ONE, _reduce=False)

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return Scalar.from_quad(QuadExt.of(Fraction(_frac(p), _frac(q))))

    @staticmethod
    def sqrt7() -> "Scalar":
        return Scalar.from_quad(SQRT7)

    @staticmethod
    def symbol(name: str) -> "Scalar":
        return Scalar(Poly.symbol(name), POLY_ONE, _reduce=False)

    @staticmethod
    def parse(text: str) -> "Scalar":
        return _parse_scalar(text)

    @staticmethod
    def of(x) -> "Scalar":
        """Coerce a Scalar, scalar text or a rational number to a Scalar."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, str):
            return Scalar.parse(x)
        return Scalar.rational(x)

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> QuadExt:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.num.constant_value() / self.den.constant_value()

    def symbols(self) -> set:
        return self.num.symbols() | self.den.symbols()

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, o: "Scalar") -> "Scalar":
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return Scalar(self.num + o.num, self.den)
        return Scalar(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "Scalar") -> "Scalar":
        return self + (-o)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _reduce=False)

    def __mul__(self, o: "Scalar") -> "Scalar":
        if self.is_zero() or o.is_zero():
            return Scalar.zero()
        return Scalar(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        if o.is_zero():
            raise DivisionByZero("scalar division by zero")
        if self.is_zero():
            return Scalar.zero()
        return Scalar(self.num * o.den, self.den * o.num)

    def inverse(self) -> "Scalar":
        return Scalar.one() / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, o) -> bool:
        if not isinstance(o, Scalar):
            return NotImplemented
        if self.num == o.num and self.den == o.den:
            return True
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        # classes of equal scalars can hash differently only if reduction
        # failed to fully cancel; canonical-enough for our dict uses, and we
        # never rely on hashing non-identical-but-equal scalars together.
        return hash((self.num, self.den))

    # ---- calculus / substitution ----------------------------------------
    def partial(self, name: str) -> "Scalar":
        """Formal partial derivative with respect to a symbol."""
        dn = _poly_partial(self.num, name)
        dd = _poly_partial(self.den, name)
        if dd.is_zero():
            return Scalar(dn, self.den)
        return Scalar(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Substitute symbols; DivisionByZero if the denominator vanishes."""
        if not bindings or not (self.symbols() & set(bindings)):
            return self
        num = self.num.eval(bindings)
        den = self.den.eval(bindings)
        if den.is_zero():
            raise DivisionByZero("denominator vanished under substitution")
        return num / den

    def __str__(self) -> str:
        if self.den == POLY_ONE:
            return str(self.num)
        n, d = str(self.num), str(self.den)
        if len(self.num.terms) > 1:
            n = f"({n})"
        if len(self.den.terms) > 1 or "*" in d or "^" in d:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _poly_partial(p: Poly, name: str) -> Poly:
    out: dict = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.get(name, 0)
        if not e:
            continue
        if e == 1:
            d.pop(name)
        else:
            d[name] = e - 1
        mm = tuple(sorted(d.items()))
        s = out.get(mm, QUAD_ZERO) + c * QuadExt.of(e)
        if s.is_zero():
            out.pop(mm, None)
        else:
            out[mm] = s
    return Poly(out)


def _reduce_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero():
        return POLY_ZERO, POLY_ONE
    # cancel shared monomial factors
    g = _mono_gcd2(num.monomial_gcd(), den.monomial_gcd())
    if g:
        num, den = num.div_monomial(g), den.div_monomial(g)
    # exact quotient in either direction clears the fraction entirely
    if not den.is_constant():
        q = num.try_div(den)
        if q is not None:
            return _scale_out(q, POLY_ONE)
        q = den.try_div(num)
        if q is not None and not q.is_zero():
            # num/den = 1/q
            return _scale_out(POLY_ONE, q)
    return _scale_out(num, den)


def _scale_out(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    _, lead = den.leading()
    if lead == QUAD_ONE:
        return num, den
    inv = lead.inverse()
    return num.scale(inv), den.scale(inv)


def _mono_gcd2(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return _EMPTY
    d2 = dict(m2)
    return tuple(sorted((n, min(e, d2[n])) for n, e in m1 if n in d2))


# --------------------------------------------------------------------------
# parsing: rationals, sqrt7, symbols, + - * / ^ and parentheses
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ValueError(f"bad scalar {self.text!r} at {self.pos}: {msg}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Scalar:
        left = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                left = left + self.term()
            elif c == "-":
                self.pos += 1
                left = left - self.term()
            else:
                return left

    def term(self) -> Scalar:
        left = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                left = left * self.factor()
            elif c == "/":
                self.pos += 1
                left = left / self.factor()
            else:
                return left

    def factor(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            n = self.number()
            return base ** (sign * n)
        return base

    def number(self) -> int:
        self.skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def atom(self) -> Scalar:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected )")
            self.pos += 1
            return inner
        if c == "-":
            self.pos += 1
            return -self.atom()
        if c == "+":
            self.pos += 1
            return self.atom()
        if c.isdigit():
            return Scalar.rational(self.number())
        if c.isalpha() or c == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "sqrt7":
                return Scalar.sqrt7()
            return Scalar.symbol(name)
        self.error("unexpected character")


def _parse_scalar(text: str) -> Scalar:
    p = _Parser(text)
    out = p.expr()
    p.skip()
    if p.pos != len(p.text):
        p.error("trailing input")
    return out


# --------------------------------------------------------------------------
# exact linear algebra
# --------------------------------------------------------------------------

@dataclass
class LinearSolution:
    rank: int
    particular: "list[Scalar] | None"
    nullspace: "list[list[Scalar]]"
    inconsistent: bool


def _pivot_weight(s: Scalar) -> tuple:
    # prefer constant pivots, then structurally small ones
    return (0 if s.is_constant() else 1, len(s.num.terms) + len(s.den.terms))


def solve_linear(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> LinearSolution:
    """Solve A x = b exactly over the scalar field.

    Gaussian elimination with free pivot choice (constants preferred, ties
    broken deterministically).  Inconsistency is a reported flag, not an
    exception, so callers can treat 'no solution' as a computed outcome.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for r in a:
        if len(r) != n + 1:
            raise ValueError("ragged linear system")

    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    used_rows: set = set()
    used_cols: set = set()
    for _ in range(min(m, n)):
        best = None
        best_w = None
        for i in range(m):
            if i in used_rows:
                continue
            for j in range(n):
                if j in used_cols:
                    continue
                if a[i][j].is_zero():
                    continue
                w = _pivot_weight(a[i][j]) + (i, j)
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

    rank = len(pivots)
    inconsistent = any(
        i not in used_rows and not a[i][n].is_zero() for i in range(m)
    )

    particular: list[Scalar] | None = None
    if not inconsistent:
        particular = [Scalar.zero()] * n
        for (i, j) in pivots:
            particular[j] = a[i][n]

    free_cols = [j for j in range(n) if j not in used_cols]
    nullspace: list[list[Scalar]] = []
    for fc in free_cols:
        vec = [Scalar.zero()] * n
        vec[fc] = Scalar.one()
        for (i, j) in pivots:
            vec[j] = -a[i][fc]
        nullspace.append(vec)

    return LinearSolution(rank, particular, nullspace, inconsistent)


def mat_mul_vec(rows: Sequence[Sequence[Scalar]], vec: Sequence[Scalar]) -> list[Scalar]:
    return [
        sum((r[j] * vec[j] for j in range(len(vec))), Scalar.zero()) for r in rows
    ]


def rank_of(rows: Iterable[Sequence[Scalar]]) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    return solve_linear(rows, [Scalar.zero()] * len(rows)).rank


S = Scalar  # short alias used heavily in fixtures and tests
