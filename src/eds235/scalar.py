"""Exact scalar arithmetic for the engine.

Everything downstream computes in one ring: polynomials in named symbols
with coefficients in Q(sqrt 7).  The tower is

    int triple  ->  QuadExt ((p + q*sqrt7)/d)  ->  Scalar (sparse multivariate)

A coefficient is three Python ints in lowest terms, so the inner loops
add and multiply ints; ``fractions.Fraction`` appears only where rational
numbers come in (``QuadExt.of``, ``Scalar.rational``) or are printed.

Division is defined only by nonzero constants, so every pivot of a
reduction is a constant and putting values into a generic result is sound;
a non-constant divisor raises ``NonConstantDivision``.  No floats anywhere;
equality is equality of term dicts and every canonical form is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


class DivisionByZero(ZeroDivisionError):
    """Raised on exact division by a scalar that is identically zero."""


class NonConstantDivision(ValueError):
    """Raised on division by a scalar that is not a constant."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class QuadExt:
    """Element (p + q*sqrt7)/d of the real quadratic field Q(sqrt 7).

    The three ints are kept in lowest terms: d > 0 and gcd(p, q, d) == 1,
    so equal elements have equal triples and zero is (0, 0, 1).  Instances
    are never mutated.  ``a`` and ``b`` give the rational parts as
    Fractions, for printing and for callers outside the arithmetic.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int = 0, d: int = 1):
        if d != 1:
            if d < 0:
                p, q, d = -p, -q, -d
            elif not d:
                raise DivisionByZero("zero denominator in Q(sqrt 7)")
            g = gcd(p, q, d)
            if g != 1:
                p //= g
                q //= g
                d //= g
        self.p = p
        self.q = q
        self.d = d

    @staticmethod
    def of(a, b=0) -> "QuadExt":
        a, b = _frac(a), _frac(b)
        d = lcm(a.denominator, b.denominator)
        return QuadExt(a.numerator * (d // a.denominator),
                       b.numerator * (d // b.denominator), d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __add__(self, o: "QuadExt") -> "QuadExt":
        d = self.d
        if d == o.d:
            return QuadExt(self.p + o.p, self.q + o.q, d)
        e = o.d
        return QuadExt(self.p * e + o.p * d, self.q * e + o.q * d, d * e)

    def __sub__(self, o: "QuadExt") -> "QuadExt":
        d = self.d
        if d == o.d:
            return QuadExt(self.p - o.p, self.q - o.q, d)
        e = o.d
        return QuadExt(self.p * e - o.p * d, self.q * e - o.q * d, d * e)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.p, -self.q, self.d)

    def __mul__(self, o: "QuadExt") -> "QuadExt":
        p, q, r, s = self.p, self.q, o.p, o.q
        if not q and not s:
            return QuadExt(p * r, 0, self.d * o.d)
        return QuadExt(p * r + 7 * q * s, p * s + q * r, self.d * o.d)

    def inverse(self) -> "QuadExt":
        p, q = self.p, self.q
        if not p and not q:
            raise DivisionByZero("inverse of zero in Q(sqrt 7)")
        # p^2 = 7 q^2 has no integer solution but p = q = 0: the norm is nonzero
        return QuadExt(self.d * p, -self.d * q, p * p - 7 * q * q)

    def __truediv__(self, o: "QuadExt") -> "QuadExt":
        return self * o.inverse()

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.p, -self.q, self.d)

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __eq__(self, o) -> bool:
        if not isinstance(o, QuadExt):
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self) -> str:
        return f"QuadExt({self.p}, {self.q}, {self.d})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        srt = "sqrt7" if abs(b) == 1 else f"{abs(b)}*sqrt7"
        sb = srt if b > 0 else "-" + srt
        if a == 0:
            return sb
        return f"{a}+{srt}" if b > 0 else f"{a}-{srt}"


QUAD_ONE = QuadExt(1)
SQRT7 = QuadExt(0, 1)

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


def _add_term(t: dict, m: Monomial, c: QuadExt) -> None:
    """t[m] += c for a nonzero c, dropping the term if it cancels."""
    s = t.get(m)
    if s is not None:
        c = s + c
        if c.is_zero():
            del t[m]
            return
    t[m] = c


class Scalar:
    """Polynomial in named symbols with coefficients in Q(sqrt 7).

    ``terms`` maps each monomial to its coefficient and holds nonzero
    coefficients only, so equal polynomials have equal term dicts and equal
    hashes.  Division is defined only by nonzero constants: ``inverse`` is
    the one place that divides, and it raises ``NonConstantDivision`` on a
    non-constant.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar({})

    @staticmethod
    def one() -> "Scalar":
        return Scalar({_EMPTY: QUAD_ONE})

    @staticmethod
    def from_quad(c: QuadExt) -> "Scalar":
        return Scalar({} if c.is_zero() else {_EMPTY: c})

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        if type(p) is not int or type(q) is not int:
            r = _frac(p) / _frac(q)
            p, q = r.numerator, r.denominator
        return Scalar.from_quad(QuadExt(p, 0, q))

    @staticmethod
    def sqrt7() -> "Scalar":
        return Scalar.from_quad(SQRT7)

    @staticmethod
    def symbol(name: str) -> "Scalar":
        return Scalar({((name, 1),): QUAD_ONE})

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
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def symbols(self) -> set:
        return {name for m in self.terms for name, _ in m}

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, o: "Scalar") -> "Scalar":
        if not self.terms:
            return o
        if not o.terms:
            return self
        t = dict(self.terms)
        for m, c in o.terms.items():
            _add_term(t, m, c)
        return Scalar(t)

    def __sub__(self, o: "Scalar") -> "Scalar":
        if not o.terms:
            return self
        t = dict(self.terms)
        for m, c in o.terms.items():
            _add_term(t, m, -c)
        return Scalar(t)

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self.terms.items()})

    def __mul__(self, o: "Scalar") -> "Scalar":
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                _add_term(t, _mono_mul(m1, m2), c1 * c2)
        return Scalar(t)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        return self * o.inverse()

    def inverse(self) -> "Scalar":
        """1/self; DivisionByZero on zero, NonConstantDivision on a non-constant."""
        if not self.terms:
            raise DivisionByZero("scalar division by zero")
        if not self.is_constant():
            raise NonConstantDivision(f"division by the non-constant {self}")
        return Scalar({_EMPTY: self.terms[_EMPTY].inverse()})

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
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---- calculus / substitution ----------------------------------------
    def partial(self, name: str) -> "Scalar":
        """Formal partial derivative with respect to a symbol."""
        out: dict = {}
        for m, c in self.terms.items():
            for i, (n, e) in enumerate(m):
                if n == name:
                    rest = ((n, e - 1),) if e > 1 else ()
                    # lowering one exponent maps distinct monomials apart
                    out[m[:i] + rest + m[i + 1:]] = QuadExt(c.p * e, c.q * e, c.d)
                    break
        return Scalar(out)

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Replace the bound symbols by their values; others stay symbolic.

        Each term's product is added into one dict, in term order.  A
        constant value scales the term's coefficient; a zero value drops
        the term.
        """
        if not any(name in bindings for m in self.terms for name, _ in m):
            return self
        out: dict = {}
        for m, c in self.terms.items():
            product = None  # the term's non-constant factors, in order
            for name, e in m:
                base = bindings.get(name)
                if base is None:
                    base = Scalar.symbol(name)
                bt = base.terms
                if not bt:
                    break
                q = bt.get(_EMPTY) if len(bt) == 1 else None
                for _ in range(e):
                    if q is not None:
                        c = c * q
                    else:
                        product = base if product is None else product * base
            else:
                if product is None:
                    _add_term(out, _EMPTY, c)
                else:
                    for m2, c2 in product.terms.items():
                        _add_term(out, m2, c2 * c)
        return Scalar(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]),
                           reverse=True):
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

    def __repr__(self) -> str:
        return f"Scalar({self})"


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
    nullspace: "list[list[Scalar]]"  # one vector per entry of free_cols
    inconsistent: bool
    pivot_cols: "list[int]"  # in elimination order
    free_cols: "list[int]"
    pivot_rows: "list[int]"  # in elimination order, parallel to pivot_cols


def solve_linear(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> LinearSolution:
    """Solve A x = b exactly over the polynomial ring, with constant divisors.

    The one-column case of ``solve_linear_many``: same pivots, same result.
    Inconsistency is a reported flag, not an exception, so callers can
    treat 'no solution' as a computed outcome.
    """
    return solve_linear_many(rows, [rhs])[0]


def solve_linear_many(rows: Sequence[Sequence[Scalar]],
                      rhs_columns: Sequence[Sequence[Scalar]]) -> list[LinearSolution]:
    """Solve A x = b for every column b of ``rhs_columns`` in one elimination.

    Gaussian elimination whose pivot is the first nonzero constant entry, in
    row-major order, of the rows and left-hand columns not used yet; a
    right-hand column is never a pivot.  When only non-constant entries are
    left, the next pivot is the first nonzero one and its ``inverse`` raises
    NonConstantDivision.  Each row keeps the sorted list of its nonzero
    left-hand columns, recomputed only when an elimination step changes the
    row, so the pivot search walks nonzero entries instead of rescanning the
    whole matrix.  Each row operation updates all right-hand columns, so the
    pivots do not depend on them and every solution equals the one
    ``solve_linear`` gives for its column alone.

    The solutions share ``rank``, ``pivot_cols``, ``pivot_rows``,
    ``free_cols`` and ``nullspace``; each has its own ``particular`` and
    ``inconsistent``.  For a matrix of constants the search takes the rows
    in index order and skips only those that reduce to zero, so row i is a
    pivot row exactly when it is not in the span of rows 0..i-1: the rank
    of ``rows[:r]`` is the number of pivot rows below r.
    A column whose length is not the number of rows raises ValueError.
    """
    m = len(rows)
    for rhs in rhs_columns:
        if len(rhs) != m:
            raise ValueError(
                f"linear system has {m} rows but {len(rhs)} right-hand sides")
    n = len(rows[0]) if m else 0
    width = n + len(rhs_columns)
    a = [list(r) for r in rows]
    for rhs in rhs_columns:
        for r, x in zip(a, rhs):
            r.append(x)
    for r in a:
        if len(r) != width:
            raise ValueError("ragged linear system")
    nonzero = [[j for j in range(n) if not r[j].is_zero()] for r in a]

    pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
    used_rows: set = set()
    used_cols: set = set()
    for _ in range(min(m, n)):
        best = first = None
        for i in range(m):
            if i in used_rows:
                continue
            for j in nonzero[i]:
                if j in used_cols:
                    continue
                if a[i][j].is_constant():
                    best = (i, j)
                    break
                if first is None:
                    first = (i, j)
            if best is not None:
                break
        best = best or first
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
                a[i] = [a[i][k] - f * a[pi][k] for k in range(width)]
                nonzero[i] = [j for j in range(n) if not a[i][j].is_zero()]

    rank = len(pivots)
    pivot_rows = [i for i, _ in pivots]
    pivot_cols = [j for _, j in pivots]
    free_cols = [j for j in range(n) if j not in used_cols]
    nullspace: list[list[Scalar]] = []
    for fc in free_cols:
        vec = [Scalar.zero()] * n
        vec[fc] = Scalar.one()
        for (i, j) in pivots:
            vec[j] = -a[i][fc]
        nullspace.append(vec)

    solutions = []
    for c in range(n, width):
        inconsistent = any(
            i not in used_rows and not a[i][c].is_zero() for i in range(m)
        )
        particular: list[Scalar] | None = None
        if not inconsistent:
            particular = [Scalar.zero()] * n
            for (i, j) in pivots:
                particular[j] = a[i][c]
        solutions.append(LinearSolution(rank, particular, nullspace, inconsistent,
                                        pivot_cols, free_cols, pivot_rows))
    return solutions


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
