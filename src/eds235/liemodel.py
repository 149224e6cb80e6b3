"""Matrix Lie algebra models and graded/filtered structure.

Two concrete models drive everything: a 7x7 split-exceptional model (the
symmetry algebra of the flying-saucer distribution, in a rational basis) and
sp(6).  Both are entered as Maurer-Cartan matrices whose entries are linear
expressions in the dual 1-form names; basis matrices are recovered by
coefficient extraction and re-verified against dGamma = -Gamma^Gamma at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .exterior import CoframedContext, Form
from .scalar import Scalar, rank_of, solve_linear_many

Matrix = list  # list[list[Scalar]]


class NotInSpan(Exception):
    pass


class NotClosed(Exception):
    pass


class NotFiltrationPreserving(Exception):
    pass


class NotNilpotent(Exception):
    pass


class NotFundamental(Exception):
    pass


# --------------------------------------------------------------------------
# plain exact matrix helpers
# --------------------------------------------------------------------------

def mat(rows) -> Matrix:
    return [[Scalar.of(c) for c in r] for r in rows]


def mat_zero(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[Scalar.zero() for _ in range(m)] for _ in range(n)]


def mat_identity(n: int) -> Matrix:
    return [
        [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
        for i in range(n)
    ]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: Scalar) -> Matrix:
    return [[x * c for x in r] for r in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = mat_zero(n, m)
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait.is_zero():
                continue
            for j in range(m):
                if not b[t][j].is_zero():
                    out[i][j] = out[i][j] + ait * b[t][j]
    return out


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for r in a for x in r)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def transpose(a: Matrix) -> Matrix:
    return [list(r) for r in zip(*a)]


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix: one elimination with the identity columns.

    Raises ValueError("singular matrix") when the rank falls short.
    """
    n = len(a)
    sols = solve_linear_many(a, mat_identity(n))
    if any(sol.rank < n for sol in sols):
        raise ValueError("singular matrix")
    return [[sol.particular[i] for sol in sols] for i in range(n)]


def exp_nilpotent(x: Matrix) -> Matrix:
    """exp of a nilpotent matrix, exact; NotNilpotent if powers never die."""
    n = len(x)
    out = mat_identity(n)
    term = mat_identity(n)
    for k in range(1, n + 1):
        term = mat_scale(mat_mul(term, x), Scalar.rational(1, k))
        if mat_is_zero(term):
            return out
        out = mat_add(out, term)
    raise NotNilpotent("matrix power did not vanish by the dimension bound")


# --------------------------------------------------------------------------
# algebras
# --------------------------------------------------------------------------

class MatrixLieAlgebra:
    """Basis of matrices indexed by 1-form names, with an integer grading."""

    def __init__(self, name: str, basis: Mapping[str, Matrix], grading: Mapping[str, int]):
        self.name = name
        self.names = list(basis)
        self.basis = dict(basis)
        self.grading = dict(grading)
        if set(self.grading) != set(self.names):
            raise ValueError("grading must cover exactly the basis")
        self.dim = len(self.names)
        self.size = len(next(iter(basis.values())))
        self._solver = None
        self._sc = None

    # ---- coordinates ------------------------------------------------------
    def _coord_solver(self):
        if self._solver is None:
            cols = [self._flatten(self.basis[n]) for n in self.names]
            rows = list(map(list, zip(*cols)))  # (size^2) x dim
            self._solver = rows
        return self._solver

    def _flatten(self, m: Matrix) -> list:
        return [c for row in m for c in row]

    def coords_of(self, m: Matrix) -> dict:
        """Nonzero basis coordinates of m; NotInSpan if m is outside the span."""
        return self.coords_of_many([m])[0]

    def coords_of_many(self, mats) -> list:
        """Coordinates of each matrix, read from one elimination.

        All matrices share the coordinate system, so its reduction carries
        one right-hand column per matrix.  NotInSpan if any matrix is
        outside the span.
        """
        rows = self._coord_solver()
        out = []
        for sol in solve_linear_many(rows, [self._flatten(m) for m in mats]):
            if sol.inconsistent:
                raise NotInSpan(f"matrix not in span of {self.name} basis")
            out.append({
                n: sol.particular[i]
                for i, n in enumerate(self.names)
                if not sol.particular[i].is_zero()
            })
        return out

    def element(self, coords: Mapping[str, object]) -> Matrix:
        out = mat_zero(self.size)
        for n, c in coords.items():
            out = mat_add(out, mat_scale(self.basis[n], Scalar.of(c)))
        return out

    # ---- bracket / structure constants ------------------------------------
    def bracket(self, x: Matrix, y: Matrix) -> dict:
        """Commutator coordinates in the basis; NotInSpan if it escapes."""
        return self.coords_of(commutator(x, y))

    def structure_constants(self) -> dict:
        """{(i,j): {k: c}} over basis names, i<j in basis order."""
        if self._sc is not None:
            return self._sc
        sc = {}
        for i, ni in enumerate(self.names):
            for nj in self.names[i + 1 :]:
                try:
                    c = self.bracket(self.basis[ni], self.basis[nj])
                except NotInSpan as e:
                    raise NotClosed(f"[{ni},{nj}] not in span") from e
                if c:
                    sc[(ni, nj)] = c
        self._sc = sc
        return sc

    def bracket_coords(self, x: Mapping[str, Scalar], y: Mapping[str, Scalar]) -> dict:
        """Bracket on coordinate dicts via the structure constant table."""
        return _bracket_coords(self.names, self.structure_constants(), x, y)

    def negative_names(self) -> list:
        return [n for n in self.names if self.grading[n] < 0]

    def filtration_level(self, coords: Mapping[str, Scalar]) -> int | None:
        """Min degree present in a coordinate dict (None for zero)."""
        degs = [self.grading[n] for n, c in coords.items() if not c.is_zero()]
        return min(degs) if degs else None


@dataclass
class GradedNilpotent:
    """Abstract graded nilpotent algebra given by structure constants."""

    name: str
    names: list
    grading: dict
    sc: dict  # {(ni,nj): {k: Scalar}} with ni before nj in names order

    def bracket_coords(self, x: Mapping[str, Scalar], y: Mapping[str, Scalar]) -> dict:
        return _bracket_coords(self.names, self.sc, x, y)


def _bracket_coords(names: list, sc: Mapping, x: Mapping[str, Scalar],
                    y: Mapping[str, Scalar]) -> dict:
    """Bracket of coordinate dicts by a structure-constant table.

    ``sc`` maps basis pairs (ni, nj), ni before nj in ``names``, to the
    coordinates of [ni, nj].
    """
    order = {n: i for i, n in enumerate(names)}
    out: dict = {}
    for nx, cx in x.items():
        for ny, cy in y.items():
            if nx == ny or cx.is_zero() or cy.is_zero():
                continue
            key, sgn = ((nx, ny), 1) if order[nx] < order[ny] else ((ny, nx), -1)
            for k, c in sc.get(key, {}).items():
                v = out.get(k, Scalar.zero()) + cx * cy * c * Scalar.rational(sgn)
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
    return out


def negative_part(algebra: MatrixLieAlgebra) -> GradedNilpotent:
    """The nilpotent subalgebra spanned by negative-degree basis elements."""
    neg = algebra.negative_names()
    sc = {}
    for key, val in algebra.structure_constants().items():
        if key[0] in neg and key[1] in neg:
            bad = [k for k in val if k not in neg]
            if bad:
                raise NotClosed(f"negative part not a subalgebra at {key}")
            sc[key] = dict(val)
    return GradedNilpotent(
        f"{algebra.name}-",
        neg,
        {n: algebra.grading[n] for n in neg},
        sc,
    )


def growth_vector(gn: GradedNilpotent) -> tuple:
    """Dimensions of the weak derived flag generated by the degree -1 part.

    NotFundamental when the flag stabilizes before filling the algebra.
    """
    names = gn.names
    idx = {n: i for i, n in enumerate(names)}
    d1 = [n for n in names if gn.grading[n] == -1]

    def to_vec(coords):
        v = [Scalar.zero()] * len(names)
        for n, c in coords.items():
            v[idx[n]] = c
        return v

    basis_vecs = {n: to_vec({n: Scalar.one()}) for n in names}
    current = [basis_vecs[n] for n in d1]
    dims = []
    while True:
        dims.append(rank_of(current))
        new = list(current)
        for n in d1:
            for vec in current:
                coords = {m: vec[idx[m]] for m in names if not vec[idx[m]].is_zero()}
                br = gn.bracket_coords({n: Scalar.one()}, coords)
                if br:
                    new.append(to_vec(br))
        r = rank_of(new)
        if r == dims[-1]:
            break
        current = new
    if dims[-1] != len(names):
        raise NotFundamental(
            f"degree -1 part generates only {dims[-1]} of {len(names)} dims"
        )
    return tuple(dims)


def adjoint_quotient(g: Matrix, algebra: MatrixLieAlgebra) -> Matrix:
    """Induced action of Ad_{g⁻¹} on g/F₀, in the negative basis order.

    Right-action convention: adjoint_quotient(g·h) equals
    adjoint_quotient(h)·adjoint_quotient(g).  The coordinates of every
    conjugated basis element come from one ``coords_of_many`` reduction.
    Raises NotFiltrationPreserving, naming the first basis element in basis
    order that Ad_{g⁻¹} moves below its filtration level.
    """
    ginv = mat_inverse(g)
    neg = algebra.negative_names()
    moved = algebra.coords_of_many(
        [mat_mul(mat_mul(ginv, algebra.basis[n]), g) for n in algebra.names])
    cols = {}
    for n, coords in zip(algebra.names, moved):
        lvl = algebra.filtration_level(coords)
        if lvl is not None and lvl < algebra.grading[n]:
            raise NotFiltrationPreserving(
                f"Ad moves {n} from degree {algebra.grading[n]} down to {lvl}"
            )
        if n in neg:
            cols[n] = coords
    return [
        [cols[cn].get(rn, Scalar.zero()) for cn in neg]
        for rn in neg
    ]


@dataclass
class FilteredMap:
    """Linear map from an abstract graded nilpotent into a matrix algebra."""

    source: GradedNilpotent
    target: MatrixLieAlgebra
    images: dict  # {source basis name: {target basis name: Scalar}}


def check_filtered_morphism(fmap: FilteredMap) -> dict:
    """Report {is_hom, bracket_failures, filtration_profile, injective}."""
    src, tgt = fmap.source, fmap.target
    images = {
        n: {k: Scalar.of(v) for k, v in img.items()}
        for n, img in fmap.images.items()
    }

    def push(coords: Mapping[str, Scalar]) -> dict:
        out: dict = {}
        for n, c in coords.items():
            for k, v in images[n].items():
                s = out.get(k, Scalar.zero()) + c * v
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    failures = []
    names = src.names
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            lhs = push(src.bracket_coords({a: Scalar.one()}, {b: Scalar.one()}))
            rhs = tgt.bracket_coords(images[a], images[b])
            diff = dict(rhs)
            for k, v in lhs.items():
                s = diff.get(k, Scalar.zero()) - v
                if s.is_zero():
                    diff.pop(k, None)
                else:
                    diff[k] = s
            if diff:
                failures.append((a, b))

    profile = {n: tgt.filtration_level(images[n]) for n in names}

    tgt_idx = {n: i for i, n in enumerate(tgt.names)}
    rows = []
    for n in names:
        row = [Scalar.zero()] * tgt.dim
        for k, v in images[n].items():
            row[tgt_idx[k]] = v
        rows.append(row)
    injective = rank_of(rows) == len(names)

    return {
        "is_hom": not failures,
        "bracket_failures": failures,
        "filtration_profile": profile,
        "injective": injective,
    }


# --------------------------------------------------------------------------
# the two models
# --------------------------------------------------------------------------

M_FORM_ORDER = [
    "th1", "th2", "om0", "om1p", "om2p",
    "ga12", "ze1", "ze2", "ga21", "ga01", "ga02", "ga", "gam1", "gam2",
]

M_GRADING = {
    "th1": -3, "th2": -3, "om0": -2, "om1p": -1, "om2p": -1,
    "ga12": 0, "ze1": 0, "ze2": 0, "ga21": 0,
    "ga01": 1, "ga02": 1, "ga": 2, "gam1": 3, "gam2": 3,
}

# Maurer-Cartan matrix of the 7x7 model in the rational basis (the classical
# presentation carries sqrt2 factors in the middle row and column; conjugating
# by diag(1,1,1,1/sqrt2,1,1,1) clears them without touching the structure
# constants).
M_MC_ENTRIES = [
    ["-ze2-2*ze1", "ga02", "-ga01", "-2*ga", "gam2", "gam1", "0"],
    ["om2p", "-ze2-ze1", "-ga21", "-2*ga01", "ga", "0", "-gam1"],
    ["-om1p", "-ga12", "-ze1", "-2*ga02", "0", "-ga", "-gam2"],
    ["om0", "-om1p", "-om2p", "0", "ga02", "ga01", "ga"],
    ["th2", "-om0", "0", "2*om2p", "ze1", "ga21", "ga01"],
    ["th1", "0", "om0", "2*om1p", "ga12", "ze2+ze1", "-ga02"],
    ["0", "-th1", "-th2", "-2*om0", "om1p", "-om2p", "ze2+2*ze1"],
]

N_FORM_ORDER = [
    "vt11", "vt12", "vt22",
    "vpi13", "vpi13p", "vpi23", "vpi23p",
    "et1_1", "et1_2", "et2_1", "et2_2", "et3_3", "et3_3p", "et3p_3",
    "et_13", "et_13p", "et_23", "et_23p",
    "et_11", "et_12", "et_22",
]

N_GRADING = {
    "vt11": -2, "vt12": -2, "vt22": -2,
    "vpi13": -1, "vpi13p": -1, "vpi23": -1, "vpi23p": -1,
    "et1_1": 0, "et1_2": 0, "et2_1": 0, "et2_2": 0,
    "et3_3": 0, "et3_3p": 0, "et3p_3": 0,
    "et_13": 1, "et_13p": 1, "et_23": 1, "et_23p": 1,
    "et_11": 2, "et_12": 2, "et_22": 2,
}

# sp(6) Maurer-Cartan matrix in the basis (e^1, e^2, e_3, e_1, e_2, e_{3'})
N_MC_ENTRIES = [
    ["-et1_1", "-et2_1", "-et_13", "et_11", "et_12", "et_13p"],
    ["-et1_2", "-et2_2", "-et_23", "et_12", "et_22", "et_23p"],
    ["vpi13", "vpi23", "et3_3", "et_13p", "et_23p", "et3_3p"],
    ["vt11", "vt12", "vpi13p", "et1_1", "et1_2", "-vpi13"],
    ["vt12", "vt22", "vpi23p", "et2_1", "et2_2", "-vpi23"],
    ["vpi13p", "vpi23p", "et3p_3", "et_13", "et_23", "-et3_3"],
]


def _basis_from_mc(entries, form_order):
    parsed = [[Scalar.parse(e) for e in row] for row in entries]
    basis = {}
    for f in form_order:
        basis[f] = [
            [entry.partial(f) for entry in row] for row in parsed
        ]
    return basis, parsed


def _verify_mc(algebra: MatrixLieAlgebra, parsed_entries):
    """Transcription oracle: dGamma = -Gamma ^ Gamma entry by entry."""
    ctx = CoframedContext(algebra.names, label=f"{algebra.name}-mc")
    for name, rule in mc_rules(algebra, ctx).items():
        ctx.set_rule(name, rule)
    n = algebra.size

    def entry_form(e: Scalar) -> Form:
        f = ctx.zero()
        for name in algebra.names:
            c = e.partial(name)
            if not c.is_zero():
                f = f + ctx.gen(name).scale(c)
        return f

    forms = [[entry_form(parsed_entries[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = forms[i][j].d()
            rhs = ctx.zero()
            for k in range(n):
                rhs = rhs - forms[i][k].wedge(forms[k][j])
            if lhs != rhs:
                raise AssertionError(
                    f"Maurer-Cartan transcription broken at entry ({i},{j})"
                )


def mc_rules(algebra: MatrixLieAlgebra, ctx: CoframedContext) -> dict:
    """d of each dual 1-form: dΓ^k = -Σ_{i<j} c^k_{ij} Γ^i ∧ Γ^j."""
    sc = algebra.structure_constants()
    rules = {n: ctx.zero() for n in algebra.names}
    for (ni, nj), val in sc.items():
        w = ctx.gen(ni).wedge(ctx.gen(nj))
        for k, c in val.items():
            rules[k] = rules[k] - w.scale(c)
    return rules


@lru_cache(maxsize=None)
def g2_model() -> MatrixLieAlgebra:
    basis, parsed = _basis_from_mc(M_MC_ENTRIES, M_FORM_ORDER)
    alg = MatrixLieAlgebra("g2", basis, M_GRADING)
    _verify_mc(alg, parsed)
    return alg


@lru_cache(maxsize=None)
def sp6_model() -> MatrixLieAlgebra:
    basis, parsed = _basis_from_mc(N_MC_ENTRIES, N_FORM_ORDER)
    alg = MatrixLieAlgebra("sp6", basis, N_GRADING)
    _verify_mc(alg, parsed)
    return alg


# ---- group elements used by the normalization moves ----------------------

def m_torus(t1, t2) -> Matrix:
    """Diagonal torus of the 7x7 model: diag(t1⁻²t2⁻¹, …, t1²t2)."""
    t1, t2 = Scalar.of(t1), Scalar.of(t2)
    one = Scalar.one()
    weights = [
        (one / (t1 * t1)) / t2,
        (one / t1) / t2,
        one / t1,
        one,
        t1,
        t1 * t2,
        t1 * t1 * t2,
    ]
    n = 7
    out = mat_zero(n)
    for i, w in enumerate(weights):
        out[i][i] = w
    return out


def n_gl_up(b: Matrix) -> Matrix:
    """GL(U') block inside Sp(6): b on (e_1,e_2), (bᵀ)⁻¹ on (e^1,e^2)."""
    binv_t = transpose(mat_inverse(b))
    out = mat_identity(6)
    for i in range(2):
        for j in range(2):
            out[i][j] = binv_t[i][j]
            out[3 + i][3 + j] = b[i][j]
    return out


def n_sp_q(s: Matrix) -> Matrix:
    """SL(2) on the symplectic plane (e_3, e_{3'})."""
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    if det != Scalar.one():
        raise ValueError("Sp(Q) element must have determinant 1")
    out = mat_identity(6)
    idx = [2, 5]
    for i in range(2):
        for j in range(2):
            out[idx[i]][idx[j]] = s[i][j]
    return out


def symplectic_form_matrix() -> Matrix:
    j = mat_zero(6)
    pairs = [(0, 3), (1, 4), (2, 5)]
    for (a, b) in pairs:
        j[a][b] = Scalar.one()
        j[b][a] = Scalar.rational(-1)
    return j
