"""Linear tableau analysis over exact scalars.

A tableau here is a subspace of Hom(V, W) for the graded model spaces:
V is spanned by the five source directions (two theta slots, three omega
slots) and W by the seven target rows.  The operations are Cartan characters
by flag sampling, exact prolongation, Cartan's involutivity test, and span
comparison of coordinate families.

Each question is answered by one exact elimination, read through its pivot
rows.  Tableau entries must be constants: for a matrix of constants the
elimination takes the rows in index order and skips only the rows that
reduce to zero, so the pivot rows below r are a basis of the first r rows.
That one reading gives the ranks of every prefix of a matrix, which is what
the flag ranks and the basis selection need.  With a symbolic entry the
pivot search may take a later row first and the reading fails, so tableaux
refuse non-constant entries.
"""

import random
from dataclasses import dataclass
from itertools import permutations

from .geometry import AB_KEYS, I_KEYS, SLOTS
from .scalar import Scalar, mat_mul_vec, rank_of, solve_linear

W_KEYS = AB_KEYS + I_KEYS
SYM_PAIRS = [
    (SLOTS[i], SLOTS[j])
    for i in range(len(SLOTS))
    for j in range(i, len(SLOTS))
]


class DimensionMismatch(Exception):
    pass


def _flatten_matrix(mat) -> list:
    return [Scalar.of(x) for row in mat for x in row]


def _constant_matrix(mat, index: int) -> list:
    """Element ``index`` of a tableau family as a 7x5 matrix of constants."""
    rows = [[Scalar.of(x) for x in row] for row in mat]
    if len(rows) != len(W_KEYS) or any(len(r) != len(SLOTS) for r in rows):
        raise ValueError("tableau elements must be 7x5 matrices")
    for w, row in zip(W_KEYS, rows):
        for slot, x in zip(SLOTS, row):
            if not x.is_constant():
                raise ValueError(
                    f"tableau element {index} has the non-constant entry "
                    f"{x} at ({w}, {slot})"
                )
    return rows


class LinearTableau:
    """Span of linearly independent 7x5 constant matrices inside Hom(V, W)."""

    def __init__(self, basis):
        mats = [_constant_matrix(mat, k) for k, mat in enumerate(basis)]
        flats = [_flatten_matrix(m) for m in mats]
        if rank_of(flats) != len(flats):
            raise ValueError("tableau basis is linearly dependent")
        self.basis = mats
        self._flats = flats

    @property
    def dim(self) -> int:
        return len(self.basis)

    def flats(self) -> list:
        return [list(f) for f in self._flats]

    def contains(self, mat) -> bool:
        return rank_of(self._flats + [_flatten_matrix(mat)]) == self.dim

    @staticmethod
    def from_spanning(mats) -> "LinearTableau":
        """Reduce a spanning family to an independent basis, in order.

        Keeps each matrix that is not in the span of the ones before it:
        the pivot rows of one elimination of the flattened family.
        """
        mats = [_constant_matrix(mat, k) for k, mat in enumerate(mats)]
        flats = [_flatten_matrix(m) for m in mats]
        pivots = solve_linear(flats, [Scalar.zero()] * len(flats)).pivot_rows
        return LinearTableau([mats[i] for i in sorted(pivots)])


def _flag_rank_sums(tableau: LinearTableau, flag) -> list:
    """Rank of evaluation on the first k flag vectors, for k = 1..5.

    One elimination of the 35 x dim evaluation matrix, whose row (k, w)
    holds the W-component w of every tableau element applied to flag
    vector k.  The rank on the first k vectors is the rank of its first 7k
    rows, which for constant entries is the number of pivot rows below 7k.
    """
    values = [
        [x for v in flag for x in mat_mul_vec(mat, v)] for mat in tableau.basis
    ]
    rows = [list(col) for col in zip(*values)]
    pivots = solve_linear(rows, [Scalar.zero()] * len(rows)).pivot_rows
    width = len(W_KEYS)
    return [
        sum(i < width * k for i in pivots) for k in range(1, len(SLOTS) + 1)
    ]


def _increments(sums) -> tuple:
    return tuple(
        sums[k] - (sums[k - 1] if k else 0) for k in range(len(sums))
    )


def cartan_characters(tableau: LinearTableau, trials: int = 12,
                      seed: int = 0, flag: str = "graded") -> tuple:
    """Cartan characters of the tableau.

    The characters are the increments of the flag ranks: the rank of
    evaluating the tableau on the first k flag vectors, k = 1..5.  Each
    flag costs one elimination (``_flag_rank_sums``), exact because the
    tableau and the flag are constant.

    With flag="graded" (the default) the characters are read off the
    ordered coordinate flag of the five graded source directions, which is
    the flag the application's involutivity bound is stated against.  With
    flag="generic" they are computed from seeded random rational flags,
    keeping the entrywise maximum of the partial sums over all trials; if
    the later trials disagree with that maximum, all coordinate flags are
    maximized over as well.
    """
    if flag == "graded":
        basis = [
            [Scalar.one() if j == k else Scalar.zero()
             for j in range(len(SLOTS))]
            for k in range(len(SLOTS))
        ]
        return _increments(_flag_rank_sums(tableau, basis))
    if flag != "generic":
        raise ValueError(f"unknown flag mode {flag!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    best = [0] * len(SLOTS)
    history = []
    for _ in range(trials):
        sample = [
            [Scalar.rational(rng.randint(-9, 9)) for _ in SLOTS]
            for _ in SLOTS
        ]
        sums = _flag_rank_sums(tableau, sample)
        history.append(sums)
        best = [max(b, s) for b, s in zip(best, sums)]
    if any(h != best for h in history[trials // 2:]):
        for perm in permutations(range(len(SLOTS))):
            basis = [
                [Scalar.one() if j == p else Scalar.zero() for j in
                 range(len(SLOTS))]
                for p in perm
            ]
            sums = _flag_rank_sums(tableau, basis)
            best = [max(b, s) for b, s in zip(best, sums)]
    return _increments(best)


@dataclass(frozen=True)
class SymTensor:
    """Element of W tensor Sym^2 V-dual in evaluation coordinates.

    The coordinate at (w, i, j) is the W-component w of the tensor evaluated
    on the pair of basis vectors (e_i, e_j); slot pairs are stored sorted.
    """

    coeffs: tuple

    @staticmethod
    def from_entries(entries) -> "SymTensor":
        canon = {}
        for (w, si, sj), c in entries.items():
            i, j = sorted((SLOTS.index(si), SLOTS.index(sj)))
            key = (w, SLOTS[i], SLOTS[j])
            canon[key] = canon.get(key, Scalar.zero()) + Scalar.of(c)
        items = tuple(
            (k, v) for k, v in sorted(canon.items()) if not v.is_zero()
        )
        return SymTensor(items)

    def coeff(self, w: str, si: str, sj: str) -> Scalar:
        i, j = sorted((SLOTS.index(si), SLOTS.index(sj)))
        key = (w, SLOTS[i], SLOTS[j])
        for k, v in self.coeffs:
            if k == key:
                return v
        return Scalar.zero()

    def contract(self, slot: str) -> list:
        """The Hom(V, W) matrix obtained by evaluating the first slot."""
        return [
            [self.coeff(w, slot, s) for s in SLOTS] for w in W_KEYS
        ]

    def flat(self) -> list:
        return [
            self.coeff(w, si, sj) for w in W_KEYS for (si, sj) in SYM_PAIRS
        ]


class ProlongationSpace:
    """Basis of the first prolongation of a tableau.

    Every contraction of every basis tensor must lie in the tableau.  One
    rank checks them all: the tableau basis together with all 5 * len(basis)
    contractions spans no more than the tableau exactly when each
    contraction is in it.
    """

    def __init__(self, tableau: LinearTableau, basis):
        basis = list(basis)
        contractions = [
            _flatten_matrix(t.contract(slot)) for t in basis for slot in SLOTS
        ]
        if rank_of(tableau.flats() + contractions) != tableau.dim:
            raise ValueError("prolongation element leaves the tableau")
        self.tableau = tableau
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def _annihilator(tableau: LinearTableau) -> list:
    n = len(W_KEYS) * len(SLOTS)
    if tableau.dim == 0:
        return [
            [Scalar.one() if i == k else Scalar.zero() for i in range(n)]
            for k in range(n)
        ]
    sol = solve_linear(tableau.flats(), [Scalar.zero()] * tableau.dim)
    return sol.nullspace


def prolong(tableau: LinearTableau) -> ProlongationSpace:
    """Exact kernel computation of the first prolongation.

    The unknown symmetric tensor must contract, on every first slot, into
    the tableau; the annihilator of the tableau inside Hom(V, W) turns that
    into a square linear system on the evaluation coordinates.
    """
    unknowns = [(w, pair) for w in W_KEYS for pair in SYM_PAIRS]
    index = {u: k for k, u in enumerate(unknowns)}
    rows = []
    for phi in _annihilator(tableau):
        for si in SLOTS:
            row = [Scalar.zero()] * len(unknowns)
            pos = 0
            for w in W_KEYS:
                for sj in SLOTS:
                    c = phi[pos]
                    pos += 1
                    if c.is_zero():
                        continue
                    pair = tuple(
                        SLOTS[k]
                        for k in sorted((SLOTS.index(si), SLOTS.index(sj)))
                    )
                    k = index[(w, pair)]
                    row[k] = row[k] + c
            rows.append(row)
    if rows:
        sol = solve_linear(rows, [Scalar.zero()] * len(rows))
        vectors = sol.nullspace
    else:
        vectors = [
            [Scalar.one() if i == k else Scalar.zero()
             for i in range(len(unknowns))]
            for k in range(len(unknowns))
        ]
    basis = []
    for vec in vectors:
        entries = {
            (w, pair[0], pair[1]): c
            for (w, pair), c in zip(unknowns, vec)
            if not c.is_zero()
        }
        basis.append(SymTensor.from_entries(entries))
    return ProlongationSpace(tableau, basis)


def involutivity_test(tableau: LinearTableau, trials: int = 12,
                      seed: int = 0, flag: str = "graded") -> dict:
    """Cartan's test: compare the prolongation dimension with the bound."""
    s = cartan_characters(tableau, trials=trials, seed=seed, flag=flag)
    required = sum((k + 1) * s[k] for k in range(len(s)))
    actual = prolong(tableau).dim
    return {
        "characters": s,
        "required": required,
        "actual": actual,
        "involutive": required == actual,
    }


def _coords(element) -> list:
    if isinstance(element, SymTensor):
        return element.flat()
    if element and isinstance(element[0], (list, tuple)):
        return _flatten_matrix(element)
    return [Scalar.of(x) for x in element]


def compare_span(family1, family2) -> bool:
    """Whether two coordinate families span the same subspace."""
    c1 = [_coords(el) for el in family1]
    c2 = [_coords(el) for el in family2]
    lengths = {len(c) for c in c1 + c2}
    if len(lengths) > 1:
        raise DimensionMismatch(f"ambient dimensions differ: {lengths}")
    if not c1 and not c2:
        return True
    if not c1 or not c2:
        return rank_of(c1 or c2) == 0
    r1, r2 = rank_of(c1), rank_of(c2)
    return r1 == r2 == rank_of(c1 + c2)
