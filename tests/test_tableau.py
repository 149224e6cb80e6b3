import random

import pytest

from eds235 import tableau
from eds235.jet import linearized_tableau
from eds235.scalar import QuadExt, Scalar, mat_mul_vec, rank_of
from eds235.tableau import (
    DimensionMismatch,
    LinearTableau,
    ProlongationSpace,
    SLOTS,
    SymTensor,
    W_KEYS,
    cartan_characters,
    compare_span,
    involutivity_test,
    prolong,
)

S = Scalar.parse
ROW = {k: i for i, k in enumerate(W_KEYS)}
COL = {s: j for j, s in enumerate(SLOTS)}


def mat(*terms):
    out = [[Scalar.zero()] * len(SLOTS) for _ in W_KEYS]
    for c, key, slot in terms:
        out[ROW[key]][COL[slot]] = S(c)
    return out


def unit_matrices():
    return [
        mat(("1", key, slot)) for key in W_KEYS for slot in SLOTS
    ]


# The fourteen matrices spanning the final-locus tableau.
TABLEAU_BASIS = [
    mat(("1", "11", "1"), ("3/2", "13p", "1p")),
    mat(("1", "11", "2"), ("3/2", "13p", "2p")),
    mat(("1", "12", "1"), ("3", "23p", "1p")),
    mat(("1", "12", "2"), ("3", "23p", "2p")),
    mat(("1", "22", "1"), ("3/2", "23", "0"), ("-3/2", "23p", "2p")),
    mat(("1", "13", "1")),
    mat(("1", "13", "2"), ("2", "23p", "0")),
    mat(("1", "13", "0"), ("-1", "13p", "2p"), ("-1", "23p", "1p")),
    mat(("1", "13", "2p"), ("1", "23", "1p")),
    mat(("1", "13p", "1")),
    mat(("1", "13p", "2")),
    mat(("1", "13p", "0")),
    mat(("1", "23", "1"), ("-4", "23p", "0")),
    mat(("1", "23p", "1")),
]

# The eighteen symmetric tensors spanning the prolongation (symmetric
# products encoded with doubled diagonal entries).
PROLONGATION_BASIS = [
    {("11", "1", "1"): 2, ("13p", "1", "1p"): 3},
    {("11", "1", "2"): 2, ("13p", "1", "2p"): 3, ("13p", "2", "1p"): 3},
    {("11", "2", "2"): 2, ("13p", "2", "2p"): 3},
    {("12", "1", "1"): 2, ("23p", "1", "1p"): 6},
    {("12", "1", "2"): 1, ("23p", "1", "2p"): 3, ("13", "2", "0"): 3,
     ("13p", "2", "2p"): -3, ("23p", "0", "0"): 6},
    {("22", "1", "1"): 2, ("23", "1", "0"): 3, ("23p", "1", "2p"): -3,
     ("23p", "0", "0"): -12},
    {("13", "1", "1"): 2},
    {("13", "1", "2"): 1, ("23p", "1", "0"): 2},
    {("13", "1", "0"): 1, ("13p", "1", "2p"): -1, ("23p", "1", "1p"): -1},
    {("13", "1", "2p"): 1, ("23", "1", "1p"): 1, ("13", "0", "0"): 4,
     ("13p", "0", "2p"): -4, ("23p", "0", "1p"): -4},
    {("13p", "1", "1"): 2},
    {("13p", "1", "2"): 1},
    {("13p", "2", "2"): 2},
    {("13p", "1", "0"): 1},
    {("13p", "2", "0"): 1},
    {("13p", "0", "0"): 2},
    {("23", "1", "1"): 2, ("23p", "1", "0"): -8},
    {("23p", "1", "1"): 2},
]


def reference_tableau():
    return LinearTableau(TABLEAU_BASIS)


class TestLinearTableau:
    def test_dependent_basis_rejected(self):
        m = mat(("1", "11", "1"))
        with pytest.raises(ValueError):
            LinearTableau([m, mat(("2", "11", "1"))])

    def test_from_spanning_reduces(self):
        m1 = mat(("1", "11", "1"))
        m2 = mat(("1", "12", "2"))
        m3 = mat(("1", "11", "1"), ("1", "12", "2"))
        A = LinearTableau.from_spanning([m1, m2, m3])
        assert A.dim == 2
        assert A.contains(m3)

    def test_non_constant_entry_rejected(self):
        m = mat(("1", "11", "1"))
        bad = mat(("1", "12", "2"))
        bad[ROW["23p"]][COL["0"]] = S("A3")
        with pytest.raises(ValueError, match=r"element 1 .*A3 at \(23p, 0\)"):
            LinearTableau([m, bad])
        with pytest.raises(ValueError, match=r"element 2 .*A3 at \(23p, 0\)"):
            LinearTableau.from_spanning([m, m, bad])

    def test_derived_tableau_matches_reference(self):
        A = linearized_tableau()
        assert A.dim == 14
        assert compare_span(A.basis, TABLEAU_BASIS)


class TestCartanCharacters:
    def test_graded_flag(self):
        assert cartan_characters(reference_tableau()) == (7, 4, 2, 1, 0)

    def test_generic_flag(self):
        chars = cartan_characters(reference_tableau(), flag="generic")
        assert chars == (7, 6, 1, 0, 0)
        # generic characters are weakly decreasing
        assert all(chars[i] >= chars[i + 1] for i in range(4))

    def test_zero_tableau(self):
        A = LinearTableau([])
        assert cartan_characters(A) == (0, 0, 0, 0, 0)
        assert cartan_characters(A, flag="generic") == (0, 0, 0, 0, 0)

    def test_full_hom(self):
        A = LinearTableau(unit_matrices())
        assert cartan_characters(A) == (7, 7, 7, 7, 7)
        assert cartan_characters(A, flag="generic") == (7, 7, 7, 7, 7)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cartan_characters(reference_tableau(), trials=0, flag="generic")
        with pytest.raises(ValueError):
            cartan_characters(reference_tableau(), flag="typical")


class TestProlongation:
    def test_dimension_and_span(self):
        P = prolong(reference_tableau())
        assert P.dim == 18
        reference = [SymTensor.from_entries(e) for e in PROLONGATION_BASIS]
        assert compare_span(P.basis, reference)

    def test_zero_and_full(self):
        assert prolong(LinearTableau([])).dim == 0
        assert prolong(LinearTableau(unit_matrices())).dim == 105

    def test_dimension_is_basis_independent(self):
        rng = random.Random(31)
        basis = [
            [list(row) for row in m] for m in TABLEAU_BASIS
        ]
        # random invertible change of basis: shears plus scales
        for i in range(len(basis)):
            for j in range(i):
                c = Scalar.rational(rng.randint(-3, 3))
                basis[i] = [
                    [basis[i][r][s] + c * basis[j][r][s]
                     for s in range(len(SLOTS))]
                    for r in range(len(W_KEYS))
                ]
            c = Scalar.rational(rng.choice([1, 2, 3, -1, -2]))
            basis[i] = [[c * x for x in row] for row in basis[i]]
        A = LinearTableau(basis)
        assert prolong(A).dim == 18
        assert compare_span(A.basis, TABLEAU_BASIS)

    def test_contractions_stay_in_tableau(self):
        A = reference_tableau()
        for t in prolong(A).basis:
            for slot in SLOTS:
                assert A.contains(t.contract(slot))

    def test_invalid_element_rejected(self):
        A = LinearTableau([mat(("1", "11", "1"))])
        bad = SymTensor.from_entries({("12", "1", "1"): 1})
        with pytest.raises(ValueError):
            ProlongationSpace(A, [bad])

    def test_cartan_bound_on_random_tableaux(self):
        rng = random.Random(17)
        for _ in range(2):
            mats = [
                [[Scalar.rational(rng.randint(-2, 2)) for _ in SLOTS]
                 for _ in W_KEYS]
                for _ in range(3)
            ]
            A = LinearTableau.from_spanning(mats)
            chars = cartan_characters(A, flag="generic")
            assert all(chars[i] >= chars[i + 1] for i in range(4))
            bound = sum((k + 1) * chars[k] for k in range(5))
            assert prolong(A).dim <= bound


class TestInvolutivity:
    def test_main_tableau(self):
        report = involutivity_test(reference_tableau())
        assert report["characters"] == (7, 4, 2, 1, 0)
        assert report["required"] == 25
        assert report["actual"] == 18
        assert report["involutive"] is False

    def test_main_tableau_generic_flag(self):
        report = involutivity_test(reference_tableau(), flag="generic")
        assert report["required"] == 22
        assert report["actual"] == 18
        assert report["involutive"] is False

    def test_zero_tableau(self):
        report = involutivity_test(LinearTableau([]))
        assert report == {
            "characters": (0, 0, 0, 0, 0),
            "required": 0,
            "actual": 0,
            "involutive": True,
        }

    def test_full_hom(self):
        report = involutivity_test(LinearTableau(unit_matrices()))
        assert report["required"] == 105
        assert report["actual"] == 105
        assert report["involutive"] is True


# ---------------------------------------------------------------------------
# one elimination per question against the per-rank definitions
# ---------------------------------------------------------------------------

def _flat(m):
    return [x for row in m for x in row]


def _reference_flag_rank_sums(A, flag):
    """One rank per prefix of the flag, on the evaluation columns."""
    rows = [[x for v in flag for x in mat_mul_vec(m, v)] for m in A.basis]
    width = len(W_KEYS)
    return [
        rank_of([row[: width * k] for row in rows])
        for k in range(1, len(SLOTS) + 1)
    ]


def _reference_from_spanning(mats):
    """Greedy: keep a matrix when it raises the rank of the ones kept."""
    chosen, flats = [], []
    for m in mats:
        candidate = flats + [_flat(m)]
        if rank_of(candidate) == len(candidate):
            chosen.append(m)
            flats = candidate
    return chosen


def _reference_contractions_inside(A, tensors):
    """One membership test per contraction."""
    return all(A.contains(t.contract(slot)) for t in tensors for slot in SLOTS)


def _coordinate_flag():
    return [
        [Scalar.one() if j == k else Scalar.zero() for j in range(len(SLOTS))]
        for k in range(len(SLOTS))
    ]


def _rand_constant(rng):
    if rng.random() < 0.8:
        return Scalar.rational(rng.randint(-3, 3), rng.randint(1, 2))
    return Scalar.from_quad(QuadExt.of(rng.randint(-2, 2), rng.randint(-1, 1)))


def _rand_tensor(rng):
    return SymTensor.from_entries({
        (rng.choice(W_KEYS), rng.choice(SLOTS), rng.choice(SLOTS)):
            _rand_constant(rng)
        for _ in range(rng.randint(2, 5))
    })


def _with_dependents(rng, mats):
    """The family with a few combinations of its members inserted."""
    family = list(mats)
    for _ in range(rng.randint(1, 3)):
        if not family:
            break
        a, b = rng.choice(family), rng.choice(family)
        c = _rand_constant(rng)
        combo = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        family.insert(rng.randint(0, len(family)), combo)
    return family


def _assert_matches_reference(A, rng, monkeypatch, trials=12):
    flags = [_coordinate_flag()] + [
        [[_rand_constant(rng) for _ in SLOTS] for _ in SLOTS]
    ]
    for flag in flags:
        assert tableau._flag_rank_sums(A, flag) == \
            _reference_flag_rank_sums(A, flag)
    got = [cartan_characters(A, trials=trials, flag=f)
           for f in ("graded", "generic")]
    with monkeypatch.context() as m:
        m.setattr(tableau, "_flag_rank_sums", _reference_flag_rank_sums)
        want = [cartan_characters(A, trials=trials, flag=f)
                for f in ("graded", "generic")]
    assert got == want
    family = _with_dependents(rng, A.basis)
    assert LinearTableau.from_spanning(family).basis == \
        _reference_from_spanning(family)


def _assert_prolongation_matches_reference(A):
    """The one-rank check accepts the prolongation basis and rejects it
    with the first unit tensor the reference finds outside appended."""
    P = prolong(A)
    assert _reference_contractions_inside(A, P.basis)
    units = (SymTensor.from_entries({(w, s, s): 1}) for w in W_KEYS for s in SLOTS)
    outside = next(t for t in units if not _reference_contractions_inside(A, [t]))
    with pytest.raises(ValueError, match="leaves the tableau"):
        ProlongationSpace(A, P.basis + [outside])
    return P


class TestOneEliminationPerQuestion:
    def test_named_tableaux(self, monkeypatch):
        rng = random.Random(41)
        derived = linearized_tableau()
        for A in (reference_tableau(), LinearTableau(unit_matrices()),
                  LinearTableau([]), derived):
            _assert_matches_reference(A, rng, monkeypatch)
        assert [_assert_prolongation_matches_reference(A).dim for A in (
            reference_tableau(), LinearTableau([]), derived
        )] == [18, 0, 18]

    def test_seeded_random_tableaux(self, monkeypatch):
        # tableaux spanned by the contractions of one or two sparse
        # symmetric tensors, so the prolongation is never zero
        rng = random.Random(43)
        seen = set()
        for _ in range(20):
            tensors = [_rand_tensor(rng) for _ in range(rng.randint(1, 2))]
            mats = [t.contract(s) for t in tensors for s in SLOTS]
            A = LinearTableau.from_spanning(mats)
            assert A.basis == _reference_from_spanning(mats)
            _assert_matches_reference(A, rng, monkeypatch, trials=4)
            P = _assert_prolongation_matches_reference(A)
            assert P.dim >= 1
            seen.add(cartan_characters(A))
        assert len(seen) >= 10, seen

    def test_tensor_outside_the_prolongation_is_rejected(self):
        A = reference_tableau()
        P = prolong(A)
        bad = SymTensor.from_entries({("12", "1", "1"): 1})
        assert not _reference_contractions_inside(A, [bad])
        with pytest.raises(ValueError, match="leaves the tableau"):
            ProlongationSpace(A, P.basis + [bad])
        # a prolongation element with one entry added: only its slot-0
        # contraction leaves the tableau
        near = SymTensor.from_entries(
            {**PROLONGATION_BASIS[0], ("12", "0", "0"): 1})
        assert not _reference_contractions_inside(A, [near])
        with pytest.raises(ValueError, match="leaves the tableau"):
            ProlongationSpace(A, P.basis[1:] + [near])
        assert ProlongationSpace(A, P.basis).dim == 18


class TestCompareSpan:
    def test_same_and_missing(self):
        assert compare_span(TABLEAU_BASIS, TABLEAU_BASIS)
        assert not compare_span(TABLEAU_BASIS, TABLEAU_BASIS[:-1])
        assert compare_span([], [])

    def test_ambient_mismatch(self):
        tensors = [SymTensor.from_entries({("11", "1", "1"): 1})]
        with pytest.raises(DimensionMismatch):
            compare_span(TABLEAU_BASIS, tensors)
