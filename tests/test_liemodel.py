"""Lie-algebra layer: the two models, gradings, quotient actions."""

import random

import pytest

from eds235.liemodel import (
    FilteredMap,
    NotFiltrationPreserving,
    NotFundamental,
    NotInSpan,
    NotNilpotent,
    GradedNilpotent,
    adjoint_quotient,
    check_filtered_morphism,
    commutator,
    exp_nilpotent,
    g2_model,
    growth_vector,
    m_torus,
    mat,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_is_zero,
    mat_scale,
    mat_zero,
    n_gl_up,
    n_sp_q,
    negative_part,
    sp6_model,
    symplectic_form_matrix,
    transpose,
)
from eds235.scalar import Scalar

ONE = Scalar.one()


def test_models_close_and_satisfy_jacobi():
    for alg in (g2_model(), sp6_model()):
        sc = alg.structure_constants()  # NotClosed would raise
        names = alg.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                for k in range(j + 1, len(names)):
                    x, y, z = ({names[i]: ONE}, {names[j]: ONE}, {names[k]: ONE})
                    s = alg.bracket_coords(x, alg.bracket_coords(y, z))
                    for a, b, c in ((z, x, y), (x, y, z)):
                        extra = alg.bracket_coords(c, alg.bracket_coords(a, b))
                        for n, v in extra.items():
                            s[n] = s.get(n, Scalar.zero()) + v
                    assert all(v.is_zero() for v in s.values()), (i, j, k)


def test_grading_is_respected():
    for alg in (g2_model(), sp6_model()):
        for (ni, nj), val in alg.structure_constants().items():
            want = alg.grading[ni] + alg.grading[nj]
            for k in val:
                assert alg.grading[k] == want, (ni, nj, k)


def test_dimensions_and_sizes():
    assert g2_model().dim == 14 and g2_model().size == 7
    assert sp6_model().dim == 21 and sp6_model().size == 6


def test_growth_vectors():
    assert growth_vector(negative_part(g2_model())) == (2, 3, 5)
    assert growth_vector(negative_part(sp6_model())) == (4, 7)


def test_growth_vector_not_fundamental():
    # degree -1 part bracketing to zero cannot generate degree -2
    gn = GradedNilpotent(
        "bad", ["x", "y"], {"x": -1, "y": -2}, {}
    )
    with pytest.raises(NotFundamental):
        growth_vector(gn)


def test_negative_bracket_table():
    g2, sp6 = g2_model(), sp6_model()
    two, three = Scalar.rational(2), Scalar.rational(3)
    assert g2.bracket_coords({"om1p": ONE}, {"om2p": ONE}) == {"om0": -two}
    assert g2.bracket_coords({"om0": ONE}, {"om1p": ONE}) == {"th1": -three}
    assert g2.bracket_coords({"om0": ONE}, {"om2p": ONE}) == {"th2": -three}
    assert sp6.bracket_coords({"vpi13": ONE}, {"vpi13p": ONE}) == {"vt11": -two}
    assert sp6.bracket_coords({"vpi13": ONE}, {"vpi23p": ONE}) == {"vt12": -ONE}
    assert sp6.bracket_coords({"vpi23": ONE}, {"vpi23p": ONE}) == {"vt22": -two}
    assert sp6.bracket_coords({"vpi23": ONE}, {"vpi13p": ONE}) == {"vt12": -ONE}
    assert sp6.bracket_coords({"vpi13": ONE}, {"vpi23": ONE}) == {}
    assert sp6.bracket_coords({"vpi13p": ONE}, {"vpi23p": ONE}) == {}


def test_nilpotent_generator_entries():
    # spot-pin a few basis matrices straight off the coefficient extraction
    g2 = g2_model()
    x = g2.basis["ga02"]
    nonzero = {
        (i, j): x[i][j]
        for i in range(7)
        for j in range(7)
        if not x[i][j].is_zero()
    }
    assert nonzero == {
        (0, 1): ONE,
        (2, 3): Scalar.rational(-2),
        (3, 4): ONE,
        (5, 6): -ONE,
    }
    sp6 = sp6_model()
    y = sp6.basis["et_13p"]
    nz = {
        (i, j): y[i][j]
        for i in range(6)
        for j in range(6)
        if not y[i][j].is_zero()
    }
    assert nz == {(0, 5): ONE, (2, 3): ONE}


def test_exp_nilpotent():
    g2 = g2_model()
    x = g2.basis["ga02"]
    g = exp_nilpotent(x)
    ginv = exp_nilpotent(mat_scale(x, Scalar.rational(-1)))
    assert mat_mul(g, ginv) == mat_identity(7)
    with pytest.raises(NotNilpotent):
        exp_nilpotent(mat_identity(3))


def test_coords_not_in_span():
    sp6 = sp6_model()
    bad = mat_zero(6)
    bad[0][0] = ONE  # not traceless-compatible with the basis span pattern
    with pytest.raises(NotInSpan):
        sp6.coords_of(bad)


_PARABOLIC_POOL = {
    "g2": ["ga12", "ga21", "ga01", "ga02", "ga", "gam1", "gam2"],
    "sp6": ["et1_2", "et2_1", "et3_3p", "et3p_3",
            "et_13", "et_13p", "et_23", "et_23p", "et_11", "et_12", "et_22"],
}


def _random_group_element(alg, rng, k=2):
    """Random element of the filtration-preserving (parabolic) subgroup."""
    g = mat_identity(alg.size)
    if alg.name == "g2" and rng.random() < 0.5:
        g = m_torus(Scalar.rational(rng.choice([1, 2, -1])),
                    Scalar.rational(rng.choice([1, 3])))
    for _ in range(k):
        n = rng.choice(_PARABOLIC_POOL[alg.name])
        c = Scalar.rational(rng.randint(-2, 2))
        g = mat_mul(g, exp_nilpotent(mat_scale(alg.basis[n], c)))
    return g


def test_adjoint_quotient_right_action():
    rng = random.Random(7)
    for alg in (g2_model(), sp6_model()):
        for _ in range(5):
            g = _random_group_element(alg, rng)
            h = _random_group_element(alg, rng)
            lhs = adjoint_quotient(mat_mul(g, h), alg)
            rhs = mat_mul(adjoint_quotient(h, alg), adjoint_quotient(g, alg))
            assert lhs == rhs


def test_adjoint_quotient_filtration_guard():
    g2 = g2_model()
    # exp of a positive-degree element preserves the filtration
    adjoint_quotient(exp_nilpotent(g2.basis["ga"]), g2)
    # a permutation matrix mixing levels does not
    p = mat_zero(7)
    order = [6, 1, 2, 3, 4, 5, 0]
    for i, j in enumerate(order):
        p[i][j] = ONE
    with pytest.raises((NotFiltrationPreserving, NotInSpan)):
        adjoint_quotient(p, g2)


def test_torus_and_block_builders_are_symplectic_or_structural():
    j = symplectic_form_matrix()
    b = mat([[1, 2], [0, 1]])
    s = mat([[1, 1], [0, 1]])
    for g in (n_gl_up(b), n_sp_q(s)):
        assert mat_mul(transpose(g), mat_mul(j, g)) == j
    with pytest.raises(ValueError):
        n_sp_q(mat([[2, 0], [0, 2]]))
    # torus normalizes the g2 filtration
    t = m_torus(Scalar.rational(2), Scalar.rational(3))
    adjoint_quotient(t, g2_model())


def test_check_filtered_morphism_reports():
    g2 = g2_model()
    m = negative_part(g2)
    # the identity inclusion of the negative part into the full algebra
    images = {n: {n: ONE} for n in m.names}
    rep = check_filtered_morphism(FilteredMap(m, g2, images))
    assert rep["is_hom"] and rep["injective"]
    assert rep["filtration_profile"] == {n: g2.grading[n] for n in m.names}
    # breaking one image breaks the bracket check but still reports
    images2 = dict(images)
    images2["om0"] = {"om0": ONE, "th1": ONE, "ga": ONE}
    rep2 = check_filtered_morphism(FilteredMap(m, g2, images2))
    assert not rep2["is_hom"] and rep2["bracket_failures"]


def _per_basis_adjoint_quotient(g, alg):
    """Reference: one coords_of call, so one elimination, per basis element."""
    ginv = mat_inverse(g)
    neg = alg.negative_names()
    cols = {}
    for n in alg.names:
        coords = alg.coords_of(mat_mul(mat_mul(ginv, alg.basis[n]), g))
        lvl = alg.filtration_level(coords)
        if lvl is not None and lvl < alg.grading[n]:
            raise NotFiltrationPreserving(n)
        if n in neg:
            cols[n] = coords
    return [[cols[cn].get(rn, Scalar.zero()) for cn in neg] for rn in neg]


def test_adjoint_quotient_matches_the_per_basis_reference():
    rng = random.Random(29)
    for alg in (g2_model(), sp6_model()):
        for _ in range(6):
            g = _random_group_element(alg, rng, k=3)
            assert adjoint_quotient(g, alg) == _per_basis_adjoint_quotient(g, alg)


def test_coords_of_many_reads_each_matrix():
    rng = random.Random(31)
    for alg in (g2_model(), sp6_model()):
        coords = [
            {n: Scalar.rational(rng.randint(-3, 3)) for n in rng.sample(alg.names, 4)}
            for _ in range(5)
        ]
        mats = [alg.element(c) for c in coords]
        got = alg.coords_of_many(mats)
        assert got == [alg.coords_of(m) for m in mats]
        assert got == [{n: c for n, c in cs.items() if not c.is_zero()} for cs in coords]
    sp6 = sp6_model()
    bad = mat_zero(6)
    bad[0][0] = ONE
    with pytest.raises(NotInSpan, match="matrix not in span of sp6 basis"):
        sp6.coords_of_many([sp6.basis["vt11"], bad])
    assert sp6.coords_of_many([]) == []


def _rand_quad_matrix(rng, n):
    return [
        [Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3))
         + Scalar.sqrt7() * Scalar.rational(rng.randint(-2, 2)) for _ in range(n)]
        for _ in range(n)
    ]


def test_mat_inverse_over_q_sqrt7():
    rng = random.Random(37)
    inverted = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        a = _rand_quad_matrix(rng, n)
        try:
            inv = mat_inverse(a)
        except ValueError:
            continue
        assert mat_mul(a, inv) == mat_identity(n)
        assert mat_mul(inv, a) == mat_identity(n)
        inverted += 1
    assert inverted >= 30
    singular = _rand_quad_matrix(rng, 3)
    singular[2] = [x + y for x, y in zip(singular[0], singular[1])]
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inverse(singular)
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inverse(mat_zero(2))


@pytest.mark.parametrize("model, name, first", [
    ("g2", "om0", "Ad moves om1p from degree -1 down to -3"),
    ("g2", "om1p", "Ad moves om0 from degree -2 down to -3"),
    ("g2", "th1", "Ad moves ze1 from degree 0 down to -3"),
    ("sp6", "vt11", "Ad moves et1_1 from degree 0 down to -2"),
    ("sp6", "vpi13", "Ad moves vpi13p from degree -1 down to -2"),
])
def test_filtration_guard_names_the_first_basis_element(model, name, first):
    alg = {"g2": g2_model, "sp6": sp6_model}[model]()
    g = exp_nilpotent(alg.basis[name])
    with pytest.raises(NotFiltrationPreserving, match=f"^{first}$"):
        adjoint_quotient(g, alg)
    with pytest.raises(NotFiltrationPreserving):
        _per_basis_adjoint_quotient(g, alg)
