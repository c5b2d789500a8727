"""Wedge algebra, CE differential, Schouten / form / extended brackets."""

import itertools

import pytest

from engelhomology.exact import ParamPolynomial
from engelhomology.liealg import Vector4, class_type, family
from engelhomology.superalg import (
    FORM,
    MULTIVECTOR,
    GradedComponent,
    GradedElement,
    ce_differential,
    extended_bracket,
    form_bracket,
    interior_product,
    lie_derivative,
    schouten_bracket,
    vector_element,
    wedge,
)

PV = ParamPolynomial.variable


def zf(degree):
    return GradedComponent(FORM, degree)


def yv(degree):
    return GradedComponent(MULTIVECTOR, degree)


def z(*idx):
    return GradedElement.monomial(zf(len(idx)), idx)


def y(*idx):
    return GradedElement.monomial(yv(len(idx)), idx)


ONE = z()  # the 0-form


# -- components ------------------------------------------------------------


def test_grades_and_dimensions():
    assert [yv(a).grade for a in range(1, 5)] == [0, 1, 2, 3]
    assert [zf(p).grade for p in range(5)] == [-1, -2, -3, -4, -5]
    assert [yv(a).dimension for a in range(1, 5)] == [4, 6, 4, 1]
    assert [zf(p).dimension for p in range(5)] == [1, 4, 6, 4, 1]
    # odd grade -> symmetric letters, even grade -> antisymmetric letters
    assert [zf(p).word_parity for p in range(5)] == [0, 1, 0, 1, 0]
    assert [yv(a).word_parity for a in range(1, 5)] == [1, 0, 1, 0]
    # a component is the value (species, degree): it sorts, hashes and
    # prints as one, and checks its species
    assert sorted([yv(1), zf(3), zf(0)]) == [zf(0), zf(3), yv(1)]
    assert hash(zf(2)) == hash((FORM, 2)) and zf(2) == GradedComponent(FORM, 2)
    assert repr(zf(2)) == "GradedComponent(form, 2)"
    with pytest.raises(ValueError):
        GradedComponent("vector", 1)


def test_element_validation():
    with pytest.raises(ValueError):
        GradedElement(zf(2), {(2, 1): 1})
    with pytest.raises(ValueError):
        GradedElement(zf(2), {(1, 1): 1})
    with pytest.raises(ValueError):
        GradedElement(zf(1), {(5,): 1})


# -- wedge -----------------------------------------------------------------


def test_wedge_basics():
    assert wedge(z(1), z(2)) == z(1, 2)
    assert wedge(z(2), z(1)) == -z(1, 2)
    assert wedge(z(1), z(1)).is_zero()
    assert wedge(ONE, z(1, 3)) == z(1, 3)
    assert wedge(y(1), y(2, 3)) == y(1, 2, 3)


def test_wedge_graded_commutative():
    monos = [ONE, z(1), z(3), z(1, 2), z(2, 4), z(1, 2, 3), z(1, 2, 3, 4)]
    for a, b in itertools.product(monos, repeat=2):
        p, q = a.component.degree, b.component.degree
        lhs = wedge(a, b)
        rhs = wedge(b, a).scale((-1) ** (p * q))
        assert lhs == rhs


def test_wedge_associative():
    monos = [z(1), z(2), z(1, 3), z(2, 4)]
    for a, b, c in itertools.product(monos, repeat=3):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- CE differential -------------------------------------------------------


def test_dz_family4():
    g = family(4)
    C231, C234, C244 = (ParamPolynomial.lift(PV(s))
                        for s in ("C231", "C234", "C244"))
    assert ce_differential(g, z(1)) == z(2, 3).scale(-C231)
    assert ce_differential(g, z(2)).is_zero()
    assert ce_differential(g, z(3)) == -z(1, 2) + z(2, 3).scale(-C244)
    assert ce_differential(g, z(4)) == \
        -z(1, 3) + z(2, 3).scale(-C234) + z(2, 4).scale(-C244)
    assert ce_differential(g, ONE).is_zero()


def test_d_is_odd_derivation():
    g = family(6)
    monos = [ONE, z(1), z(2), z(4), z(1, 3), z(2, 3), z(1, 2, 4)]
    for a, b in itertools.product(monos, repeat=2):
        p = a.component.degree
        lhs = ce_differential(g, wedge(a, b))
        rhs = wedge(ce_differential(g, a), b) + \
            wedge(a, ce_differential(g, b)).scale((-1) ** p)
        assert lhs == rhs, (str(a), str(b))


def test_d_squared_zero_all_catalog_algebras():
    algebras = [family(n) for n in range(1, 7)] + \
        [class_type(n) for n in range(1, 13)]
    monos = [z(k) for k in range(1, 5)] + \
        [GradedElement.monomial(zf(2), idx) for idx in zf(2).basis()]
    for g in algebras:
        for omega in monos:
            dd = ce_differential(g, ce_differential(g, omega))
            assert dd.is_zero(), (g.label, str(omega), str(dd))


def test_d_detects_non_lie():
    # breaking Jacobi must break d^2 = 0
    from engelhomology.liealg import LieAlgebra4
    g = LieAlgebra4("broken", {(1, 2, 3): 1, (1, 3, 4): 1, (3, 4, 1): 1})
    assert not g.is_lie()
    bad = [z(k) for k in range(1, 5)
           if not ce_differential(g, ce_differential(g, z(k))).is_zero()]
    assert bad


# -- Schouten bracket ------------------------------------------------------


def test_schouten_on_vectors_is_lie_bracket():
    g = family(2)
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = schouten_bracket(g, y(i), y(j))
            rhs = vector_element(
                g.bracket(Vector4.basis(i), Vector4.basis(j)))
            assert lhs == rhs


def test_schouten_antisymmetry():
    g = family(1)
    monos = [y(1), y(3), y(1, 2), y(2, 4), y(1, 2, 3), y(2, 3, 4),
             y(1, 2, 3, 4)]
    for P, Q in itertools.product(monos, repeat=2):
        a = P.component.degree
        b = Q.component.degree
        lhs = schouten_bracket(g, P, Q)
        rhs = schouten_bracket(g, Q, P).scale(-((-1) ** ((a - 1) * (b - 1))))
        assert lhs == rhs, (str(P), str(Q))


def test_schouten_leibniz():
    g = family(4).specialize({"C231": 2, "C234": -1, "C244": 3})
    vecs = [y(1), y(2), y(4), y(1, 3), y(2, 3)]
    smalls = [y(1), y(2), y(3), y(4), y(1, 2), y(3, 4)]
    for P in vecs:
        a = P.component.degree
        for Q, R in itertools.product(smalls, repeat=2):
            b = Q.component.degree
            if a + b + R.component.degree > 5:
                continue
            lhs = schouten_bracket(g, P, wedge(Q, R))
            rhs = wedge(schouten_bracket(g, P, Q), R) + \
                wedge(Q, schouten_bracket(g, P, R)).scale(
                    (-1) ** ((a - 1) * b))
            assert lhs == rhs, (str(P), str(Q), str(R))


def test_schouten_super_jacobi_specialized():
    g = family(1).specialize({"C143": 2, "C144": -3, "C234": 1, "C244": 5})
    monos = [y(1), y(2), y(3), y(4), y(1, 2), y(2, 3), y(3, 4),
             y(1, 2, 3), y(2, 3, 4)]
    for P, Q, R in itertools.product(monos, repeat=3):
        pa = (P.component.degree - 1) % 2
        pb = (Q.component.degree - 1) % 2
        lhs = schouten_bracket(g, P, schouten_bracket(g, Q, R))
        rhs = schouten_bracket(g, schouten_bracket(g, P, Q), R) + \
            schouten_bracket(g, Q, schouten_bracket(g, P, R)).scale(
                (-1) ** (pa * pb))
        assert lhs == rhs, (str(P), str(Q), str(R))


# -- form bracket ----------------------------------------------------------


def test_form_bracket_with_constants():
    g = family(4)
    C231 = ParamPolynomial.lift(PV("C231"))
    # [1, w] = dw and [w, 1] = (-1)^p dw
    assert form_bracket(g, ONE, z(1)) == z(2, 3).scale(-C231)
    assert form_bracket(g, z(1), ONE) == z(2, 3).scale(C231)
    assert form_bracket(g, ONE, ONE).is_zero()
    two_form = z(1, 3)
    assert form_bracket(g, two_form, ONE) == ce_differential(g, two_form)


def test_form_bracket_super_antisymmetry():
    g = family(3)
    monos = [ONE, z(1), z(2), z(4), z(1, 2), z(2, 3), z(1, 2, 4),
             z(1, 2, 3, 4)]
    for A, B in itertools.product(monos, repeat=2):
        p_hat = (A.component.degree + 1) % 2
        q_hat = (B.component.degree + 1) % 2
        lhs = form_bracket(g, A, B)
        rhs = form_bracket(g, B, A).scale(-((-1) ** (p_hat * q_hat)))
        assert lhs == rhs, (str(A), str(B))


def test_form_bracket_grade_additivity():
    g = family(1)
    A, B = z(1), z(2, 3)
    out = form_bracket(g, A, B)
    assert out.component.grade == A.component.grade + B.component.grade


def test_form_bracket_super_jacobi_specialized():
    g = family(6).specialize({"C143": 1, "C231": 2, "C234": -1, "C344": 3})
    monos = [ONE, z(1), z(2), z(3), z(4), z(1, 2), z(1, 3), z(2, 3),
             z(2, 4), z(1, 2, 3), z(2, 3, 4)]
    for A, B, C in itertools.product(monos, repeat=3):
        pa = (A.component.degree + 1) % 2
        pb = (B.component.degree + 1) % 2
        lhs = form_bracket(g, A, form_bracket(g, B, C))
        rhs = form_bracket(g, form_bracket(g, A, B), C) + \
            form_bracket(g, B, form_bracket(g, A, C)).scale(
                (-1) ** (pa * pb))
        assert lhs == rhs, (str(A), str(B), str(C))


# -- interior product and Lie derivative -----------------------------------


def test_interior_product():
    assert interior_product(y(2), z(2, 3)) == z(3)
    assert interior_product(y(3), z(2, 3)) == -z(2)
    assert interior_product(y(1), z(2, 3)).is_zero()
    assert interior_product(y(2), ONE).is_zero()
    X = vector_element(Vector4((1, 0, 2, 0)))
    assert interior_product(X, z(1, 3)) == z(3) + z(1).scale(-2)


def test_interior_antiderivation():
    X = y(2)
    monos = [z(1), z(3), z(1, 2), z(2, 4), z(1, 2, 3)]
    for a, b in itertools.product(monos, repeat=2):
        p = a.component.degree
        lhs = interior_product(X, wedge(a, b))
        rhs = wedge(interior_product(X, a), b) + \
            wedge(a, interior_product(X, b)).scale((-1) ** p)
        assert lhs == rhs


def test_lie_derivative_family4_oracle():
    g = family(4)
    C234 = ParamPolynomial.lift(PV("C234"))
    C244 = ParamPolynomial.lift(PV("C244"))
    got = lie_derivative(g, y(2), z(4))
    assert got == z(3).scale(-C234) + z(4).scale(-C244)


def _coordinate_lie_derivative(g, i, k):
    """Independent oracle on 1-forms: L_{y_i} z_k = - sum_j c_ijk z_j."""
    comp = GradedComponent(FORM, 1)
    coeffs = {}
    for j in range(1, 5):
        c = g.structure_constant(i, j, k)
        if not c.is_zero():
            coeffs[(j,)] = -c
    return GradedElement(comp, coeffs)


def test_lie_derivative_matches_coordinate_formula():
    for n in range(1, 7):
        g = family(n)
        for i in range(1, 5):
            for k in range(1, 5):
                got = lie_derivative(g, y(i), z(k))
                want = _coordinate_lie_derivative(g, i, k)
                assert got == want, (n, i, k)


def test_lie_derivative_is_derivation():
    g = family(5)
    X = y(1)
    monos = [z(1), z(4), z(2, 3), z(1, 4)]
    for a, b in itertools.product(monos, repeat=2):
        lhs = lie_derivative(g, X, wedge(a, b))
        rhs = wedge(lie_derivative(g, X, a), b) + \
            wedge(a, lie_derivative(g, X, b))
        assert lhs == rhs


def test_lie_derivative_commutes_with_d():
    g = family(2)
    for i in range(1, 5):
        for k in range(1, 5):
            lhs = lie_derivative(g, y(i), ce_differential(g, z(k)))
            rhs = ce_differential(g, lie_derivative(g, y(i), z(k)))
            assert lhs == rhs, (i, k)


def test_lie_derivative_bracket_identity():
    # L_[X,Y] = L_X L_Y - L_Y L_X on all form monomials
    g = family(1).specialize({"C143": 1, "C144": 2, "C234": 3, "C244": -1})
    all_forms = [GradedElement.monomial(zf(p), idx)
                 for p in range(5) for idx in zf(p).basis()]
    for i in range(1, 5):
        for j in range(1, 5):
            X, Y = y(i), y(j)
            XY = vector_element(
                g.bracket(Vector4.basis(i), Vector4.basis(j)))
            for omega in all_forms:
                lhs = lie_derivative(g, XY, omega)
                rhs = lie_derivative(g, X, lie_derivative(g, Y, omega)) - \
                    lie_derivative(g, Y, lie_derivative(g, X, omega))
                assert lhs == rhs, (i, j, str(omega))


# -- extended bracket ------------------------------------------------------


def test_extended_bracket_sectors():
    g = family(4)
    C234 = ParamPolynomial.lift(PV("C234"))
    C244 = ParamPolynomial.lift(PV("C244"))
    # vector/vector agrees with the Lie bracket
    assert extended_bracket(g, y(2), y(3)) == \
        vector_element(g.bracket(Vector4.basis(2), Vector4.basis(3)))
    # vector/form is the Lie derivative; form/vector its negative
    assert extended_bracket(g, y(2), z(4)) == \
        z(3).scale(-C234) + z(4).scale(-C244)
    assert extended_bracket(g, z(4), y(2)) == \
        z(3).scale(C234) + z(4).scale(C244)
    # form/form falls back to the form bracket
    assert extended_bracket(g, z(1), z(3)) == form_bracket(g, z(1), z(3))
    # constants are central against vectors
    assert extended_bracket(g, y(3), ONE).is_zero()
    assert extended_bracket(g, ONE, y(3)).is_zero()


def test_extended_rejects_higher_multivectors():
    g = family(1)
    with pytest.raises(ValueError):
        extended_bracket(g, y(1, 2), z(1))


def test_extended_super_jacobi_specialized():
    g = family(4).specialize({"C231": 1, "C234": 2, "C244": -3})
    letters = [y(1), y(2), y(3), y(4), ONE, z(1), z(2), z(4),
               z(1, 3), z(2, 3), z(1, 2, 4), z(1, 2, 3, 4)]
    for u, v, w in itertools.product(letters, repeat=3):
        pu = u.component.parity
        pv = v.component.parity
        lhs = extended_bracket(g, u, extended_bracket(g, v, w))
        rhs = extended_bracket(g, extended_bracket(g, u, v), w) + \
            extended_bracket(g, v, extended_bracket(g, u, w)).scale(
                (-1) ** (pu * pv))
        assert lhs == rhs, (str(u), str(v), str(w))


def test_extended_super_antisymmetry_symbolic():
    g = family(6)
    letters = [y(1), y(2), y(3), y(4), ONE, z(1), z(3), z(2, 4), z(1, 2, 3)]
    for u, v in itertools.product(letters, repeat=2):
        pu = u.component.parity
        pv = v.component.parity
        lhs = extended_bracket(g, u, v)
        rhs = extended_bracket(g, v, u).scale(-((-1) ** (pu * pv)))
        assert lhs == rhs, (str(u), str(v))
