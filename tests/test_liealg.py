"""Algebra catalog: brackets, Jacobi residuals, families, fixed types."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from engelhomology.cli import main
from engelhomology.exact import ParamPolynomial, inverse, parse_fraction
from engelhomology.liealg import (
    ConstraintViolation,
    FamilyId,
    ClassTypeId,
    LieAlgebra4,
    Vector4,
    catalog,
    class_type,
    engel_ansatz,
    family,
)

PV = ParamPolynomial.variable


# -- identifiers -----------------------------------------------------------


def test_ids():
    assert str(FamilyId(3)) == "family-3"
    assert str(ClassTypeId(12)) == "type-12"
    with pytest.raises(ConstraintViolation):
        FamilyId(7)
    with pytest.raises(ConstraintViolation):
        ClassTypeId(0)


# -- vectors ---------------------------------------------------------------


def test_vector_ops():
    v = Vector4.basis(1) + Vector4.basis(3).scale(2)
    assert v.coeff(1) == 1 and v.coeff(3) == 2 and v.coeff(2).is_zero()
    assert (v - v).is_zero()
    assert str(Vector4.zero()) == "0"


# -- bracket shape ---------------------------------------------------------


def test_flag_brackets_everywhere():
    for n in range(1, 7):
        g = family(n)
        assert g.bracket(Vector4.basis(1), Vector4.basis(2)) == \
            Vector4.basis(3)
        assert g.bracket(Vector4.basis(1), Vector4.basis(3)) == \
            Vector4.basis(4)


def test_bracket_antisymmetry_on_basis():
    g = family(1)
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = g.bracket(Vector4.basis(i), Vector4.basis(j))
            rhs = g.bracket(Vector4.basis(j), Vector4.basis(i))
            assert (lhs + rhs).is_zero()


def test_bracket_bilinearity():
    g = family(6)
    u = Vector4.basis(2).scale(3) + Vector4.basis(1)
    v = Vector4.basis(3) - Vector4.basis(4).scale(Fraction(1, 2))
    w = Vector4.basis(2)
    lhs = g.bracket(u + w, v)
    rhs = g.bracket(u, v) + g.bracket(w, v)
    assert (lhs - rhs).is_zero()


def _oracle_bracket(g, u, v):
    """sum over i != j of u_i v_j [y_i, y_j], each [y_i, y_j] read off
    structure_constant."""
    out = [ParamPolynomial.zero()] * 4
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            for k in range(1, 5):
                out[k - 1] = out[k - 1] + \
                    u.coeff(i) * v.coeff(j) * g.structure_constant(i, j, k)
    return Vector4(out)


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_vectors = st.tuples(*[_small_rationals] * 4).map(Vector4)


@pytest.mark.parametrize("make,n", [
    pytest.param(make, n, id=f"{make.__name__}-{n}")
    for make, count in ((family, 6), (class_type, 12))
    for n in range(1, count + 1)])
@given(u=_vectors, v=_vectors)
@settings(max_examples=20, deadline=None)
def test_bracket_matches_pairwise_oracle(make, n, u, v):
    g = make(n)
    assert g.bracket(u, v) == _oracle_bracket(g, u, v)


# -- Jacobi ----------------------------------------------------------------


def _bracket_jacobi_residuals(g):
    """Reference: the Jacobi residuals through the bracket of basis
    vectors, [[y_i,y_j],y_k] + [[y_j,y_k],y_i] + [[y_k,y_i],y_j]."""
    out = {}
    for (i, j, k) in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
        yi, yj, yk = Vector4.basis(i), Vector4.basis(j), Vector4.basis(k)
        total = (g.bracket(g.bracket(yi, yj), yk)
                 + g.bracket(g.bracket(yj, yk), yi)
                 + g.bracket(g.bracket(yk, yi), yj))
        for m in range(1, 5):
            out[(i, j, k, m)] = total.coeff(m)
    return out


def _assert_jacobi_is_bracket_reference(g):
    want = _bracket_jacobi_residuals(g)
    got = g.jacobi_residuals()
    assert list(got) == sorted(want)
    assert got == want
    # printed as the jacobi command prints them
    assert [str(v) for v in got.values()] == [str(want[k]) for k in got]
    assert g.is_lie() == all(v.is_zero() for v in want.values())


def test_jacobi_contraction_equals_bracket_reference():
    algebras = [family(n) for n in range(1, 7)]
    algebras += [class_type(n) for n in range(1, 13)]
    algebras += [engel_ansatz(),
                 LieAlgebra4("broken", {(1, 2, 3): 1, (1, 3, 4): 1,
                                        (3, 4, 1): 1}),
                 family(2).change_basis([[1, 1, 0, 0], [0, 2, 0, 0],
                                         [0, 0, 1, 0], [1, 0, 0, 1]])]
    for g in algebras:
        _assert_jacobi_is_bracket_reference(g)


_CONSTANT_KEYS = [(i, j, k) for i in range(1, 5) for j in range(i + 1, 5)
                  for k in range(1, 5)]
_constant_values = st.one_of(
    _small_rationals,
    st.tuples(_small_rationals, st.sampled_from(["s", "t"]),
              st.integers(-2, 2)).map(lambda t: t[0] * PV(t[1]) ** t[2]))


@settings(max_examples=60, deadline=None)
@given(constants=st.dictionaries(st.sampled_from(_CONSTANT_KEYS),
                                 _constant_values, max_size=10))
def test_jacobi_contraction_equals_bracket_reference_on_random_constants(
        constants):
    _assert_jacobi_is_bracket_reference(LieAlgebra4("random", constants))


def test_all_families_satisfy_jacobi():
    for n in range(1, 7):
        g = family(n)
        residuals = g.jacobi_residuals()
        assert len(residuals) == 16
        bad = {k: str(v) for k, v in residuals.items() if not v.is_zero()}
        assert not bad, f"family {n}: {bad}"


def test_all_types_satisfy_jacobi_symbolically():
    for n in range(1, 13):
        g = class_type(n)
        assert g.is_lie(), f"type {n} fails Jacobi"


def test_ansatz_residuals_are_nontrivial():
    g = engel_ansatz()
    assert len(g.params) == 16
    residuals = g.jacobi_residuals()
    assert any(not v.is_zero() for v in residuals.values())
    # perturbing family 1 off its solution locus must break Jacobi
    h = family(1).specialize({"C143": 1, "C144": 1, "C234": 1, "C244": 1})
    assert h.is_lie()
    broken = LieAlgebra4("broken", dict(h.c))
    broken.c[(3, 4, 1)] = ParamPolynomial.lift(1)
    broken = LieAlgebra4("broken", broken.c)
    assert not broken.is_lie()


def test_is_lie_is_checked_again_when_a_constant_changes():
    g = family(2)
    assert g.is_lie() and family(2).is_lie()
    # the memo is keyed by the constants' values, not by the object
    flag = g.c[(1, 2, 3)]
    g.c[(1, 2, 3)] = ParamPolynomial.lift(2)
    assert not g.is_lie()
    g.c[(1, 2, 3)] = flag
    assert g.is_lie()
    # a coefficient changed in place is a changed constant too
    flag.terms[()] = Fraction(2)
    assert not g.is_lie()
    assert any(g.jacobi_residuals().values())
    assert family(2).is_lie()


_CATALOGUE = (
    [(family, n, {}) for n in range(1, 7)]
    + [(class_type, n, {}) for n in range(1, 13)]
    + [(class_type, 2, {"a": 3}), (class_type, 5, {"a": 2, "b": -1}),
       (class_type, 6, {"a": Fraction(1, 2), "b": 2}),
       (class_type, 9, {"b": Fraction(-1, 3)}), (class_type, 11, {"a": -2})])


@pytest.mark.parametrize("source,n,params", [
    pytest.param(source, n, params, id=f"{source.__name__}-{n}" + "".join(
        f"-{k}={v}" for k, v in params.items()))
    for source, n, params in _CATALOGUE])
def test_catalogue_calls_share_no_mutable_state(source, n, params):
    """The catalogue is parsed once per process, yet no call shares its
    constants dict or a constant with another: mutating one algebra,
    even a coefficient in place, leaves the next intact."""
    def make():
        return source(n, **params)

    g, h = make(), make()
    assert g.c is not h.c
    want = h.to_json()
    for v in g.c.values():
        v.terms[(("z", 1),)] = Fraction(5)
    g.c[(3, 4, 1)] = ParamPolynomial.lift(7)
    del g.c[next(iter(g.c))]
    assert g.to_json() != want
    fresh = make()
    assert fresh.is_lie()
    assert fresh.to_json() == want == h.to_json()


def test_families_show_after_a_mutated_family(capsys):
    main(["families", "show", "2"])
    want = capsys.readouterr().out
    g = family(2)
    g.c.clear()
    g.c[(1, 2, 4)] = ParamPolynomial.lift(1)
    assert family(2).c != g.c
    main(["families", "show", "2"])
    assert capsys.readouterr().out == want
    assert family(2).is_lie()


def test_families_solve_the_ansatz():
    """Substituting each family's constants into the generic residuals
    gives zero: the families really are solutions of the generic system."""
    ansatz = engel_ansatz()
    residuals = ansatz.jacobi_residuals()
    for n in range(1, 7):
        g = family(n)
        values = {}
        for (i, j) in [(1, 4), (2, 3), (2, 4), (3, 4)]:
            for k in range(1, 5):
                values[f"C{i}{j}{k}"] = g.structure_constant(i, j, k)
        for key, res in residuals.items():
            if res.is_zero():
                continue
            val = res.split()[0].substitute(values)
            assert val.is_zero(), f"family {n}, residual {key}"


# -- specialization --------------------------------------------------------


def test_specialize_partial_and_full():
    g = family(4)
    h = g.specialize({"C244": 0})
    assert h.params == ("C231", "C234")
    assert h.structure_constant(2, 4, 4).is_zero()
    full = g.specialize({"C231": 2, "C234": -1, "C244": 5})
    assert full.params == ()
    assert full.is_lie()


def test_specialize_respects_nonzero():
    g = family(3)
    with pytest.raises(ConstraintViolation):
        g.specialize({"C144": 0})


def test_family2_denominators_clear_at_points():
    g = family(2).specialize({"C143": 1, "C144": 2, "C234": 3, "C244": 1})
    assert g.params == ()
    assert g.is_lie()


# -- fixed types -----------------------------------------------------------


def test_type_parameter_validation():
    with pytest.raises(ConstraintViolation):
        class_type(5, a=0, b=1)
    with pytest.raises(ConstraintViolation):
        class_type(6, a=1, b=-2)
    with pytest.raises(ConstraintViolation):
        class_type(9, b=2)
    with pytest.raises(ConstraintViolation):
        class_type(1, a=3)
    # admissible values pass
    assert class_type(5, a=2, b=3).is_lie()
    assert class_type(9, b=1).is_lie()


def test_type_brackets_spot_checks():
    t1 = class_type(1)
    assert t1.bracket(Vector4.basis(2), Vector4.basis(4)) == Vector4.basis(1)
    assert t1.bracket(Vector4.basis(1), Vector4.basis(2)).is_zero()
    t12 = class_type(12)
    assert t12.bracket(Vector4.basis(1), Vector4.basis(4)) == -Vector4.basis(2)
    assert t12.bracket(Vector4.basis(2), Vector4.basis(4)) == Vector4.basis(1)


def test_symbolic_type_parameters_remain():
    t5 = class_type(5)
    assert t5.params == ("a", "b")
    assert t5.nonzero == ("a", "b")
    t9 = class_type(9)
    assert t9.structure_constant(1, 4, 1) == ParamPolynomial.lift(PV("b") + 1)


# -- basis change ----------------------------------------------------------


@given(st.lists(st.integers(-2, 2), min_size=16, max_size=16))
@settings(max_examples=25, deadline=None)
def test_change_basis_preserves_jacobi(flat):
    T = [flat[4 * r:4 * r + 4] for r in range(4)]
    det = _det4(T)
    if det == 0:
        return
    g = family(1).specialize({"C143": 2, "C144": 1, "C234": -1, "C244": 3})
    h = g.change_basis(T)
    assert h.is_lie()


def test_change_basis_identity_and_inverse():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    T = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    Tinv = [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 0, 1]]
    # a numeric point, and family 2 with its Laurent constants in C144
    for g in (family(5).specialize({"C142": 1, "C143": 2, "C234": 3}),
              family(2)):
        assert g.change_basis(eye).c == g.c
        back = g.change_basis(T).change_basis(Tinv)
        assert back.c == g.c


def test_change_basis_rejects_singular():
    g = family(1)
    with pytest.raises(ValueError, match="matrix is singular"):
        g.change_basis([[0] * 4 for _ in range(4)])


@pytest.mark.parametrize("T", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[int(i == j) for j in range(4)] for i in range(5)],
    [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
], ids=["3x3", "5x4", "ragged"])
def test_change_basis_rejects_a_matrix_that_is_not_4x4(T):
    with pytest.raises(ValueError, match="change of basis needs a 4x4"):
        family(1).change_basis(T)


def _bracket_pullback(g, T):
    """Reference change of basis: bracket the rows of T in the algebra
    and re-express each result through inverse(T), in ParamPolynomial
    arithmetic."""
    T = [[Fraction(x) for x in row] for row in T]
    Tinv = inverse(T)
    new_c = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            w = g.bracket(Vector4(T[i - 1]), Vector4(T[j - 1]))
            for k in range(1, 5):
                new_c[(i, j, k)] = sum(
                    (w.coeff(m) * Tinv[m - 1][k - 1] for m in range(1, 5)),
                    ParamPolynomial.zero())
    return LieAlgebra4(f"{g.label}~", new_c, g.nonzero)


def test_change_basis_equals_the_bracket_pullback():
    rng = random.Random(9)
    symbolic = [family(n) for n in range(1, 7)] + \
        [class_type(n) for n in range(1, 13)]
    numeric = [g.specialize({v: i + 2 for i, v in enumerate(g.params)})
               for g in symbolic]
    for g in symbolic + numeric:
        for entry in (lambda: rng.randint(-3, 3),
                      lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
            T = [[entry() for _ in range(4)] for _ in range(4)]
            while _det4(T) == 0:
                T = [[entry() for _ in range(4)] for _ in range(4)]
            h, want = g.change_basis(T), _bracket_pullback(g, T)
            assert (h.label, h.c, h.nonzero) == \
                (want.label, want.c, want.nonzero), (g.label, T)


def _det4(T):
    import itertools
    total = 0
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(4):
            prod *= T[i][perm[i]]
        total += sign * prod
    return total


# -- catalog dump ----------------------------------------------------------


def test_catalog_shape():
    cat = catalog()
    assert len(cat) == 6
    for entry in cat:
        assert entry["basis_dim"] == 4
        assert all(b["i"] < b["j"] for b in entry["brackets"])
        assert all(len(b["coeffs"]) == 4 for b in entry["brackets"])
    assert cat[0]["parameters"] == ["C143", "C144", "C234", "C244"]
    assert cat[1]["nonzero"] == ["C144"]
    assert cat[2]["nonzero"] == ["C144"]
    assert cat[3]["parameters"] == ["C231", "C234", "C244"]


def test_catalog_coeffs_parse_back():
    for entry in catalog():
        for b in entry["brackets"]:
            for s in b["coeffs"]:
                parse_fraction(s)


def test_flag_bracket_listed_first():
    entry = catalog()[0]
    first = entry["brackets"][0]
    assert (first["i"], first["j"]) == (1, 2)
    assert first["coeffs"] == ["0", "0", "1", "0"]
