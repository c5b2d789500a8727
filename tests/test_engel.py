"""Plane-field analysis: E-l-C closed forms, witnesses, flags, foliations."""

from fractions import Fraction
from itertools import permutations
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelhomology.engel import (
    CORRECTED_FORMULAS,
    FORMULA_STRINGS,
    GENERIC_CONDITIONS,
    WITNESS_CORRECTIONS,
    WITNESSES,
    Elc,
    PlanePair,
    _det,
    _plane_flags,
    characteristic_foliation,
    elc,
    elc_formula_check,
    elc_formula_report,
    engel_flag_check,
    foliation_containment,
    transcribed_formula,
    verify_witness,
)
from engelhomology.exact import (
    MissingParameter,
    ParamPolynomial,
    parse_polynomial,
)
from engelhomology.liealg import (
    ConstraintViolation,
    LieAlgebra4,
    class_type,
    family,
)

PV = ParamPolynomial.variable

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)


def _D(i, j):
    return PV(f"p{i}") * PV(f"q{j}") - PV(f"p{j}") * PV(f"q{i}")


# ---------------------------------------------------------------------------
# the coefficient itself


def test_plane_pair_validation():
    with pytest.raises(ValueError):
        PlanePair((1, 2, 3), (0, 0, 0, 1))


def test_elc_type1_closed_form():
    got = elc(class_type(1), PlanePair.symbolic()).value
    want = PV("p4") * _D(3, 4) ** 3
    assert (got - ParamPolynomial.lift(want)).is_zero()


def test_elc_type1_witness_value():
    value = elc(class_type(1), PlanePair((0, 0, 0, 1), (0, 0, 1, 0))).value
    assert value == ParamPolynomial.lift(-1)


@given(p=st.tuples(rationals, rationals, rationals, rationals),
       lam=rationals)
@settings(max_examples=25, deadline=None)
def test_elc_vanishes_on_proportional_planes(p, lam):
    plane = PlanePair(p, tuple(lam * x for x in p))
    assert elc(class_type(7), plane).is_zero()


def test_elc_shear_invariance():
    # replacing q by q + lam*p fixes every minor, hence the coefficient
    lam = Fraction(3, 2)
    for n in (1, 8, 12):
        base = PlanePair.symbolic()
        sheared = PlanePair(base.p,
                            tuple(q + p * ParamPolynomial.lift(lam)
                                  for p, q in zip(base.p, base.q)))
        alg = class_type(n)
        assert (elc(alg, base).value - elc(alg, sheared).value).is_zero()


def test_elc_scaling_degrees():
    # w1 enters the tower three times, w2 once
    lam = ParamPolynomial.lift(Fraction(2))
    base = PlanePair.symbolic()
    alg = class_type(10)
    v = elc(alg, base).value
    lam3 = lam * lam * lam
    scaled_p = PlanePair(tuple(x * lam for x in base.p), base.q)
    assert (elc(alg, scaled_p).value - v * lam3 * lam).is_zero()
    scaled_q = PlanePair(base.p, tuple(x * lam for x in base.q))
    assert (elc(alg, scaled_q).value - v * lam3).is_zero()


# ---------------------------------------------------------------------------
# the twelve closed forms


@pytest.mark.parametrize("n", range(1, 13))
def test_formula_reports(n):
    report = elc_formula_report(n)
    assert report["transcribed"] == FORMULA_STRINGS[n]
    assert report["computed"]
    if n == 9:
        # transcription slip: the p3 term carries Det(2,4), not Det(1,4)
        assert not report["match"]
        assert report["corrected"] == CORRECTED_FORMULAS[9][1]
        assert not elc_formula_check(9)
    else:
        assert report["match"], report
        assert elc_formula_check(n)


def test_corrected_formula_9_is_exact():
    computed = elc(class_type(9), PlanePair.symbolic()).value
    want = ParamPolynomial.lift(CORRECTED_FORMULAS[9][0]())
    assert (computed - want).is_zero()
    bad = ParamPolynomial.lift(transcribed_formula(9))
    assert not (computed - bad).is_zero()


@pytest.mark.parametrize("n,kwargs", [
    (2, {"a": 1}),
    (5, {"a": 1}),
    (5, {"b": 1}),
    (5, {"a": 3, "b": 3}),
    (9, {"b": 1}),
])
def test_no_structure_loci_kill_the_coefficient(n, kwargs):
    value = elc(class_type(n, **kwargs), PlanePair.symbolic()).value
    assert value.is_zero()


# ---------------------------------------------------------------------------
# witness planes


@pytest.mark.parametrize("n", range(1, 13))
def test_witness_table(n):
    p, q = WITNESSES[n]
    if n == 5:
        # the tabulated plane sits inside the y2-free subalgebra
        # span(y1, y3, y4); its quadruple wedge vanishes identically
        assert not verify_witness(n, p, q)
        cp, cq = WITNESS_CORRECTIONS[5]
        assert verify_witness(n, cp, cq)
    else:
        assert verify_witness(n, p, q)


def test_witness_examples_with_params():
    assert verify_witness(1, (0, 0, 0, 1), (0, 0, 1, 0))
    assert verify_witness(7, (0, 0, 1, 1), (0, 0, 0, 1))
    # on the excluded locus a=1 the plane degenerates for every (p, q)
    for q in ((1, 0, 1, 0), (1, 2, 3, 4), (0, 1, 1, 1)):
        assert not verify_witness(2, (0, 0, 0, 1), q, {"a": 1})


def test_witness_rejects_bad_params():
    with pytest.raises(ConstraintViolation):
        verify_witness(5, *WITNESSES[5], {"a": 0})
    with pytest.raises(ConstraintViolation):
        verify_witness(9, *WITNESSES[9], {"b": 2})


def test_generic_condition_table():
    assert set(GENERIC_CONDITIONS) == {2, 5, 9}
    for n, conditions in GENERIC_CONDITIONS.items():
        plane = PlanePair(*WITNESS_CORRECTIONS.get(n, WITNESSES[n]))
        value = elc(class_type(n), plane).value
        assert not value.is_zero()
        for text in conditions:
            # each condition reads x - rest: putting x = rest zeroes it
            c = parse_polynomial(text)
            x = c.parameters()[0]
            assert value.substitute({x: PV(x) - c}).is_zero(), (n, text)


# planes whose E-l-C is a nonzero polynomial with a rational root inside
# the admissible locus: 2b^2 - b - 1 (b = -1/2) and 5a + 10 (a = -2)
ROOTED = {
    9: (((-1, -1, -1, -1), (-1, -1, 1, 0)), {"b": Fraction(-1, 2)}),
    11: (((0, 0, 1, -1), (0, 1, 1, 1)), {"a": -2}),
}
PARAMETRIC = [n for n in range(1, 13) if class_type(n).params]
PLANES = sorted(set(WITNESSES.values()) | set(WITNESS_CORRECTIONS.values())
                | {plane for plane, _ in ROOTED.values()})


@pytest.mark.parametrize("n", sorted(ROOTED))
def test_free_parameters_are_decided_generically(n):
    (p, q), root = ROOTED[n]
    assert verify_witness(n, p, q)
    # the root itself is a numeric point, checked exactly
    assert not verify_witness(n, p, q, root)


@pytest.mark.parametrize("n", PARAMETRIC)
def test_witness_verdict_is_the_symbolic_elc(n):
    for p, q in PLANES:
        value = elc(class_type(n), PlanePair(p, q))
        assert verify_witness(n, p, q) == (not value.is_zero()), (p, q)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_witness_on_a_symbolic_plane_raises(n):
    with pytest.raises(MissingParameter):
        verify_witness(n, (PV("x"), 0, 0, 1), (1, 0, 1, 0))


# ---------------------------------------------------------------------------
# flag dimensions


def test_flag_family1_generic_point():
    g = family(1).specialize({p: Fraction(1) for p in family(1).params})
    assert engel_flag_check(g, PlanePair((1, 0, 0, 0), (0, 1, 0, 0))) == (3, 4)


def test_flag_abelian():
    abelian = LieAlgebra4("abelian", {})
    assert engel_flag_check(
        abelian, PlanePair((1, 0, 0, 0), (0, 1, 0, 0))) == (2, 2)


def test_flag_type1_witness_plane():
    assert engel_flag_check(
        class_type(1), PlanePair((0, 0, 0, 1), (0, 0, 1, 0))) == (3, 4)


def test_flag_requires_full_specialization():
    with pytest.raises(MissingParameter):
        engel_flag_check(family(1), PlanePair((1, 0, 0, 0), (0, 1, 0, 0)))


def test_flag_with_assignment_argument():
    g = family(4)
    assign = {p: Fraction(2) for p in g.params}
    assert engel_flag_check(
        g, PlanePair((1, 0, 0, 0), (0, 1, 0, 0)), assign) == (3, 4)


# ---------------------------------------------------------------------------
# numeric planes: the integer path against the ParamPolynomial one


def _leibniz(rows):
    total = 0
    for perm in permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_det_is_the_leibniz_sum():
    rng = random.Random(4)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert _det(rows) == _leibniz(rows)
    sym = [[PV(f"x{i}{j}") for j in range(4)] for i in range(4)]
    assert (_det(sym) - _leibniz(sym)).is_zero()


def _fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _numeric_cases(n, rng):
    """A seeded admissible point of type n, the algebra there and a basis
    change of it whose constants have denominators."""
    free = class_type(n).params
    while True:
        params = {name: _fraction(rng) for name in free}
        try:
            g = class_type(n, **params)
        except ConstraintViolation:
            continue
        break
    while True:
        # a rescaling and one shear keep the constants sparse
        T = [[Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
              * (i == j) for j in range(4)] for i in range(4)]
        i, j = rng.sample(range(4), 2)
        T[i][j] = _fraction(rng)
        h = g.change_basis(T)
        if any(c.constant_value().denominator > 1 for c in h.c.values()):
            return params, g, h


def _planes(rng):
    """Seeded (p, q) with Fraction coordinates, degenerate ones too."""
    out = []
    for k in range(6):
        p = [_fraction(rng) for _ in range(4)]
        q = [_fraction(rng) for _ in range(4)]
        if k == 1:
            q = [Fraction(-3, 2) * x for x in p]
        elif k == 2:
            p = [0, 0, 0, 0]
        out.append((p, q))
    return out


def _point(p, q):
    point = {f"p{i}": Fraction(x) for i, x in enumerate(p, start=1)}
    point.update({f"q{i}": Fraction(x) for i, x in enumerate(q, start=1)})
    return point


@pytest.mark.parametrize("n", range(1, 13))
def test_numeric_elc_equals_the_symbolic_value(n):
    rng = random.Random(100 + n)
    params, g, h = _numeric_cases(n, rng)
    generic = elc(class_type(n), PlanePair.symbolic()).value
    for alg in (g, h):
        sym = elc(alg, PlanePair.symbolic()).value
        for p, q in _planes(rng):
            got = elc(alg, PlanePair(p, q)).value
            assert got.is_constant()
            assert got.constant_value() == sym.evaluate(_point(p, q))
            if alg is g:
                at = dict(params, **_point(p, q))
                assert got.constant_value() == generic.evaluate(at)


def _rank(vectors):
    """Rank of rows of Fractions by plain Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(4):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n", range(1, 13))
def test_flag_check_matches_the_rank_of_the_evaluated_tower(n):
    rng = random.Random(200 + n)
    for alg in _numeric_cases(n, rng)[1:]:
        for p, q in _planes(rng):
            plane = PlanePair(p, q)
            w1, w2 = plane.w1(), plane.w2()
            w3 = alg.bracket(w1, w2)
            w4 = alg.bracket(w1, w3)
            tower = [[c.constant_value() for c in w.coeffs]
                     for w in (w1, w2, w3, w4, alg.bracket(w2, w3))]
            d2 = _rank(tower[:3])
            assert engel_flag_check(alg, plane) == (d2, _rank(tower))
            assert _plane_flags(alg, plane) == \
                (d2 == 3, _rank(tower[:4]) == 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_flag_on_a_symbolic_plane_names_p1(n):
    _, g, h = _numeric_cases(n, random.Random(300 + n))
    for alg in (g, h):
        with pytest.raises(MissingParameter) as err:
            engel_flag_check(alg, PlanePair.symbolic())
        assert err.value.args == ("p1",)


# ---------------------------------------------------------------------------
# characteristic foliation


def test_foliation_families_with_uniform_line():
    for n in (1, 2, 4, 5, 6):
        f = characteristic_foliation(family(n))
        assert f.kind == "line"
        u, v = f.direction
        want_u = ParamPolynomial.lift(PV("C234"))
        want_v = ParamPolynomial.lift(-1)
        assert (u * want_v - v * want_u).is_zero(), n
        assert f.describe() == "span(C234*y1 - y2)"
        assert foliation_containment(family(n), f.direction)
        assert f.note is None


def test_foliation_family3_line():
    f = characteristic_foliation(family(3))
    assert f.kind == "line"
    u, v = f.direction
    want_u = ParamPolynomial.lift(PV("C244"))
    want_v = ParamPolynomial.lift(-PV("C144"))
    assert (u * want_v - v * want_u).is_zero()
    assert f.describe() == "span(C244*y1 - C144*y2)"
    assert foliation_containment(family(3), f.direction)
    assert f.note


def test_foliation_note_follows_direction_not_label():
    f = characteristic_foliation(family(3).specialize({}, label="x"))
    assert f.describe() == "span(C244*y1 - C144*y2)"
    assert f.note == characteristic_foliation(family(3)).note
    # at a numeric point the direction is parameter-free
    g = family(3).specialize({p: 2 for p in family(3).params})
    assert characteristic_foliation(g).note is None


def test_foliation_abelian_full_plane():
    f = characteristic_foliation(LieAlgebra4("abelian", {}))
    assert f.kind == "plane"
    assert f.direction is None
    assert f.describe() == "all lines alpha*y1 + beta*y2"


def test_foliation_independent_conditions_pin_origin():
    g = LieAlgebra4("twist", {(1, 2, 4): 1, (2, 3, 4): 1})
    assert g.is_lie()
    f = characteristic_foliation(g)
    assert f.kind == "point"
    assert f.describe() == "no nonzero direction"


def test_foliation_json():
    doc = characteristic_foliation(family(5)).to_json()
    assert doc["algebra"] == "family-5"
    assert doc["kind"] == "line"
    assert doc["solution"] == "span(C234*y1 - y2)"
    assert doc["direction"] == ["C234", "-1"]
    assert "note" not in doc
    doc3 = characteristic_foliation(family(3)).to_json()
    assert "note" in doc3


def test_elc_repr_and_str():
    e = Elc(Fraction(-1))
    assert str(e) == "-1"
    assert "Elc" in repr(e)
