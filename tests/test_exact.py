"""Polynomials, fractions, parsing, and the three rank modes."""

from fractions import Fraction
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from engelhomology.exact import (
    ParamPolynomial,
    TensorMatrix,
    SymbolicGeneric,
    Randomized,
    Specialized,
    MissingParameter,
    DegenerateDenominator,
    matrix_rank,
    kernel_basis,
    echelon,
    inverse,
    parse_fraction,
    parse_polynomial,
    row_reduce,
)
from engelhomology import exact

PV = ParamPolynomial.variable
PC = ParamPolynomial.const


# -- polynomial construction and canonical form ----------------------------


def test_zero_and_const():
    z = ParamPolynomial.zero()
    assert z.is_zero()
    assert str(z) == "0"
    assert PC(0) == z
    assert PC(Fraction(3, 2)).constant_value() == Fraction(3, 2)


def test_unused_variables_dropped():
    a, b = PV("a"), PV("b")
    p = a + b - b
    assert p.parameters() == ("a",)
    assert p == a


def test_like_terms_cancel():
    a = PV("a")
    assert (a * a - a * a).is_zero()
    assert (2 * a - a - a).is_zero()


def test_str_graded_lex():
    a, b = PV("a"), PV("b")
    p = a * a + 2 * b - 3 + a * b * b
    assert str(p) == "a*b^2 + a^2 + 2*b - 3"


def test_pow():
    a = PV("a")
    assert a ** 3 == a * a * a
    assert a ** 0 == PC(1)
    # repeated squaring equals repeated multiplication
    p = a + PV("b") / 2 - 1
    power = PC(1)
    for n in range(12):
        assert p ** n == power, n
        assert a ** -n * a ** n == PC(1)
        power = power * p


def test_parse_large_exponent_returns_at_once():
    assert parse_fraction("a^1000000000") == \
        ParamPolynomial({(("a", 1000000000),): Fraction(1)})
    assert parse_fraction("2*C144^-1000000000") == \
        ParamPolynomial({(("C144", -1000000000),): Fraction(2)})


# -- evaluation ------------------------------------------------------------


def test_evaluate():
    a, b = PV("a"), PV("b")
    p = a * a * b - Fraction(1, 2)
    assert p.evaluate({"a": 3, "b": 2}) == 18 - Fraction(1, 2)
    with pytest.raises(MissingParameter):
        p.evaluate({"a": 3})


def test_evaluate_mod_matches_exact():
    a, b = PV("a"), PV("b")
    p = 7 * a ** 3 * b - Fraction(5, 3) * b + 11
    point = {"a": 12, "b": -7}
    exact = p.evaluate(point)
    prime = 2**31 - 1
    lhs = p.evaluate_mod(point, prime)
    rhs = exact.numerator * pow(exact.denominator, prime - 2, prime) % prime
    assert lhs == rhs


# -- exact division of packed polynomials ----------------------------------

# two 8-bit exponent fields, y above x, with guard bits 15 and 7
_X, _Y, _GUARDS = 1, 1 << 8, 1 << 15 | 1 << 7


def _packed(*terms):
    """The packed polynomial sum of c * x^i * y^j over (c, i, j)."""
    return {i * _X + j * _Y: c for c, i, j in terms if c}


def _divide(num, den):
    return exact._divide_packed(num, den, _GUARDS)


def test_divide_packed_roundtrip():
    p = _packed((1, 2, 0), (-1, 0, 2), (1, 1, 1), (2, 1, 0))
    q = _packed((1, 1, 0), (1, 0, 1), (-1, 0, 0))
    prod = exact._mul_sub(p, q, {}, {})
    assert _divide(prod, q) == p
    assert _divide(prod, p) == q
    # the fast paths: a constant and a monomial divisor
    for d in (_packed((-3, 0, 0)), _packed((2, 1, 3))):
        assert _divide(exact._mul_sub(p, d, {}, {}), d) == p


def test_divide_packed_rejects_inexact():
    with pytest.raises(ValueError):  # (x^2 + 1) / (x + 1)
        _divide(_packed((1, 2, 0), (1, 0, 0)), _packed((1, 1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):  # (x + 1) / (2x + 2) is not over Z
        _divide(_packed((1, 1, 0), (1, 0, 0)), _packed((2, 1, 0), (2, 0, 0)))
    for num, den in (((3, 1, 0), (2, 0, 0)), ((3, 1, 0), (2, 1, 0)),
                     ((1, 1, 0), (1, 2, 0)), ((1, 1, 0), (1, 0, 1))):
        with pytest.raises(ValueError):
            _divide(_packed(num), _packed(den))


def test_divide_packed_rejects_a_borrow():
    # y / x takes 1 from y's field and leaves 255 in x's: its guard bit
    y, x = _packed((1, 0, 1)), _packed((1, 1, 0))
    assert (_Y - _X) & _GUARDS
    with pytest.raises(ValueError):
        _divide(y, x)
    # y + y/x over x + 1: the quotient y/x borrows in the long division
    with pytest.raises(ValueError):
        _divide({_Y: 1, _Y - _X: 1}, _packed((1, 1, 0), (1, 0, 0)))


@given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
       st.lists(st.integers(-5, 5), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_divide_packed_property(cs, ds):
    basis = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    p = _packed(*((c, i, j) for c, (i, j) in zip(cs, basis)))
    q = _packed(*((d, i, j) for d, (i, j) in zip(ds, basis)))
    if not q:
        return
    assert _divide(exact._mul_sub(p, q, {}, {}), q) == p


# -- fractions -------------------------------------------------------------


def test_fraction_cancellation():
    c = PV("C144")
    f = (c * c * PV("C244")) / c
    num, den = f.split()
    assert num == c * PV("C244")
    assert den == PC(1)


def test_fraction_monic_denominator():
    c = PV("C144")
    f = PV("C244") / (2 * c)
    num, den = f.split()
    assert den == c
    assert num == Fraction(1, 2) * PV("C244")


def test_fraction_arithmetic():
    c, d = PV("C144"), PV("C244")
    f = d / c       # d/c
    g = PC(1) / c   # 1/c
    assert f + g == (d + 1) / c
    assert f * g == d / (c * c)
    assert f - f == ParamPolynomial.zero()
    assert (f / g) == ParamPolynomial.lift(d)


def test_fraction_evaluate():
    c, d = PV("C144"), PV("C244")
    f = d / (c * c)
    assert f.evaluate({"C144": 2, "C244": 3}) == Fraction(3, 4)
    with pytest.raises(DegenerateDenominator):
        f.evaluate({"C144": 0, "C244": 3})


def test_laurent_str():
    s, t, u, x = PV("s"), PV("t"), PV("u"), PV("x")
    assert str(-s / t) == "(-s)/t"
    assert str(3 * x / t) == "3*x/t"
    assert str((s * s + 2 * x - 1) / t ** 2) == "(s^2 + 2*x - 1)/t^2"
    assert str(x / (t * u ** 2)) == "x/t*u^2"
    assert str(s / t + x / u) == "(s*u + t*x)/t*u"


def test_evaluate_missing_and_degenerate():
    f = PV("b") / PV("a") + PV("c")
    with pytest.raises(MissingParameter) as err:
        f.evaluate({"b": 1})
    assert err.value.args == ("a",)
    with pytest.raises(DegenerateDenominator):
        f.evaluate_mod({"a": 0, "b": 1, "c": 2})
    with pytest.raises(DegenerateDenominator):
        f.evaluate_mod({"a": 2**31 - 1, "b": 1, "c": 2})
    assert f.evaluate_mod({"a": 2, "b": 6, "c": 1}) == 4


def test_evaluate_mod_refuses_a_coefficient_denominator_divisible_by_p():
    # 1/p has no inverse mod p: Fermat's p^(p-2) would read it as 0
    p = exact._PRIME
    f = PV("a") / p
    refusal = f"coefficient denominator {p} vanishes mod {p}"
    with pytest.raises(DegenerateDenominator, match=refusal):
        f.evaluate_mod({"a": 3})
    with pytest.raises(DegenerateDenominator, match=refusal):
        TensorMatrix.from_rows([[f]]).modular({"a": 3})
    assert (PV("a") / 3).evaluate_mod({"a": 3}) == 1


_laurent = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2)),
    max_size=4).map(lambda terms: sum(
        (c * PV("a") ** i * PV("b") ** j for c, i, j in terms),
        ParamPolynomial.zero()))


@given(_laurent, st.integers(1, 9), st.integers(-9, -1))
@settings(max_examples=60, deadline=None)
def test_split_is_numerator_over_monic_monomial(f, x, y):
    num, den = f.split()
    assert f == num / den
    assert all(k > 0 for m in num.terms for _, k in m)
    (m, c), = den.terms.items()
    assert c == 1 and all(k > 0 for _, k in m)
    point = {"a": x, "b": y}
    assert f.evaluate(point) == num.evaluate(point) / den.evaluate(point)


def test_substitute_into_fraction():
    a, b = PV("a"), PV("b")
    p = a * b + b
    val = p.substitute({"a": PV("x") / PV("y"), "b": ParamPolynomial.lift(2)})
    # 2x/y + 2 = (2x + 2y)/y
    assert val == (2 * PV("x") + 2 * PV("y")) / PV("y")


# -- parsing ---------------------------------------------------------------


def test_parse_polynomial():
    p = parse_polynomial("C143*C234 - 2*C244^2 + 1/2")
    a, b, c = PV("C143"), PV("C234"), PV("C244")
    assert p == a * b - 2 * c * c + Fraction(1, 2)


def test_parse_fraction():
    f = parse_fraction("C244/C144^2*(-C142*C244 + C142*C144)")
    c142, c144, c244 = PV("C142"), PV("C144"), PV("C244")
    want = (c244 * (c142 * c144 - c142 * c244)) / (c144 * c144)
    assert f == want


def test_parse_roundtrip_via_str():
    samples = [
        "C143*C234 + C244",
        "-C144^3 + 2*C143 - 1/8",
        "(C244 + 1)/C144^2",
        "C244/C144",
        "0",
    ]
    for s in samples:
        f = parse_fraction(s)
        assert parse_fraction(str(f)) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_fraction("C143 +")
    with pytest.raises(ValueError):
        parse_fraction("(C143")
    with pytest.raises(ValueError):
        parse_fraction("C143 $ 2")


# -- hypothesis: ring axioms ----------------------------------------------


def _poly_strategy():
    coeff = st.integers(-4, 4)
    return st.lists(coeff, min_size=6, max_size=6).map(
        lambda cs: sum(
            (c * m for c, m in zip(cs, [PC(1), PV("a"), PV("b"),
                                        PV("a") * PV("a"),
                                        PV("a") * PV("b"),
                                        PV("b") * PV("b")])),
            ParamPolynomial.zero()))


@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ParamPolynomial.zero() == p
    assert p * PC(1) == p
    assert p - p == ParamPolynomial.zero()


@given(_poly_strategy(), _poly_strategy(),
       st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_hom(p, q, x, y):
    pt = {"a": x, "b": y}
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


# -- hypothesis: the arithmetic against a plain-dict reference -------------
#
# The reference keys Laurent monomials in a and b by exponent pairs and
# knows nothing of ParamPolynomial's canonical form or its fast paths.


_EXPONENTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_SCALARS = st.one_of(st.integers(-3, 3), _COEFFS)


def _terms(max_size):
    return st.dictionaries(_EXPONENTS, _COEFFS, max_size=max_size)


def _monomial(e):
    return tuple((v, k) for v, k in zip("ab", e) if k)


def _poly(ref):
    return ParamPolynomial({_monomial(e): c for e, c in ref.items()})


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return out


def _ref_mul(x, y):
    out = {}
    for (i, j), c in x.items():
        for (k, l), d in y.items():
            e = (i + k, j + l)
            out[e] = out.get(e, 0) + c * d
    return out


@st.composite
def _operands(draw):
    """Two term dicts: unrelated, or the second one-term with the first's
    inverse exponents, or cancelling some of the first's terms."""
    x = draw(st.one_of(_terms(1), _terms(5)))
    kind = draw(st.sampled_from(("free", "inverse", "cancel")))
    if kind == "inverse" and x:
        i, j = draw(st.sampled_from(sorted(x)))
        return x, {(-i, -j): draw(_COEFFS)}
    y = draw(st.one_of(_terms(1), _terms(4)))
    if kind == "cancel":
        gone = draw(st.sets(st.sampled_from(sorted(x)))) if x else ()
        y = _ref_add(y, {e: -x[e] for e in gone})
    return x, y


@given(_operands(), _SCALARS)
@settings(max_examples=300, deadline=None)
@example(({(1, 0): Fraction(2)}, {(-1, 0): Fraction(1, 2)}), 0)
@example(({(1, -1): Fraction(1)}, {(1, -1): Fraction(-1)}), 1)
def test_arithmetic_matches_a_plain_dict_reference(operands, s):
    x, y = operands
    p, q = _poly(x), _poly(y)
    negative = {e: -c for e, c in y.items()}
    cases = (
        (p + q, _ref_add(x, y)),
        (p - q, _ref_add(x, negative)),
        (p * q, _ref_mul(x, y)),
        (-q, negative),
        (p * s, {e: c * s for e, c in x.items()}),
        (s * q, {e: s * c for e, c in y.items()}),
        (p + s, _ref_add(x, {(0, 0): s})),
    )
    for got, ref in cases:
        want = {_monomial(e): c for e, c in ref.items() if c}
        assert all(got.terms.values())
        assert got.terms == want
        assert got == _poly(ref)
        assert hash(got) == hash(_poly(ref))
    assert (p + q == p) == (not q)


@given(_terms(1).filter(lambda x: any(x.values())))
@settings(max_examples=60, deadline=None)
def test_a_one_term_polynomial_times_its_inverse_is_one(x):
    m = _poly(x)
    one = m * m ** -1
    assert one.is_constant() and one == PC(1) and one.terms == {(): 1}


# -- matrices and rank -----------------------------------------------------


def _example_rows():
    a, b = PV("a"), PV("b")
    # rank 2 generically: row3 = row1 + row2
    return [
        [a, b, PC(1)],
        [PC(1), a * b, b],
        [a + 1, b + a * b, b + 1],
    ]


def _example_matrix():
    return TensorMatrix.from_rows(_example_rows())


def _transpose(rows):
    """The transpose of a nonempty list of rows."""
    return [list(col) for col in zip(*rows)]


def _matmul(A, B, cols):
    """The product of A and B, lists of rows of ParamPolynomials, B with
    `cols` columns."""
    return [[sum((x * B[k][c] for k, x in enumerate(row)), PC(0))
             for c in range(cols)] for row in A]


def _zeros(rows, cols):
    """The rows × cols zero TensorMatrix."""
    return TensorMatrix(rows, cols, np.zeros((0, 3), dtype=np.intp),
                        np.zeros((0, 0), dtype=np.int64), (), 1)


def test_symbolic_rank():
    M = _example_matrix()
    r, k = matrix_rank(M, SymbolicGeneric())
    assert (r, k) == (2, 1)


def test_randomized_rank_matches_symbolic():
    M = _example_matrix()
    rs, _ = matrix_rank(M, SymbolicGeneric())
    rr, _ = matrix_rank(M, Randomized(seed=7))
    assert rr == rs


def test_randomized_deterministic():
    M = _example_matrix()
    r1 = matrix_rank(M, Randomized(seed=3))
    r2 = matrix_rank(M, Randomized(seed=3))
    assert r1 == r2


def test_specialized_rank_drop():
    a, b = PV("a"), PV("b")
    M = TensorMatrix.from_rows([[a, PC(1)], [PC(1), b]])
    r_gen, _ = matrix_rank(M, SymbolicGeneric())
    assert r_gen == 2
    # on the hypersurface ab = 1 the rank drops
    r_sp, k_sp = matrix_rank(M, Specialized({"a": 2, "b": Fraction(1, 2)}))
    assert (r_sp, k_sp) == (1, 1)


def test_specialized_respects_nonzero():
    M = TensorMatrix.from_rows([[PV("a")]])
    with pytest.raises(DegenerateDenominator):
        matrix_rank(M, Specialized({"a": 0}), nonzero=["a"])


def test_rank_transpose_invariant():
    M = _example_matrix()
    T = TensorMatrix.from_rows(_transpose(_example_rows()))
    for mode in (SymbolicGeneric(), Randomized(seed=11),
                 Specialized({"a": 3, "b": 5})):
        r1, _ = matrix_rank(M, mode)
        r2, _ = matrix_rank(T, mode)
        assert r1 == r2


def test_rank_permutation_invariant():
    a, b = PV("a"), PV("b")
    rows = [[a, b, PC(1), PC(0)],
            [PC(1), a, b, a * b],
            [a + 1, a + b, b + 1, a * b]]
    M = TensorMatrix.from_rows(rows)
    perm_rows = [rows[2], rows[0], rows[1]]
    permuted = TensorMatrix.from_rows([[r[3], r[1], r[0], r[2]]
                                       for r in perm_rows])
    for mode in (SymbolicGeneric(), Randomized(seed=5)):
        assert matrix_rank(M, mode) == matrix_rank(permuted, mode)


def test_zero_and_identity_ranks():
    Z = _zeros(3, 4)
    assert matrix_rank(Z, SymbolicGeneric()) == (0, 4)
    assert matrix_rank(Z, Randomized()) == (0, 4)
    I = TensorMatrix.from_rows([[PC(1), PC(0)], [PC(0), PC(1)]])
    assert matrix_rank(I, Specialized({})) == (2, 0)


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError):
        TensorMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        TensorMatrix.from_rows([[], [PV("a")]])


def test_from_rows_keeps_empty_shapes():
    for rows, shape in (([], (0, 0)), ([[]], (1, 0)), ([[]] * 3, (3, 0))):
        M = TensorMatrix.from_rows(rows)
        assert (M.rows, M.cols) == shape
        assert M.rational_rows({}) == rows
        assert matrix_rank(M, Specialized({})) == (0, 0)


def test_from_rows_keeps_mixed_entries():
    a = PV("a")
    rows = [[1, Fraction(-2, 3), PC(5)],
            [0, a / 3, Fraction(1, 2) * a ** -1 + 2]]
    M = TensorMatrix.from_rows(rows)
    assert (M.rows, M.cols) == (2, 3)
    assert TensorMatrix.from_rows(rows[:1]).rational_rows({}) == rows[:1]
    point = {"a": Fraction(-7, 2)}
    assert M.rational_rows(point) == [
        [ParamPolynomial.lift(x).evaluate(point) for x in row]
        for row in rows]


def test_from_rows_shares_a_row_between_equal_entries():
    a = PV("a")
    # 2, Fraction(2) and PC(2) are one entry; a and PV("a") another
    M = TensorMatrix.from_rows([[2, Fraction(2), PC(2)],
                                [a, PV("a"), 0],
                                [a + 1, 0, a * a]])
    assert len(M.entries) == 7 and len(M.polynomials()) == 4
    assert sorted(map(str, M.polynomials())) == ["2", "a", "a + 1", "a^2"]


def test_kernel_basis():
    a = PV("a")
    M = TensorMatrix.from_rows([[a, PC(1), PC(0)],
                                [PC(0), PC(0), PC(1)]])
    basis = kernel_basis(M, Specialized({"a": 3}))
    assert len(basis) == 1
    v = basis[0]
    # Mv = 0
    assert 3 * v[0] + v[1] == 0 and v[2] == 0 and any(x != 0 for x in v)


def test_constant_kernel_is_the_common_kernel_of_the_slices():
    a, b = PV("a"), PV("b") ** -1
    # M = [[a, a], [1, 1]]: (1, -1) is a constant cycle, and no nonzero
    # constant row u has u·M = 0 for every a
    M = TensorMatrix.from_rows([[a, a], [PC(1), PC(1)]])
    assert exact.constant_kernel(M) == [(Fraction(-1), Fraction(1))]
    assert exact.constant_kernel(M, transpose=True) == []
    # denominators: b and 2b cancel against (2, -1)
    N = TensorMatrix.from_rows([[b, 2 * b, PC(0)]])
    assert exact.constant_kernel(N) == [
        (Fraction(-2), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1))]
    assert exact.constant_kernel(_zeros(2, 1), transpose=True) == [
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_certificate_rank_is_a_rank_mod_p_at_trial_1():
    a = PV("a")
    rows = [[a, PC(0)], [PC(0), PC(0)]]
    N = TensorMatrix.from_rows(rows)
    assert exact.certificate_rank(N, []) == 1
    assert exact.certificate_rank(N, [(Fraction(3), Fraction(0))]) == 1
    assert exact.certificate_rank(N, [(Fraction(0), Fraction(1, 3))]) == 2
    NT = TensorMatrix.from_rows(_transpose(rows))
    assert exact.certificate_rank(NT, [(0, 1)], transpose=True) == 2
    # a denominator divisible by p gives no bound
    assert exact.certificate_rank(
        N, [(Fraction(0), Fraction(1, exact._PRIME))]) is None


def test_kernel_dim_matches_rank():
    M = _example_matrix()
    mode = Specialized({"a": 4, "b": 9})
    r, k = matrix_rank(M, mode)
    assert len(kernel_basis(M, mode)) == k


def test_matmul():
    a = PV("a")
    P = _matmul([[a, PC(1)], [PC(0), a]], [[PC(1)], [a]], 1)
    assert P[0][0] == 2 * a
    assert P[1][0] == a * a


def test_missing_parameter_in_rank():
    M = TensorMatrix.from_rows([[PV("a")]])
    with pytest.raises(MissingParameter):
        matrix_rank(M, Specialized({}))


@given(st.lists(st.integers(-6, 6), min_size=12, max_size=12),
       st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_randomized_never_exceeds_symbolic(cs, seed):
    a, b = PV("a"), PV("b")
    basis = [PC(1), a, b]
    entries = [sum((c * m for c, m in zip(cs[3 * i:3 * i + 3], basis)),
                   ParamPolynomial.zero()) for i in range(4)]
    M = TensorMatrix.from_rows([entries[:2], entries[2:]])
    r_sym, _ = matrix_rank(M, SymbolicGeneric())
    r_rand, _ = matrix_rank(M, Randomized(seed=seed, trials=2))
    assert r_rand <= r_sym


# Laurent entries: up to two terms c * a^i * b^j with Fraction c
_laurent = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3),
              st.integers(-1, 2), st.integers(-1, 1)), max_size=2).map(
    lambda terms: sum((c * PV("a") ** i * PV("b") ** j for c, i, j in terms),
                      ParamPolynomial.zero()))


@given(st.integers(1, 5), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_bareiss_rank_of_a_product(n, k, data):
    # M = B·C with B n×k and C k×n has rank at most k, so a Randomized
    # lower bound that reaches k fixes it
    B, C = ([[data.draw(_laurent) for c in range(cols)]
             for r in range(rows)] for rows, cols in ((n, k), (k, n)))
    rows = _matmul(B, C, n)
    M = TensorMatrix.from_rows(rows)
    r = exact._rank_symbolic(M)
    low = matrix_rank(M, Randomized())[0]
    assert low <= r <= k
    assert r == exact._rank_symbolic(TensorMatrix.from_rows(_transpose(rows)))


def test_packed_rows_shift_columns_and_size_fields():
    a, b = PV("a"), PV("b")
    M = TensorMatrix.from_rows([[b / a, a], [PC(2), b * b]])
    # column 0 is divided by 1/a, column 1 by 1; the column degrees sum
    # to 2 in a and 3 in b, so each field holds 4 or 6 in 3 bits and a
    # guard bit: b in bits 0-3, a in bits 4-7
    rows, guards = exact._packed_rows(M)
    assert guards == 1 << 7 | 1 << 3
    assert rows == {0: {0: {1: 1}, 1: {16: 1}}, 1: {0: {16: 2}, 1: {2: 1}}}
    assert exact._rank_symbolic(M) == 2


def test_bareiss_on_empty_and_parameter_free_matrices():
    for M, N in ((_zeros(0, 3), TensorMatrix.from_rows([])),
                 (_zeros(3, 0), TensorMatrix.from_rows([[]] * 3)),
                 (_zeros(2, 2), TensorMatrix.from_rows([[0, 0], [0, 0]]))):
        assert exact._rank_symbolic(M) == 0 == exact._rank_symbolic(N)
    rows = [[2, 4, 6], [1, 2, 3], [Fraction(1, 2), 0, 7]]
    M = TensorMatrix.from_rows(rows)
    assert not M.parameters()
    assert exact._rank_symbolic(M) == 2 == _fraction_rank(rows)


# -- the shared exact elimination ------------------------------------------


def _fraction_rank(rows):
    """Oracle: rank over Q by textbook elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _integer_matrices():
    """Seeded integer matrices with zero, repeated and dependent rows,
    and the shapes 0 x n and n x 0."""
    rng = random.Random(22)
    out = [[], [[]] * 3, [[0, 0, 0]], [[0] * 4 for _ in range(3)]]
    for _ in range(80):
        cols = rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(cols)]
                for _ in range(rng.randint(1, 6))]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        rows.append(list(rng.choice(rows)))
        rows.append([0] * cols)
        rng.shuffle(rows)
        out.append(rows)
    return out


def test_echelon_ranks_like_row_reduce():
    for rows in _integer_matrices():
        before = [list(row) for row in rows]
        work, pivots = echelon(rows)
        assert rows == before
        assert len(pivots) == len(row_reduce(rows)[1]) == \
            _fraction_rank(rows)
        # the Specialized rank, which eliminates a tall matrix transposed
        assert matrix_rank(TensorMatrix.from_rows(rows),
                           Specialized({}))[0] == len(pivots)
        assert len(work) == len(pivots)
        assert pivots == sorted(set(pivots))
        # echelon form: row i starts at pivots[i]
        for row, col in zip(work, pivots):
            assert row[col] and not any(row[:col])


def test_row_reduce_clears_each_pivot_column_above_and_below():
    for rows in _integer_matrices():
        work, pivots = row_reduce(rows)
        assert pivots == echelon(rows)[1] and len(work) == len(pivots)
        for i, row in enumerate(work):
            assert [bool(row[c]) for c in pivots] == \
                [k == i for k in range(len(pivots))]


_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                          min_size=1, max_size=5))


@given(_matrices)
@settings(max_examples=80, deadline=None)
def test_exact_rank_and_kernel(rows):
    M = TensorMatrix.from_rows(rows)
    r, k = matrix_rank(M, Specialized({}))
    assert r == _fraction_rank(rows)
    basis = kernel_basis(M, Specialized({}))
    assert len(basis) == k == M.cols - r
    for v in basis:
        assert all(sum(Fraction(x) * y for x, y in zip(row, v)) == 0
                   for row in rows)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([[1, 2], [2, 4]])
@example([[0] * 3 for _ in range(3)])
@settings(max_examples=80, deadline=None)
def test_inverse_or_singular(T):
    if _fraction_rank(T) < len(T):
        with pytest.raises(ValueError):
            inverse(T)
        return
    Tinv = inverse(T)
    n = len(T)
    assert [[sum(Fraction(T[i][k]) * Tinv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == \
        [[int(i == j) for j in range(n)] for i in range(n)]


def test_randomized_parameter_free_is_exact(monkeypatch):
    def no_modular(arr, p=None):
        raise AssertionError("parameter-free matrix sent to mod-p trials")

    monkeypatch.setattr(exact, "_rank_mod_p", no_modular)
    # rank 2 over Q; every modular trial would repeat the same matrix
    M = TensorMatrix.from_rows([[2, 4, Fraction(1, 3)],
                                [1, 2, Fraction(1, 6)],
                                [0, 1, 5]])
    assert matrix_rank(M, Randomized(seed=3)) == \
        matrix_rank(M, Specialized({})) == (2, 1)
    assert matrix_rank(M, Randomized(), nonzero=[PC(7)]) == (2, 1)
    assert matrix_rank(M, Randomized(), nonzero=[PV("a")]) == (2, 1)
    with pytest.raises(DegenerateDenominator):
        matrix_rank(M, Randomized(), nonzero=[PC(0)])


def test_randomized_rejects_zero_nondegeneracy_polynomial():
    # rejection sampling would draw points forever
    M = TensorMatrix.from_rows([[PV("a")]])
    with pytest.raises(DegenerateDenominator):
        matrix_rank(M, Randomized(), nonzero=[PC(0)])
    with pytest.raises(DegenerateDenominator):
        matrix_rank(M, Randomized(), nonzero=[PV("a") - PV("a")])


def test_randomized_refuses_a_coefficient_denominator_divisible_by_p():
    # 1/p has no inverse mod p: such an entry would read 0 in every
    # trial and the rank would silently drop
    M = TensorMatrix.from_rows([[PV("a") * Fraction(1, exact._PRIME)]])
    assert matrix_rank(M, Specialized({"a": 1})) == (1, 0)
    with pytest.raises(DegenerateDenominator):
        matrix_rank(M, Randomized())
