"""Graded (super)algebra structures attached to a 4-dimensional Lie algebra.

Three Z-graded bracket structures share the same machinery:

* multivectors  Lambda^a g   with grade a - 1   and the Schouten bracket;
* forms         Lambda^p g*  with grade -(p+1)  and [A, B] = (-1)^p d(A ^ B),
  where d is the Chevalley-Eilenberg differential determined by
  d z_k = - sum_{i<j} c_ijk z_i ^ z_j;
* the extension g (+) Lambda^* g*  where vectors act on forms by the Lie
  derivative L_X = i_X d + d i_X and vectors bracket as in g.

Elements are stored per graded component as sparse maps from sorted index
tuples (basis monomials y_S or z_S) to ParamPolynomial coefficients.
"""

from collections import namedtuple
from math import comb

import itertools

from .exact import ParamPolynomial

MULTIVECTOR = "multivector"
FORM = "form"


class GradedComponent(namedtuple("GradedComponent", "species degree")):
    """One homogeneous summand: multivectors or forms of a fixed degree.

    Components compare and hash as (species, degree), so a chain letter
    (component, index) sorts by itself.
    """

    __slots__ = ()

    def __new__(cls, species, degree):
        if species not in (MULTIVECTOR, FORM):
            raise ValueError(f"unknown species {species!r}")
        return super().__new__(cls, species, degree)

    @property
    def grade(self):
        if self.species == MULTIVECTOR:
            return self.degree - 1
        return -(self.degree + 1)

    @property
    def parity(self):
        """Superalgebra parity (grade mod 2)."""
        return self.grade % 2

    @property
    def word_parity(self):
        """Parity governing chain words: odd-grade letters commute
        (symmetric powers), even-grade letters anticommute."""
        return (self.grade + 1) % 2

    @property
    def dimension(self):
        if 0 <= self.degree <= 4:
            return comb(4, self.degree)
        return 0

    def basis(self):
        if 0 <= self.degree <= 4:
            return tuple(itertools.combinations(range(1, 5), self.degree))
        return ()

    def monomial_str(self, idx):
        letter = "y" if self.species == MULTIVECTOR else "z"
        if not idx:
            return "1"
        return "^".join(f"{letter}{i}" for i in idx)

    def __repr__(self):
        return f"GradedComponent({self.species}, {self.degree})"


class GradedElement:
    """Sparse homogeneous element of one graded component."""

    __slots__ = ("component", "coeffs")

    def __init__(self, component, coeffs=None):
        self.component = component
        self.coeffs = {}
        if coeffs:
            dim_ok = 0 <= component.degree <= 4
            for idx, v in coeffs.items():
                idx = tuple(idx)
                if not dim_ok or len(idx) != component.degree or \
                        any(not 1 <= i <= 4 for i in idx) or \
                        list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad basis tuple {idx} for {component}")
                v = ParamPolynomial.lift(v)
                if not v.is_zero():
                    self.coeffs[idx] = v

    @classmethod
    def monomial(cls, component, idx, coeff=1):
        return cls(component, {tuple(idx): coeff})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), ParamPolynomial.zero())

    def _require_same(self, other):
        if self.component != other.component:
            raise ValueError(
                f"component mismatch: {self.component} vs {other.component}")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            cur = out.get(idx)
            out[idx] = v if cur is None else cur + v
        return GradedElement(self.component, out)

    def __neg__(self):
        return GradedElement(self.component,
                             {i: -v for i, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = ParamPolynomial.lift(s)
        return GradedElement(self.component,
                             {i: v * s for i, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (self.component == other.component
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.component, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            monomial = self.component.monomial_str(idx)
            parts.append(f"({self.coeffs[idx]})*{monomial}")
        return " + ".join(parts)

    def __repr__(self):
        c = self.component
        return f"GradedElement[{c.species}^{c.degree}]({self})"


# ---------------------------------------------------------------------------
# degree-1 multivector elements from Vector4

VECTOR_COMPONENT = GradedComponent(MULTIVECTOR, 1)


def vector_element(vec):
    if isinstance(vec, GradedElement):
        if vec.component != VECTOR_COMPONENT:
            raise ValueError("expected a degree-1 multivector")
        return vec
    return GradedElement(VECTOR_COMPONENT,
                         {(k,): vec.coeff(k) for k in range(1, 5)})


# ---------------------------------------------------------------------------
# wedge products


def _merge_tuples(s, t):
    """Sign and sorted tuple of the concatenation, or (0, None) on repeats."""
    seq = list(s) + list(t)
    if len(set(seq)) != len(seq):
        return 0, None
    sign = 1
    # count inversions of the concatenation
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign, tuple(sorted(seq))


def wedge(x, y):
    """Exterior product of two elements of the same species."""
    cx, cy = x.component, y.component
    if cx.species != cy.species:
        raise ValueError("cannot wedge a multivector with a form")
    out_comp = GradedComponent(cx.species, cx.degree + cy.degree)
    out = {}
    for s, a in x.coeffs.items():
        for t, b in y.coeffs.items():
            sign, merged = _merge_tuples(s, t)
            if sign == 0:
                continue
            v = a * b * sign
            cur = out.get(merged)
            out[merged] = v if cur is None else cur + v
    return GradedElement(out_comp, out)


# ---------------------------------------------------------------------------
# Schouten bracket on multivectors


def schouten_bracket(g, P, Q):
    """[P, Q] = sum_{s,t} (-1)^(s+t) [p_s, q_t] ^ P_without_s ^ Q_without_t,
    extended bilinearly from decomposables; degree (a-1) + (b-1) + 1."""
    if not P.component.species == Q.component.species == MULTIVECTOR:
        raise ValueError("schouten_bracket expects multivectors")
    a, b = P.component.degree, Q.component.degree
    out = {}
    for S, cp in P.coeffs.items():
        for T, cq in Q.coeffs.items():
            for s_pos, i in enumerate(S, start=1):
                rest_s = S[:s_pos - 1] + S[s_pos:]
                for t_pos, j in enumerate(T, start=1):
                    rest_t = T[:t_pos - 1] + T[t_pos:]
                    base = cp * cq * ((-1) ** (s_pos + t_pos))
                    for k in range(1, 5):
                        ck = g.structure_constant(i, j, k)
                        if ck.is_zero():
                            continue
                        sign, merged = _merge_tuples((k,) + rest_s, rest_t)
                        if sign == 0:
                            continue
                        # (k,)+rest_s may itself be unsorted; _merge_tuples
                        # sorts the full concatenation in one pass
                        v = base * ck * sign
                        cur = out.get(merged)
                        out[merged] = v if cur is None else cur + v
    return GradedElement(GradedComponent(MULTIVECTOR, a + b - 1), out)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential and the form bracket


def ce_differential(g, omega):
    """The odd derivation with d z_k = - sum_{i<j} c_ijk z_i ^ z_j and
    d(Lambda^0) = 0; raises on multivector input."""
    if omega.component.species != FORM:
        raise ValueError("ce_differential expects a form")
    p = omega.component.degree
    out_comp = GradedComponent(FORM, p + 1)
    out = {}
    for S, c in omega.coeffs.items():
        for t_pos, k in enumerate(S, start=1):
            rest = S[:t_pos - 1] + S[t_pos:]
            # move the even 2-form d z_k = -sum c_ijk z_i^z_j to the front:
            # (-1)^(t-1) from passing the preceding 1-form letters, times -1
            outer = c * ((-1) ** t_pos)
            for (i, j, l), coeff in g.c.items():
                if l != k:
                    continue
                sign, merged = _merge_tuples((i, j), rest)
                if sign == 0:
                    continue
                v = outer * coeff * sign
                cur = out.get(merged)
                out[merged] = v if cur is None else cur + v
    return GradedElement(out_comp, out)


def form_bracket(g, A, B):
    """[A, B] = (-1)^p d(A ^ B) for a p-form A; grade adds as
    -(p+1) + -(q+1) = -((p+q+1)+1)."""
    if A.component.species != FORM or B.component.species != FORM:
        raise ValueError("form_bracket expects forms")
    sign = (-1) ** A.component.degree
    return ce_differential(g, wedge(A, B)).scale(sign)


# ---------------------------------------------------------------------------
# interior product and Lie derivative


def interior_product(X, omega):
    """i_X omega for a vector X (degree-1 multivector or Vector4)."""
    X = vector_element(X)
    if omega.component.species != FORM:
        raise ValueError("interior_product expects a form")
    p = omega.component.degree
    out_comp = GradedComponent(FORM, p - 1)
    out = {}
    for S, c in omega.coeffs.items():
        for t_pos, k in enumerate(S, start=1):
            xk = X.coefficient((k,))
            if xk.is_zero():
                continue
            rest = S[:t_pos - 1] + S[t_pos:]
            v = c * xk * ((-1) ** (t_pos - 1))
            cur = out.get(rest)
            out[rest] = v if cur is None else cur + v
    return GradedElement(out_comp, out)


def lie_derivative(g, X, omega):
    """L_X = i_X d + d i_X on forms (degree 0, grade 0 operator)."""
    return interior_product(X, ce_differential(g, omega)) + \
        ce_differential(g, interior_product(X, omega))


# ---------------------------------------------------------------------------
# the extended bracket


def extended_bracket(g, u, v):
    """Bracket of the extension g (+) Lambda^* g*:

    vector/vector -> Lie bracket, vector/form -> L_X, form/vector -> -L_X,
    form/form -> the form bracket.
    """
    su, sv = u.component.species, v.component.species
    if su == MULTIVECTOR and sv == MULTIVECTOR:
        if u.component.degree != 1 or v.component.degree != 1:
            raise ValueError("extended vectors must have degree 1")
        return schouten_bracket(g, u, v)
    if su == MULTIVECTOR and sv == FORM:
        if u.component.degree != 1:
            raise ValueError("extended vectors must have degree 1")
        return lie_derivative(g, u, v)
    if su == FORM and sv == MULTIVECTOR:
        if v.component.degree != 1:
            raise ValueError("extended vectors must have degree 1")
        return -lie_derivative(g, v, u)
    return form_bracket(g, u, v)
