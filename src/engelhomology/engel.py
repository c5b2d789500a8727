"""Plane-field analysis: Engel-like coefficients, witnesses, foliations.

A candidate plane D in a 4-dimensional algebra is spanned by
w1 = sum p_i y_i and w2 = sum q_i y_i.  With w3 = [w1, w2] and
w4 = [w1, w3], the plane carries an Engel-like structure exactly when
{w1,w2,w3} and {w1,w2,w3,w4} are linearly independent; the scalar
(w1^w2^w3^w4)/(y1^y2^y3^y4) is the Engel-like coefficient (E-l-C),
and its nonvanishing captures the second condition.

The twelve fixed algebras from the classification each admit a closed
form for the E-l-C as a polynomial in the plane minors
Det(i,j) = p_i q_j - p_j q_i; those closed forms are transcribed here
and checked against the computed polynomial.
"""

import re
from fractions import Fraction
from math import lcm

from .exact import (
    MissingParameter,
    ParamPolynomial,
    echelon,
    parse_fraction,
)
from .liealg import (
    ClassTypeId,
    Vector4,
    class_type,
)

PV = ParamPolynomial.variable


class PlanePair:
    """Coordinates (p, q) of the two spanning vectors of a plane."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p = tuple(ParamPolynomial.lift(x) for x in p)
        self.q = tuple(ParamPolynomial.lift(x) for x in q)
        if len(self.p) != 4 or len(self.q) != 4:
            raise ValueError("PlanePair needs two 4-vectors")

    @classmethod
    def symbolic(cls):
        return cls([PV(f"p{i}") for i in range(1, 5)],
                   [PV(f"q{i}") for i in range(1, 5)])

    def w1(self):
        return Vector4(self.p)

    def w2(self):
        return Vector4(self.q)


class Elc:
    """The Engel-like coefficient of one (algebra, plane) pair."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = ParamPolynomial.lift(value)

    def is_zero(self):
        return self.value.is_zero()

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Elc({self.value})"


def _det(rows):
    """Determinant of a 4x4 matrix of ints or ParamPolynomials, expanded
    along its first two rows: six products of complementary 2x2 minors."""
    a, b, c, d = rows

    def minor(x, y, i, j):
        return x[i] * y[j] - x[j] * y[i]

    return (minor(a, b, 0, 1) * minor(c, d, 2, 3)
            - minor(a, b, 0, 2) * minor(c, d, 1, 3)
            + minor(a, b, 0, 3) * minor(c, d, 1, 2)
            + minor(a, b, 1, 2) * minor(c, d, 0, 3)
            - minor(a, b, 1, 3) * minor(c, d, 0, 2)
            + minor(a, b, 2, 3) * minor(c, d, 0, 1))


def _over_lcd(values):
    """(scale, ints): the least common denominator of numeric
    ParamPolynomials and their products with it.  A value with
    parameters raises MissingParameter from evaluate."""
    fracs = [x.terms.get((), 0) if x.is_constant() else x.evaluate({})
             for x in values]
    scale = lcm(*(f.denominator for f in fracs))
    return scale, [f.numerator * (scale // f.denominator) for f in fracs]


def _bracket(K, u, v):
    """D [u, v] on integer vectors, for the integer constants K = D c."""
    out = [0, 0, 0, 0]
    for i, j, k, c in K:
        out[k] += c * (u[i] * v[j] - u[j] * v[i])
    return out


def _integer_tower(algebra, plane):
    """The tower on integers, for numeric constants c = K/D and a numeric
    plane w1 = u/su, w2 = v/sv: (K, u, v, t, s, den) with t = D su sv w3,
    s = D^2 su^2 sv w4 and w1^w2^w3^w4 = u^v^t^s / den.  Raises
    MissingParameter when the algebra or the plane has parameters."""
    if algebra.params:
        raise MissingParameter(algebra.params[0])
    D, ints = _over_lcd(algebra.c.values())
    K = [(i - 1, j - 1, k - 1, c) for (i, j, k), c in zip(algebra.c, ints)]
    su, u = _over_lcd(plane.p)
    sv, v = _over_lcd(plane.q)
    t = _bracket(K, u, v)
    return K, u, v, t, _bracket(K, u, t), D**3 * su**4 * sv**3


def elc(algebra, plane):
    """Coefficient of y1^y2^y3^y4 in w1^w2^w3^w4, on integers when the
    constants and the plane are numeric."""
    if algebra.params or any(x.parameters() for x in plane.p + plane.q):
        w1, w2 = plane.w1(), plane.w2()
        w3 = algebra.bracket(w1, w2)
        w4 = algebra.bracket(w1, w3)
        return Elc(_det([w.coeffs for w in (w1, w2, w3, w4)]))
    _, u, v, t, s, den = _integer_tower(algebra, plane)
    return Elc(Fraction(_det((u, v, t, s)), den))


# ---------------------------------------------------------------------------
# transcribed closed forms for the twelve fixed algebras


def _minor(i, j):
    return PV(f"p{i}") * PV(f"q{j}") - PV(f"p{j}") * PV(f"q{i}")


def _parse_formula(text):
    """The closed form printed as `text`, with each Det(i,j) expanded to
    the plane minor p_i q_j - p_j q_i."""
    minors = {f"Det{i}{j}": _minor(i, j)
              for i in range(1, 5) for j in range(i + 1, 5)}
    return parse_fraction(
        re.sub(r"Det\((\d),(\d)\)", r"Det\1\2", text)).substitute(minors)


# the transcribed closed forms in minor notation, as printed;
# transcribed_formula parses them
FORMULA_STRINGS = {
    1: "p4*Det(3,4)^3",
    2: "(a-1)^2*p4*Det(1,4)*Det(3,4)^2",
    3: "p4*Det(1,4)*Det(3,4)^2",
    4: "p4*Det(3,4)^3",
    5: "(a-1)*(b-1)*(a-b)*p4*Det(1,4)*Det(2,4)*Det(3,4)",
    6: "((a-b)^2+1)*p4*Det(1,4)*(Det(2,4)^2+Det(3,4)^2)",
    7: "Det(3,4)^2*(p4*Det(1,4)+p4*Det(2,3)+p3*Det(3,4))",
    8: "-2*Det(2,4)*Det(3,4)*(p4*Det(1,4)-p3*Det(2,4)-p2*Det(3,4))",
    9: "-(b-1)*Det(2,4)*Det(3,4)*(p3*Det(1,4)+b*(p4*Det(1,4)-p2*Det(3,4)))",
    10: "(Det(2,4)^2+Det(3,4)^2)*(p4*Det(1,4)+p2*Det(2,4)+p3*Det(3,4))",
    11: ("(Det(2,4)^2+Det(3,4)^2)*(a^2*p4*Det(1,4)+a*p4*Det(2,3)"
         "+p4*Det(1,4)+p2*Det(2,4)+p3*Det(3,4))"),
    12: ("p4*Det(3,4)*(Det(1,3)^2+Det(1,4)^2+Det(2,3)^2+Det(2,4)^2"
         "+2*Det(1,2)*Det(3,4))"),
}


def transcribed_formula(n):
    ClassTypeId(n)
    return _parse_formula(FORMULA_STRINGS[n])


# the transcription prints p3*Det(1,4) in type 9's inner factor; expanding
# the bracket tower gives p3*Det(2,4), and only that version matches
_CORRECTED_9 = (
    "-(b-1)*Det(2,4)*Det(3,4)*(p3*Det(2,4)+b*(p4*Det(1,4)-p2*Det(3,4)))")

CORRECTED_FORMULAS = {
    9: (lambda: _parse_formula(_CORRECTED_9), _CORRECTED_9),
}


def elc_formula_check(n):
    """Does the computed E-l-C equal the transcribed closed form?"""
    return elc_formula_report(n)["match"]


def elc_formula_report(n):
    computed = elc(class_type(n), PlanePair.symbolic()).value
    want = transcribed_formula(n)
    report = {
        "id": n,
        "match": (computed - want).is_zero(),
        "computed": str(computed),
        "transcribed": FORMULA_STRINGS[n],
    }
    if not report["match"] and n in CORRECTED_FORMULAS:
        builder, text = CORRECTED_FORMULAS[n]
        if (computed - builder()).is_zero():
            report["corrected"] = text
    return report


# ---------------------------------------------------------------------------
# witness planes

# (p, q) giving an Engel-like structure for each fixed algebra, under the
# genericity conditions listed next to the parametric ones.
WITNESSES = {
    1: ((0, 0, 0, 1), (0, 0, 1, 0)),
    2: ((0, 0, 0, 1), (1, 0, 1, 0)),
    3: ((0, 0, 0, 1), (1, 0, 1, 0)),
    4: ((0, 0, 0, 1), (0, 0, 1, 0)),
    5: ((0, 0, 0, 1), (1, 0, 1, 0)),
    6: ((0, 0, 0, 1), (1, 1, 1, 0)),
    7: ((0, 0, 1, 1), (0, 0, 0, 1)),
    8: ((0, 0, 0, 1), (1, 1, 1, 0)),
    9: ((1, 1, 1, 1), (0, 0, 0, 1)),
    10: ((0, 0, 0, 1), (1, 0, 1, 0)),
    11: ((0, 0, 1, 0), (0, 0, 0, 1)),
    12: ((0, 1, 0, 1), (0, 1, 1, 0)),
}

# the tabulated plane for algebra 5 lies inside the subalgebra
# span(y1, y3, y4), whose brackets never produce y2, so its quadruple
# wedge vanishes identically; this replacement plane has E-l-C
# -(a-1)(b-1)(a-b) and works on the whole admissible locus
WITNESS_CORRECTIONS = {
    5: ((0, 0, 0, 1), (1, 1, 1, 0)),
}

# the witness claim excludes these parameter loci ("no structure" there)
GENERIC_CONDITIONS = {
    2: ("a - 1",),
    5: ("a - 1", "b - 1", "a - b"),
    9: ("b - 1",),
}


def _plane_flags(algebra, plane):
    """(triple independent, quadruple independent) for fully numeric data."""
    _, u, v, t, s, _ = _integer_tower(algebra, plane)
    return (len(echelon([u, v, t])[1]) == 3,
            len(echelon([u, v, t, s])[1]) == 4)


def verify_witness(n, p, q, params=None):
    """Is span(w1, w2) an Engel-like plane for fixed algebra n?

    A numeric point is checked exactly.  Free parameters are proven
    generically: the E-l-C over them must be a nonzero polynomial, so
    nonzero on a dense open part of the admissible locus (every type's
    has interior), and w1^w2^w3^w4 != 0 makes w1, w2, w3 independent.
    """
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    algebra = class_type(n, **params)
    plane = PlanePair(p, q)
    if not algebra.params:
        triple, quad = _plane_flags(algebra, plane)
        return triple and quad
    _over_lcd(plane.p + plane.q)  # raises MissingParameter if symbolic
    return not elc(algebra, plane).is_zero()


# ---------------------------------------------------------------------------
# flag dimensions of a candidate plane


def engel_flag_check(algebra, plane, assignment=None):
    """(dim D2, dim D3) for D2 = D + [D,D], D3 = D2 + [D2,D2], ranked on
    the integer tower; raises MissingParameter unless the algebra (after
    `assignment`) and the plane are numeric."""
    if assignment:
        algebra = algebra.specialize(assignment)
    K, u, v, t, s, _ = _integer_tower(algebra, plane)
    # [D2, D2] is spanned by [w1, w2] = w3, [w1, w3] and [w2, w3]
    return (len(echelon([u, v, t])[1]),
            len(echelon([u, v, t, s, _bracket(K, v, t)])[1]))


# ---------------------------------------------------------------------------
# characteristic foliation


class Foliation:
    """Solution set of [span(alpha y1 + beta y2), D2] in D2.

    kind is "plane" (every direction works), "line" (a single direction,
    stored in `direction` as a cleared coefficient pair), or "point"
    (only the zero vector; does not occur for the catalogued families).
    """

    __slots__ = ("algebra_label", "kind", "direction", "conditions", "note")

    def __init__(self, algebra_label, kind, direction, conditions, note=None):
        self.algebra_label = algebra_label
        self.kind = kind
        self.direction = direction
        self.conditions = conditions
        self.note = note

    def describe(self):
        if self.kind == "plane":
            return "all lines alpha*y1 + beta*y2"
        if self.kind == "point":
            return "no nonzero direction"
        return f"span({render_sum(zip(self.direction, ('y1', 'y2')), '*')})"

    def to_json(self):
        out = {
            "algebra": self.algebra_label,
            "kind": self.kind,
            "solution": self.describe(),
            "conditions": [[str(u), str(v)] for u, v in self.conditions],
        }
        if self.direction is not None:
            out["direction"] = [str(x) for x in self.direction]
        if self.note:
            out["note"] = self.note
        return out


def render_sum(terms, sep):
    """The sum of coeff<sep>name over (coeff, name) pairs, zero terms
    left out: a coefficient 1 or -1 prints as the bare name, one with
    spaces in parentheses, and a negative term as a subtraction."""
    parts = []
    for coeff, name in terms:
        if coeff.is_zero():
            continue
        s = str(coeff)
        if s == "1":
            parts.append(name)
        elif s == "-1":
            parts.append(f"-{name}")
        elif " " in s:
            parts.append(f"({s}){sep}{name}")
        else:
            parts.append(f"{s}{sep}{name}")
    if not parts:
        return "0"
    rendered = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            rendered += f" - {part[1:]}"
        else:
            rendered += f" + {part}"
    return rendered


def _clear_pair(u, v):
    m = u.split()[1] * v.split()[1]
    return u * m, v * m


def characteristic_foliation(algebra):
    """Directions alpha y1 + beta y2 with [direction, D2] inside D2,
    for D2 = span(y1, y2, y3)."""
    conditions = []
    for j in (1, 2, 3):
        A = algebra.structure_constant(1, j, 4)
        B = algebra.structure_constant(2, j, 4)
        if A.is_zero() and B.is_zero():
            continue
        conditions.append((A, B))
    note = None
    if not conditions:
        return Foliation(algebra.label, "plane", None, [], note)
    rank = 1
    A0, B0 = conditions[0]
    for A, B in conditions[1:]:
        if not (A0 * B - A * B0).is_zero():
            rank = 2
            break
    if rank == 2:
        return Foliation(algebra.label, "point", None, conditions, note)
    direction = _clear_pair(B0, -A0)
    if not any(x.is_constant() and not x.is_zero() for x in direction):
        note = ("direction has no parameter-free closed form; the "
                "coefficients depend on the family parameters")
    return Foliation(algebra.label, "line", direction, conditions, note)


def foliation_containment(algebra, direction):
    """Re-check [span(direction), D2] in D2 by direct substitution."""
    a, b = direction
    v = Vector4((a, b, 0, 0))
    return all(algebra.bracket(v, Vector4.basis(j)).coeff(4).is_zero()
               for j in (1, 2, 3))
